"""Dataset ingestion: seeded synthetic shape images, STL-10 binary files,
and PPM/PBM single-image I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError

STL10_IMAGE_BYTES = 96 * 96 * 3  # 27648
SHAPE_NAMES = ("disk", "square", "triangle", "cross")


@dataclass
class SyntheticExample:
    image: np.ndarray  # (3, H, W) in [0, 1]
    label: int | None  # None for an unlabeled image (the CLI's stl10_binary source)
    fg_mask: np.ndarray  # (H, W) ground-truth foreground support


def _shape_support(kind, size, rng):
    h = w = size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy = h / 2 + rng.uniform(-h * 0.08, h * 0.08)
    cx = w / 2 + rng.uniform(-w * 0.08, w * 0.08)
    r = size * rng.uniform(0.28, 0.38)
    if kind == "disk":
        return ((yy - cy) ** 2 + (xx - cx) ** 2) <= r * r
    if kind == "square":
        return (np.abs(yy - cy) <= r * 0.9) & (np.abs(xx - cx) <= r * 0.9)
    if kind == "triangle":
        # upright triangle: apex at cy-r, base at cy+r
        frac = np.clip((yy - (cy - r)) / (2 * r), 0, 1)
        return (np.abs(xx - cx) <= frac * r) & (yy >= cy - r) & (yy <= cy + r)
    if kind == "cross":
        arm = r * 0.45
        return ((np.abs(yy - cy) <= arm) & (np.abs(xx - cx) <= r)) | (
            (np.abs(xx - cx) <= arm) & (np.abs(yy - cy) <= r)
        )
    raise ValueError(f"unknown shape kind {kind!r}")


def make_synthetic_example(label, size, rng):
    """One shape image: shaded foreground over a textured background."""
    if not 0 <= label < len(SHAPE_NAMES):
        raise ValueError(f"label must lie in [0, {len(SHAPE_NAMES)}), got {label}")
    kind = SHAPE_NAMES[label]
    h = w = size
    support = _shape_support(kind, size, rng)

    bg_base = rng.uniform(0.05, 0.30, size=3)
    texture = rng.normal(0.0, 0.035, size=(3, h, w))
    image = bg_base[:, None, None] + texture

    # Foreground: a shared diagonal shading field (a scene-level property,
    # identical across images) under a small per-image color jitter.
    fg_base = np.array([0.66, 0.58, 0.50]) + rng.uniform(-0.03, 0.03, size=3)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    ramp = (yy + xx) / size - 1.0
    shading = 0.35 * ramp
    fg = fg_base[:, None, None] + shading[None]
    image = np.where(support[None], fg, image)
    return SyntheticExample(
        image=np.clip(image, 0.0, 1.0),
        label=label,
        fg_mask=support.astype(np.float64),
    )


def synthetic_dataset(num_classes, per_class, size, seed):
    """Deterministic list of SyntheticExamples, classes interleaved; one shape per class."""
    if not 1 <= num_classes <= len(SHAPE_NAMES):
        raise ValueError(f"num_classes must lie in [1, {len(SHAPE_NAMES)}], got {num_classes}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(per_class):
        for label in range(num_classes):
            out.append(make_synthetic_example(label, size, rng))
    return out


def load_stl10_binary(path, limit):
    """The first `limit` images of an STL-10 binary file (channel-major, column-major planes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob:
        raise DatasetFormatError(f"STL-10 file {path} is empty")
    if len(blob) % STL10_IMAGE_BYTES:
        raise DatasetFormatError(
            "STL-10 file length is not a multiple of the 27648-byte record",
            offset=(len(blob) // STL10_IMAGE_BYTES) * STL10_IMAGE_BYTES,
        )
    count = min(len(blob) // STL10_IMAGE_BYTES, limit)
    records = np.frombuffer(blob, dtype=np.uint8, count=count * STL10_IMAGE_BYTES)
    # within each channel the 96x96 plane is stored column-major
    return list(records.reshape(count, 3, 96, 96).transpose(0, 1, 3, 2) / 255.0)


def _read_token(blob, pos):
    """The next whitespace-delimited header token, skipping any number of '#' comments."""
    while True:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] != b"#":
            break
        while pos < len(blob) and blob[pos : pos + 1] != b"\n":
            pos += 1
    start = pos
    while pos < len(blob) and not blob[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DatasetFormatError("unexpected end of PPM header", offset=start)
    return blob[start:pos], pos


def read_ppm(path):
    """Binary PPM (P6, maxval 255) -> (3, H, W) floats in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    token, pos = _read_token(blob, 0)
    if token != b"P6":
        raise DatasetFormatError(f"not a P6 PPM (magic {token!r})", offset=0)
    fields = []
    for what in ("width", "height", "maxval"):
        token, pos = _read_token(blob, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise DatasetFormatError(f"PPM {what} {token!r} is not an integer",
                                     offset=pos - len(token)) from None
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise DatasetFormatError(f"PPM extents {w}x{h} must be at least 1x1", offset=pos)
    if maxval != 255:
        raise DatasetFormatError(f"unsupported maxval {maxval}", offset=pos)
    pos += 1  # single whitespace after maxval
    need = w * h * 3
    if len(blob) - pos < need:
        raise DatasetFormatError("truncated PPM pixel data", offset=len(blob))
    pixels = np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos)
    return pixels.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def write_ppm(path, image):
    image = np.asarray(image)
    _, h, w = image.shape
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.transpose(1, 2, 0).tobytes())
