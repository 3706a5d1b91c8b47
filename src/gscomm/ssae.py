"""Semantic autoencoder: CNN encoder/decoder around a sigmoid-bounded,
N-bit-quantized latent, plus the patch refinement path (selection by
attention weight and reconstruction error, K-means palette, RLE)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import CorruptFrameError
from .vit import patchify


@dataclass
class SSAEConfig:
    latent_channels: int = 4  # C_o
    downs: int = 3  # D
    bits: int = 8  # N
    stem_channels: int = 32

    def __post_init__(self):
        if not 1 <= self.bits <= 16:
            raise ValueError("bits must lie in [1, 16]")
        if self.downs < 0 or self.latent_channels < 1:
            raise ValueError("invalid channel/downs configuration")
        if self.stem_channels < 1:
            raise ValueError(f"stem_channels must be at least 1, got {self.stem_channels}")

    @property
    def compression_ratio(self):
        return Fraction(self.latent_channels, 4**self.downs * 3)

    def latent_shape(self, img_h, img_w):
        f = 2**self.downs
        if img_h % f or img_w % f:
            raise ValueError(f"extents {img_h}x{img_w} not divisible by 2^{self.downs}")
        return (self.latent_channels, img_h // f, img_w // f)


@dataclass
class QuantizedLatent:
    levels: np.ndarray  # integer levels in [0, 2^N - 1]
    bits: int


def quantize(values, bits):
    """Map [0,1] reals to N-bit integer levels (round-to-nearest)."""
    scale = (1 << bits) - 1
    levels = np.rint(np.asarray(values, dtype=np.float64) * scale).astype(np.int64)
    return QuantizedLatent(levels=np.clip(levels, 0, scale), bits=bits)


def dequantize(quantized):
    scale = (1 << quantized.bits) - 1
    if quantized.levels.min() < 0 or quantized.levels.max() > scale:
        raise CorruptFrameError(f"quantized level out of range for {quantized.bits} bits")
    return quantized.levels.astype(np.float64) / scale


def init_ssae_params(config, rng):
    s, c_o = config.stem_channels, config.latent_channels
    layers = [
        ("enc.stem", s, 3), *((f"enc.down{d}", s, s) for d in range(config.downs)),
        ("enc.out", c_o, s),
        ("dec.in", s, c_o), *((f"dec.up{d}", s, s) for d in range(config.downs)),
        ("dec.out", 3, s),
    ]
    p = {}
    for name, c_out, c_in in layers:
        scale = np.sqrt(2.0 / (c_in * 9))
        p[name + ".k"] = Parameter(rng.normal(0, scale, (c_out, c_in, 3, 3)))
        p[name + ".b"] = Parameter(np.zeros(c_out))
    # each block (every conv but the two output heads) has its batchnorm's running stats
    for name, c_out, _ in layers:
        if not name.endswith(".out"):
            p["bn." + name] = Parameter(np.stack([np.zeros(c_out), np.ones(c_out)]),
                                        learnable=False)
    return p


class SSAE:
    """Encoder/decoder pair; encode and decode treat the axes before (C, H, W) as batch axes."""

    def __init__(self, config, rng=None):
        self.config = config
        if rng is None:
            rng = np.random.default_rng(0)
        self.params = init_ssae_params(config, rng)

    def _conv(self, x, name):
        x = ad.conv2d(x, self.params[name + ".k"], stride=1, padding=1)
        return x + self.params[name + ".b"].reshape(-1, 1, 1)

    def _block(self, x, name, training):
        stats = self.params["bn." + name].data
        return ad.relu(ad.batchnorm(self._conv(x, name), stats, training))

    def encode(self, image, training=False):
        """Image(s) -> latent Tensor in [0,1]."""
        x = image if isinstance(image, Tensor) else Tensor(image)
        h, w = x.data.shape[-2:]
        self.config.latent_shape(h, w)  # validates divisibility
        x = self._block(x, "enc.stem", training)
        for d in range(self.config.downs):
            x = self._block(ad.maxpool2(x), f"enc.down{d}", training)
        return ad.sigmoid(self._conv(x, "enc.out"))

    def encode_quantize(self, image):
        """Inference path: encode and quantize one image."""
        latent = self.encode(image, training=False).data
        return latent, quantize(latent, self.config.bits)

    def decode_latent(self, latent, training=False):
        """Latent Tensor/array -> reconstructed image Tensor in [0,1]."""
        x = latent if isinstance(latent, Tensor) else Tensor(latent)
        x = self._block(x, "dec.in", training)
        for d in range(self.config.downs):
            x = self._block(ad.upsample_nearest2(x), f"dec.up{d}", training)
        return ad.sigmoid(self._conv(x, "dec.out"))

    def decode(self, quantized):
        """Receiver path: dequantize and decode one QuantizedLatent."""
        return self.decode_latent(dequantize(quantized), training=False).data

    def train_step(self, images, masks3, lr):
        """One step on a batch of (image, 3-channel mask) pairs.

        Encoder and decoder are connected directly (no quantization, no
        channel); loss is the mean masked Frobenius norm of the residual.
        """
        batch = np.stack([np.asarray(im, dtype=np.float64) for im in images])
        masks = np.stack([np.asarray(m3, dtype=np.float64) for m3 in masks3])
        if masks.shape != batch.shape:
            raise ValueError(f"masks {masks.shape} do not match images {batch.shape}")
        latent = self.encode(Tensor(batch), training=True)
        recon = self.decode_latent(latent, training=True)
        loss = ad.masked_frobenius_norm(Tensor(batch) - recon, masks).mean()
        loss.backward()
        ad.sgd_step(self.params.values(), lr)
        ad.zero_grads(self.params.values())
        return loss.item()


# ---------------------------------------------------------------------------
# K-means palette
# ---------------------------------------------------------------------------


def _sq_distances(chans, centers, diff=None, out=None):
    """(n, F) squared distances from (3, n) channel-major pixels to (F, 3) centres.

    The channels add as c0 + c1, then + c2, the order `.sum(axis=0)` takes.
    `diff` ([3, n, F]) and `out` ([n, F]) are optional work buffers.
    """
    diff = np.subtract(chans[:, :, None], centers.T[:, None, :], out=diff)
    np.square(diff, out=diff)
    out = np.add(diff[0], diff[1], out=out)
    return np.add(out, diff[2], out=out)


def kmeans_palette(pixels, num_colors, seed, return_inertia=False):
    """Lloyd's algorithm with seeded k-means++-style initialisation.

    Returns (centers, assignments) and optionally the per-iteration inertia
    history. Empty clusters are re-seeded to the farthest pixel.
    """
    pixels = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    n = pixels.shape[0]
    if n < 1 or num_colors < 1:
        raise ValueError("need at least one pixel and one cluster")
    chans = np.ascontiguousarray(pixels.T)  # (3, n), whatever the input layout

    rng = np.random.default_rng(seed)
    centers = np.empty((num_colors, 3))
    centers[0] = pixels[rng.integers(n)]
    d2 = ((chans - centers[0][:, None]) ** 2).sum(axis=0)
    for i in range(1, num_colors):
        total = d2.sum()
        if total <= 0:
            centers[i] = pixels[rng.integers(n)]
        else:
            centers[i] = pixels[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((chans - centers[i][:, None]) ** 2).sum(axis=0))

    # a draw with total > 0 picks a colour not yet seeded, so at most F distinct colours
    # leave d2 all zero (as do two colours closer than about 1e-154, hence the count)
    if not d2.any():
        uniq = np.unique(pixels, axis=0)
        if uniq.shape[0] <= num_colors:
            centers = np.vstack([uniq, np.repeat(uniq[-1:], num_colors - uniq.shape[0], axis=0)])
            assign = _sq_distances(chans, centers).argmin(axis=1)
            if return_inertia:
                return centers, assign, [0.0]
            return centers, assign

    assign = None
    history = []
    rows = np.arange(n)
    diff, d = np.empty((3, n, num_colors)), np.empty((n, num_colors))
    offsets = (num_colors * np.arange(3))[:, None]  # bin k + F*c sums channel c of cluster k
    for _ in range(50):
        _sq_distances(chans, centers, diff, d)
        new_assign = d.argmin(axis=1)
        if return_inertia:
            history.append(float(d[rows, new_assign].sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # bincount adds members in pixel order: the same floats as each cluster's mean
        counts = np.bincount(assign, minlength=num_colors)
        sums = np.bincount((assign + offsets).ravel(), weights=chans.ravel(),
                           minlength=3 * num_colors).reshape(3, num_colors)
        if counts.all():
            centers[:] = (sums / counts).T
        else:
            full = counts > 0
            centers[full] = (sums[:, full] / counts[full]).T
            centers[~full] = pixels[d[rows, assign].argmax()]
    if return_inertia:
        return centers, assign, history
    return centers, assign


# ---------------------------------------------------------------------------
# Run-length coding of palette indices
# ---------------------------------------------------------------------------


def _index_bits(num_colors):
    return max(1, int(np.ceil(np.log2(num_colors))))


def rle_encode(indices, num_colors, run_bits):
    """Encode an index stream as (index, run-1) records; returns a 0/1 bit array.

    Each record is ceil(log2 F) index bits followed by `run_bits` bits storing
    run-1, so the maximum run is 2^run_bits.
    """
    if not 1 <= run_bits <= 8:
        raise ValueError("run_bits must lie in [1, 8]")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= num_colors):
        raise ValueError("index out of palette range")
    ib = _index_bits(num_colors)
    max_run = 1 << run_bits
    starts = np.flatnonzero(np.diff(indices, prepend=-1))
    lengths = np.diff(starts, append=indices.size)
    # a run longer than max_run becomes full records then one remainder record
    pieces = -(-lengths // max_run)
    last = np.cumsum(pieces) - 1
    runs = np.full(pieces.sum(), max_run)
    runs[last] = lengths - max_run * (pieces - 1)
    values = np.repeat(indices[starts], pieces)
    fields = np.hstack([
        values[:, None] >> np.arange(ib - 1, -1, -1),
        (runs - 1)[:, None] >> np.arange(run_bits - 1, -1, -1),
    ])
    return (fields & 1).astype(np.uint8).ravel()


def rle_decode(bits, count, num_colors, run_bits):
    """Decode exactly `count` indices; raises CorruptFrameError on mismatch."""
    bits = np.asarray(bits, dtype=np.uint8)
    ib = _index_bits(num_colors)
    rec = ib + run_bits
    out = np.empty(count, dtype=np.int64)
    if count == 0:
        return out
    # float64 fields are exact below 2^53, and any larger run overflows the count
    fields = bits[: bits.size // rec * rec].reshape(-1, rec)
    values = fields[:, :ib] @ 2.0 ** np.arange(ib - 1, -1, -1)
    runs = fields[:, ib:] @ 2.0 ** np.arange(run_bits - 1, -1, -1) + 1  # field stores run-1
    ends = np.cumsum(runs)
    stops = np.flatnonzero((values >= num_colors) | (ends >= count))
    if stops.size == 0:
        raise CorruptFrameError("RLE stream exhausted before index count reached")
    last = stops[0]
    if values[last] >= num_colors:
        raise CorruptFrameError(f"palette index {int(values[last])} >= {num_colors}")
    if ends[last] > count:
        raise CorruptFrameError("RLE run overflows declared index count")
    out[:] = np.repeat(values[: last + 1].astype(np.int64), runs[: last + 1].astype(np.int64))
    return out


# ---------------------------------------------------------------------------
# Refinement planning
# ---------------------------------------------------------------------------


@dataclass
class RefinementPlan:
    """The refinement fields a frame carries."""

    t_prime: int
    flags: np.ndarray  # (T,) uint8
    palette: np.ndarray  # (F, 3) uint8
    run_bits: int  # L
    rle_bits: np.ndarray  # 0/1 uint8 array
    patch_size: int

    @property
    def palette_size(self):  # F
        return self.palette.shape[0]

    @classmethod
    def empty(cls, num_patches, palette_size, run_bits, patch_size):
        return cls(
            t_prime=0,
            flags=np.zeros(num_patches, dtype=np.uint8),
            palette=np.zeros((palette_size, 3), dtype=np.uint8),
            run_bits=run_bits,
            rle_bits=np.zeros(0, dtype=np.uint8),
            patch_size=patch_size,
        )


def plan_refinement(image, reconstruction, mask, psi, eta, palette_size, run_bits,
                    seed=0):
    """Select refinement patches, build the palette, and RLE-code the indices."""
    # the frame header stores F as a u8
    if not 2 <= palette_size <= 255:
        raise ValueError("palette size must lie in [2, 255]")
    if not 1 <= run_bits <= 8:
        raise ValueError("run-length field width must lie in [1, 8]")
    if not 0 <= eta <= 1:
        raise ValueError("refinement ratio must lie in [0, 1]")

    weights = mask.patch_weights
    t = weights.size
    patch_size = image.shape[1] // weights.shape[-2]

    selected = np.flatnonzero(weights > psi)
    m_sel = selected.size
    t_prime = int(np.floor(eta * m_sel + 0.5))
    if t_prime == 0:
        return RefinementPlan.empty(t, palette_size, run_bits, patch_size)

    image = np.asarray(image, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    img_patches = patchify(image, patch_size)
    rec_patches = patchify(reconstruction, patch_size)
    errors = ((img_patches[selected] - rec_patches[selected]) ** 2).sum(axis=1)
    # largest error first; `selected` ascends, so a stable sort breaks ties by patch index
    order = np.argsort(-errors, kind="stable")
    refined = np.sort(selected[order[:t_prime]])

    flags = np.zeros(t, dtype=np.uint8)
    flags[refined] = 1

    # (n, 3) pixels, patch by patch in raster order
    pixels = img_patches[refined].reshape(-1, 3, patch_size**2).transpose(0, 2, 1).reshape(-1, 3)
    centers, _ = kmeans_palette(pixels, palette_size, seed)
    palette = np.clip(np.rint(centers * 255.0), 0, 255).astype(np.uint8)
    # assign against the byte-quantized palette so receiver-side fills are exact
    indices = _sq_distances(pixels.T * 255.0, palette.astype(np.float64)).argmin(axis=1)
    rle_bits = rle_encode(indices, palette_size, run_bits)
    return RefinementPlan(t_prime=t_prime, flags=flags, palette=palette, run_bits=run_bits,
                          rle_bits=rle_bits, patch_size=patch_size)


def apply_refinement(reconstruction, plan):
    """Overwrite flagged patches with their palette colors; others untouched."""
    out = np.asarray(reconstruction, dtype=np.float64).copy()
    if plan.t_prime == 0:
        return out
    p = plan.patch_size
    count = plan.t_prime * p * p
    indices = rle_decode(plan.rle_bits, count, plan.palette_size, plan.run_bits)
    colors = plan.palette.astype(np.float64) / 255.0
    _, h, w = out.shape
    gw = w // p
    pos = 0
    for patch_index in np.flatnonzero(plan.flags):
        gi, gj = divmod(int(patch_index), gw)
        block = colors[indices[pos : pos + p * p]].reshape(p, p, 3).transpose(2, 0, 1)
        out[:, gi * p : (gi + 1) * p, gj * p : (gj + 1) * p] = block
        pos += p * p
    return out
