"""Bit-exact `.gscf` frame container.

Layout: magic "GSCF" | version u8=1 | H u16 | W u16 | P u8 | C_o u8 | D u8 |
N u8 | refine_flag u8 | F u8 | L u8 | T' u16 | reserved u16=0 (20-byte header,
little-endian), then the latent section (N-bit levels, MSB-first, raster
order), the T-bit flag section, and, iff refine_flag is set, the refinement
section (F*3 palette bytes, u16 RLE bit count, RLE bits). Every section is
zero-padded to a byte boundary.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CorruptFrameError, UnsupportedFormatError
from .ssae import QuantizedLatent, RefinementPlan

MAGIC = b"GSCF"
VERSION = 1
_HEADER = struct.Struct("<4sBHHBBBBBBBHH")
HEADER_BYTES = _HEADER.size  # 20


def bytes_to_bits(data):
    return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))


def bits_to_bytes(bits):
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def _levels_to_bits(levels, n):
    flat = np.asarray(levels, dtype=np.int64).reshape(-1)
    shifts = np.arange(n - 1, -1, -1)
    return ((flat[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def _bits_to_levels(bits, count, n):
    shifts = np.arange(n - 1, -1, -1)
    return (bits[: count * n].reshape(count, n).astype(np.int64) << shifts).sum(axis=1)


def _section_sizes(img_h, img_w, patch_size, c_o, downs, n_bits):
    """(T, latent level count, latent bytes, flag bytes) that the header fields give."""
    t = (img_h // patch_size) * (img_w // patch_size)
    latent_count = c_o * (img_h >> downs) * (img_w >> downs)
    return t, latent_count, (latent_count * n_bits + 7) // 8, (t + 7) // 8


def serialize_frame(quantized, plan, config, dims):
    """Pack (quantized latent, refinement plan) into a frame byte string.

    Raises ValueError, naming the field, for any header field or RLE bit count
    that its u8/u16 slot cannot hold.
    """
    img_h, img_w, patch_size = dims
    geometry = (config.latent_channels, config.downs, config.bits)
    # N needs no check here: SSAEConfig holds it to [1, 16]
    for name, value, limit in (
        ("H", img_h, 0xFFFF), ("W", img_w, 0xFFFF), ("P", patch_size, 0xFF),
        ("C_o", geometry[0], 0xFF), ("D", geometry[1], 0xFF),
        ("F", plan.palette_size, 0xFF), ("L", plan.run_bits, 0xFF), ("T'", plan.t_prime, 0xFFFF),
        ("RLE bit count", plan.rle_bits.size, 0xFFFF),
    ):
        if not 0 <= value <= limit:
            raise ValueError(
                f"{name} = {value} does not fit its {limit.bit_length()}-bit frame field"
            )
    # the geometry parse_frame demands, checked before _section_sizes divides by P
    if patch_size < 1 or img_h % patch_size or img_w % patch_size:
        raise ValueError(f"P = {patch_size} must be at least 1 and divide H = {img_h} "
                         f"and W = {img_w}")
    t = _section_sizes(*dims, *geometry)[0]
    if plan.flags.size != t:
        raise ValueError(f"flag count {plan.flags.size} does not match T={t}")
    latent_shape = config.latent_shape(img_h, img_w)
    if tuple(quantized.levels.shape) != latent_shape:
        raise ValueError(
            f"latent shape {quantized.levels.shape} does not match config {latent_shape}"
        )
    if quantized.bits != config.bits:
        raise ValueError("quantizer bit depth does not match config")

    refine = plan.t_prime > 0
    header = _HEADER.pack(
        MAGIC, VERSION, *dims, *geometry, 1 if refine else 0,
        plan.palette_size, plan.run_bits, plan.t_prime, 0,
    )
    parts = [header, bits_to_bytes(_levels_to_bits(quantized.levels, config.bits))]
    parts.append(bits_to_bytes(plan.flags))
    if refine:
        parts.append(plan.palette.astype(np.uint8).tobytes())
        parts.append(struct.pack("<H", int(plan.rle_bits.size)))
        parts.append(bits_to_bytes(plan.rle_bits))
    return b"".join(parts)


def parse_frame(data):
    """Unpack a frame: the inverse of `serialize_frame`, returning its
    (QuantizedLatent, RefinementPlan, dims), with dims = (H, W, P)."""
    data = bytes(data)
    if len(data) < HEADER_BYTES:
        raise CorruptFrameError("frame shorter than fixed header")
    magic, version, img_h, img_w, patch_size, c_o, downs, n_bits, refine, f_pal, l_run, t_prime, _ = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise UnsupportedFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedFormatError(f"unsupported version {version}")
    if patch_size == 0 or img_h % patch_size or img_w % patch_size:
        raise CorruptFrameError("patch size inconsistent with image extents")
    if c_o < 1 or not 1 <= n_bits <= 16 or img_h % (1 << downs) or img_w % (1 << downs):
        raise CorruptFrameError("inconsistent latent geometry fields")

    t, latent_count, latent_bytes, flag_bytes = _section_sizes(
        img_h, img_w, patch_size, c_o, downs, n_bits
    )
    pos = HEADER_BYTES
    if len(data) < pos + latent_bytes + flag_bytes:
        raise CorruptFrameError("truncated latent/flag sections")
    levels = _bits_to_levels(
        bytes_to_bits(data[pos : pos + latent_bytes]), latent_count, n_bits
    ).reshape(c_o, img_h >> downs, img_w >> downs)
    pos += latent_bytes
    flags = bytes_to_bits(data[pos : pos + flag_bytes])[:t]
    pos += flag_bytes

    if refine:
        pal_bytes = f_pal * 3
        if len(data) < pos + pal_bytes + 2:
            raise CorruptFrameError("truncated refinement section")
        palette = np.frombuffer(data[pos : pos + pal_bytes], dtype=np.uint8).reshape(f_pal, 3)
        pos += pal_bytes
        (rle_count,) = struct.unpack_from("<H", data, pos)
        pos += 2
        rle_bytes = (rle_count + 7) // 8
        if len(data) < pos + rle_bytes:
            raise CorruptFrameError("declared RLE bit count exceeds remaining bytes")
        rle_bits = bytes_to_bits(data[pos : pos + rle_bytes])[:rle_count]
    else:
        palette = np.zeros((f_pal, 3), dtype=np.uint8)
        rle_bits = np.zeros(0, dtype=np.uint8)

    plan = RefinementPlan(t_prime=t_prime, flags=flags, palette=palette.copy(), run_bits=l_run,
                          rle_bits=rle_bits, patch_size=patch_size)
    return QuantizedLatent(levels=levels, bits=n_bits), plan, (img_h, img_w, patch_size)


def frame_size_bits(config, dims, plan=None):
    """Closed-form serialized size in bits (equals 8 * len(serialize_frame))."""
    _, _, latent_bytes, flag_bytes = _section_sizes(
        *dims, config.latent_channels, config.downs, config.bits
    )
    total = HEADER_BYTES + latent_bytes + flag_bytes
    if plan is not None and plan.t_prime > 0:
        total += plan.palette_size * 3 + 2 + (plan.rle_bits.size + 7) // 8
    return total * 8
