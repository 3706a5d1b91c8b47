"""CLS-attention foreground masking: per-head attention maps, binarization,
head-sum, bilinear upsampling (``bilinear_resize``), and mask application."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FINAL_THRESHOLD = 0.5  # applied to the upsampled head-sum


@dataclass
class SemanticMask:
    mask: np.ndarray  # (..., H, W) in {0, 1}
    patch_weights: np.ndarray  # (..., H/P, W/P) head-summed raw attention per patch

    @property
    def mask3(self):
        """Read-only (..., 3, H, W) view in which every channel is `mask`."""
        return np.broadcast_to(self.mask[..., None, :, :],
                               (*self.mask.shape[:-2], 3, *self.mask.shape[-2:]))


def cls_attention_maps(attention, config):
    """Row 0, columns 1..T of each head's (T+1)x(T+1) attention, as (heads, H/P, W/P)
    maps; leading axes of [..., heads, T+1, T+1] are batch axes."""
    if attention.shape[-3] != config.heads:
        raise ValueError(
            f"expected {config.heads} attention heads, got {attention.shape[-3]}"
        )
    return attention[..., 0, 1:].reshape(*attention.shape[:-2], *config.grid)


def bilinear_resize(grid, target):
    """Corner-aligned bilinear interpolation of the last two axes to (H, W). Plain numpy."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape[-2:]
    H, W = target
    if min(h, w, H, W) < 1:
        raise ValueError("extents must be >= 1")
    ys = np.linspace(0.0, h - 1.0, H)
    xs = np.linspace(0.0, w - 1.0, W)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y0, y1 = y0[:, None], y1[:, None]
    return (
        grid[..., y0, x0] * (1 - fy) * (1 - fx)
        + grid[..., y0, x1] * (1 - fy) * fx
        + grid[..., y1, x0] * fy * (1 - fx)
        + grid[..., y1, x1] * fy * fx
    )


def build_semantic_mask(maps, rho, target):
    """Binarize [..., heads, H/P, W/P] maps at rho, sum over heads, upsample, threshold."""
    h, w = target
    binarized = (maps > rho).astype(np.float64)
    summed = binarized.sum(axis=-3)
    upsampled = bilinear_resize(summed, (h, w))
    mask = (upsampled > FINAL_THRESHOLD).astype(np.float64)
    return SemanticMask(mask=mask, patch_weights=maps.sum(axis=-3))


def apply_mask(image, mask):
    """Hadamard product with the 3-channel mask; masked-out pixels become 0."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != mask.mask3.shape:
        raise ValueError(f"image shape {image.shape} vs mask shape {mask.mask3.shape}")
    return image * mask.mask3


def write_pbm(path, mask2d):
    """Export a binary mask as plain-text PBM (P1)."""
    bits = np.where(np.asarray(mask2d) > 0.5, "1", "0")
    h, w = bits.shape
    with open(path, "w") as fh:
        fh.write(f"P1\n{w} {h}\n" + "".join(" ".join(row) + "\n" for row in bits))
