"""CLS-attention foreground masking: per-head attention maps, binarization,
head-sum, bilinear upsampling, and mask application."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import bilinear_resize


@dataclass
class MaskParams:
    rho: float = 2e-3  # per-head binarization threshold
    final_threshold: float = 0.5  # applied to the upsampled head-sum

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if not 0 < self.final_threshold <= 1:
            raise ValueError("final_threshold must lie in (0, 1]")


@dataclass
class SemanticMask:
    mask: np.ndarray  # (..., H, W) in {0, 1}
    mask3: np.ndarray  # (..., 3, H, W), every channel equals mask
    patch_weights: np.ndarray  # (..., T) head-summed raw attention per patch
    patch_grid: tuple  # (H/P, W/P)


def cls_attention_maps(attention, config):
    """Row 0, columns 1..T of each head's (T+1)x(T+1) attention, as (heads, H/P, W/P)
    maps; leading axes of [..., heads, T+1, T+1] are batch axes."""
    if attention.shape[-3] != config.heads:
        raise ValueError(
            f"expected {config.heads} attention heads, got {attention.shape[-3]}"
        )
    return attention[..., 0, 1:].reshape(*attention.shape[:-2], *config.grid)


def build_semantic_mask(maps, params, target):
    """Binarize [..., heads, H/P, W/P] maps at rho, sum over heads, upsample, threshold."""
    h, w = target
    binarized = (maps > params.rho).astype(np.float64)
    summed = binarized.sum(axis=-3)
    upsampled = bilinear_resize(summed, (h, w))
    mask = (upsampled > params.final_threshold).astype(np.float64)
    patch_weights = maps.sum(axis=-3).reshape(*maps.shape[:-3], -1)
    return SemanticMask(
        mask=mask,
        mask3=np.broadcast_to(mask[..., None, :, :], (*mask.shape[:-2], 3, h, w)).copy(),
        patch_weights=patch_weights,
        patch_grid=maps.shape[-2:],
    )


def apply_mask(image, mask):
    """Hadamard product with the 3-channel mask; masked-out pixels become 0."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != mask.mask3.shape:
        raise ValueError(f"image shape {image.shape} vs mask shape {mask.mask3.shape}")
    return image * mask.mask3


def mask_from_array(mask2d):
    """Wrap a plain HxW binary array (e.g. a ground-truth mask) as a SemanticMask."""
    mask2d = (np.asarray(mask2d, dtype=np.float64) > 0.5).astype(np.float64)
    h, w = mask2d.shape
    return SemanticMask(
        mask=mask2d,
        mask3=np.broadcast_to(mask2d, (3, h, w)).copy(),
        patch_weights=np.zeros(0),
        patch_grid=(0, 0),
    )


def write_pbm(path, mask2d):
    """Export a binary mask as plain-text PBM (P1)."""
    mask2d = np.asarray(mask2d)
    h, w = mask2d.shape
    lines = [f"P1\n{w} {h}\n"]
    for row in mask2d:
        lines.append(" ".join("1" if v > 0.5 else "0" for v in row) + "\n")
    with open(path, "w") as fh:
        fh.writelines(lines)
