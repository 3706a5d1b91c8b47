"""Toy-scale vision Transformer: patch tokens + CLS token, pre-norm blocks,
and the final block's attention, kept for downstream masking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor

MLP_RATIO = 4  # hidden width multiplier inside block MLPs


@dataclass
class ViTConfig:
    patch_size: int = 8
    dim: int = 32
    blocks: int = 2
    heads: int = 4
    img_h: int = 32
    img_w: int = 32

    def __post_init__(self):
        for name in ("patch_size", "dim", "blocks", "heads", "img_h", "img_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("img_h", "img_w"):
            if getattr(self, name) % self.patch_size:
                raise ValueError(f"{name} must be a multiple of patch_size {self.patch_size}, "
                                 f"got {getattr(self, name)}")
        if self.dim % self.heads:
            raise ValueError(f"dim must be a multiple of heads {self.heads}, got {self.dim}")

    @property
    def num_patches(self):
        return (self.img_h // self.patch_size) * (self.img_w // self.patch_size)

    @property
    def grid(self):
        return (self.img_h // self.patch_size, self.img_w // self.patch_size)

    @property
    def head_dim(self):
        return self.dim // self.heads


def patchify(image, patch_size):
    """Split [..., 3, H, W] images, arrays or Tensors, into [..., T, 3*P*P] raster-order
    patch vectors; leading axes are batch axes."""
    if not isinstance(image, Tensor):
        image = np.asarray(image, dtype=np.float64)
    *lead, c, h, w = image.shape
    p = patch_size
    if h % p or w % p:
        raise ValueError(f"extents {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    n = len(lead)
    patches = image.reshape(*lead, c, gh, p, gw, p)
    patches = patches.transpose(*range(n), n + 1, n + 3, n, n + 2, n + 4)
    return patches.reshape(*lead, gh * gw, c * p * p)


def init_vit_params(config, rng):
    """Fresh parameter dict for one backbone."""

    def make(shape, scale=0.02):
        return Parameter(rng.normal(0.0, scale, size=shape))

    p = {}
    c = config.dim
    p["patch_embed.kernel"] = make((c, 3, config.patch_size, config.patch_size))
    p["patch_embed.bias"] = Parameter(np.zeros(c))
    p["cls_token"] = make((c,))
    p["pos_embed"] = make((config.num_patches, c))
    hidden = MLP_RATIO * c
    for u in range(config.blocks):
        b = f"blk{u}."
        p[b + "wq"] = make((c, c))
        p[b + "wk"] = make((c, c))
        p[b + "wv"] = make((c, c))
        p[b + "wo"] = make((c, c))
        p[b + "mlp1.w"] = make((c, hidden))
        p[b + "mlp1.b"] = Parameter(np.zeros(hidden))
        p[b + "mlp2.w"] = make((hidden, c))
        p[b + "mlp2.b"] = Parameter(np.zeros(c))
    return p


def vit_forward(image, config, params):
    """Run the backbone on [..., 3, H, W] images, leading axes being batch axes.

    Returns ([..., T+1, C] token Tensor, final-block [..., heads, T+1, T+1] attention).
    numpy's stacked matmul runs one product per image, so each image's tokens equal
    those of a call on that image alone, bit for bit.
    """
    *attentions, x = _blocks(image, config, params)
    return x, attentions[-1].data


def final_attention(image, config, params):
    """vit_forward(image, config, params)[1], without the rest of the final block."""
    blocks = _blocks(image, config, params)
    for _ in range(config.blocks):
        s = next(blocks)
    return s.data


def _blocks(image, config, params):
    """Yield each block's attention Tensor, the block then finishing when resumed, and
    after the last block the token Tensor."""
    image = image if isinstance(image, Tensor) else Tensor(image)
    lead = image.data.shape[:-3]
    if image.data.shape[-3:] != (3, config.img_h, config.img_w):
        raise ValueError(
            f"image shape {image.data.shape} does not match config "
            f"(..., 3, {config.img_h}, {config.img_w})"
        )
    c, t, p = config.dim, config.num_patches, config.patch_size

    # the patch embedding is a stride-P conv with a PxP kernel, run as one matmul over
    # the raster-order patch vectors: no model runs conv2d at a stride above 1
    kernel = params["patch_embed.kernel"].reshape(c, 3 * p * p)
    patch_tokens = patchify(image, p) @ kernel.T + params["patch_embed.bias"]
    patch_tokens = patch_tokens + params["pos_embed"]
    cls = params["cls_token"] + np.zeros((*lead, 1, c))
    x = ad.concat([cls, patch_tokens], axis=-2)

    heads, d = config.heads, config.head_dim
    scale = 1.0 / np.sqrt(d)

    def split(h, w):  # head m owns columns m*d:(m+1)*d: [..., T+1, C] -> [..., heads, T+1, d]
        return (h @ params[w]).reshape(*lead, t + 1, heads, d).swapaxes(-3, -2)

    for u in range(config.blocks):
        b = f"blk{u}."
        h = ad.layernorm(x)
        q, k = split(h, b + "wq"), split(h, b + "wk")
        s = ad.softmax((q @ k.swapaxes(-1, -2)) * scale)
        yield s
        merged = (s @ split(h, b + "wv")).swapaxes(-3, -2).reshape(*lead, t + 1, c)
        x = x + merged @ params[b + "wo"]
        h2 = ad.layernorm(x)
        hidden = ad.relu(h2 @ params[b + "mlp1.w"] + params[b + "mlp1.b"])
        x = x + (hidden @ params[b + "mlp2.w"] + params[b + "mlp2.b"])
    yield x
