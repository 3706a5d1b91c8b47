"""Student/teacher self-distillation of the masking network.

The teacher is a random network that no step updates; its outputs enter the
loss as constants. Views: the teacher's coarse mask gives the weak view, the
student view additionally zeroes X random patches and applies color jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, _clamp_min
from .masking import apply_mask, build_semantic_mask, cls_attention_maps
from .vit import init_vit_params, vit_forward

LOG_FLOOR = 1e-12
LUMA = np.array([0.299, 0.587, 0.114])


@dataclass
class DistillConfig:
    epsilon: float = 0.1  # softmax temperature
    proj_dim: int = 16  # K
    masked_patches: int = 4  # X
    xi_lo: float = 0.9  # colour-jitter factors of the student view lie in [xi_lo, xi_hi]
    xi_hi: float = 1.1
    rho: float = 2e-3  # per-head binarization threshold of the semantic mask

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.proj_dim < 2:
            raise ValueError("projection dimension must be >= 2")
        if self.masked_patches < 0:
            raise ValueError("masked patch count must be >= 0")
        if not (0 < self.xi_lo <= self.xi_hi < 2):
            raise ValueError("xi_lo and xi_hi must satisfy 0 < xi_lo <= xi_hi < 2")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")


@dataclass
class ViewPair:
    teacher_view: np.ndarray
    student_view: np.ndarray


@dataclass
class ProjectionOutput:
    logits: Tensor  # length-K
    q: Tensor  # length-K probability vector


def init_head_params(vit_config, distill_config, rng):
    c = vit_config.dim
    hidden = 4 * c
    k = distill_config.proj_dim
    return {
        # a larger scale than the backbone's keeps the projection head's
        # temperature-softmax targets away from the uniform fixed point
        "head.w1": Parameter(rng.normal(0, 0.5, (c, hidden))),
        "head.b1": Parameter(np.zeros(hidden)),
        "head.w2": Parameter(rng.normal(0, 0.5, (hidden, k))),
        "head.b2": Parameter(np.zeros(k)),
    }


class MaskingNetwork:
    """ViT backbone + projection head, configured by a ViTConfig and a DistillConfig."""

    def __init__(self, vit_config, distill_config, rng):
        self.vit_config = vit_config
        self.distill_config = distill_config
        self.params = init_vit_params(vit_config, rng)
        self.params.update(init_head_params(vit_config, distill_config, rng))

    def project(self, image):
        tokens, _ = vit_forward(image, self.vit_config, self.params)
        return project_head(tokens[..., 0, :], self.params, self.distill_config.epsilon)

    def semantic_mask(self, image, rho=None):
        """The mask at binarization threshold `rho`, by default the config's."""
        _, attention = vit_forward(image, self.vit_config, self.params)
        maps = cls_attention_maps(attention, self.vit_config)
        return build_semantic_mask(
            maps,
            self.distill_config.rho if rho is None else rho,
            (self.vit_config.img_h, self.vit_config.img_w),
        )


def project_head(cls_token, params, epsilon):
    """MLP projection of [..., C] CLS tokens followed by temperature softmax.

    Each token is its own 1-row product, so a batch rounds as one token at a time.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    *lead, c = cls_token.shape
    rows = cls_token.reshape(*lead, 1, c)
    # `rows` may be an array, whose `@` would not defer to the weight Tensor
    h = ad.relu(ad.matmul(rows, params["head.w1"]) + params["head.b1"])
    logits = h @ params["head.w2"] + params["head.b2"]
    logits = logits.reshape(*lead, logits.shape[-1])
    q = ad.softmax(logits, temperature=epsilon)
    return ProjectionOutput(logits=logits, q=q)


def distill_loss(q_t, q_s):
    """[...] cross entropies -sum(q_t * log q_s) over the last axis; q_s log-floored at 1e-12.

    q_t is treated as a constant target; q_s may be a Tensor (for training) or an
    array. `distill_loss(q, q)` is the entropy of q.
    """
    q_t = q_t.data if isinstance(q_t, Tensor) else np.asarray(q_t, dtype=np.float64)
    q_s = q_s if isinstance(q_s, Tensor) else Tensor(q_s)
    if q_t.shape != q_s.shape:
        raise ValueError(f"distribution lengths differ: {q_t.shape} vs {q_s.shape}")
    return -((Tensor(q_t) * _clamp_min(q_s, LOG_FLOOR).log()).sum(axis=-1))


def color_jitter(image, brightness, contrast, saturation):
    """Scale brightness, contrast, saturation (in that order), then clamp to [0,1].

    A factor of exactly 1.0 leaves its stage bit-identical.
    """
    out = np.asarray(image, dtype=np.float64)
    if brightness != 1.0:
        out = out * brightness
    if contrast != 1.0:
        mean = float((LUMA @ out.reshape(3, -1)).mean())
        out = mean + (out - mean) * contrast
    if saturation != 1.0:
        gray = np.tensordot(LUMA, out, axes=(0, 0))
        out = gray[None] + (out - gray[None]) * saturation
    return np.clip(out, 0.0, 1.0)


def make_views(image, teacher, config, rng):
    """Build the (teacher view, student view) pair for a [3, H, W] image or a
    [..., 3, H, W] batch.

    The teacher's coarse masks come from one batched pass; `rng` is drawn from
    image by image, as one call per image would draw from it.
    """
    vit_cfg = teacher.vit_config
    t = vit_cfg.num_patches
    if config.masked_patches > t:
        raise ValueError(f"cannot mask {config.masked_patches} of {t} patches")

    coarse = teacher.semantic_mask(image, teacher.distill_config.rho / 2.0)
    teacher_view = apply_mask(image, coarse)

    p, gw = vit_cfg.patch_size, vit_cfg.grid[1]
    lo, hi = config.xi_lo, config.xi_hi
    student_views = []
    for view in teacher_view.reshape(-1, *teacher_view.shape[-3:]):
        if config.masked_patches > 0:
            drop = rng.choice(t, size=config.masked_patches, replace=False)
            # patch k of the raster order is grid cell (k // gw, k % gw)
            cells = view.reshape(3, -1, p, gw, p).copy()
            cells[:, drop // gw, :, drop % gw, :] = 0.0
            view = cells.reshape(view.shape)
        factors = [lo if lo == hi else float(rng.uniform(lo, hi)) for _ in range(3)]
        student_views.append(color_jitter(view, *factors))
    student_view = np.stack(student_views).reshape(teacher_view.shape)
    return ViewPair(teacher_view=teacher_view, student_view=student_view)


def train_step_distill(student, teacher, batch, config, lr, rng):
    """One distillation step over a batch, as one graph; returns the mean loss."""
    views = make_views(np.stack(batch), teacher, config, rng)
    q_t = teacher.project(views.teacher_view).q.data
    q_s = student.project(views.student_view).q
    losses = distill_loss(q_t, q_s)
    losses.mean().backward()
    ad.sgd_step(student.params.values(), lr)
    ad.zero_grads(student.params.values())
    return float(np.mean(losses.data))
