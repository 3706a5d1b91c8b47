"""C'-way classification head on the ViT backbone, fine-tuned with
cross-entropy on a small labeled subset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, _clamp_min
from .vit import init_vit_params, vit_forward


@dataclass
class ClassifierConfig:
    num_classes: int = 4
    lr: float = 0.05
    steps: int = 200
    batch_size: int = 8

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass
class Prediction:
    probs: np.ndarray  # length C', sums to 1
    label: int  # argmax class index


class ClassifierModel:
    """ViT backbone with a linear CLS-token head onto C' classes."""

    def __init__(self, vit_config, num_classes, rng=None, backbone_params=None):
        self.vit_config = vit_config
        self.num_classes = num_classes
        if rng is None:
            rng = np.random.default_rng(0)
        if backbone_params is None:
            self.params = init_vit_params(vit_config, rng)
        else:
            # learnable copies of e.g. the distilled student's backbone, without its head
            self.params = {k: Parameter(v.data.copy()) for k, v in backbone_params.items()
                           if not k.startswith("head.")}
        c = vit_config.dim
        self.params["cls_head.w"] = Parameter(rng.normal(0, 0.02, (c, num_classes)))
        self.params["cls_head.b"] = Parameter(np.zeros(num_classes))

    def logits(self, image):
        """[..., C'] logits of [..., 3, H, W] images; each CLS token is its own
        1-row product, so a batch rounds as one image at a time."""
        tokens, _ = vit_forward(image, self.vit_config, self.params)
        w, b = self.params["cls_head.w"], self.params["cls_head.b"]
        logits = tokens[..., :1, :] @ w + b
        return logits.reshape(*tokens.shape[:-2], self.num_classes)


def classify(image, model):
    """Forward pass to a Prediction (softmax at temperature 1)."""
    probs = ad.softmax(model.logits(image)).data
    return Prediction(probs=probs, label=int(probs.argmax()))


def finetune(model, labeled, config, rng=None):
    """SGD cross-entropy fine-tuning on (image, label) pairs; returns losses."""
    if model.num_classes != config.num_classes:
        raise ValueError(f"model has {model.num_classes} classes, config {config.num_classes}")
    for _, label in labeled:
        if not 0 <= label < config.num_classes:
            raise ValueError(f"label {label} out of range [0, {config.num_classes})")
    if rng is None:
        rng = np.random.default_rng(0)
    losses = []
    n = len(labeled)
    for _ in range(config.steps):
        idx = rng.choice(n, size=min(config.batch_size, n), replace=False)
        images, labels = zip(*(labeled[int(i)] for i in idx))
        p = ad.softmax(model.logits(np.stack(images)))
        loss = (-(_clamp_min(p[np.arange(len(idx)), labels], 1e-12).log())).mean()
        loss.backward()
        ad.sgd_step(model.params.values(), config.lr)
        ad.zero_grads(model.params.values())
        losses.append(loss.item())
    return losses
