"""Inference entry points run under autodiff.no_grad(): they record no graph, give
the same bytes as a recorded forward pass, and leave training untouched."""

import contextlib

import numpy as np
import pytest

from gscomm import autodiff as ad
from gscomm.classifier import ClassifierConfig, ClassifierModel, classify, finetune
from gscomm.datasets import synthetic_dataset
from gscomm.distill import DistillConfig, MaskingNetwork
from gscomm.masking import build_semantic_mask, cls_attention_maps
from gscomm.ssae import SSAE, SSAEConfig
from gscomm.vit import ViTConfig, final_attention, vit_forward

VIT = ViTConfig()  # the benchmark's backbone: 32x32 images, 2 blocks
SSAE_CFG = SSAEConfig(latent_channels=4, downs=1, stem_channels=8)


def _images(count, seed=3):
    return np.stack([ex.image for ex in synthetic_dataset(4, -(-count // 4), 32, seed)[:count]])


def _grads_of_next_step(monkeypatch):
    """Patch sgd_step to copy each learnable parameter's gradient before it steps."""
    seen = []
    step = ad.sgd_step

    def recording(params, lr):
        params = list(params)
        seen.append([None if p.grad is None else p.grad.copy() for p in params])
        step(params, lr)

    monkeypatch.setattr(ad, "sgd_step", recording)
    return seen


@contextlib.contextmanager
def _inference_context(kind):
    """Plain: the entry point alone. Nested: inside an enclosing no_grad. Raised: the
    entry point raises, inside its own no_grad."""
    if kind == "nested":
        with ad.no_grad():
            yield
    elif kind == "raised":
        with pytest.raises(ValueError):
            yield
    else:
        yield


KINDS = ["plain", "nested", "raised"]


@pytest.mark.parametrize("kind", KINDS)
def test_ssae_step_after_inference_equals_a_fresh_model(monkeypatch, kind):
    images = _images(4)
    masks = np.ones_like(images)
    used, fresh = SSAE(SSAE_CFG, np.random.default_rng(0)), SSAE(SSAE_CFG, np.random.default_rng(0))
    with _inference_context(kind):
        _, quantized = used.encode_quantize(images[0])
        used.decode(quantized)
        if kind == "raised":
            used.encode_quantize(images[0][:, :31, :31])  # odd extents
    assert ad._recording  # restored by the entry point's exit, raised or not
    seen = _grads_of_next_step(monkeypatch)
    used.train_step(list(images), list(masks), 0.1)
    fresh.train_step(list(images), list(masks), 0.1)
    (got, want) = seen
    assert all(g is not None for g in got[:2])
    assert [None if g is None else g.tobytes() for g in got] == \
        [None if g is None else g.tobytes() for g in want]


@pytest.mark.parametrize("kind", KINDS)
def test_finetune_step_after_inference_equals_a_fresh_model(monkeypatch, kind):
    images = _images(8)
    labeled = [(im, i % 4) for i, im in enumerate(images)]
    cfg = ClassifierConfig(num_classes=4, lr=0.1, steps=1, batch_size=8)
    used = ClassifierModel(VIT, 4, np.random.default_rng(0))
    fresh = ClassifierModel(VIT, 4, np.random.default_rng(0))
    with _inference_context(kind):
        classify(images[1], used)
        if kind == "raised":
            classify(images[1][:, :16], used)  # wrong extents
    assert ad._recording  # restored by the entry point's exit, raised or not
    seen = _grads_of_next_step(monkeypatch)
    finetune(used, labeled, cfg, np.random.default_rng(1))
    finetune(fresh, labeled, cfg, np.random.default_rng(1))
    (got, want) = seen
    assert all(g is not None for g in got)
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


def test_inference_records_no_graph(monkeypatch):
    recorded = []
    op = ad._op

    def spy(data, parents, grads):
        out = op(data, parents, grads)
        recorded.append(out.requires_grad or bool(out._parents))
        return out

    monkeypatch.setattr(ad, "_op", spy)
    image = _images(1)[0]
    net = MaskingNetwork(VIT, DistillConfig(), np.random.default_rng(0))
    ssae = SSAE(SSAE_CFG, np.random.default_rng(1))
    net.semantic_mask(image)
    ssae.decode(ssae.encode_quantize(image)[1])
    classify(image, ClassifierModel(VIT, 4, np.random.default_rng(2)))
    assert len(recorded) > 50 and not any(recorded)


@pytest.mark.parametrize("batch", [None, 8])
def test_outputs_equal_with_and_without_an_enclosing_no_grad(batch):
    images = _images(8)
    image = images[0] if batch is None else images
    net = MaskingNetwork(VIT, DistillConfig(), np.random.default_rng(0))
    ssae = SSAE(SSAE_CFG, np.random.default_rng(1))
    clf = ClassifierModel(VIT, 4, np.random.default_rng(2))

    def outputs():
        mask = net.semantic_mask(image)
        latent, quantized = ssae.encode_quantize(images[0])
        recon = ssae.decode(quantized)
        pred = classify(images[0], clf)
        return [mask.mask, mask.patch_weights, latent, quantized.levels, recon, pred.probs,
                pred.label]

    plain = outputs()
    with ad.no_grad():
        enclosed = outputs()
    assert [np.asarray(a).tobytes() for a in plain] == [np.asarray(a).tobytes() for a in enclosed]


@pytest.mark.parametrize("batch", [None, 8])
def test_masker_attention_equals_the_full_forward(batch):
    images = _images(8)
    image = images[0] if batch is None else images
    net = MaskingNetwork(VIT, DistillConfig(), np.random.default_rng(0))
    _, want = vit_forward(image, VIT, net.params)  # recorded, with every block in full
    got = final_attention(image, VIT, net.params)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    mask = net.semantic_mask(image)
    ref = build_semantic_mask(cls_attention_maps(want, VIT), net.distill_config.rho,
                              (VIT.img_h, VIT.img_w))
    assert mask.mask.tobytes() == ref.mask.tobytes()
    assert mask.patch_weights.tobytes() == ref.patch_weights.tobytes()
