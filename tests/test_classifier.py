import copy

import numpy as np
import pytest

from gscomm import autodiff as ad
from gscomm.autodiff import _clamp_min
from gscomm.classifier import (
    ClassifierConfig,
    ClassifierModel,
    classify,
    finetune,
)
from gscomm.datasets import synthetic_dataset
from gscomm.vit import ViTConfig


def _finetune_reference(model, labeled, config, rng):
    """The fine-tune loop built as one graph per image, losses added in batch order."""
    losses = []
    n = len(labeled)
    for _ in range(config.steps):
        idx = rng.choice(n, size=min(config.batch_size, n), replace=False)
        total = None
        for i in idx:
            image, label = labeled[int(i)]
            p = ad.softmax(model.logits(image))
            loss = -(_clamp_min(p[int(label)], 1e-12).log())
            total = loss if total is None else total + loss
        loss = total / len(idx)
        loss.backward()
        ad.sgd_step(model.params.values(), config.lr)
        ad.zero_grads(model.params.values())
        losses.append(loss.item())
    return losses


# the benchmark's fine-tune config (32x32 images, batch 8) and a 16x16 one
BATCHED_CASES = {
    "benchmark": (ViTConfig(), ClassifierConfig(num_classes=4, lr=0.1, steps=3, batch_size=8)),
    "16x16": (ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=16, img_w=16),
              ClassifierConfig(num_classes=4, lr=0.08, steps=3, batch_size=5)),
}


@pytest.fixture
def vit_config():
    return ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=16, img_w=16)


@pytest.fixture
def model(vit_config):
    return ClassifierModel(vit_config, num_classes=3, rng=np.random.default_rng(0))


class TestClassify:
    def test_probabilities_sum_to_one(self, model, rng):
        pred = classify(rng.random((3, 16, 16)), model)
        assert abs(pred.probs.sum() - 1.0) < 1e-9
        assert np.all(pred.probs >= 0)

    def test_deterministic(self, model, rng):
        image = rng.random((3, 16, 16))
        a = classify(image, model)
        b = classify(image, model)
        assert np.array_equal(a.probs, b.probs)
        assert a.label == b.label

    def test_extent_mismatch(self, model, rng):
        with pytest.raises(ValueError):
            classify(rng.random((3, 32, 32)), model)

    def test_untrained_chance_level(self, vit_config):
        data = synthetic_dataset(3, 30, 16, seed=4)
        model = ClassifierModel(vit_config, num_classes=3, rng=np.random.default_rng(1))
        acc = np.mean([classify(ex.image, model).label == ex.label for ex in data])
        n = len(data)
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(acc - 1 / 3) < 3.5 * sigma + 1 / 3  # loose: untrained != anti-correlated


class TestFinetune:
    def test_zero_steps_no_change(self, model, rng):
        before = {k: p.data.copy() for k, p in model.params.items()}
        cfg = ClassifierConfig(num_classes=3, steps=0)
        finetune(model, [(rng.random((3, 16, 16)), 0)], cfg, rng=np.random.default_rng(0))
        for k, p in model.params.items():
            assert np.array_equal(p.data, before[k])

    def test_label_out_of_range(self, model, rng):
        cfg = ClassifierConfig(num_classes=3, steps=1)
        with pytest.raises(ValueError):
            finetune(model, [(rng.random((3, 16, 16)), 3)], cfg, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
            ClassifierConfig(num_classes=3, batch_size=batch_size)

    @pytest.mark.parametrize("field, value, message", [
        ("steps", -3, "steps must be at least 0, got -3"),
        ("lr", 0.0, "lr must be positive, got 0.0"),
        ("lr", -1.0, "lr must be positive, got -1.0"),
    ])
    def test_negative_steps_and_non_positive_lr(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClassifierConfig(num_classes=3, **{field: value})

    @pytest.mark.parametrize("config_classes", [2, 4])
    def test_class_count_must_match_model(self, model, rng, config_classes):
        cfg = ClassifierConfig(num_classes=config_classes, steps=1)
        pairs = [(rng.random((3, 16, 16)), config_classes - 1)]
        with pytest.raises(ValueError, match=f"model has 3 classes, config {config_classes}"):
            finetune(model, pairs, cfg, rng=np.random.default_rng(0))

    def test_overfit_single_example(self, vit_config, rng):
        model = ClassifierModel(vit_config, num_classes=3, rng=np.random.default_rng(2))
        image = rng.random((3, 16, 16))
        cfg = ClassifierConfig(num_classes=3, steps=60, lr=0.1, batch_size=1)
        losses = finetune(model, [(image, 2)], cfg, rng=np.random.default_rng(0))
        assert classify(image, model).label == 2
        assert losses[-1] < losses[0]

    def test_loss_decreases_on_synthetic(self, vit_config):
        data = synthetic_dataset(4, 6, 16, seed=8)
        pairs = [(ex.image, ex.label) for ex in data]
        model = ClassifierModel(vit_config, num_classes=4, rng=np.random.default_rng(3))
        cfg = ClassifierConfig(num_classes=4, steps=40, lr=0.08)
        losses = finetune(model, pairs, cfg, rng=np.random.default_rng(0))
        assert losses[-1] < losses[0]


class TestBatched:
    @pytest.mark.parametrize("case", BATCHED_CASES)
    def test_finetune_equals_per_image_graphs(self, case):
        vit_cfg, cfg = BATCHED_CASES[case]
        pairs = [(ex.image, ex.label) for ex in synthetic_dataset(4, 4, vit_cfg.img_h, seed=8)]
        model = ClassifierModel(vit_cfg, num_classes=4, rng=np.random.default_rng(3))
        twin = copy.deepcopy(model)
        rng, twin_rng = np.random.default_rng(9), np.random.default_rng(9)
        assert finetune(model, pairs, cfg, rng) == _finetune_reference(twin, pairs, cfg, twin_rng)
        for name, p in model.params.items():
            assert np.array_equal(p.data, twin.params[name].data), name

    @pytest.mark.parametrize("case", BATCHED_CASES)
    def test_logits_equal_one_image_at_a_time(self, case):
        vit_cfg, _ = BATCHED_CASES[case]
        model = ClassifierModel(vit_cfg, num_classes=4, rng=np.random.default_rng(3))
        images = np.random.default_rng(4).random((5, 3, vit_cfg.img_h, vit_cfg.img_w))
        logits = model.logits(images)
        assert logits.shape == (5, 4)
        for i, image in enumerate(images):
            assert np.array_equal(logits.data[i], model.logits(image).data)
