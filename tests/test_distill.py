import copy

import numpy as np
import pytest

from gscomm import autodiff as ad
from gscomm.datasets import synthetic_dataset
from gscomm.distill import (
    DistillConfig,
    MaskingNetwork,
    color_jitter,
    distill_loss,
    make_views,
    project_head,
    train_step_distill,
)
from gscomm.pipeline import TrainBudget, train_masker
from gscomm.vit import ViTConfig, patchify


def _distill_step_reference(student, teacher, batch, config, lr, rng):
    """One distillation step built as one graph per image, losses added in image order."""
    losses = []
    total = None
    for image in batch:
        views = make_views(image, teacher, config, rng)
        q_t = teacher.project(views.teacher_view).q.data
        q_s = student.project(views.student_view).q
        loss = distill_loss(q_t, q_s)
        total = loss if total is None else total + loss
        losses.append(loss.item())
    mean_loss = total / len(batch)
    mean_loss.backward()
    ad.sgd_step(student.params.values(), lr)
    ad.zero_grads(student.params.values())
    return float(np.mean(losses))


# the benchmark's trainer config (32x32 images, batch 8) and a 16x16 one
BATCHED_CASES = {
    "benchmark": (ViTConfig(), DistillConfig(masked_patches=4, epsilon=0.2), 8),
    "16x16": (ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=16, img_w=16),
              DistillConfig(epsilon=0.1, proj_dim=8, masked_patches=2), 4),
}


@pytest.fixture
def vit_config():
    return ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=16, img_w=16)


@pytest.fixture
def config():
    return DistillConfig(epsilon=0.1, proj_dim=8, masked_patches=2, xi_lo=0.9, xi_hi=1.1)


@pytest.fixture
def teacher(vit_config, config):
    return MaskingNetwork(vit_config, config, rng=np.random.default_rng(1))


@pytest.fixture
def student(vit_config, config):
    return MaskingNetwork(vit_config, config, rng=np.random.default_rng(2))


class TestProjectHead:
    def test_zero_logits_uniform(self, student):
        params = {k: v for k, v in student.params.items() if k.startswith("head.")}
        for p in params.values():
            p.data[:] = 0.0
        out = project_head(np.zeros(16), params, epsilon=0.1)
        assert out.q.data == pytest.approx(np.full(8, 1 / 8))

    def test_sharp_temperature_values(self, student):
        import gscomm.autodiff as ad
        from gscomm.autodiff import Tensor

        q = ad.softmax(Tensor([1.0, 0.0]), temperature=0.1).data
        assert q == pytest.approx([0.9999546, 0.0000454], abs=1e-7)

    def test_high_temperature_limit(self, student, rng):
        params = student.params
        out = project_head(rng.random(16), params, epsilon=1e6)
        k = out.q.data.size
        assert np.abs(out.q.data - 1.0 / k).max() < 1e-3

    def test_bad_epsilon(self, student, rng):
        with pytest.raises(ValueError):
            project_head(rng.random(16), student.params, epsilon=0.0)

    def test_q_is_distribution(self, student, rng):
        out = student.project(rng.random((3, 16, 16)))
        assert np.all(out.q.data >= 0)
        assert abs(out.q.data.sum() - 1.0) < 1e-9


class TestDistillLoss:
    def test_one_hot_fixed_point(self):
        q = np.array([1.0, 0.0, 0.0])
        assert distill_loss(q, q).item() == pytest.approx(0.0, abs=1e-10)

    def test_uniform_entropy(self):
        q = np.array([0.5, 0.5])
        assert distill_loss(q, q).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_gibbs_inequality(self, rng):
        q_t = rng.random(5)
        q_t /= q_t.sum()
        best = distill_loss(q_t, q_t).item()
        for _ in range(100):
            q = rng.random(5)
            q /= q.sum()
            assert distill_loss(q_t, q).item() >= best - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            distill_loss(np.array([1.0]), np.array([0.5, 0.5]))


class TestColorJitter:
    def test_clamps_when_every_factor_is_one(self, rng):
        image = np.array([1.5, -0.2, 0.25]).reshape(3, 1, 1)
        assert color_jitter(image, 1.0, 1.0, 1.0).ravel().tolist() == [1.0, 0.0, 0.25]
        # an image already in [0, 1] comes back bit-identical, as a copy
        image = rng.random((3, 4, 4))
        out = color_jitter(image, 1.0, 1.0, 1.0)
        assert out is not image and out.tobytes() == image.tobytes()


class TestMakeViews:
    def test_identity_augmentation(self, teacher):
        cfg = DistillConfig(masked_patches=0, xi_lo=1.0, xi_hi=1.0, proj_dim=8)
        image = np.random.default_rng(5).random((3, 16, 16))
        views = make_views(image, teacher, cfg, np.random.default_rng(0))
        assert np.array_equal(views.student_view, views.teacher_view)

    def test_full_masking(self, teacher):
        t = teacher.vit_config.num_patches
        cfg = DistillConfig(masked_patches=t, proj_dim=8)
        image = np.random.default_rng(5).random((3, 16, 16))
        views = make_views(image, teacher, cfg, np.random.default_rng(0))
        assert np.all(views.student_view == 0)

    def test_determinism(self, teacher, config):
        image = np.random.default_rng(5).random((3, 16, 16))
        a = make_views(image, teacher, config, np.random.default_rng(42))
        b = make_views(image, teacher, config, np.random.default_rng(42))
        assert np.array_equal(a.student_view, b.student_view)
        assert np.array_equal(a.teacher_view, b.teacher_view)

    def test_partial_masking_zeroes_whole_drawn_patches(self):
        # a 2x4 patch grid; rho = 0 keeps every pixel in the teacher view
        vit_cfg = ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=16, img_w=32)
        cfg = DistillConfig(proj_dim=8, masked_patches=2, xi_lo=1.0, xi_hi=1.0, rho=0.0)
        teacher = MaskingNetwork(vit_cfg, cfg, rng=np.random.default_rng(1))
        image = 0.5 + 0.5 * np.random.default_rng(5).random((3, 16, 32))
        views = make_views(image, teacher, cfg, np.random.default_rng(7))
        assert np.array_equal(views.teacher_view, image)
        student, teacher_patches = patchify(views.student_view, 8), patchify(image, 8)
        drop = np.random.default_rng(7).choice(8, size=2, replace=False)
        changed = np.flatnonzero((student != teacher_patches).any(axis=1))
        assert sorted(changed) == sorted(drop)
        assert np.all(student[drop] == 0.0)
        kept = np.setdiff1d(np.arange(8), drop)
        assert np.array_equal(student[kept], teacher_patches[kept])

    def test_too_many_patches(self, teacher):
        with pytest.raises(ValueError):
            cfg = DistillConfig(masked_patches=teacher.vit_config.num_patches + 1, proj_dim=8)
            make_views(np.zeros((3, 16, 16)), teacher, cfg, np.random.default_rng(0))

    def test_views_clamped(self, teacher):
        cfg = DistillConfig(masked_patches=0, xi_lo=1.5, xi_hi=1.5, proj_dim=8)
        image = np.random.default_rng(5).random((3, 16, 16))
        views = make_views(image, teacher, cfg, np.random.default_rng(0))
        assert views.student_view.min() >= 0.0
        assert views.student_view.max() <= 1.0


class TestTrainStep:
    def test_teacher_unchanged_after_steps(self, teacher, student, config):
        images = [ex.image for ex in synthetic_dataset(2, 2, 16, seed=3)]
        before = {name: p.data.copy() for name, p in teacher.params.items()}
        rng = np.random.default_rng(0)
        for _ in range(10):
            train_step_distill(student, teacher, images, config, lr=0.05, rng=rng)
        for name, p in teacher.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_train_masker_returns_the_teacher_as_built(self, vit_config, config):
        data = synthetic_dataset(2, 2, 16, seed=3)
        budget = TrainBudget(distill_steps=3, distill_lr=0.05, batch_size=2)
        _, teacher, losses = train_masker(data, vit_config, config, budget, seed=5)
        assert len(losses) == 3
        fresh = MaskingNetwork(vit_config, config, rng=np.random.default_rng(5 + 1))
        assert teacher.params.keys() == fresh.params.keys()
        for name, p in fresh.params.items():
            assert np.array_equal(teacher.params[name].data, p.data), name

    def test_copy_student_identity_views_gives_entropy(self, teacher, vit_config):
        cfg = DistillConfig(masked_patches=0, xi_lo=1.0, xi_hi=1.0, proj_dim=8)
        # the teacher's seed: a copy of the teacher
        student = MaskingNetwork(vit_config, cfg, rng=np.random.default_rng(1))
        images = [ex.image for ex in synthetic_dataset(2, 2, 16, seed=3)]
        rng = np.random.default_rng(0)
        entropies = []
        for image in images:
            views = make_views(image, teacher, cfg, np.random.default_rng(1))
            q_t = teacher.project(views.teacher_view).q.data
            entropies.append(distill_loss(q_t, q_t).item())
        loss = train_step_distill(student, teacher, images, cfg, lr=1e-9, rng=rng)
        assert loss == pytest.approx(np.mean(entropies), abs=1e-6)


class TestBatched:
    @pytest.mark.parametrize("case", BATCHED_CASES)
    def test_step_equals_per_image_graphs(self, case):
        vit_cfg, cfg, batch = BATCHED_CASES[case]
        teacher = MaskingNetwork(vit_cfg, cfg, rng=np.random.default_rng(1))
        student = MaskingNetwork(vit_cfg, cfg, rng=np.random.default_rng(2))
        twin = copy.deepcopy(student)
        images = [ex.image for ex in synthetic_dataset(4, 6, vit_cfg.img_h, seed=3)]
        rng, twin_rng = np.random.default_rng(4), np.random.default_rng(4)
        for step in range(3):
            chunk = images[step * batch : (step + 1) * batch]
            got = train_step_distill(student, teacher, chunk, cfg, 0.05, rng)
            want = _distill_step_reference(twin, teacher, chunk, cfg, 0.05, twin_rng)
            assert got == want
            for name, p in student.params.items():
                assert np.array_equal(p.data, twin.params[name].data), name
        assert rng.random() == twin_rng.random()

    @pytest.mark.parametrize("case", BATCHED_CASES)
    def test_calls_equal_one_image_at_a_time(self, case):
        vit_cfg, cfg, batch = BATCHED_CASES[case]
        net = MaskingNetwork(vit_cfg, cfg, rng=np.random.default_rng(1))
        images = np.stack([ex.image for ex in synthetic_dataset(4, 2, vit_cfg.img_h, seed=5)])
        out = net.project(images)
        mask = net.semantic_mask(images)
        for i, image in enumerate(images):
            one = net.project(image)
            assert np.array_equal(out.logits.data[i], one.logits.data)
            assert np.array_equal(out.q.data[i], one.q.data)
            one_mask = net.semantic_mask(image)
            assert np.array_equal(mask.mask[i], one_mask.mask)
            assert np.array_equal(mask.mask3[i], one_mask.mask3)
            assert np.array_equal(mask.patch_weights[i], one_mask.patch_weights)

    @pytest.mark.parametrize("case", BATCHED_CASES)
    def test_make_views_draws_image_by_image(self, case):
        vit_cfg, cfg, batch = BATCHED_CASES[case]
        teacher = MaskingNetwork(vit_cfg, cfg, rng=np.random.default_rng(1))
        images = np.stack([ex.image for ex in synthetic_dataset(4, 2, vit_cfg.img_h, seed=5)])
        rng, one_rng = np.random.default_rng(6), np.random.default_rng(6)
        views = make_views(images, teacher, cfg, rng)
        for i, image in enumerate(images):
            one = make_views(image, teacher, cfg, one_rng)
            assert np.array_equal(views.teacher_view[i], one.teacher_view)
            assert np.array_equal(views.student_view[i], one.student_view)
        assert rng.random() == one_rng.random()
