"""Acceptance gate: one test per release criterion, each printing a verdict line."""

import math
import time

import numpy as np
import pytest

from conftest import check_gradients, psnr_oracle
from gscomm import autodiff as ad
from gscomm.autodiff import Tensor
from gscomm.channel import CODECS, inject_bsc, measure_ber, transmit_awgn
from gscomm.datasets import synthetic_dataset
from gscomm.distill import (
    DistillConfig,
    MaskingNetwork,
    distill_loss,
    make_views,
    train_step_distill,
)
from gscomm.errors import UndefinedMetricError
from gscomm.framing import bytes_to_bits, frame_size_bits, parse_frame, serialize_frame
from gscomm.metrics import masked_psnr
from gscomm.pipeline import TrainBudget, train_masker
from gscomm.ssae import (
    QuantizedLatent,
    RefinementPlan,
    SSAEConfig,
    dequantize,
    kmeans_palette,
    quantize,
    rle_decode,
    rle_encode,
)
from gscomm.vit import ViTConfig


def _verdict(capsys, number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\n[CRITERION {number:2d}] {name}: {tag}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_gradient_suite(capsys):
    """All differentiable ops match central finite differences in under 60 s."""
    start = time.time()
    rng = np.random.default_rng(0)
    r = rng.random

    w34 = r((3, 4))
    w45 = r((4, 5))
    w35 = r((3, 5))
    w63 = r((6, 3))
    mask44 = (r((4, 4)) > 0.4).astype(float)
    checks = [
        (lambda a, b: (a @ b).sum(), [r((3, 4)), r((4, 2))]),
        (lambda a, w, b: (a @ w + b).sum(), [r((2, 3)), r((3, 4)), r(4)]),
        (lambda x, k: ad.conv2d(x, k, stride=1, padding=1).sum(), [r((2, 5, 5)), r((3, 2, 3, 3))]),
        (lambda x, k: ad.conv2d(x, k, stride=2, padding=0).sum(), [r((2, 6, 6)), r((3, 2, 3, 3))]),
        (lambda x: ad.maxpool2(x * 7.0).sum(), [np.argsort(r(32)).reshape(2, 4, 4) / 31.0]),
        (lambda x: ad.upsample_nearest2(x).sum(), [r((2, 3, 3))]),
        (lambda x: (ad.relu(x - 0.5) * w34).sum(), [r((3, 4)) + 0.01]),
        (lambda x: ad.sigmoid(x).sum(), [r((3, 4)) * 4 - 2]),
        (lambda x: (ad.layernorm(x) * w45).sum(), [r((4, 5))]),
        (lambda x: (ad.softmax(x, temperature=0.7) * w35).sum(), [r((3, 5))]),
        (lambda a, b: ad.concat([a, b]).log().sum(), [r((2, 3)) + 0.5, r((2, 4)) + 0.5]),
        (lambda x: ad.masked_frobenius_norm(x, mask44), [r((3, 4, 4)) + 0.1]),
        (lambda x: (x.reshape((2, 6)) @ w63).mean(), [r((3, 4))]),
        (lambda x: x[1:, :2].sum() * 2.0 + (x * x).mean(), [r((4, 5))]),
        (lambda x: ad.batchnorm(x, np.stack([np.zeros(3), np.ones(3)]), training=True).sum(),
         [r((4, 3, 2, 2)) * 2]),
    ]
    # drawn after the list above, so the inputs of its checks stay as they were
    w235 = r((2, 3, 5))
    w324 = r((3, 2, 4))
    checks += [
        (lambda a, b: (ad.matmul(a, b) * w235).sum(), [r((2, 3, 4)), r((2, 4, 5))]),
        (lambda a, b: (ad.matmul(a, b) * w235).sum(), [r((1, 3, 4)), r((2, 4, 5))]),
        (lambda a, b: (ad.matmul(a, b) * w235).sum(), [r((2, 3, 4)), r((4, 5))]),
        (lambda x: (x.transpose(1, 0, 2) * w324).sum(), [r((2, 3, 4))]),
    ]
    for build, values in checks:
        check_gradients(build, values)
    elapsed = time.time() - start
    _verdict(capsys, 1, "gradient suite", elapsed < 60.0, f"{elapsed:.1f}s")


def _random_frame(rng):
    downs = int(rng.integers(0, 3))
    c_o = int(rng.integers(1, 7))
    bits = int(rng.integers(1, 13))
    patch = int(rng.choice([4, 8]))
    h = w = int(np.lcm(patch, 2**downs)) * int(rng.integers(1, 4))
    cfg = SSAEConfig(latent_channels=c_o, downs=downs, bits=bits, stem_channels=4)
    levels = rng.integers(0, 2**bits, size=cfg.latent_shape(h, w))
    t = (h // patch) * (w // patch)
    if rng.integers(0, 2):
        f = int(rng.choice([2, 4, 8, 16]))
        run_bits = int(rng.integers(1, 9))
        t_prime = int(rng.integers(1, t + 1))
        flags = np.zeros(t, dtype=np.uint8)
        flags[rng.choice(t, size=t_prime, replace=False)] = 1
        indices = rng.integers(0, f, size=t_prime * patch * patch)
        plan = RefinementPlan(
            t_prime=t_prime, flags=flags,
            palette=rng.integers(0, 256, size=(f, 3)).astype(np.uint8), run_bits=run_bits,
            rle_bits=rle_encode(indices, f, run_bits), patch_size=patch,
        )
    else:
        plan = RefinementPlan.empty(t, 8, 4, patch)
    return QuantizedLatent(levels=levels, bits=bits), plan, cfg, (h, w, patch)


def test_criterion_02_framing_roundtrip(capsys):
    """1000 random frames roundtrip bit-exactly; reference config is 614 bytes."""
    rng = np.random.default_rng(2)
    for _ in range(1000):
        quantized, plan, cfg, dims = _random_frame(rng)
        frame = serialize_frame(quantized, plan, cfg, dims)
        assert len(frame) * 8 == frame_size_bits(cfg, dims, plan)
        q2, p2, _ = parse_frame(frame)
        assert q2.bits == quantized.bits
        assert np.array_equal(q2.levels, quantized.levels)
        assert np.array_equal(p2.flags, plan.flags)
        assert np.array_equal(p2.rle_bits, plan.rle_bits)
        assert serialize_frame(q2, p2, cfg, dims) == frame

    cfg = SSAEConfig(latent_channels=4, downs=3, bits=8, stem_channels=32)
    levels = np.zeros(cfg.latent_shape(96, 96), dtype=np.int64)
    plan = RefinementPlan.empty(144, 8, 4, 8)
    frame = serialize_frame(QuantizedLatent(levels=levels, bits=8), plan, cfg, (96, 96, 8))
    ok = len(frame) == 614 and frame_size_bits(cfg, (96, 96, 8)) == 4912
    _verdict(capsys, 2, "bit-exact framing", ok, f"{len(frame)} bytes")


def test_criterion_03_compression_ratio(capsys):
    """Closed-form latent size and compression ratio on 20 random configs."""
    from fractions import Fraction

    rng = np.random.default_rng(3)
    for _ in range(20):
        c_o = int(rng.integers(1, 9))
        downs = int(rng.integers(1, 4))
        cfg = SSAEConfig(latent_channels=c_o, downs=downs, bits=8, stem_channels=4)
        h = w = 8 * 2**downs
        shape = cfg.latent_shape(h, w)
        assert int(np.prod(shape)) == c_o * h * w // 4**downs
        assert cfg.compression_ratio == Fraction(c_o, 4**downs * 3)
    reference = SSAEConfig(latent_channels=4, downs=3, bits=8, stem_channels=32)
    ok = reference.compression_ratio == Fraction(1, 48)
    _verdict(capsys, 3, "compression-ratio formula", ok, str(reference.compression_ratio))


def test_criterion_04_quantizer(capsys):
    """Grid idempotence for every level and the uniform-quantizer error bound."""
    for bits in range(1, 9):
        levels = np.arange(2**bits)
        grid = dequantize(QuantizedLatent(levels=levels, bits=bits))
        assert np.array_equal(quantize(grid, bits).levels, levels)
    rng = np.random.default_rng(4)
    values = rng.random(100_000)
    worst = 0.0
    for bits in (1, 2, 4, 8):
        back = dequantize(quantize(values, bits))
        bound = 1.0 / (2 * (2**bits - 1))
        worst = max(worst, float(np.abs(back - values).max()) - bound)
        assert np.abs(back - values).max() <= bound + 1e-12
    _verdict(capsys, 4, "quantizer bounds", True, f"max overshoot {worst:.2e}")


def test_criterion_05_channel_ber(capsys):
    """Monte Carlo BER vs closed forms, within 3 binomial sigma."""
    n = 1_000_000
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=n).astype(np.uint8)
    details = []
    for snr_db in (0.0, 4.0, 8.0):
        received = transmit_awgn(bits, snr_db, seed=int(snr_db) + 17)
        ber = measure_ber(bits, received)
        snr = 10 ** (snr_db / 10)
        p = 0.5 * math.erfc(math.sqrt(2 * snr) / math.sqrt(2))
        sigma = math.sqrt(p * (1 - p) / n)
        details.append(f"{snr_db:g}dB {abs(ber - p) / sigma:.2f}sigma")
        assert abs(ber - p) <= 3 * sigma

    codec = CODECS["repetition3"]
    coded = codec.encode(bits)
    decoded = codec.decode(inject_bsc(coded, 0.1, seed=99))
    residual = measure_ber(bits, decoded)
    p_res = 3 * 0.1**2 - 2 * 0.1**3
    sigma = math.sqrt(p_res * (1 - p_res) / n)
    ok = abs(residual - p_res) <= 3 * sigma
    details.append(f"rep3 {abs(residual - p_res) / sigma:.2f}sigma")
    _verdict(capsys, 5, "channel statistics", ok, ", ".join(details))


def test_criterion_06_rle_kmeans(capsys):
    """RLE roundtrips losslessly; K-means inertia behaves like Lloyd's should."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        f = int(rng.choice([2, 3, 4, 8, 16]))
        run_bits = int(rng.integers(1, 9))
        n = int(rng.integers(1, 200))
        stream = rng.integers(0, f, size=n)
        bits = rle_encode(stream, f, run_bits)
        back = rle_decode(bits, n, f, run_bits)
        assert np.array_equal(back, stream)

    for trial in range(100):
        pixels = rng.random((int(rng.integers(12, 80)), 3))
        _, _, inertia = kmeans_palette(pixels, 4, seed=trial, return_inertia=True)
        assert all(b <= a + 1e-9 for a, b in zip(inertia, inertia[1:]))

    colors = rng.random((5, 3))
    pixels = colors[rng.integers(0, 5, size=200)]
    _, _, inertia = kmeans_palette(pixels, 8, seed=0, return_inertia=True)
    ok = inertia[-1] <= 1e-12
    _verdict(capsys, 6, "RLE + K-means", ok, f"final inertia {inertia[-1]:.1e}")


def test_criterion_07_masked_psnr(capsys):
    """Oracle equivalence, the exact-match limit, and a closed-form spot value."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.random((3, 6, 7))
        b = rng.random((3, 6, 7))
        m = (rng.random((6, 7)) < 0.5).astype(np.float64)
        if m.sum() == 0:
            m[0, 0] = 1.0
        got = masked_psnr(a, b, m)
        want = psnr_oracle(a, b, m)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    a = rng.random((3, 5, 5))
    assert masked_psnr(a, a.copy(), np.ones((5, 5))) == math.inf
    uniform = masked_psnr(a, a + 0.1, np.ones((5, 5)))
    ok = abs(uniform - 20.0) <= 0.01
    _verdict(capsys, 7, "masked PSNR", ok, f"uniform-0.1 error -> {uniform:.4f} dB")


def test_criterion_08_distillation(capsys):
    """Copy-student identity, a real 200-step loss drop, and the frozen teacher."""
    vit = ViTConfig()
    config = DistillConfig(masked_patches=0, xi_lo=1.0, xi_hi=1.0, epsilon=0.2)
    teacher = MaskingNetwork(vit, config, rng=np.random.default_rng(0))
    # the teacher's seed: a copy of the teacher
    student = MaskingNetwork(vit, config, rng=np.random.default_rng(0))
    data = synthetic_dataset(3, 5, 32, seed=100)
    rng = np.random.default_rng(1)
    losses, entropies = [], []
    for ex in data:
        views = make_views(ex.image, teacher, config, rng)
        assert np.array_equal(views.teacher_view, views.student_view)
        q_t = teacher.project(views.teacher_view).q.data
        q_s = student.project(views.student_view).q.data
        losses.append(distill_loss(q_t, q_s).item())
        entropies.append(distill_loss(q_t, q_t).item())
    identity_gap = abs(np.mean(losses) - np.mean(entropies))
    assert identity_gap < 1e-6

    train_config = DistillConfig(masked_patches=4, epsilon=0.2)
    budget = TrainBudget(distill_steps=200, distill_lr=0.002, batch_size=4)
    trainset = synthetic_dataset(3, 15, 32, seed=100)
    student, teacher, history = train_masker(trainset, vit, train_config, budget, seed=0)
    ratio = history[-1] / history[0]
    frozen = MaskingNetwork(vit, train_config, rng=np.random.default_rng(1))
    before = {name: p.data.copy() for name, p in frozen.params.items()}
    step_rng = np.random.default_rng(2)
    probe = MaskingNetwork(vit, train_config, rng=np.random.default_rng(3))
    for _ in range(10):
        train_step_distill(probe, frozen, [trainset[0].image], train_config, 0.002, step_rng)
    frozen_ok = all(np.array_equal(p.data, before[name]) for name, p in frozen.params.items())

    ok = identity_gap < 1e-6 and ratio < 0.70 and frozen_ok
    _verdict(capsys, 8, "distillation", ok,
             f"identity gap {identity_gap:.1e}, 200-step ratio {ratio:.3f}")


def test_criterion_09_ssae_beats_baseline(capsys):
    """500-step autoencoder beats the per-image masked-mean predictor by >= 3 dB."""
    from gscomm.ssae import SSAE

    data = synthetic_dataset(4, 50, 32, seed=11)
    train, held = data[:160], data[160:]
    images = [ex.image * ex.fg_mask for ex in train]
    masks3 = [np.broadcast_to(ex.fg_mask, (3, 32, 32)).copy() for ex in train]

    config = SSAEConfig(latent_channels=4, downs=1, bits=8, stem_channels=16)
    ssae = SSAE(config, rng=np.random.default_rng(8))
    rng = np.random.default_rng(5)
    for _ in range(500):
        idx = rng.choice(160, size=8, replace=False)
        ssae.train_step([images[i] for i in idx], [masks3[i] for i in idx], 0.1)

    model_psnrs, baseline_psnrs = [], []
    for ex in held:
        masked = ex.image * ex.fg_mask
        _, quantized = ssae.encode_quantize(masked)
        recon = ssae.decode(quantized)
        # explicit oracle: predict each channel's mean over the mask support
        baseline = np.zeros_like(ex.image)
        inside = ex.fg_mask > 0
        for c in range(3):
            baseline[c] = masked[c][inside].mean()
        model_psnrs.append(masked_psnr(masked, recon, ex.fg_mask))
        baseline_psnrs.append(masked_psnr(masked, baseline, ex.fg_mask))
    gap = float(np.mean(model_psnrs) - np.mean(baseline_psnrs))
    _verdict(capsys, 9, "SSAE vs masked-mean baseline", gap >= 3.0,
             f"model {np.mean(model_psnrs):.2f} dB, baseline "
             f"{np.mean(baseline_psnrs):.2f} dB, gap {gap:+.2f} dB")


def test_criterion_10_semi_supervised_trend(capsys):
    """Accuracy >= 0.5 at BER 0 and a non-increasing accuracy/BER trend."""
    import gscomm.pipeline as pl
    from gscomm.channel import ChannelConfig
    from gscomm.ssae import SSAEConfig as SC

    from gscomm.classifier import ClassifierConfig, ClassifierModel, finetune

    start = time.time()
    vit = ViTConfig()
    data = synthetic_dataset(4, 110, 32, seed=21)
    train, held = data[:400], data[400:]

    budget = TrainBudget(distill_steps=100, distill_lr=0.002, ssae_steps=800,
                         ssae_lr=0.1, batch_size=8)
    distill_config = DistillConfig(masked_patches=4, epsilon=0.2)
    student, _, _ = pl.train_masker(train, vit, distill_config, budget, seed=0)

    masks3 = [student.semantic_mask(ex.image).mask3 for ex in train]
    images = [ex.image * m for ex, m in zip(train, masks3)]
    ssae_config = SC(latent_channels=4, downs=1, bits=8, stem_channels=16)
    ssae, _ = pl.train_ssae_on(images, masks3, ssae_config, budget, seed=0)

    refine = pl.RefineParams()
    noiseless = ChannelConfig(mode="bsc_ber", ber=0.0, seed=0)
    models = pl.PipelineModels(masker=student, ssae=ssae)
    rng = np.random.default_rng(7)
    labeled_idx = rng.choice(400, size=40, replace=False)  # 10% labels
    pairs = []
    for i in labeled_idx:
        recon, _, _ = pl.run_end_to_end(train[int(i)].image, models, refine,
                                        noiseless, seed=int(i))
        pairs.append((recon, train[int(i)].label))
        pairs.append((train[int(i)].image, train[int(i)].label))
    clf = ClassifierModel(vit, 4, rng=np.random.default_rng(4),
                          backbone_params=student.params)
    finetune(clf, pairs, ClassifierConfig(num_classes=4, lr=0.1, steps=2000,
                                          batch_size=8),
             rng=np.random.default_rng(5))
    models = pl.PipelineModels(masker=student, ssae=ssae, classifier=clf)

    grid = (0.0, 1e-3, 1e-2, 1e-1)
    accuracies = []
    n = len(held)
    for ber in grid:
        channel = ChannelConfig(mode="bsc_ber", ber=ber, seed=3)
        correct = []
        for i, ex in enumerate(held):
            _, _, row = pl.run_end_to_end(ex.image, models, refine, channel,
                                          label=ex.label, seed=1000 + i)
            correct.append(0.0 if row.failure else row.accuracy)
        accuracies.append(float(np.mean(correct)))

    elapsed = time.time() - start
    trend_ok = True
    for a, b in zip(accuracies, accuracies[1:]):
        band = 3 * math.sqrt(max(a * (1 - a), b * (1 - b), 1e-4) / n)
        trend_ok = trend_ok and (b <= a + band)
    ok = accuracies[0] >= 0.5 and trend_ok and elapsed < 900
    _verdict(capsys, 10, "semi-supervised accuracy trend", ok,
             "acc@BER " + "/".join(f"{a:.2f}" for a in accuracies)
             + f", {elapsed:.0f}s")


def test_criterion_11_determinism(capsys, tmp_path):
    """Identical config and seed produce byte-identical artifacts."""
    from gscomm.cli import main
    from gscomm.datasets import write_ppm

    config = tmp_path / "run.cfg"
    config.write_text(
        "patch_size = 8\ndim = 16\nblocks = 1\nheads = 2\nimg_h = 16\nimg_w = 16\n"
        "proj_dim = 8\nmasked_patches = 2\ndowns = 2\nstem_channels = 8\n"
        "num_classes = 2\nimages_per_class = 3\nssae_steps = 3\nbatch_size = 2\n"
        "grid = 0,0.01\nber = 0.01\n"
    )
    image = np.random.default_rng(0).random((3, 16, 16))
    ppm = tmp_path / "img.ppm"
    write_ppm(ppm, image)

    outputs = {}
    for run in ("a", "b"):
        ckpt = tmp_path / f"ssae_{run}.ckpt"
        main(["train-ssae", "--config", str(config), "--out", str(ckpt), "--seed", "9"])
        frame = tmp_path / f"frame_{run}.gscf"
        cfg2 = tmp_path / f"enc_{run}.cfg"
        cfg2.write_text(config.read_text() + f"ssae_ckpt = {ckpt}\n")
        main(["encode", "--config", str(cfg2), "--in", str(ppm), "--out", str(frame),
              "--seed", "9"])
        report = tmp_path / f"report_{run}.csv"
        main(["evaluate", "--config", str(cfg2), "--out", str(report), "--seed", "9"])
        sweep_csv = tmp_path / f"sweep_{run}.csv"
        main(["sweep", "--config", str(cfg2), "--out", str(sweep_csv), "--seed", "9"])
        outputs[run] = (frame.read_bytes(), report.read_bytes(), sweep_csv.read_bytes())

    same = outputs["a"] == outputs["b"]
    _verdict(capsys, 11, "byte-identical reruns", same,
             f"frame {len(outputs['a'][0])} bytes")
