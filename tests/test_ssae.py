import copy
import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscomm import autodiff as ad
from gscomm.autodiff import Tensor
from gscomm.checkpoint import load_params, save_params
from gscomm.errors import CorruptFrameError
from gscomm.masking import SemanticMask
from gscomm.ssae import (
    SSAE,
    QuantizedLatent,
    RefinementPlan,
    SSAEConfig,
    apply_refinement,
    dequantize,
    kmeans_palette,
    plan_refinement,
    quantize,
    rle_decode,
    rle_encode,
)


def _ssae_step_reference(ssae, images, masks3, lr):
    """One SSAE step with the loss built image by image, terms added in image order."""
    batch = np.stack([np.asarray(im, dtype=np.float64) for im in images])
    latent = ssae.encode(Tensor(batch), training=True)
    recon = ssae.decode_latent(latent, training=True)
    residual = Tensor(batch) - recon
    total = None
    for i, m3 in enumerate(masks3):
        term = ad.masked_frobenius_norm(residual[i], np.asarray(m3, dtype=np.float64))
        total = term if total is None else total + term
    loss = total / len(images)
    loss.backward()
    ad.sgd_step(ssae.params.values(), lr)
    ad.zero_grads(ssae.params.values())
    return loss.item()


def _kmeans_reference(pixels, num_colors, seed, return_inertia=False, reseeded=None):
    """Per-cluster loop k-means; `reseeded` collects the clusters left empty."""
    pixels = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    n = pixels.shape[0]
    uniq = np.unique(pixels, axis=0)
    if uniq.shape[0] <= num_colors:
        centers = np.vstack([uniq, np.repeat(uniq[-1:], num_colors - uniq.shape[0], axis=0)])
        d = ((pixels[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        return (centers, assign, [0.0]) if return_inertia else (centers, assign)
    rng = np.random.default_rng(seed)
    centers = np.empty((num_colors, 3))
    centers[0] = pixels[rng.integers(n)]
    d2 = ((pixels - centers[0]) ** 2).sum(axis=1)
    for i in range(1, num_colors):
        total = d2.sum()
        if total <= 0:
            centers[i] = pixels[rng.integers(n)]
        else:
            centers[i] = pixels[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pixels - centers[i]) ** 2).sum(axis=1))
    assign = None
    history = []
    for _ in range(50):
        d = ((pixels[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d.argmin(axis=1)
        history.append(float(np.take_along_axis(d, new_assign[:, None], axis=1).sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        dist_to_own = np.take_along_axis(d, assign[:, None], axis=1)[:, 0]
        for ci in range(num_colors):
            members = assign == ci
            if members.any():
                centers[ci] = pixels[members].mean(axis=0)
            else:
                centers[ci] = pixels[dist_to_own.argmax()]
                if reseeded is not None:
                    reseeded.append(ci)
    return (centers, assign, history) if return_inertia else (centers, assign)


def _index_bits_reference(num_colors):
    return max(1, int(np.ceil(np.log2(num_colors))))


def _rle_encode_reference(indices, num_colors, run_bits):
    """Record-by-record, bit-by-bit RLE encoder."""
    indices = np.asarray(indices, dtype=np.int64)
    ib = _index_bits_reference(num_colors)
    max_run = 1 << run_bits
    bits = []
    i = 0
    n = indices.size
    while i < n:
        j = i
        while j < n and indices[j] == indices[i] and j - i < max_run:
            j += 1
        val = int(indices[i])
        bits.extend((val >> b) & 1 for b in range(ib - 1, -1, -1))
        bits.extend(((j - i - 1) >> b) & 1 for b in range(run_bits - 1, -1, -1))
        i = j
    return np.array(bits, dtype=np.uint8)


def _rle_decode_reference(bits, count, num_colors, run_bits):
    """Record-by-record, bit-by-bit RLE decoder."""
    bits = np.asarray(bits, dtype=np.uint8)
    ib = _index_bits_reference(num_colors)
    rec = ib + run_bits
    out = np.empty(count, dtype=np.int64)
    pos = 0
    filled = 0
    while filled < count:
        if pos + rec > bits.size:
            raise CorruptFrameError("RLE stream exhausted before index count reached")
        val = 0
        for b in bits[pos : pos + ib]:
            val = (val << 1) | int(b)
        stored = 0
        for b in bits[pos + ib : pos + rec]:
            stored = (stored << 1) | int(b)
        run = stored + 1
        pos += rec
        if val >= num_colors:
            raise CorruptFrameError(f"palette index {val} >= {num_colors}")
        if filled + run > count:
            raise CorruptFrameError("RLE run overflows declared index count")
        out[filled : filled + run] = val
        filled += run
    return out


def _outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except CorruptFrameError as exc:
        return str(exc)


def _pixel_set(rng, n, kind):
    """Random (n, 3) pixels: noise, few distinct colours, or a coarse grid."""
    if kind == 0:
        return rng.random((n, 3))
    if kind == 1:
        colors = rng.random((int(rng.integers(1, 30)), 3))
        return colors[rng.integers(0, len(colors), n)]
    return np.rint(rng.random((n, 3)) * 4) / 4


def full_mask(h, w, patch_size, weights=None):
    gh, gw = h // patch_size, w // patch_size
    if weights is None:
        weights = np.full(gh * gw, 0.01)
    return SemanticMask(
        mask=np.ones((h, w)),
        patch_weights=np.asarray(weights, dtype=np.float64).reshape(gh, gw),
    )


class TestConfig:
    def test_reference_ratio(self):
        cfg = SSAEConfig(latent_channels=4, downs=3)
        assert cfg.compression_ratio == Fraction(1, 48)

    def test_latent_shape_reference(self):
        cfg = SSAEConfig(latent_channels=4, downs=3)
        assert cfg.latent_shape(96, 96) == (4, 12, 12)

    def test_non_divisible(self):
        with pytest.raises(ValueError):
            SSAEConfig(downs=3).latent_shape(96, 100)

    def test_ratio_formula_random_configs(self, rng):
        for _ in range(20):
            c_o = int(rng.integers(1, 9))
            d = int(rng.integers(0, 4))
            cfg = SSAEConfig(latent_channels=c_o, downs=d)
            assert cfg.compression_ratio == Fraction(c_o, 4**d * 3)
            h = w = 32 * (2**d) // (2**d) * (2**d)  # any multiple of 2^d
            shape = cfg.latent_shape(h, w)
            assert shape[0] * shape[1] * shape[2] == c_o * h * w // 4**d

    @pytest.mark.parametrize("stem", [0, -2])
    def test_stem_channels_below_one(self, stem):
        with pytest.raises(ValueError, match=f"stem_channels must be at least 1, got {stem}"):
            SSAEConfig(stem_channels=stem)


class TestQuantizer:
    def test_midpoint_level(self):
        q = quantize(np.array([0.5]), 8)
        assert q.levels[0] == 128
        assert dequantize(q)[0] == pytest.approx(128 / 255)

    def test_grid_idempotence_exhaustive(self):
        for n in (1, 2, 4, 8):
            levels = np.arange(2**n)
            q = QuantizedLatent(levels=levels, bits=n)
            assert np.array_equal(quantize(dequantize(q), n).levels, levels)

    def test_error_bound(self, rng):
        for n in (1, 4, 8):
            v = rng.random(10000)
            err = np.abs(dequantize(quantize(v, n)) - v)
            assert err.max() <= 1 / (2 * (2**n - 1)) + 1e-15

    def test_out_of_range_level_rejected(self):
        with pytest.raises(CorruptFrameError):
            dequantize(QuantizedLatent(levels=np.array([256]), bits=8))


class TestCodec:
    def test_encode_shapes(self, rng):
        cfg = SSAEConfig(latent_channels=4, downs=3, stem_channels=8)
        ssae = SSAE(cfg, rng=rng)
        latent, q = ssae.encode_quantize(rng.random((3, 96, 96)))
        assert latent.shape == (4, 12, 12)
        assert latent.size == 576
        assert q.levels.max() < 256

    def test_decode_shape_and_range(self, rng):
        for downs in (1, 2):
            cfg = SSAEConfig(latent_channels=2, downs=downs, stem_channels=8)
            ssae = SSAE(cfg, rng=rng)
            _, q = ssae.encode_quantize(rng.random((3, 16, 16)))
            recon = ssae.decode(q)
            assert recon.shape == (3, 16, 16)
            assert recon.min() >= 0.0 and recon.max() <= 1.0

    def test_latent_in_unit_interval(self, rng):
        ssae = SSAE(SSAEConfig(latent_channels=2, downs=1, stem_channels=8), rng=rng)
        latent = ssae.encode(rng.random((3, 8, 8))).data
        assert latent.min() >= 0.0 and latent.max() <= 1.0

    def test_image_equals_batch_of_one(self, rng):
        ssae = SSAE(SSAEConfig(latent_channels=2, downs=2, stem_channels=4), rng=rng)
        ssae.train_step([rng.random((3, 8, 8)) for _ in range(2)], [np.ones((3, 8, 8))] * 2, 0.1)
        img = rng.random((3, 8, 8))
        assert np.array_equal(ssae.encode(img).data, ssae.encode(img[None]).data[0])
        latent = rng.random((2, 2, 2))
        assert np.array_equal(ssae.decode_latent(latent).data,
                              ssae.decode_latent(latent[None]).data[0])

    def test_non_divisible_rejected(self, rng):
        ssae = SSAE(SSAEConfig(downs=3), rng=rng)
        with pytest.raises(ValueError):
            ssae.encode(rng.random((3, 20, 20)))


class TestTraining:
    def test_zero_mask_no_update(self, rng):
        ssae = SSAE(SSAEConfig(latent_channels=2, downs=1, stem_channels=4), rng=rng)
        # learnable params only: the batchnorm running statistics move on every
        # training forward pass
        before = {k: p.data.copy() for k, p in ssae.params.items() if p.requires_grad}
        images = [rng.random((3, 8, 8)) for _ in range(2)]
        masks = [np.zeros((3, 8, 8))] * 2
        loss = ssae.train_step(images, masks, lr=0.1)
        assert loss == 0.0
        for k, data in before.items():
            assert np.array_equal(ssae.params[k].data, data)

    def test_loss_non_negative_and_decreasing(self, rng):
        ssae = SSAE(SSAEConfig(latent_channels=4, downs=1, stem_channels=8), rng=rng)
        images = [rng.random((3, 8, 8)) for _ in range(4)]
        masks = [np.ones((3, 8, 8))] * 4
        losses = [ssae.train_step(images, masks, lr=0.2) for _ in range(100)]
        assert all(l >= 0 for l in losses)
        assert losses[-1] < losses[0]

    def test_batch8_step_memory_peak(self, rng):
        # the benchmark's SSAE at 32x32; a conv that kept a [B, C_in*k*k, H*W] column
        # matrix per layer for its backward peaked at about 60 MB here
        ssae = SSAE(SSAEConfig(latent_channels=4, downs=1, bits=8, stem_channels=16), rng=rng)
        images = [rng.random((3, 32, 32)) for _ in range(8)]
        masks = [np.ones((3, 32, 32))] * 8
        tracemalloc.start()
        try:
            ssae.train_step(images, masks, lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_step_equals_per_image_losses(self):
        # the benchmark's SSAE trainer config: batch 8, 32x32, stem 16, downs=1
        rng = np.random.default_rng(7)
        ssae = SSAE(SSAEConfig(latent_channels=4, downs=1, bits=8, stem_channels=16),
                    rng=np.random.default_rng(1))
        twin = copy.deepcopy(ssae)
        images = [rng.random((3, 32, 32)) for _ in range(8)]
        masks = [np.repeat(rng.random((1, 32, 32)) > 0.3, 3, axis=0).astype(float)
                 for _ in range(8)]
        masks[5] = np.zeros((3, 32, 32))
        for _ in range(3):
            assert ssae.train_step(images, masks, 0.1) == _ssae_step_reference(
                twin, images, masks, 0.1)
        for name, p in ssae.params.items():
            assert np.array_equal(p.data, twin.params[name].data), name

    @pytest.mark.parametrize("masks", [
        [np.ones((3, 8, 8))],  # fewer masks than images
        [np.ones((8, 8))] * 3,  # single-channel masks, which would broadcast
        np.ones((3, 8, 8)),  # one stacked mask, read as three [8, 8] masks
    ])
    def test_masks_must_match_images(self, rng, masks):
        ssae = SSAE(SSAEConfig(latent_channels=2, downs=1, stem_channels=4), rng=rng)
        images = [rng.random((3, 8, 8)) for _ in range(3)]
        with pytest.raises(ValueError, match=r"masks \(.*\) do not match images \(3, 3, 8, 8\)"):
            ssae.train_step(images, masks, lr=0.1)

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        cfg = SSAEConfig(latent_channels=2, downs=1, stem_channels=4)
        a = SSAE(cfg, rng=np.random.default_rng(0))
        a.train_step([rng.random((3, 8, 8))], [np.ones((3, 8, 8))], lr=0.1)
        path = tmp_path / "ssae.ckpt"
        save_params(path, a.params)
        b = SSAE(cfg, rng=np.random.default_rng(9))
        load_params(path, b.params)
        x = rng.random((3, 8, 8))
        _, qa = a.encode_quantize(x)
        _, qb = b.encode_quantize(x)
        assert np.abs(qa.levels - qb.levels).max() <= 1  # float32 checkpoint rounding

    def test_checkpoint_layout(self, tmp_path):
        # the batchnorm running statistics follow the conv params, one [2, C] block each
        path = tmp_path / "ssae.ckpt"
        save_params(path, SSAE(SSAEConfig(4, 1, 8, 16), rng=np.random.default_rng(0)).params)
        blob = path.read_bytes()
        assert blob.split(b"\n")[0].endswith(
            b" bn.enc.stem:2,16 bn.enc.down0:2,16 bn.dec.in:2,16 bn.dec.up0:2,16")
        assert len(blob) == 27554
        assert hashlib.sha256(blob).hexdigest() == (
            "a38965d31a6baec072eddffed51d79173428adc08c3de709366d703117500c46")

    def test_training_moves_running_statistics(self, rng):
        ssae = SSAE(SSAEConfig(latent_channels=2, downs=1, stem_channels=4), rng=rng)
        stats = ssae.params["bn.enc.stem"]
        assert not stats.requires_grad
        assert np.array_equal(stats.data, [[0.0] * 4, [1.0] * 4])
        ssae.train_step([rng.random((3, 8, 8))], [np.ones((3, 8, 8))], lr=0.1)
        assert not np.array_equal(stats.data, [[0.0] * 4, [1.0] * 4])


class TestKmeans:
    def test_exact_colors_zero_inertia(self, rng):
        colors = rng.random((4, 3))
        pixels = colors[rng.integers(0, 4, 100)]
        centers, assign, history = kmeans_palette(pixels, 4, seed=0, return_inertia=True)
        assert history[-1] == pytest.approx(0.0, abs=1e-12)
        assert {tuple(c) for c in np.round(centers, 9)} >= {
            tuple(c) for c in np.round(colors, 9)
        }

    def test_single_center_is_mean(self, rng):
        pixels = rng.random((50, 3))
        centers, assign = kmeans_palette(pixels, 1, seed=0)
        assert centers[0] == pytest.approx(pixels.mean(axis=0))
        assert np.all(assign == 0)

    def test_inertia_non_increasing(self, rng):
        for trial in range(100):
            pixels = rng.random((rng.integers(20, 60), 3))
            _, _, history = kmeans_palette(pixels, 4, seed=trial, return_inertia=True)
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_deterministic(self, rng):
        pixels = rng.random((64, 3))
        c1, a1 = kmeans_palette(pixels, 5, seed=7)
        c2, a2 = kmeans_palette(pixels, 5, seed=7)
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_loop_reference(self, rng, order):
        cases = [
            (_pixel_set(rng, int(rng.integers(1, 400)), trial % 3), int(rng.integers(2, 17)))
            for trial in range(60)
        ]
        # boundaries of the <= F distinct-colour shortcut: exactly F and F + 1
        # colours, each repeated, with 0.0 beside -0.0 (one colour) in channel 1
        for f in (2, 5, 16):
            for distinct in (f, f + 1):
                colors = rng.random((distinct, 3))
                colors[0, 1] = 0.0
                pixels = colors[rng.permutation(np.arange(120) % distinct)]
                pixels[np.flatnonzero(pixels[:, 1] == 0.0)[::2], 1] = -0.0
                cases.append((pixels, f))
        for trial, (pixels, f) in enumerate(cases):
            pixels = np.asarray(pixels, order=order)
            got = kmeans_palette(pixels, f, trial, return_inertia=True)
            want = _kmeans_reference(pixels, f, trial, return_inertia=True)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            centers, assign = kmeans_palette(pixels, f, trial)
            assert np.array_equal(centers, want[0]) and np.array_equal(assign, want[1])

    def test_empty_cluster_reseed_matches_reference(self):
        # found by search: cluster 1 loses every member and is re-seeded
        pixels = np.random.default_rng(4903).random((12, 3)) ** 4
        reseeded = []
        want = _kmeans_reference(pixels, 4, 4903, return_inertia=True, reseeded=reseeded)
        assert reseeded
        got = kmeans_palette(pixels, 4, 4903, return_inertia=True)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_memory_layout_invariant(self, rng):
        pixels = rng.random((512, 3))
        c_order = kmeans_palette(pixels, 8, 3, return_inertia=True)
        f_order = kmeans_palette(np.asfortranarray(pixels), 8, 3, return_inertia=True)
        assert np.array_equal(c_order[0], f_order[0])
        assert np.array_equal(c_order[1], f_order[1])
        assert c_order[2] == f_order[2]


class TestRle:
    def test_hand_coded_example(self):
        bits = rle_encode([0, 0, 0, 0, 1, 1], num_colors=2, run_bits=4)
        assert bits.size == 10  # 2 runs x (1 index bit + 4 length bits)
        assert np.array_equal(rle_decode(bits, 6, 2, 4), [0, 0, 0, 0, 1, 1])

    def test_long_run_split(self):
        stream = np.zeros(40, dtype=int)
        bits = rle_encode(stream, num_colors=8, run_bits=4)
        assert bits.size == 3 * (3 + 4)  # runs of 16, 16, 8
        assert np.array_equal(rle_decode(bits, 40, 8, 4), stream)

    def test_bad_index_rejected_on_decode(self):
        # 3-bit index 7 with palette of 5 colors
        bits = np.array([1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        with pytest.raises(CorruptFrameError):
            rle_decode(bits, 1, 5, 4)

    def test_exhausted_stream(self):
        with pytest.raises(CorruptFrameError):
            rle_decode(np.zeros(3, dtype=np.uint8), 5, 2, 4)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=200),
        st.integers(1, 6),
    )
    def test_roundtrip_property(self, stream, run_bits):
        bits = rle_encode(stream, num_colors=8, run_bits=run_bits)
        assert np.array_equal(rle_decode(bits, len(stream), 8, run_bits), stream)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda f: st.tuples(st.just(f), st.lists(st.integers(0, f - 1), max_size=300))
        ),
        st.integers(1, 8),
    )
    def test_encode_matches_loop_reference(self, palette_and_stream, run_bits):
        f, stream = palette_and_stream
        bits = rle_encode(stream, f, run_bits)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, _rle_encode_reference(stream, f, run_bits))
        assert np.array_equal(rle_decode(bits, len(stream), f, run_bits), stream)

    @pytest.mark.parametrize("high_bit", [53, 63, 64, 69])
    def test_run_field_wider_than_int64_overflows(self, high_bit):
        # a corrupt header may declare L up to 255; only a bit of the run field
        # above 2^52 is set, so the run is far longer than any index count
        bits = np.zeros(1 + 70, dtype=np.uint8)
        bits[1 + 69 - high_bit] = 1
        with pytest.raises(CorruptFrameError, match="run overflows"):
            _rle_decode_reference(bits, 64, 2, 70)
        with pytest.raises(CorruptFrameError, match="run overflows"):
            rle_decode(bits, 64, 2, 70)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 1), max_size=300),
        st.integers(0, 300),
        st.integers(1, 40),
        st.integers(0, 8) | st.integers(60, 255),
    )
    def test_decode_matches_loop_reference(self, bits, count, num_colors, run_bits):
        bits = np.array(bits, dtype=np.uint8)
        assert _outcome(rle_decode, bits, count, num_colors, run_bits) == _outcome(
            _rle_decode_reference, bits, count, num_colors, run_bits
        )


class TestPlanRefinement:
    def test_eta_zero_empty_plan(self, rng):
        image = rng.random((3, 16, 16))
        mask = full_mask(16, 16, 8)
        plan = plan_refinement(image, image, mask, psi=1e-3, eta=0.0, palette_size=8, run_bits=4)
        assert plan.t_prime == 0
        assert np.all(plan.flags == 0)
        assert plan.rle_bits.size == 0

    def test_no_candidates_empty_plan(self, rng):
        image = rng.random((3, 16, 16))
        mask = full_mask(16, 16, 8, weights=np.zeros(4))
        plan = plan_refinement(image, image, mask, psi=1e-3, eta=0.5, palette_size=8, run_bits=4)
        assert plan.t_prime == np.floor(0.5 * np.sum(mask.patch_weights > 1e-3) + 0.5) == 0

    def test_top_error_patch_selected(self, rng):
        image = np.zeros((3, 16, 8))
        recon = image.copy()
        # patch 0 error 0.9^2*..., patch 1 smaller
        recon[:, 0:8, 0:8] += 0.9
        recon[:, 8:16, 0:8] += 0.1
        mask = SemanticMask(mask=np.ones((16, 8)), patch_weights=np.array([[0.01], [0.01]]))
        plan = plan_refinement(image, recon, mask, psi=1e-3, eta=0.5, palette_size=8, run_bits=4)
        assert plan.t_prime == np.floor(0.5 * np.sum(mask.patch_weights > 1e-3) + 0.5) == 1
        assert plan.flags.tolist() == [1, 0]

    def test_determinism(self, rng):
        image = rng.random((3, 32, 32))
        recon = rng.random((3, 32, 32))
        mask = full_mask(32, 32, 8)
        a = plan_refinement(image, recon, mask, 1e-3, 0.5, 8, 4, seed=5)
        b = plan_refinement(image, recon, mask, 1e-3, 0.5, 8, 4, seed=5)
        assert np.array_equal(a.rle_bits, b.rle_bits)
        assert np.array_equal(a.flags, b.flags)

    def test_palette_wider_than_header_field_rejected(self, rng):
        image = rng.random((3, 16, 16))
        with pytest.raises(ValueError, match="palette size"):
            plan_refinement(image, image, full_mask(16, 16, 8), 1e-3, 0.5, 256, 4)

    def test_palette_and_rle_code_refined_pixels_in_raster_order(self, rng):
        # loop reference: each refined patch's pixels sliced from the image, patch
        # by patch in raster order, rows then columns inside a patch
        image = rng.random((3, 16, 24))
        recon = rng.random((3, 16, 24))
        p = 8
        mask = full_mask(16, 24, p, weights=rng.random(6) * 0.01)
        plan = plan_refinement(image, recon, mask, 1e-3, 0.7, 5, 3, seed=2)
        assert plan.t_prime >= 2
        blocks = []
        for patch_index in np.flatnonzero(plan.flags):
            gi, gj = divmod(int(patch_index), 24 // p)
            block = image[:, gi * p : (gi + 1) * p, gj * p : (gj + 1) * p]
            blocks.extend(block[:, y, x] for y in range(p) for x in range(p))
        pixels = np.array(blocks)
        centers, _ = kmeans_palette(pixels, 5, 2)
        palette = np.clip(np.rint(centers * 255.0), 0, 255).astype(np.uint8)
        d = ((pixels[:, None, :] * 255.0 - palette[None].astype(np.float64)) ** 2).sum(axis=2)
        assert np.array_equal(plan.palette, palette)
        assert np.array_equal(plan.rle_bits, rle_encode(d.argmin(axis=1), 5, 3))

    def test_eta_bookkeeping(self, rng):
        image = rng.random((3, 32, 32))
        recon = rng.random((3, 32, 32))
        weights = rng.random(16) * 0.01
        mask = full_mask(32, 32, 8, weights=weights)
        plan = plan_refinement(image, recon, mask, 5e-3, 0.7, 8, 4)
        assert plan.t_prime == np.floor(0.7 * np.sum(weights > 5e-3) + 0.5) > 0
        assert int(plan.flags.sum()) == plan.t_prime


class TestApplyRefinement:
    def test_empty_plan_identity(self, rng):
        recon = rng.random((3, 16, 16))
        plan = RefinementPlan.empty(4, 8, 4, 8)
        assert np.array_equal(apply_refinement(recon, plan), recon)

    def test_constant_fill(self):
        recon = np.zeros((3, 8, 8))
        plan = RefinementPlan(
            t_prime=1,
            flags=np.array([1], dtype=np.uint8),
            palette=np.array([[255, 0, 0], [0, 0, 255]], dtype=np.uint8),
            run_bits=4,
            rle_bits=rle_encode(np.zeros(64, dtype=int), 2, 4),
            patch_size=8,
        )
        out = apply_refinement(recon, plan)
        assert np.all(out[0] == 1.0)
        assert np.all(out[1] == 0.0)

    def test_roundtrip_nearest_palette_color(self, rng):
        image = rng.random((3, 16, 16))
        recon = np.clip(image + rng.normal(0, 0.2, image.shape), 0, 1)
        mask = full_mask(16, 16, 8)
        plan = plan_refinement(image, recon, mask, 1e-3, 1.0, 4, 4, seed=1)
        out = apply_refinement(recon, plan)
        colors = plan.palette.astype(np.float64) / 255.0
        p = plan.patch_size
        for patch_index in np.flatnonzero(plan.flags):
            gi, gj = divmod(int(patch_index), 16 // p)
            block_img = image[:, gi * p : (gi + 1) * p, gj * p : (gj + 1) * p]
            block_out = out[:, gi * p : (gi + 1) * p, gj * p : (gj + 1) * p]
            for y in range(p):
                for x in range(p):
                    pix = block_img[:, y, x]
                    nearest = colors[((colors - pix) ** 2).sum(axis=1).argmin()]
                    assert block_out[:, y, x] == pytest.approx(nearest)
