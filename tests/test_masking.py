import numpy as np
import pytest

from gscomm.masking import (
    SemanticMask,
    _bilinear_taps,
    apply_mask,
    bilinear_resize,
    build_semantic_mask,
    cls_attention_maps,
    write_pbm,
)
from gscomm.vit import ViTConfig


def _mask(mask2d):
    """A SemanticMask over a plain HxW binary array, with one patch."""
    return SemanticMask(mask=np.asarray(mask2d, dtype=np.float64), patch_weights=np.zeros((1, 1)))


class TestClsAttentionMaps:
    def test_uniform_attention(self):
        cfg = ViTConfig(patch_size=8, dim=32, heads=1, img_h=32, img_w=32)
        t = cfg.num_patches
        s = np.full((t + 1, t + 1), 1.0 / (t + 1))
        maps = cls_attention_maps(s[None], cfg)
        assert maps.shape == (1, 4, 4)
        assert maps == pytest.approx(np.full((1, 4, 4), 1.0 / (t + 1)))

    def test_one_hot_row(self):
        cfg = ViTConfig(patch_size=8, dim=32, heads=1, img_h=32, img_w=32)
        t = cfg.num_patches
        s = np.zeros((t + 1, t + 1))
        j = 5
        s[0, 1 + j] = 1.0
        maps = cls_attention_maps(s[None], cfg)
        expected = np.zeros(t)
        expected[j] = 1.0
        assert np.array_equal(maps[0].reshape(-1), expected)

    def test_reference_scale_grid(self):
        cfg = ViTConfig(patch_size=8, dim=30, heads=5, img_h=96, img_w=96)
        t = cfg.num_patches
        s = np.full((t + 1, t + 1), 1.0 / (t + 1))
        maps = cls_attention_maps(np.stack([s] * 5), cfg)
        assert maps.shape == (5, 12, 12)

    def test_head_count_mismatch(self):
        cfg = ViTConfig(patch_size=8, dim=32, heads=4, img_h=32, img_w=32)
        with pytest.raises(ValueError):
            cls_attention_maps(np.eye(17)[None], cfg)


class TestBilinearResize:
    def test_constant_preserved(self):
        out = bilinear_resize(np.full((2, 2), 3.25), (5, 7))
        assert out == pytest.approx(np.full((5, 7), 3.25))

    def test_degenerate_1x1(self):
        out = bilinear_resize([[4.0]], (3, 3))
        assert out == pytest.approx(np.full((3, 3), 4.0))

    def test_corner_aligned_row(self):
        out = bilinear_resize([[0.0, 1.0], [0.0, 1.0]], (2, 4))
        assert out[0] == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])

    def test_single_row_and_column_extents(self):
        grid = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        assert np.array_equal(bilinear_resize(grid[:1], (3, 3)), np.repeat(grid[:1], 3, axis=0))
        assert np.array_equal(bilinear_resize(grid, (1, 3)), grid[:1])
        assert np.array_equal(bilinear_resize(grid, (2, 1)), grid[:, :1])


def _bilinear_reference(grid, target):
    """bilinear_resize with its taps computed afresh on every call."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape[-2:]
    H, W = target
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


class TestBilinearTaps:
    def test_cached_taps_are_read_only(self):
        bilinear_resize(np.ones((4, 4)), (32, 32))
        for tap in _bilinear_taps(4, 4, 32, 32):
            with pytest.raises(ValueError, match="read-only"):
                tap[(0,) * tap.ndim] = 7

    @pytest.mark.parametrize("h", [1, 2, 4])
    @pytest.mark.parametrize("w", [1, 4])
    @pytest.mark.parametrize("H", [1, 7, 32])
    @pytest.mark.parametrize("W", [1, 32])
    def test_cached_output_equals_fresh_taps(self, rng, h, w, H, W):
        grid = rng.random((2, 3, h, w)) * 4.0
        want = _bilinear_reference(grid, (H, W))
        for _ in range(2):  # the first call may fill the cache, the second reads it
            got = bilinear_resize(grid, (H, W))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBuildSemanticMask:
    def test_all_below_rho(self):
        maps = np.full((3, 4, 4), 1e-4)
        mask = build_semantic_mask(maps, 1e-3, (32, 32))
        assert np.all(mask.mask == 0)

    def test_all_above_rho(self):
        maps = np.full((3, 4, 4), 0.5)
        mask = build_semantic_mask(maps, 1e-3, (32, 32))
        assert np.all(mask.mask == 1)
        assert np.all(mask.mask3[0] == mask.mask3[2])

    def test_single_cell_single_head(self):
        grid = np.zeros((1, 4, 4))
        grid[0, 1, 1] = 1.0
        mask = build_semantic_mask(grid, 0.5, (32, 32))
        # center pixel of patch (1,1); the upsampled bump peaks there
        assert mask.mask[mask.mask.shape[0] * 3 // 8, mask.mask.shape[1] * 3 // 8] == 1.0
        assert mask.mask[0, 0] == 0.0
        assert mask.mask[-1, -1] == 0.0

    def test_rho_monotonicity(self, rng):
        raw = rng.random((2, 4, 4)) * 0.01
        hi = build_semantic_mask(raw, 5e-3, (16, 16))
        lo = build_semantic_mask(raw, 1e-3, (16, 16))
        assert np.all(lo.mask >= hi.mask)

    def test_patch_weights_from_raw_maps(self, rng):
        raw = rng.random((2, 4, 4)) * 0.01
        a = build_semantic_mask(raw, 5e-3, (16, 16))
        b = build_semantic_mask(raw, 1e-4, (16, 16))
        assert np.array_equal(a.patch_weights, b.patch_weights)
        assert a.patch_weights == pytest.approx(raw.sum(axis=0))

    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_mask3_is_read_only_broadcast(self, rng, lead):
        mask = build_semantic_mask(rng.random((*lead, 2, 4, 4)) * 0.01, 5e-3, (16, 8))
        assert mask.mask.shape == (*lead, 16, 8)
        assert mask.patch_weights.shape == (*lead, 4, 4)
        want = np.stack([mask.mask] * 3, axis=-3)
        assert mask.mask3.shape == want.shape == (*lead, 3, 16, 8)
        assert np.array_equal(mask.mask3, want)
        assert not mask.mask3.flags.writeable
        with pytest.raises(ValueError):
            mask.mask3[..., 0, 0, 0] = 1.0


class TestApplyMask:
    def test_identity_mask(self, rng):
        image = rng.random((3, 8, 8))
        assert np.array_equal(apply_mask(image, _mask(np.ones((8, 8)))), image)

    def test_zero_mask(self, rng):
        image = rng.random((3, 8, 8))
        assert np.all(apply_mask(image, _mask(np.zeros((8, 8)))) == 0)

    def test_checkerboard(self, rng):
        image = rng.random((3, 8, 8)) + 0.1
        board = np.indices((8, 8)).sum(axis=0) % 2
        out = apply_mask(image, _mask(board))
        assert np.array_equal(out != 0, np.broadcast_to(board, (3, 8, 8)) == 1)

    def test_idempotent(self, rng):
        image = rng.random((3, 8, 8))
        mask = _mask((rng.random((8, 8)) > 0.5).astype(float))
        once = apply_mask(image, mask)
        assert np.array_equal(apply_mask(once, mask), once)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_mask(rng.random((3, 8, 8)), _mask(np.ones((4, 4))))


class TestExports:
    def test_pbm(self, tmp_path, rng):
        mask = (rng.random((4, 4)) > 0.5).astype(float)
        pbm = tmp_path / "m.pbm"
        write_pbm(pbm, mask)
        text = pbm.read_text().splitlines()
        assert text[0] == "P1"
        assert text[1] == "4 4"
        assert [[int(v) for v in row.split()] for row in text[2:]] == mask.astype(int).tolist()
