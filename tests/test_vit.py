import numpy as np
import pytest

from conftest import check_gradients, fd_gradient
from gscomm import autodiff as ad
from gscomm.autodiff import Tensor
from gscomm.vit import ViTConfig, init_vit_params, patchify, vit_forward


def _layernorm(x, eps=1e-5):
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + eps)


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _vit_reference(image, config, params, emb=None):
    """Plain-numpy forward pass, one head at a time; returns (tokens, last-block attention).

    `emb` replaces the [T, C] patch embedding (before bias and position) when given."""
    w = {name: p.data for name, p in params.items()}
    c, d = config.dim, config.head_dim
    if emb is None:
        emb = patchify(image, config.patch_size) @ w["patch_embed.kernel"].reshape(c, -1).T
    x = np.vstack([w["cls_token"], emb + w["patch_embed.bias"] + w["pos_embed"]])
    for u in range(config.blocks):
        b = f"blk{u}."
        h = _layernorm(x)
        outputs, attention = [], []
        for m in range(config.heads):
            cols = slice(m * d, (m + 1) * d)
            q, k, v = (h @ w[b + name][:, cols] for name in ("wq", "wk", "wv"))
            s = _softmax(q @ k.T / np.sqrt(d))
            outputs.append(s @ v)
            attention.append(s)
        x = x + np.hstack(outputs) @ w[b + "wo"]
        hidden = np.maximum(_layernorm(x) @ w[b + "mlp1.w"] + w[b + "mlp1.b"], 0.0)
        x = x + hidden @ w[b + "mlp2.w"] + w[b + "mlp2.b"]
    return x, np.stack(attention)


@pytest.fixture
def small_config():
    return ViTConfig(patch_size=8, dim=16, blocks=2, heads=4, img_h=16, img_w=16)


class TestPatchify:
    def test_reference_scale_count(self, rng):
        patches = patchify(rng.random((3, 96, 96)), 8)
        assert patches.shape == (144, 3 * 64)

    def test_single_patch(self, rng):
        image = rng.random((3, 8, 8))
        patches = patchify(image, 8)
        assert patches.shape == (1, 192)
        assert np.array_equal(patches[0], image.reshape(-1))

    def test_batch_equals_stacked_images(self, rng):
        images = rng.random((2, 3, 3, 16, 24))
        patches = patchify(images, 8)
        assert patches.shape == (2, 3, 6, 192)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(patches[i, j], patchify(images[i, j], 8))

    def test_tensor_equals_array(self, rng):
        images = rng.random((4, 3, 16, 16))
        out = patchify(Tensor(images), 8)
        assert isinstance(out, Tensor)
        assert np.array_equal(out.data, patchify(images, 8))

    def test_non_divisible_rejected(self, rng):
        with pytest.raises(ValueError):
            patchify(rng.random((3, 30, 32)), 8)


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ViTConfig(patch_size=7, img_h=32, img_w=32)
        with pytest.raises(ValueError):
            ViTConfig(dim=30, heads=4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("heads", 0), ("heads", -4), ("patch_size", 0), ("blocks", 0), ("dim", 0),
            ("img_h", 0), ("img_w", -8),
        ],
    )
    def test_non_positive_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            ViTConfig(**{field: value})

    def test_patch_count(self):
        cfg = ViTConfig(patch_size=8, img_h=96, img_w=96)
        assert cfg.num_patches == 144


class TestForward:
    def test_token_matrix_shape(self, rng):
        cfg = ViTConfig(patch_size=8, dim=32, blocks=2, heads=4, img_h=96, img_w=96)
        params = init_vit_params(cfg, rng)
        tokens, attention = vit_forward(rng.random((3, 96, 96)), cfg, params)
        assert tokens.data.shape == (145, 32)
        assert attention.shape == (4, 145, 145)

    def test_attention_rows_stochastic(self, rng, small_config):
        params = init_vit_params(small_config, rng)
        _, attention = vit_forward(rng.random((3, 16, 16)), small_config, params)
        assert attention.shape == (4, 5, 5)
        assert np.abs(attention.sum(axis=-1) - 1.0).max() < 1e-9

    @pytest.mark.parametrize("heads", [4, 1])
    def test_matches_per_head_reference(self, rng, heads):
        cfg = ViTConfig(heads=heads)
        # scale 0.5 keeps the attention far from uniform, so a head mix-up shows
        params = init_vit_params(cfg, rng)
        for p in params.values():
            p.data[:] = rng.normal(0.0, 0.5, size=p.data.shape)
        image = rng.random((3, cfg.img_h, cfg.img_w))
        tokens, attention = vit_forward(image, cfg, params)
        ref_tokens, ref_attention = _vit_reference(image, cfg, params)
        assert attention.shape == (heads, cfg.num_patches + 1, cfg.num_patches + 1)
        np.testing.assert_allclose(tokens.data, ref_tokens, rtol=0, atol=1e-12)
        np.testing.assert_allclose(attention, ref_attention, rtol=0, atol=1e-12)

    def test_patch_embedding_equals_stride_p_conv(self, rng):
        cfg = ViTConfig()
        params = init_vit_params(cfg, rng)
        image = rng.random((3, cfg.img_h, cfg.img_w))
        kernel = params["patch_embed.kernel"]
        conv = ad.conv2d(image, kernel, stride=cfg.patch_size, padding=0)
        emb = conv.reshape(cfg.dim, cfg.num_patches).T
        tokens, _ = vit_forward(image, cfg, params)
        ref_tokens, _ = _vit_reference(image, cfg, params, emb=emb.data)
        np.testing.assert_allclose(tokens.data, ref_tokens, rtol=0, atol=1e-12)
        # pos_embed is added to the patch embedding, so its gradient is the embedding's
        (tokens * rng.standard_normal(tokens.shape)).sum().backward()
        g_emb = params["pos_embed"].grad
        g_kernel = kernel.grad
        kernel.zero_grad()
        (emb * g_emb).sum().backward()
        np.testing.assert_allclose(g_kernel, kernel.grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lead", [(5,), (2, 2)])
    def test_batch_equals_one_image_at_a_time(self, rng, lead):
        cfg = ViTConfig()
        params = init_vit_params(cfg, rng)
        images = rng.random((*lead, 3, cfg.img_h, cfg.img_w))
        tokens, attention = vit_forward(images, cfg, params)
        assert tokens.shape == (*lead, cfg.num_patches + 1, cfg.dim)
        assert attention.shape == (*lead, cfg.heads, cfg.num_patches + 1, cfg.num_patches + 1)
        for i in np.ndindex(lead):
            one_tokens, one_attention = vit_forward(images[i], cfg, params)
            assert np.array_equal(tokens.data[i], one_tokens.data)
            assert np.array_equal(attention[i], one_attention)

    def test_gradients_batched(self, rng):
        cfg = ViTConfig(patch_size=4, dim=4, blocks=1, heads=2, img_h=8, img_w=8)
        params = init_vit_params(cfg, rng)
        for p in params.values():
            p.data[:] = rng.normal(0.0, 0.5, size=p.data.shape)
        # biases and the CLS token are broadcast over both leading axes of [B, T+1, C]
        names = ("blk0.wq", "blk0.mlp1.b", "patch_embed.bias", "cls_token")
        weights = rng.standard_normal((2, cfg.num_patches + 1, cfg.dim))

        def loss(images, *values):
            local = {**params, **dict(zip(names, values))}
            tokens, _ = vit_forward(images, cfg, local)
            return (tokens * weights).sum()

        check_gradients(loss, [rng.random((2, 3, 8, 8))] + [params[n].data for n in names])

    def test_wrong_extents_rejected(self, rng, small_config):
        params = init_vit_params(small_config, rng)
        with pytest.raises(ValueError):
            vit_forward(rng.random((3, 32, 32)), small_config, params)

    def test_permutation_equivariance_with_zero_pos_embed(self, rng, small_config):
        params = init_vit_params(small_config, rng)
        params["pos_embed"].data[:] = 0.0
        image = rng.random((3, 16, 16))
        # patches 0 and 1 are the top-left and top-right 8x8 blocks
        image2 = image.copy()
        image2[:, :8, :8], image2[:, :8, 8:] = image[:, :8, 8:], image[:, :8, :8]
        assert np.array_equal(patchify(image2, 8), patchify(image, 8)[[1, 0, 2, 3]])
        t1, _ = vit_forward(image, small_config, params)
        t2, _ = vit_forward(image2, small_config, params)
        assert t2.data[1] == pytest.approx(t1.data[2], abs=1e-12)
        assert t2.data[2] == pytest.approx(t1.data[1], abs=1e-12)
        assert t2.data[0] == pytest.approx(t1.data[0], abs=1e-12)

    def test_deterministic(self, rng, small_config):
        params = init_vit_params(small_config, rng)
        image = rng.random((3, 16, 16))
        a, _ = vit_forward(image, small_config, params)
        b, _ = vit_forward(image, small_config, params)
        assert np.array_equal(a.data, b.data)

    def test_end_to_end_gradient(self, rng):
        cfg = ViTConfig(patch_size=4, dim=4, blocks=1, heads=2, img_h=4, img_w=4)
        params = init_vit_params(cfg, rng)
        image = rng.random((3, 4, 4))
        w = rng.random(cfg.dim)
        name = "blk0.wq"

        def loss_value(kernel_data):
            old = params[name].data
            params[name].data = kernel_data
            tokens, _ = vit_forward(image, cfg, params)
            val = (tokens[0] * Tensor(w)).sum().item()
            params[name].data = old
            return val

        tokens, _ = vit_forward(image, cfg, params)
        (tokens[0] * Tensor(w)).sum().backward()
        analytic = params[name].grad
        numeric = fd_gradient(loss_value, [params[name].data.copy()], 0)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
        assert err.max() < 1e-3
        for p in params.values():
            p.zero_grad()
