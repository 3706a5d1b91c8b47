import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from gscomm import autodiff as ad
from gscomm.autodiff import Parameter, Tensor


def _conv2d_reference(x, k, stride, padding, g):
    """Direct nested-loop cross-correlation, with the gradients of sum(out * g)."""
    squeeze = x.ndim == 3
    xb = x[None] if squeeze else x
    gb = g[None] if squeeze else g
    size = k.shape[2]
    xp = np.pad(xb, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros(gb.shape)
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for n, o, i, j in np.ndindex(*out.shape):
        rows = slice(i * stride, i * stride + size)
        cols = slice(j * stride, j * stride + size)
        out[n, o, i, j] = (xp[n, :, rows, cols] * k[o]).sum()
        gxp[n, :, rows, cols] += gb[n, o, i, j] * k[o]
        gk[o] += gb[n, o, i, j] * xp[n, :, rows, cols]
    gx = gxp[:, :, padding : padding + xb.shape[2], padding : padding + xb.shape[3]]
    return (out[0], gx[0], gk) if squeeze else (out, gx, gk)


class TestConv2d:
    # H=8 leaves a remainder for stride 2 and 3 (= k); W=7 for stride 3
    @pytest.mark.parametrize("x_shape", [(2, 8, 7), (1, 2, 8, 7), (3, 2, 8, 7)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_nested_loop_reference(self, rng, x_shape, stride, padding):
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal((3, 2, 3, 3))
        xt = Tensor(x, requires_grad=True)
        kt = Tensor(k, requires_grad=True)
        out = ad.conv2d(xt, kt, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        (out * g).sum().backward()
        ref_out, ref_gx, ref_gk = _conv2d_reference(x, k, stride, padding, g)
        assert out.shape == ref_out.shape
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(xt.grad, ref_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kt.grad, ref_gk, rtol=0, atol=1e-12)

    def test_center_value_all_ones(self):
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = ad.conv2d(Tensor(x), Tensor(k), stride=1, padding=1)
        assert out.data.shape == (1, 3, 3)
        assert out.data[0, 1, 1] == pytest.approx(9.0)

    def test_zero_kernel(self, rng):
        x = rng.random((2, 4, 4))
        out = ad.conv2d(Tensor(x), Tensor(np.zeros((3, 2, 3, 3))), stride=1, padding=1)
        assert np.all(out.data == 0)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="conv2d channel mismatch"):
            ad.conv2d(Tensor(rng.random((2, 4, 4))), Tensor(rng.random((1, 3, 3, 3))))

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 4, 4))
        k = rng.standard_normal((3, 2, 3, 3))
        check_gradients(
            lambda a, b: ad.conv2d(a, b, stride=1, padding=1).sum(), [x, k]
        )

    def test_gradients_strided(self, rng):
        x = rng.standard_normal((1, 6, 6))
        k = rng.standard_normal((2, 1, 3, 3))
        check_gradients(
            lambda a, b: ad.conv2d(a, b, stride=2, padding=1).sum(), [x, k]
        )

    def test_gradients_patch_embed(self, rng):
        x = rng.standard_normal((3, 16, 16))
        k = rng.standard_normal((4, 3, 8, 8))
        w = rng.standard_normal((4, 2, 2))
        check_gradients(
            lambda a, b: (ad.conv2d(a, b, stride=8, padding=0) * w).sum(), [x, k]
        )

    def test_gradients_batched(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        w = rng.standard_normal((2, 3, 5, 5))
        check_gradients(
            lambda a, b: (ad.conv2d(a, b, stride=1, padding=1) * w).sum(), [x, k]
        )


class TestMaxpool2:
    def test_single_window(self):
        out = ad.maxpool2(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.data == pytest.approx(np.array([[[4.0]]]))

    def test_constant_input(self):
        out = ad.maxpool2(Tensor(np.full((2, 4, 4), 7.5)))
        assert np.all(out.data == 7.5)

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ValueError):
            ad.maxpool2(Tensor(rng.random((1, 3, 4))))

    def test_tie_routes_to_first_row_major(self):
        x = Tensor(np.full((1, 2, 2), 2.0), requires_grad=True)
        ad.maxpool2(x).sum().backward()
        assert x.grad[0, 0, 0] == 1.0
        assert x.grad.sum() == 1.0

    def test_gradients(self, rng):
        # distinct values keep us away from tie points
        x = rng.permutation(16).astype(np.float64).reshape(1, 4, 4)
        check_gradients(lambda a: ad.maxpool2(a).sum(), [x])


class TestAffine:
    def test_identity(self, rng):
        x = rng.random((3, 4))
        out = Tensor(x) @ Tensor(np.eye(4)) + Tensor(np.zeros(4))
        assert out.data == pytest.approx(x)

    def test_zero_weight_gives_bias(self, rng):
        b = rng.random(5)
        out = Tensor(rng.random((3, 4))) @ Tensor(np.zeros((4, 5))) + Tensor(b)
        assert out.data == pytest.approx(np.tile(b, (3, 1)))

    def test_gradients(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        check_gradients(lambda a, ww, bb: (a @ ww + bb).sum(), [x, w, b])

    def test_gradients_3d_input(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        g = rng.standard_normal((2, 3, 5))
        check_gradients(lambda a, ww, bb: ((a @ ww + bb) * g).sum(), [x, w, b])


class TestMatmul:
    def test_one_dimensional_operand_rejected(self, rng):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(rng.random(4)), Tensor(rng.random((4, 2))))
        with pytest.raises(ValueError):
            ad.matmul(Tensor(rng.random((3, 4))), Tensor(rng.random(4)))

    def test_inner_extent_mismatch(self, rng):
        with pytest.raises(ValueError, match="matmul inner extents disagree"):
            ad.matmul(Tensor(rng.random((2, 3, 4))), Tensor(rng.random((2, 5, 2))))


class TestActivations:
    def test_relu_clamps(self):
        assert ad.relu(Tensor([-1.0])).data == pytest.approx([0.0])

    def test_sigmoid_symmetry(self):
        assert ad.sigmoid(Tensor([0.0])).data == pytest.approx([0.5])

    def test_gradients(self, rng):
        x = rng.standard_normal(12) + 0.05  # keep away from the relu kink
        check_gradients(lambda a: ad.relu(a).sum(), [x])
        check_gradients(lambda a: ad.sigmoid(a).sum(), [x])


def _layernorm_reference(x, eps=1e-5):
    """The standalone layernorm that `_normalize` replaced."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat, (x,))
    n = x.data.shape[-1]

    def bwd(g):
        gsum = g.sum(axis=-1, keepdims=True)
        gxhat = (g * xhat).sum(axis=-1, keepdims=True)
        x._accumulate(inv * (g - gsum / n - xhat * gxhat / n))

    out._backward = bwd
    return out


def _batchnorm_reference(x, state, training):
    """The standalone batchnorm that `_normalize` replaced; `state` holds the
    running_mean and running_var arrays, replaced (not updated) on training."""
    axes = tuple(i for i in range(x.data.ndim) if i != x.data.ndim - 3)
    n = x.data.size // x.data.shape[-3]
    if training:
        mu = x.data.mean(axis=axes)
        xc = x.data - mu[:, None, None]
        var = (xc * xc).sum(axis=axes) / n
        state["running_mean"] = 0.9 * state["running_mean"] + (1 - 0.9) * mu
        state["running_var"] = 0.9 * state["running_var"] + (1 - 0.9) * var
    else:
        xc = x.data - state["running_mean"][:, None, None]
        var = state["running_var"]
    inv = 1.0 / np.sqrt(var + 1e-5)[:, None, None]
    xhat = xc * inv
    out = Tensor(xhat, (x,))

    def bwd(g):
        if training:
            gsum = g.sum(axis=axes)[:, None, None]
            gxhat = (g * xhat).sum(axis=axes)[:, None, None]
            x._accumulate(inv * (g - gsum / n - xhat * gxhat / n))
        else:
            x._accumulate(g * inv)

    out._backward = bwd
    return out


def _fresh_stats(channels):
    return np.stack([np.zeros(channels), np.ones(channels)])


def _out_and_grad(op, x, g):
    t = Tensor(x, requires_grad=True)
    y = op(t)
    (y * Tensor(g)).sum().backward()
    return y.data, t.grad


class TestNormalize:
    def test_layernorm_closed_form(self):
        out = ad.layernorm(Tensor([1.0, 2.0, 3.0]))
        assert out.data == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_layernorm_constant_row(self):
        out = ad.layernorm(Tensor([5.0, 5.0, 5.0]))
        assert out.data == pytest.approx([0.0, 0.0, 0.0])

    def test_layernorm_gradients(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.random((3, 5))
        check_gradients(lambda a: (ad.layernorm(a) * Tensor(w)).sum(), [x])

    def test_batchnorm_gradients(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.random((2, 3, 4, 4))

        def f(a):
            return (ad.batchnorm(a, _fresh_stats(3), training=True) * Tensor(w)).sum()

        check_gradients(f, [x])

    def test_batchnorm_eval_gradients(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.random((2, 3, 4, 4))
        stats = np.array([[0.5, -1.0, 2.0], [0.25, 4.0, 1.5]])
        check_gradients(lambda a: (ad.batchnorm(a, stats, training=False) * Tensor(w)).sum(),
                        [x])

    def test_batchnorm_eval_uses_running_stats(self, rng):
        stats = _fresh_stats(2)
        x = rng.standard_normal((4, 2, 3, 3)) * 3 + 1
        ad.batchnorm(Tensor(x), stats, training=True)
        y = ad.batchnorm(Tensor(x), stats, training=False)
        assert not np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)

    @pytest.mark.parametrize("shape", [(17, 32), (8, 17, 32), (3, 5)])
    def test_layernorm_equals_reference(self, rng, shape):
        x = rng.standard_normal(shape) * 2 + 0.5
        g = rng.standard_normal(shape)
        y, gx = _out_and_grad(ad.layernorm, x, g)
        y_ref, gx_ref = _out_and_grad(_layernorm_reference, x, g)
        assert np.array_equal(y, y_ref) and np.array_equal(gx, gx_ref)

    @pytest.mark.parametrize("shape", [(8, 16, 32, 32), (16, 8, 8), (2, 3, 4, 4)])
    def test_batchnorm_equals_reference(self, rng, shape):
        c = shape[-3]
        stats = _fresh_stats(c)
        state = {"running_mean": np.zeros(c), "running_var": np.ones(c)}
        for _ in range(3):
            x = rng.standard_normal(shape) * 3 + 1
            g = rng.standard_normal(shape)
            y, gx = _out_and_grad(lambda t: ad.batchnorm(t, stats, training=True), x, g)
            y_ref, gx_ref = _out_and_grad(
                lambda t: _batchnorm_reference(t, state, training=True), x, g)
            assert np.array_equal(y, y_ref) and np.array_equal(gx, gx_ref)
        assert np.array_equal(stats[0], state["running_mean"])
        assert np.array_equal(stats[1], state["running_var"])
        y, gx = _out_and_grad(lambda t: ad.batchnorm(t, stats, training=False), x, g)
        y_ref, gx_ref = _out_and_grad(
            lambda t: _batchnorm_reference(t, state, training=False), x, g)
        assert np.array_equal(y, y_ref) and np.array_equal(gx, gx_ref)


def _batchnorm_op(training):
    def op(x):
        stats = np.array([[0.5, -1.0, 2.0], [0.25, 4.0, 1.5]])
        return ad.batchnorm(x, stats, training=training)

    return op


SPATIAL_OPS = {
    "conv2d": lambda x: ad.conv2d(x, Tensor(np.linspace(-1, 1, 4 * 3 * 9).reshape(4, 3, 3, 3)),
                                  padding=1),
    "maxpool2": ad.maxpool2,
    "upsample_nearest2": ad.upsample_nearest2,
    "batchnorm_train": _batchnorm_op(training=True),
    "batchnorm_eval": _batchnorm_op(training=False),
}


class TestLeadingBatchAxes:
    @pytest.mark.parametrize("op", SPATIAL_OPS.values(), ids=SPATIAL_OPS)
    def test_image_equals_batch_of_one(self, rng, op):
        x = rng.standard_normal((3, 6, 6))
        x[:, 0, 0] = x[:, 0, 1]  # a tie inside the first pooling window
        results = []
        for data in (x, x[None]):
            t = Tensor(data, requires_grad=True)
            y = op(t)
            g = np.arange(y.data.size, dtype=float).reshape(y.data.shape) / y.data.size
            (y * Tensor(g)).sum().backward()
            results.append((y.data, t.grad))
        (y3, g3), (y4, g4) = results
        assert np.array_equal(y3, y4[0]) and y4.shape == (1, *y3.shape)
        assert np.array_equal(g3, g4[0]) and g4.shape == (1, *g3.shape)


class TestUnbroadcast:
    def test_inner_leading_axis_summed_first(self, rng):
        # a [B, T, C] bias gradient: over T within each image, then over B in image order,
        # the order in which B one-image graphs accumulate it
        g = rng.standard_normal((8, 17, 32))
        want = g[0].sum(axis=0)
        for b in range(1, 8):
            want = want + g[b].sum(axis=0)
        assert np.array_equal(ad._unbroadcast(g, (32,)), want)

    def test_size_one_axes_kept(self, rng):
        g = rng.standard_normal((2, 3, 4, 5))
        np.testing.assert_allclose(
            ad._unbroadcast(g, (1, 5)), g.sum(axis=(0, 1, 2))[None], rtol=0, atol=1e-12
        )


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]), temperature=3.7)
        assert out.data == pytest.approx([0.5, 0.5])

    def test_sharp_temperature(self):
        out = ad.softmax(Tensor([1.0, 0.0]), temperature=0.1)
        assert out.data == pytest.approx([0.9999546, 0.0000454], abs=1e-7)

    def test_non_positive_temperature(self):
        with pytest.raises(ValueError):
            ad.softmax(Tensor([1.0]), temperature=0.0)

    def test_sums_to_one_100_random(self, rng):
        for _ in range(100):
            x = rng.standard_normal(rng.integers(2, 20)) * 10
            assert abs(ad.softmax(Tensor(x)).data.sum() - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=16))
    def test_distribution_property(self, xs):
        y = ad.softmax(Tensor(np.array(xs))).data
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) < 1e-12

    def test_gradients(self, rng):
        x = rng.standard_normal(6)
        w = rng.random(6)
        check_gradients(lambda a: (ad.softmax(a, temperature=0.7) * Tensor(w)).sum(), [x])


class TestBilinearResize:
    def test_constant_preserved(self):
        out = ad.bilinear_resize(np.full((2, 2), 3.25), (5, 7))
        assert out == pytest.approx(np.full((5, 7), 3.25))

    def test_degenerate_1x1(self):
        out = ad.bilinear_resize([[4.0]], (3, 3))
        assert out == pytest.approx(np.full((3, 3), 4.0))

    def test_corner_aligned_row(self):
        out = ad.bilinear_resize([[0.0, 1.0], [0.0, 1.0]], (2, 4))
        assert out[0] == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])

    def test_single_row_and_column_extents(self):
        grid = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        assert np.array_equal(ad.bilinear_resize(grid[:1], (3, 3)), np.repeat(grid[:1], 3, axis=0))
        assert np.array_equal(ad.bilinear_resize(grid, (1, 3)), grid[:1])
        assert np.array_equal(ad.bilinear_resize(grid, (2, 1)), grid[:, :1])


class TestSgdStep:
    def test_single_step(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        ad.sgd_step([p], lr=0.1)
        assert p.data == pytest.approx([0.95])

    def test_non_learnable_unchanged(self):
        p = Parameter(np.array([1.0]), learnable=False)
        p.grad = np.array([123.0])
        ad.sgd_step([p], lr=0.1)
        assert p.data == pytest.approx([1.0])

    def test_zero_gradient_fixed_point(self):
        p = Parameter(np.array([2.0]))
        p.grad = np.array([0.0])
        ad.sgd_step([p], lr=0.1)
        assert p.data == pytest.approx([2.0])

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            ad.sgd_step([], lr=0.0)


class TestDeterminism:
    def test_forward_bit_identical(self, rng):
        x = rng.standard_normal((2, 8, 8))
        k = rng.standard_normal((4, 2, 3, 3))
        a = ad.conv2d(Tensor(x), Tensor(k), padding=1).data
        b = ad.conv2d(Tensor(x), Tensor(k), padding=1).data
        assert np.array_equal(a, b)


class TestUpsampleNearest2:
    def test_values(self):
        x = np.arange(4.0).reshape(1, 2, 2)
        out = ad.upsample_nearest2(Tensor(x))
        assert out.data[0, 0, 0] == out.data[0, 0, 1] == out.data[0, 1, 1] == 0.0
        assert out.data.shape == (1, 4, 4)

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 2, 2))
        w = rng.random((2, 4, 4))
        check_gradients(lambda a: (ad.upsample_nearest2(a) * Tensor(w)).sum(), [x])


class TestMaskedFrobeniusNorm:
    def test_value(self, rng):
        x = rng.standard_normal((3, 4, 4))
        m = (rng.random((3, 4, 4)) > 0.5).astype(float)
        out = ad.masked_frobenius_norm(Tensor(x), m)
        assert out.item() == pytest.approx(np.linalg.norm(x * m))

    def test_zero_mask_zero_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
        ad.masked_frobenius_norm(x, np.zeros((3, 2, 2))).backward()
        assert x.grad is None or np.all(x.grad == 0)

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 3, 3))
        m = (rng.random((2, 3, 3)) > 0.3).astype(float)
        check_gradients(lambda a: ad.masked_frobenius_norm(a, m), [x])

    def test_batch_equals_one_image_at_a_time(self, rng):
        x = rng.standard_normal((5, 3, 4, 4))
        m = (rng.random((5, 3, 4, 4)) > 0.5).astype(float)
        m[2] = 0.0
        g = rng.standard_normal(5)
        batch = Tensor(x, requires_grad=True)
        norms = ad.masked_frobenius_norm(batch, m)
        assert norms.shape == (5,)
        (norms * Tensor(g)).sum().backward()
        for i in range(5):
            image = Tensor(x[i], requires_grad=True)
            norm = ad.masked_frobenius_norm(image, m[i])
            assert norm.shape == ()
            assert norms.data[i] == norm.item()
            (norm * g[i]).backward()
            assert np.array_equal(batch.grad[i], image.grad)


def _spread_vector(n):
    """n values over seven decades, so that the order of their sum shows in its rounding."""
    rng = np.random.default_rng(n)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)


def _in_order_sum(x):
    total = x[0]
    for v in x[1:]:
        total = total + v
    return total


class TestReductions:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_mean_adds_in_index_order(self, n):
        x = _spread_vector(n)
        t = Tensor(x, requires_grad=True)
        mean = t.mean()
        assert mean.item() == (_in_order_sum([Tensor(v) for v in x]) / n).item()
        mean.backward()
        assert np.array_equal(t.grad, np.full(n, 1.0 / n))

    def test_pairwise_sum_rounds_differently(self):
        # the premise of the test above: np.sum's order differs from index order here
        assert any(np.sum(x) != _in_order_sum(x) for x in map(_spread_vector, range(1, 18)))

    def test_sum_axis_gradients(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.random((2, 3))
        check_gradients(lambda a: ((a * a).sum(axis=-1) * Tensor(w)).sum(), [x])


# Tensor methods that no other gradient check reaches along these paths:
# name -> (op, input shape)
TENSOR_METHOD_CASES = {
    "neg": (lambda x: -x, (3, 4)),
    "constant_minus": (lambda x: 2.0 - x, (3, 4)),
    "swapaxes": (lambda x: x.swapaxes(0, 2), (2, 3, 4)),
    "repeated_fancy_index": (lambda x: x[[0, 0, 2]], (3, 4)),
    "sum_over_axis_tuple": (lambda x: x.sum(axis=(0, 2)), (2, 3, 4)),
    "divide_by_scalar": (lambda x: x / 4.0, (3, 4)),
}


class TestTensorMethodGradients:
    @pytest.mark.parametrize("op, shape", TENSOR_METHOD_CASES.values(), ids=TENSOR_METHOD_CASES)
    def test_gradients(self, rng, op, shape):
        def weighted(a):  # a ramp weight, so that no two entries share a gradient
            y = op(a)
            return (y * Tensor(np.linspace(-1.0, 2.0, y.data.size).reshape(y.shape))).sum()

        check_gradients(weighted, [rng.standard_normal(shape)])
