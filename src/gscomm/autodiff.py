"""Minimal dense-tensor numerics with reverse-mode differentiation.

Tensors wrap float64 numpy arrays and record a computation graph; calling
``backward()`` on a scalar propagates gradients to every reachable leaf
whose ``requires_grad`` flag is set. Single-threaded per graph. Inside
``with no_grad():`` every op returns a leaf and records nothing; the flag is
process-wide, like the rest of the engine.

An op is its value plus one local gradient per parent: a function from the
node's gradient to that parent's share (a vector-Jacobian product). Every op
hands the three to ``_op``, which records the node, and ``backward()`` alone
applies them: it sums each share back to its parent's shape (numpy
broadcasting) and adds it in, skipping a parent that needs no gradient. A
``Tensor(...)`` and a ``Parameter`` are leaves.

Leading axes are batch axes: the spatial ops work on the last three (C, H, W),
so one image and a batch take the same path. The batched trainers build one
graph per step, bit-identical to one graph per image; the tests keep the
per-image trainers as references for that.

The module holds only what records nodes or steps parameters; the plain-numpy
bilinear resize of the attention maps lives in ``masking``, its one caller.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "conv2d",
    "maxpool2",
    "upsample_nearest2",
    "relu",
    "sigmoid",
    "layernorm",
    "batchnorm",
    "softmax",
    "concat",
    "matmul",
    "masked_frobenius_norm",
    "sgd_step",
]


class Tensor:
    """A node in the recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads")

    def __init__(self, data, *, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = self._grads = ()  # a leaf; _op records the others

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        if self.grad is None:
            # a fresh row-major array, bit-equal to 0.0 + g (signed zeros too)
            self.grad = np.add(g, 0.0, order="C")
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            for p, grad in zip(node._parents, node._grads):
                if p.requires_grad:
                    p._accumulate(_unbroadcast(grad(node.grad), p.data.shape))

    def item(self):
        return float(self.data.reshape(-1)[0])

    # -- arithmetic (numpy broadcasting; backward sums over broadcast axes) --

    def __add__(self, other):
        other = _as_tensor(other)
        return _op(self.data + other.data, (self, other), (lambda g: g, lambda g: g))

    def __sub__(self, other):
        other = _as_tensor(other)
        return _op(self.data - other.data, (self, other), (lambda g: g, lambda g: -g))

    def __mul__(self, other):
        other = _as_tensor(other)
        return _op(self.data * other.data, (self, other),
                   (lambda g: g * other.data, lambda g: g * self.data))

    def __neg__(self):
        return _op(-self.data, (self,), (lambda g: -g,))

    def __truediv__(self, other):
        return self * (1.0 / float(other))  # float() raises TypeError for a Tensor divisor

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        """Takes reshape(2, 6) and reshape((2, 6)), like ndarray.reshape."""
        return _op(self.data.reshape(*shape), (self,), (lambda g: g.reshape(self.data.shape),))

    def transpose(self, *axes):
        """Permute the axes (reverse them when none are given), like ndarray.transpose."""
        axes = axes or tuple(reversed(range(self.data.ndim)))
        return _op(self.data.transpose(axes), (self,), (lambda g: g.transpose(np.argsort(axes)),))

    def swapaxes(self, a, b):
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        def grad(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            return full

        return _op(self.data[key], (self,), (grad,))

    def sum(self, axis=None):
        def grad(g):
            g = g if axis is None else np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)

        return _op(self.data.sum(axis=axis), (self,), (grad,))

    def mean(self):
        """The mean of the items added in index order, x0 + x1 + ...: so a batched loss
        equals its per-item losses added one by one, which np.sum's pairwise order does
        not from eight items on."""
        scale = 1.0 / self.data.size
        return _op(np.add.accumulate(self.data.reshape(-1))[-1] * scale, (self,),
                   (lambda g: np.full_like(self.data, g * scale),))

    def log(self):
        return _op(np.log(self.data), (self,), (lambda g: g / self.data,))


class Parameter(Tensor):
    """A named leaf tensor; a non-learnable one never changes under sgd_step."""

    __slots__ = ()

    def __init__(self, data, learnable=True):
        super().__init__(data, requires_grad=learnable)

    # `learnable` and `value` (the tensor itself) stay only because bench/checks.py's
    # gradient check reads both names; ROADMAP item 1 removes them with that reader.
    learnable = property(lambda self: self.requires_grad)
    value = property(lambda self: self)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_recording = True  # off inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Ops inside the block return leaves: no graph, and no gradient to any input."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _op(data, parents, grads):
    """The node holding `data`, an op's value on the tensors `parents`; grads[i] maps
    the node's gradient g to parents[i]'s share, which backward() sums back to that
    parent's shape (see _unbroadcast) and adds in. A leaf under no_grad()."""
    out = Tensor(data)
    if _recording:
        out._parents, out._grads = parents, grads
        out.requires_grad = any(p.requires_grad for p in parents)
    return out


def _unbroadcast(g, shape):
    """Sum gradient g back down to `shape` after numpy broadcasting.

    Extra leading axes are summed innermost first: a [B, T, C] gradient of a (C,)
    bias is summed over T within each image, then over B in image order, the
    order in which B one-image graphs would accumulate it."""
    while g.ndim > len(shape):
        g = g.sum(axis=g.ndim - len(shape) - 1)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def matmul(a, b):
    """a[..., n, k] @ b[..., k, m], broadcasting the leading axes as np.matmul does."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects tensors of at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner extents disagree: {a.data.shape} vs {b.data.shape}"
        )
    return _op(a.data @ b.data, (a, b), (lambda g: g @ np.swapaxes(b.data, -1, -2),
                                          lambda g: np.swapaxes(a.data, -1, -2) @ g))


def conv2d(x, kernel, stride=1, padding=0):
    """2-D convolution (cross-correlation). x: [C,H,W] or [B,C,H,W]; kernel: [C_out,C_in,k,k].

    The forward pass is one matmul over the k² spans stacked as rows. The backward
    pass goes one tap at a time and never builds a [B, C_in·k², H·W] column matrix;
    every stride and padding take the same path."""
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if x.data.ndim not in (3, 4) or kernel.data.ndim != 4:
        raise ValueError("conv2d expects [B,C,H,W] input and [C_out,C_in,k,k] kernel")
    *lead, c_in, h, w = x.data.shape
    c_out, kc_in, kh, kw = kernel.data.shape
    if kc_in != c_in:
        raise ValueError(f"conv2d channel mismatch: input {c_in} vs kernel {kc_in}")
    if kh != kw:
        raise ValueError("conv2d requires square kernels")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ValueError("conv2d output would be empty")

    # On the flat padded input xp[b, c, hp*wp], output (i, j) of tap (di, dj) reads
    # stride*m + di*wp + dj with m = i*wp + j, so each tap is one strided span. Outputs
    # are computed on a grid wp wide whose last wp - w_out columns are dropped; xp's
    # tail past hp*wp keeps the last row's spans in bounds.
    b = math.prod(lead)
    hp, wp = h + 2 * padding, w + 2 * padding
    span = h_out * wp
    xp = np.zeros((b, c_in, max(hp * wp, stride * (span - 1) + (kh - 1) * (wp + 1) + 1)))

    def unpadded(flat):  # the [b, c_in, h, w] image inside a flat padded buffer
        inner = flat[:, :, : hp * wp].reshape(b, c_in, hp, wp)
        return inner[:, :, padding : padding + h, padding : padding + w]

    unpadded(xp)[...] = x.data.reshape(b, c_in, h, w)
    sb, sc, s1 = xp.strides
    # a view of xp; np.ndarray checks that its strides stay inside the buffer
    cols = np.ndarray((b, c_in, kh, kw, span), xp.dtype, xp, 0,
                      (sb, sc, wp * s1, s1, stride * s1))
    cols.flags.writeable = False
    grid = kernel.data.reshape(c_out, -1) @ cols.reshape(b, c_in * kh * kw, span)
    grid = grid.reshape(b, c_out, h_out, wp)[..., :w_out]

    def taps():  # each tap's span on the flat padded grid, taps in row-major order
        return [slice(o, o + stride * (span - 1) + 1, stride)
                for o in (di * wp + dj for di in range(kh) for dj in range(kw))]

    def padded(g):  # g on the output grid wp wide, zero in its dropped columns
        gf = np.zeros((b, c_out, h_out, wp))
        gf[..., :w_out] = g.reshape(b, c_out, h_out, w_out)
        return gf.reshape(b, c_out, span)

    def grad_x(g):
        gf = padded(g)
        kt = kernel.data.reshape(c_out, c_in, kh * kw).T.copy()  # [k*k, C_in, C_out]
        gxp = np.zeros_like(xp)
        for t, k_t in zip(taps(), kt):
            span_t = gxp[:, :, t]  # in place on the view: `gxp[t] +=` would copy it back
            span_t += k_t @ gf
        return unpadded(gxp).reshape(x.data.shape)

    def grad_kernel(g):
        gf = padded(g)
        gk = np.stack([(gf @ xp[:, :, t].transpose(0, 2, 1)).sum(axis=0) for t in taps()])
        return gk.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1)

    return _op(grid.reshape(*lead, c_out, h_out, w_out), (x, kernel), (grad_x, grad_kernel))


def maxpool2(x):
    """2x2 max pooling over the last two axes; gradient routes to the first argmax
    in row-major window order (the first NaN, if any)."""
    x = _as_tensor(x)
    *lead, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even extents, got {h}x{w}")
    corners = [(i, j) for i in (0, 1) for j in (0, 1)]  # window row-major order
    out = x.data[..., 0::2, 0::2]
    for i, j in corners[1:]:
        # np.maximum returns its second operand on a tie (+0.0 vs -0.0), so the
        # earlier corner wins as it does under argmax; a NaN propagates
        out = np.maximum(x.data[..., i::2, j::2], out)

    def grad(g):
        gx = np.empty_like(x.data)
        taken = np.zeros(out.shape, dtype=bool)
        for i, j in corners:
            c = x.data[..., i::2, j::2]
            hit = ((c == out) | (c != c)) & ~taken
            taken |= hit
            gx[..., i::2, j::2] = np.where(hit, g, 0.0)
        return gx

    return _op(out, (x,), (grad,))


def upsample_nearest2(x):
    """Nearest-neighbour 2x upsampling of the last two axes; gradient sums over replicas."""
    x = _as_tensor(x)
    *lead, h, w = x.data.shape
    return _op(x.data.repeat(2, axis=-2).repeat(2, axis=-1), (x,),
               (lambda g: g.reshape(*lead, h, 2, w, 2).sum(axis=(-3, -1)),))


def relu(x):
    return _clamp_min(_as_tensor(x), 0.0)


def sigmoid(x):
    x = _as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))
    return _op(y, (x,), (lambda g: g * y * (1.0 - y),))


def _clamp_min(t, floor):
    return _op(np.maximum(t.data, floor), (t,), (lambda g: g * (t.data > floor),))


def _normalize(x, axes, eps):
    """(x - mean) / sqrt(var + eps) over `axes`; returns the Tensor and the batch
    mean and variance, with the reduced axes kept."""
    n = math.prod(x.data.shape[a] for a in axes)
    mu = x.data.sum(axis=axes, keepdims=True) / n  # what np.mean computes
    xc = x.data - mu
    var = (xc * xc).sum(axis=axes, keepdims=True) / n  # what np.var computes
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def grad(g):
        gsum = g.sum(axis=axes, keepdims=True)
        gxhat = (g * xhat).sum(axis=axes, keepdims=True)
        return inv * (g - gsum / n - xhat * gxhat / n)

    return _op(xhat, (x,), (grad,)), mu, var


NORM_EPS = 1e-5  # layernorm's and batchnorm's variance floor
BN_MOMENTUM = 0.9


def layernorm(x):
    """Normalize each row (last axis) to zero mean and unit variance."""
    return _normalize(_as_tensor(x), (-1,), NORM_EPS)[0]


def batchnorm(x, stats, training=True):
    """Per-channel normalization of a [..., C, H, W] tensor over every axis but C.
    Eval normalizes with `stats`, the layer's [2, C] running (mean, variance); training
    with the batch's statistics, which it folds into `stats` in place."""
    x = _as_tensor(x)
    if training:
        axes = tuple(i for i in range(x.data.ndim) if i != x.data.ndim - 3)
        out, mu, var = _normalize(x, axes, NORM_EPS)
        stats[...] = BN_MOMENTUM * stats + (1 - BN_MOMENTUM) * np.stack([mu.ravel(), var.ravel()])
        return out
    mean, var = stats[:, :, None, None]
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    return _op((x.data - mean) * inv, (x,), (lambda g: g * inv,))


def softmax(x, temperature=1.0):
    """Temperature softmax over the last axis, max-subtraction stabilized."""
    x = _as_tensor(x)
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if math.isinf(temperature):
        raise ValueError(f"temperature must be finite, got {temperature}")
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - dot) / temperature

    return _op(y, (x,), (grad,))


def concat(tensors, axis=-1):
    tensors = tuple(_as_tensor(t) for t in tensors)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    grads = tuple(lambda g, i=i: np.split(g, splits, axis=axis)[i] for i in range(len(tensors)))
    return _op(np.concatenate([t.data for t in tensors], axis=axis), tensors, grads)


def masked_frobenius_norm(residual, mask):
    """[...] norms ||residual ∘ mask||_F over (C, H, W); a zero norm has zero gradient."""
    residual = _as_tensor(residual)
    masked = residual.data * mask
    norm = np.sqrt((masked * masked).sum(axis=(-3, -2, -1)))
    divisor = np.where(norm > 0.0, norm, np.inf)[..., None, None, None]
    return _op(norm, (residual,), (lambda g: g[..., None, None, None] * masked * mask / divisor,))


def sgd_step(params, lr):
    """Vanilla SGD over an iterable of leaf Tensors; skips those that need no gradient."""
    if not lr > 0:
        raise ValueError("lr must be positive")
    if math.isinf(lr):
        raise ValueError(f"lr must be finite, got {lr}")
    for p in params:
        if not p.requires_grad or p.grad is None:
            continue
        if p.grad.shape != p.data.shape:
            raise ValueError("gradient shape mismatch")
        p.data -= lr * p.grad


def zero_grads(params):
    for p in params:
        p.grad = None
