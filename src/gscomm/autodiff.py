"""Minimal dense-tensor numerics with reverse-mode differentiation.

Tensors wrap float64 numpy arrays and record a computation graph; calling
``backward()`` on a scalar propagates gradients to every reachable leaf
whose ``requires_grad`` flag is set. Single-threaded per graph.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "affine",
    "conv2d",
    "maxpool2",
    "upsample_nearest2",
    "relu",
    "sigmoid",
    "layernorm",
    "BatchNormState",
    "batchnorm",
    "softmax",
    "concat",
    "matmul",
    "masked_frobenius_norm",
    "bilinear_resize",
    "sgd_step",
]


class Tensor:
    """A node in the recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in self._parents)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data.reshape(-1)[0])

    # -- arithmetic (numpy broadcasting; backward sums over broadcast axes) --

    def __add__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))
        out._backward = _broadcast_backward(out, self, other, lambda g: g, lambda g: g)
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data - other.data, (self, other))
        out._backward = _broadcast_backward(out, self, other, lambda g: g, lambda g: -g)
        return out

    def __rsub__(self, other):
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))
        out._backward = _broadcast_backward(
            out, self, other, lambda g: g * other.data, lambda g: g * self.data
        )
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        out = Tensor(-self.data, (self,))

        def bwd(g):
            self._accumulate(-g)

        out._backward = bwd
        return out

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported")
        return self * (1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        out = Tensor(self.data.reshape(shape), (self,))

        def bwd(g):
            self._accumulate(g.reshape(src_shape))

        out._backward = bwd
        return out

    def transpose(self, *axes):
        """Permute the axes (reverse them when none are given), like ndarray.transpose."""
        axes = axes or tuple(reversed(range(self.data.ndim)))
        out = Tensor(self.data.transpose(axes), (self,))

        def bwd(g):
            self._accumulate(g.transpose(np.argsort(axes)))

        out._backward = bwd
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        out = Tensor(self.data[key], (self,))

        def bwd(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            self._accumulate(full)

        out._backward = bwd
        return out

    def sum(self):
        out = Tensor(self.data.sum(), (self,))

        def bwd(g):
            self._accumulate(np.full_like(self.data, float(g)))

        out._backward = bwd
        return out

    def mean(self):
        return self.sum() / self.data.size

    def log(self):
        out = Tensor(np.log(self.data), (self,))

        def bwd(g):
            self._accumulate(g / self.data)

        out._backward = bwd
        return out


class Parameter:
    """A named leaf tensor; non-learnable parameters never change under sgd_step."""

    __slots__ = ("value",)

    def __init__(self, value, learnable=True):
        if not isinstance(value, Tensor):
            value = Tensor(value)
        value.requires_grad = bool(learnable)
        self.value = value

    @property
    def learnable(self):
        return self.value.requires_grad

    @property
    def data(self):
        return self.value.data

    def __repr__(self):
        return f"Parameter(shape={self.value.shape}, learnable={self.learnable})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum gradient g back down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def _broadcast_backward(out, a, b, fa, fb):
    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(fa(g), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(fb(g), b.data.shape))

    return bwd


def matmul(a, b):
    """a[..., n, k] @ b[..., k, m], broadcasting the leading axes as np.matmul does."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects tensors of at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner extents disagree: {a.data.shape} vs {b.data.shape}"
        )
    out = Tensor(a.data @ b.data, (a, b))

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    out._backward = bwd
    return out


def affine(x, weight, bias):
    """x[.., C_in] @ weight[C_in, C_out] + bias[C_out]."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    c_in, c_out = weight.data.shape
    if x.data.shape[-1] != c_in:
        raise ValueError(
            f"affine inner extent mismatch: input {x.data.shape} vs weight {weight.data.shape}"
        )
    if bias.data.shape != (c_out,):
        raise ValueError("affine bias shape must be (C_out,)")
    if x.data.ndim == 1:
        return (matmul(x.reshape((1, c_in)), weight) + bias).reshape((c_out,))
    return matmul(x, weight) + bias


def conv2d(x, kernel, stride=1, padding=0):
    """2-D convolution (cross-correlation). x: [C,H,W] or [B,C,H,W]; kernel: [C_out,C_in,k,k]."""
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

    # im2col: cols[b, (c, di, dj), (i, j)] = xp[b, c, stride*i + di, stride*j + dj],
    # so every pass is one matmul over the C_in*k*k axis and the output is NCHW.
    b = math.prod(lead)
    xp = np.zeros((b, c_in, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x.data.reshape(b, c_in, h, w)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c_in * kh * kw, h_out * w_out)
    kmat = kernel.data.reshape(c_out, c_in * kh * kw)
    out = Tensor((kmat @ cols).reshape(*lead, c_out, h_out, w_out), (x, kernel))

    def bwd(g):
        gb = g.reshape(b, c_out, h_out * w_out)
        if kernel.requires_grad:
            gk = (gb @ cols.transpose(0, 2, 1)).sum(axis=0)
            kernel._accumulate(gk.reshape(kernel.data.shape))
        if x.requires_grad:
            gcols = (kmat.T @ gb).reshape(b, c_in, kh, kw, h_out, w_out)
            gxp = np.zeros_like(xp)
            for di in range(kh):
                for dj in range(kw):
                    gxp[
                        :, :, di : di + stride * h_out : stride, dj : dj + stride * w_out : stride
                    ] += gcols[:, :, di, dj]
            gx = gxp[:, :, padding : padding + h, padding : padding + w]
            x._accumulate(gx.reshape(x.data.shape))

    out._backward = bwd
    return out


def maxpool2(x):
    """2x2 max pooling over the last two axes; gradient routes to the first argmax
    in row-major window order."""
    x = _as_tensor(x)
    *lead, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even extents, got {h}x{w}")
    win = x.data.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2)
    flat = win.reshape(*lead, h // 2, w // 2, 4)
    arg = flat.argmax(axis=-1)  # first occurrence on ties, window row-major
    out = Tensor(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], (x,))

    def bwd(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, arg[..., None], g[..., None], axis=-1)
        gwin = gflat.reshape(*lead, h // 2, w // 2, 2, 2).swapaxes(-3, -2)
        x._accumulate(gwin.reshape(x.data.shape))

    out._backward = bwd
    return out


def upsample_nearest2(x):
    """Nearest-neighbour 2x upsampling of the last two axes; gradient sums over replicas."""
    x = _as_tensor(x)
    *lead, h, w = x.data.shape
    out = Tensor(x.data.repeat(2, axis=-2).repeat(2, axis=-1), (x,))

    def bwd(g):
        x._accumulate(g.reshape(*lead, h, 2, w, 2).sum(axis=(-3, -1)))

    out._backward = bwd
    return out


def relu(x):
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), (x,))

    def bwd(g):
        x._accumulate(g * (x.data > 0))

    out._backward = bwd
    return out


def sigmoid(x):
    x = _as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(y, (x,))

    def bwd(g):
        x._accumulate(g * y * (1.0 - y))

    out._backward = bwd
    return out


def layernorm(x, eps=1e-5):
    """Normalize each row (last axis) to zero mean and unit variance."""
    x = _as_tensor(x)
    if eps <= 0:
        raise ValueError("eps must be positive")
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


class BatchNormState:
    """Running statistics for one batchnorm layer."""

    def __init__(self, channels, momentum=0.9, eps=1e-5):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps


def batchnorm(x, state, training=True):
    """Per-channel normalization of a [..., C, H, W] tensor: every axis but C is reduced."""
    x = _as_tensor(x)
    if state.eps <= 0:
        raise ValueError("eps must be positive")
    axes = tuple(i for i in range(x.data.ndim) if i != x.data.ndim - 3)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = state.momentum
        state.running_mean = m * state.running_mean + (1 - m) * mu
        state.running_var = m * state.running_var + (1 - m) * var
    else:
        mu, var = state.running_mean, state.running_var
    inv = 1.0 / np.sqrt(var + state.eps)[:, None, None]
    xhat = (x.data - mu[:, None, None]) * inv
    out = Tensor(xhat, (x,))
    n = x.data.size // x.data.shape[-3]

    def bwd(g):
        if training:
            gsum = g.sum(axis=axes)[:, None, None]
            gxhat = (g * xhat).sum(axis=axes)[:, None, None]
            x._accumulate(inv * (g - gsum / n - xhat * gxhat / n))
        else:
            x._accumulate(g * inv)

    out._backward = bwd
    return out


def softmax(x, temperature=1.0):
    """Temperature softmax over the last axis, max-subtraction stabilized."""
    x = _as_tensor(x)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, (x,))

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate(y * (g - dot) / temperature)

    out._backward = bwd
    return out


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    out._backward = bwd
    return out


def masked_frobenius_norm(residual, mask):
    """||residual ∘ mask||_F with a zero gradient at the all-zero point."""
    residual = _as_tensor(residual)
    masked = residual.data * mask
    norm = float(np.sqrt((masked * masked).sum()))
    out = Tensor(norm, (residual,))

    def bwd(g):
        if norm > 0.0:
            residual._accumulate(float(g) * masked * mask / norm)

    out._backward = bwd
    return out


def bilinear_resize(grid, target):
    """Corner-aligned bilinear interpolation of a 2-D array to (H, W). Plain numpy."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape
    H, W = target
    if min(h, w, H, W) < 1:
        raise ValueError("extents must be >= 1")
    ys = np.linspace(0.0, h - 1.0, H)
    xs = np.linspace(0.0, w - 1.0, W)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    return (
        grid[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + grid[np.ix_(y0, x1)] * (1 - fy) * fx
        + grid[np.ix_(y1, x0)] * fy * (1 - fx)
        + grid[np.ix_(y1, x1)] * fy * fx
    )


def sgd_step(params, lr):
    """Vanilla SGD over an iterable of Parameters; skips non-learnable ones."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    for p in params:
        if not p.learnable:
            continue
        g = p.value.grad
        if g is None:
            continue
        if g.shape != p.value.data.shape:
            raise ValueError("gradient shape mismatch")
        p.value.data -= lr * g


def zero_grads(params):
    for p in params:
        p.value.zero_grad()
