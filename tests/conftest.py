import math

import numpy as np
import pytest

from gscomm.autodiff import Tensor


def fd_gradient(f, values, index, h=1e-4):
    """Central finite difference of scalar f w.r.t. values[index] entries."""
    base = [v.copy() for v in values]
    grad = np.zeros_like(base[index])
    it = np.nditer(grad, flags=["multi_index"])
    while not it.finished:
        k = it.multi_index
        plus = [v.copy() for v in base]
        minus = [v.copy() for v in base]
        plus[index][k] += h
        minus[index][k] -= h
        grad[k] = (f(*plus) - f(*minus)) / (2 * h)
        it.iternext()
    return grad


def psnr_oracle(original, reconstructed, mask):
    """Masked PSNR by a brute-force double loop over pixels; peak value 1."""
    num, cnt = 0.0, 0
    _, h, w = original.shape
    for i in range(h):
        for j in range(w):
            if mask[i, j]:
                cnt += 1
                for c in range(3):
                    num += (original[c, i, j] - reconstructed[c, i, j]) ** 2
    mse = num / (3 * cnt)
    return math.inf if mse == 0 else 10 * math.log10(1.0 / mse)


def check_gradients(build, values, rel=1e-3, h=1e-4):
    """build(*Tensors) -> scalar Tensor; compares backward() to central FD."""
    tensors = [Tensor(v.copy(), requires_grad=True) for v in values]
    out = build(*tensors)
    out.backward()

    def scalar(*arrs):
        return build(*[Tensor(a) for a in arrs]).item()

    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = fd_gradient(scalar, [t.data for t in tensors], i, h=h)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
        assert err.max() < rel, f"gradient mismatch for arg {i}: max rel err {err.max():.2e}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)
