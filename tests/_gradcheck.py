"""Central finite-difference gradient checking for the engine's tape ops."""

from __future__ import annotations

import numpy as np

from hoopnet.engine.tensor import Tensor, backward

_MACHINE_EPS = np.finfo(np.float64).eps


def numeric_gradient_at(f, array: np.ndarray, indices: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences at selected flat indices only."""
    flat = array.reshape(-1)
    out = np.zeros(len(indices))
    for j, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f())
        flat[i] = orig - eps
        lo = float(f())
        flat[i] = orig
        out[j] = (hi - lo) / (2.0 * eps)
    return out


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / max(na, nb, 1e-8))


def gradcheck(
    build_loss,
    tensors: list[Tensor],
    eps: float = 1e-6,
    max_elements: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic and numeric gradients for each tensor.

    ``build_loss`` recomputes the scalar loss from scratch (it is called
    many times while elements are perturbed in place).  With
    ``max_elements`` set, only a seeded random subset of entries per
    tensor is differenced, which keeps deep-graph checks affordable.

    Disagreement below the provable central-difference noise floor
    (machine epsilon times the loss magnitude over eps) counts as exact
    agreement; vanishing true gradients otherwise drown in roundoff.
    Returns the worst relative error across all checked tensors.
    """
    rng = np.random.default_rng(seed)
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss_scale = max(abs(float(loss.data)), 1.0)
    backward(loss)
    analytic = []
    for t in tensors:
        if t.grad is None:
            raise AssertionError("tensor received no gradient")
        analytic.append(t.grad.copy())
        t.grad = None
    worst = 0.0
    for t, a in zip(tensors, analytic):
        aflat = a.reshape(-1)
        if max_elements is not None and aflat.size > max_elements:
            idx = rng.choice(aflat.size, size=max_elements, replace=False)
        else:
            idx = np.arange(aflat.size)
        n = numeric_gradient_at(lambda: build_loss().data, t.data, idx, eps)
        asel = aflat[idx]
        diff = float(np.linalg.norm(asel - n))
        noise_floor = 8.0 * np.sqrt(len(idx)) * _MACHINE_EPS * loss_scale / eps
        if diff <= noise_floor:
            continue
        worst = max(worst, diff / max(np.linalg.norm(asel), np.linalg.norm(n), 1e-8))
    return worst
