"""RMSprop with momentum and inverse-time learning-rate decay, plus clipping.

Per parameter and step t (t counts completed steps, starting at 0):

    lr_t   = lr / (1 + decay * t)
    cache  = rho * cache + (1 - rho) * g^2
    buf    = momentum * buf - lr_t * g / (sqrt(cache) + eps)
    theta += buf

The optimizer owns ``cache`` and ``buf``, zeros in each parameter's
dtype when it is built; its hyperparameters are kept as Python floats,
which never widen a float32 array.  A parameter whose ``requires_grad``
is False is skipped entirely; every step ends by clearing all gradient
buffers.  A step inside ``no_grad()``, where parameters hold still,
raises.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Parameter, _refuse_in_no_grad


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.

    Returns the pre-clip norm, its squares summed in float64.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum(dtype=np.float64))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise FloatingPointError("non-finite gradient norm")
    if norm > max_norm:
        scale = float(max_norm / norm)
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


class RMSProp:
    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        decay: float = 0.0,
        momentum: float = 0.0,
        rho: float = 0.9,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.cache = [np.zeros_like(p.data) for p in self.params]
        self.buf = [np.zeros_like(p.data) for p in self.params]
        self.lr = float(lr)
        self.decay = float(decay)
        self.momentum = float(momentum)
        self.rho = float(rho)
        self.eps = float(eps)
        self.t = 0

    def step(self) -> None:
        """One update over params; clears every gradient buffer afterwards."""
        _refuse_in_no_grad("RMSProp.step")
        lr_t = self.lr / (1.0 + self.decay * self.t)
        for p, cache, buf in zip(self.params, self.cache, self.buf):
            g = p.grad
            if g is None or not p.requires_grad:
                continue
            cache *= self.rho
            cache += (1.0 - self.rho) * g * g
            buf *= self.momentum
            buf -= lr_t * g / (np.sqrt(cache) + self.eps)
            p.data += buf
        for p in self.params:
            p.grad = None
        self.t += 1
