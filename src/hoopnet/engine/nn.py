"""Layers: convolution, linear, GRU cell, batch normalization.

Array layout is channels-first, (N, C, H, W).  Convolution keeps spatial
dims at stride 1 via zero padding.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Parameter, Tensor, _grad_enabled, _node, add, matmul


class Module:
    """Tiny parameter container: registration order is checkpoint order."""

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def set_buffer(self, name: str, array: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(name)
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_state(self, prefix: str = ""):
        """Parameters plus buffers, in declaration order (for checkpoints)."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p.data, None)
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b, (self, name))
        for name, mod in self._modules.items():
            yield from mod.named_state(prefix=f"{prefix}{name}.")


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


# convolution


def _conv_cols(xp: np.ndarray, kh: int, kw: int, oh: int, ow: int, stride: int) -> np.ndarray:
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    win = as_strided(
        xp,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)


def conv2d(x: Tensor, weight: Parameter, stride: int = 1) -> Tensor:
    """Cross-correlation with zero 'same' padding (odd kernels only) and no
    bias: every convolution feeds a batch norm, whose mean subtraction
    would cancel one."""
    if x.data.ndim != 4:
        raise ValueError("conv2d expects (N, C, H, W) input")
    f, c, kh, kw = weight.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d supports odd kernel sizes only")
    if x.data.shape[1] != c:
        raise ValueError(f"conv2d channel mismatch: input {x.data.shape[1]}, weight {c}")
    n, _, h, w = x.data.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.data.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x.data
    cols = _conv_cols(xp, kh, kw, oh, ow, stride)
    wmat = weight.data.reshape(f, -1)
    out = (cols @ wmat.T).reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def vjp(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f)
        gw = (gmat.T @ cols).reshape(weight.data.shape)
        gx = None
        if x._needs():
            # one kernel offset at a time, into a channels-last padded buffer
            gxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + oh * stride:stride, j:j + ow * stride:stride] += \
                        (gmat @ weight.data[:, :, i, j]).reshape(n, oh, ow, c)
            gx = gxp[:, ph:ph + h, pw:pw + w].transpose(0, 3, 1, 2)
        return (gx, gw)

    return _node(out, (x, weight), vjp)


class Conv2d(Module):
    def __init__(self, in_channels: int, filters: int, kernel: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(glorot_uniform(rng, (filters, in_channels, kernel, kernel),
                                               fan_in, filters * kernel * kernel))
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.stride)


# linear


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.weight), self.bias)


# batch normalization


def batch_norm(
    x: Tensor,
    gamma: Parameter,
    beta: Parameter,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    eps: float = 1e-5,
    momentum: float = 0.9,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize per feature; returns (out, new_running_mean, new_running_var).

    Training mode uses batch statistics (batch size must be >= 2) and
    advances the running EMA; inference mode reads the running stats.
    """
    axes = (0,) if x.data.ndim == 2 else (0, 2, 3)
    if x.data.ndim == 4:
        bshape = (1, -1, 1, 1)
    else:
        bshape = (1, -1)
    if training:
        m = int(np.prod([x.data.shape[a] for a in axes]))
        if m < 2:
            raise ValueError("batch_norm in training mode needs batch size >= 2")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        new_mean = momentum * running_mean + (1.0 - momentum) * mu
        new_var = momentum * running_var + (1.0 - momentum) * var
    else:
        mu, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
        m = 0
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(bshape)) * inv.reshape(bshape)
    out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def vjp(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        gx = None
        if x._needs():
            dxhat = g * gamma.data.reshape(bshape)
            if training:
                s1 = dxhat.sum(axis=axes).reshape(bshape)
                s2 = (dxhat * xhat).sum(axis=axes).reshape(bshape)
                gx = (inv.reshape(bshape) / m) * (m * dxhat - s1 - xhat * s2)
            else:
                gx = dxhat * inv.reshape(bshape)
        return (gx, dgamma, dbeta)

    return _node(out, (x, gamma, beta), vjp), new_mean, new_var


class BatchNorm(Module):
    def __init__(self, n_features: int, eps: float = 1e-5, momentum: float = 0.9):
        super().__init__()
        self.gamma = Parameter(np.ones(n_features))
        self.beta = Parameter(np.zeros(n_features))
        self.register_buffer("running_mean", np.zeros(n_features))
        self.register_buffer("running_var", np.ones(n_features))
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        out, new_mean, new_var = batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training, self.eps, self.momentum,
        )
        if training:
            self.set_buffer("running_mean", new_mean)
            self.set_buffer("running_var", new_var)
        return out


# GRU


class GRUCell(Module):
    """Gated recurrent cell: update/reset gates plus a tanh candidate.

    ``cell(x, h0)`` runs every step of the time-major rows ``x`` from
    state ``h0`` (see ``gru_sequence``)."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        def w(shape):
            return Parameter(glorot_uniform(rng, shape, shape[0], shape[1]))
        self.w_update = w((in_dim, hidden))
        self.u_update = w((hidden, hidden))
        self.b_update = Parameter(np.zeros(hidden))
        self.w_reset = w((in_dim, hidden))
        self.u_reset = w((hidden, hidden))
        self.b_reset = Parameter(np.zeros(hidden))
        self.w_cand = w((in_dim, hidden))
        self.u_cand = w((hidden, hidden))
        self.b_cand = Parameter(np.zeros(hidden))
        self.hidden = hidden

    def __call__(self, x: Tensor, h0: Tensor) -> Tensor:
        return gru_sequence(self, x, h0)


def gru_sequence(cell: GRUCell, x: Tensor, h0: Tensor) -> Tensor:
    """Every step of ``cell`` over time-major rows, as one tape node.

    ``x`` holds T*N input rows (row t*N + i is sequence i at step t) and
    ``h0`` the (N, H) state before step 0; returns the (T*N, H) states.
    Each step computes z = sigmoid(x W_z + b_z + h U_z), r likewise, the
    candidate c = tanh(x W_c + b_c + (r * h) U_c) and h' = (1 - z) * h + z * c.
    The backward pass walks the steps in reverse carrying dh, then forms
    dx and every parameter gradient over all T*N rows at once.
    """
    n, hidden = h0.data.shape
    rows = x.data.shape[0]
    if rows % n:
        raise ValueError(f"gru_sequence: {rows} input rows are not whole steps of {n}")
    params = (cell.w_update, cell.u_update, cell.b_update, cell.w_reset, cell.u_reset,
              cell.b_reset, cell.w_cand, cell.u_cand, cell.b_cand)
    parents = (x, h0) + params
    record = _grad_enabled() and any(p._needs() for p in parents)
    u_z, u_r, u_c = cell.u_update.data, cell.u_reset.data, cell.u_cand.data
    x_z = x.data @ cell.w_update.data + cell.b_update.data
    x_r = x.data @ cell.w_reset.data + cell.b_reset.data
    x_c = x.data @ cell.w_cand.data + cell.b_cand.data
    states = np.empty((rows, hidden))
    # z, r and the candidate of every step, kept for the backward pass
    saved = np.empty((3, rows, hidden)) if record else None
    h = h0.data
    for t in range(0, rows, n):
        s = slice(t, t + n)
        z = 1.0 / (1.0 + np.exp(-(x_z[s] + h @ u_z)))
        r = 1.0 / (1.0 + np.exp(-(x_r[s] + h @ u_r)))
        c = np.tanh(x_c[s] + (r * h) @ u_c)
        states[s] = (1.0 - z) * h + z * c
        h = states[s]
        if record:
            saved[0, s], saved[1, s], saved[2, s] = z, r, c

    def vjp(g):
        z, r, c = saved
        h_prev = np.concatenate([h0.data, states[:-n]])
        # per-row factors from dh (update, candidate) and from d(r * h)
        # (reset) to each gate's pre-activation gradient
        f_z = (c - h_prev) * z * (1.0 - z)
        f_r = h_prev * r * (1.0 - r)
        f_c = z * (1.0 - c * c)
        keep = 1.0 - z
        # pre-activation gradients, columns [update | reset | candidate]
        d_pre = np.empty((rows, 3 * hidden))
        d_z, d_r, d_c = d_pre[:, :hidden], d_pre[:, hidden:2 * hidden], d_pre[:, 2 * hidden:]
        u_zr_t = np.concatenate([u_z, u_r], axis=1).T
        dh = np.zeros((n, hidden))
        for t in range(rows - n, -1, -n):
            s = slice(t, t + n)
            dh = dh + g[s]
            np.multiply(dh, f_c[s], out=d_c[s])
            d_rh = d_c[s] @ u_c.T
            np.multiply(dh, f_z[s], out=d_z[s])
            np.multiply(d_rh, f_r[s], out=d_r[s])
            dh = dh * keep[s] + d_rh * r[s] + d_pre[s, :2 * hidden] @ u_zr_t
        grads = [None] * len(parents)
        if x._needs():
            w_all = np.concatenate([cell.w_update.data, cell.w_reset.data, cell.w_cand.data], axis=1)
            grads[0] = d_pre @ w_all.T
        if h0._needs():
            grads[1] = dh
        if any(p._needs() for p in params):
            d_w = np.split(x.data.T @ d_pre, 3, axis=1)
            d_b = np.split(d_pre.sum(axis=0), 3)
            d_u = np.split(h_prev.T @ d_pre[:, :2 * hidden], 2, axis=1)
            d_u.append((r * h_prev).T @ d_c)
            grads[2:] = [grad for gate in zip(d_w, d_u, d_b) for grad in gate]
        return grads

    return _node(states, parents, vjp)
