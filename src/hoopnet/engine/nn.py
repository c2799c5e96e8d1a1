"""Layers: the spatial encoder (convolution, batch normalization), linear,
GRU cell.

Encoder input is channels-last, (N, H, W, C), and so is every layer
inside the encoder; weights are (filters, C, k, k) and the flattened
output is in (filters, oh, ow) order.  Convolution keeps spatial dims at
stride 1 via zero padding.

Layers are built in float64 (``Module.cast`` rounds a whole model to its
compute dtype once), and the fused ops compute in their parameters'
dtype.
"""

from __future__ import annotations

import numpy as np

from .tensor import Parameter, Tensor, _grad_enabled, _node


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

    def cast(self, dtype) -> None:
        """Convert every parameter and buffer, recursively, to ``dtype``."""
        for p in self._params.values():
            p.data = p.data.astype(dtype)
        for name, b in self._buffers.items():
            self.set_buffer(name, b.astype(dtype))
        for mod in self._modules.values():
            mod.cast(dtype)

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
            yield (f"{prefix}{name}", p.data)
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for name, mod in self._modules.items():
            yield from mod.named_state(prefix=f"{prefix}{name}.")


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


# spatial encoder: conv and batch-norm holders, and the op that runs them


class Conv2d(Module):
    """Bias-free 'same' convolution weights, (filters, in, k, k): every
    convolution feeds a batch norm, whose mean subtraction would cancel a
    bias."""

    def __init__(self, in_channels: int, filters: int, kernel: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(glorot_uniform(rng, (filters, in_channels, kernel, kernel),
                                               fan_in, filters * kernel * kernel))
        self.stride = stride


class BatchNorm(Module):
    """Per-feature scale and shift plus the running statistics that
    inference mode normalizes with."""

    def __init__(self, n_features: int, eps: float = 1e-5, momentum: float = 0.9):
        super().__init__()
        self.gamma = Parameter(np.ones(n_features))
        self.beta = Parameter(np.zeros(n_features))
        self.register_buffer("running_mean", np.zeros(n_features))
        self.register_buffer("running_var", np.ones(n_features))
        self.eps = eps
        self.momentum = momentum


# input rows per im2col block: at desk shapes a block's (ROW_BLOCK*oh*ow,
# k*k*C) matrix is at most 1.5 MB and fits a 2 MiB L2 cache, where a
# 1,600-row call's would be 39 MB
ROW_BLOCK = 64


def _im2col(xp: np.ndarray, stride: int, kh: int, kw: int, oh: int, ow: int) -> np.ndarray:
    """The (n*oh*ow, kh*kw*C) patch matrix of zero-padded channels-last
    (n, H, W, C) rows, one row per output position, copied out of a
    strided view straight over the C-contiguous buffer of ``xp``."""
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    view = np.ndarray((n, oh, ow, kh, kw, c), xp.dtype, xp, 0,
                      (sn, sh * stride, sw * stride, sh, sw, sc))
    return view.reshape(n * oh * ow, kh * kw * c)


def _col_blocks(xp: np.ndarray, stride: int, kh: int, kw: int, oh: int, ow: int):
    """Yield (column slice of the (F, n*oh*ow) layer output, im2col matrix)
    for each ROW_BLOCK input rows of ``xp``; n <= ROW_BLOCK is one block."""
    m = oh * ow
    for b in range(0, xp.shape[0], ROW_BLOCK):
        cols = _im2col(xp[b:b + ROW_BLOCK], stride, kh, kw, oh, ow)
        yield slice(b * m, b * m + cols.shape[0]), cols


def spatial_encoder(
    x: np.ndarray,
    convs: list[Conv2d],
    bns: list[BatchNorm],
    training: bool,
    rng: np.random.Generator | None,
    noise_sigma: float,
) -> Tensor:
    """A conv -> batch norm -> ReLU stack over constant channels-last
    (N, H, W, C) input, then additive Gaussian noise and flatten to
    (N, F*oh*ow) in (F, oh, ow) order, as one tape node.

    Each layer zero-pads its input channels-last and multiplies the
    weights by the im2col matrix of ROW_BLOCK input rows at a time, each
    block into its columns of one (F, P) array over all P = N*oh*ow
    output positions, so no im2col matrix outgrows a block.  Everything
    runs in the weights' dtype, except that batch norm's mean and variance
    accumulate in float64.  Batch norm reduces the rows of that whole
    array: training mode uses the statistics of the P positions (at least
    2) and advances the running buffers; inference mode reads them.
    Training-mode noise is one float64 (N, F, oh, ow) standard-normal draw
    scaled by ``noise_sigma`` and then rounded to the weights' dtype, the
    same values and generator state as ``rng.normal(0, noise_sigma, ...)``;
    the gradient passes through it.  The tape keeps each layer's padded
    input, and the backward pass rebuilds the im2col blocks from it to
    sum the weight gradient block by block.  ``x`` gets no gradient: the
    backward pass stops below the lowest layer with a trainable parameter.
    """
    if noise_sigma < 0:
        raise ValueError("sigma must be >= 0")
    noisy = training and noise_sigma > 0.0
    if noisy and rng is None:
        raise ValueError("training-mode noise needs an RNG")
    if x.ndim != 4:
        raise ValueError("spatial_encoder expects (N, H, W, C) input")
    params = tuple(p for conv, bn in zip(convs, bns) for p in (conv.weight, bn.gamma, bn.beta))
    record = _grad_enabled() and any(p._needs() for p in params)
    n = x.shape[0]
    dtype = convs[0].weight.data.dtype
    a = x
    saved = []  # per layer: input shape, padded input, x-hat, 1/std, output
    for conv, bn in zip(convs, bns):
        f, c, kh, kw = conv.weight.data.shape
        if a.shape[3] != c:
            raise ValueError(f"spatial_encoder channel mismatch: input {a.shape[3]}, weight {c}")
        _, h, w, _ = a.shape
        s, ph, pw = conv.stride, kh // 2, kw // 2
        oh, ow = (h + 2 * ph - kh) // s + 1, (w + 2 * pw - kw) // s + 1
        xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype)
        xp[:, ph:ph + h, pw:pw + w] = a
        # (F, P): one row per filter, so the batch statistics are row sums
        weight = conv.weight.data.transpose(0, 2, 3, 1).reshape(f, -1)
        y = np.empty((f, n * oh * ow), dtype)
        for cs, cols in _col_blocks(xp, s, kh, kw, oh, ow):
            np.matmul(weight, cols.T, out=y[:, cs])
        if training:
            if y.shape[1] < 2:
                raise ValueError("batch norm in training mode needs batch size >= 2")
            mu = y.mean(axis=1, dtype=np.float64)
            y -= mu.astype(dtype)[:, None]
            var = np.einsum("fp,fp->f", y, y, dtype=np.float64) / y.shape[1]
            for name, stat in (("running_mean", mu), ("running_var", var)):
                running = getattr(bn, name)
                bn.set_buffer(name, (bn.momentum * running.astype(np.float64)
                                     + (1.0 - bn.momentum) * stat).astype(running.dtype))
        else:
            y -= bn.running_mean[:, None]
            var = bn.running_var
        inv = (1.0 / np.sqrt(var + bn.eps)).astype(dtype)
        xhat = y
        xhat *= inv[:, None]
        out = np.multiply(xhat, bn.gamma.data[:, None], out=None if record else xhat)  # tape keeps x-hat
        out += bn.beta.data[:, None]
        np.maximum(out, 0.0, out=out)
        out = out.reshape(f, n, oh, ow)
        if record:
            saved.append(((h, w, c), xp, xhat, inv, out))
        a = out.transpose(1, 2, 3, 0)
    if noisy:
        feat = np.empty((n, f, oh, ow), dtype)
        np.multiply(rng.standard_normal((n, f, oh, ow)), noise_sigma, out=feat)
        feat += out.transpose(1, 0, 2, 3)
    else:
        feat = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    feat = feat.reshape(n, -1)

    def vjp(g):
        grads = [None] * len(params)
        f, _, oh, ow = saved[-1][4].shape
        gy = g.reshape(n, f, oh, ow).transpose(1, 0, 2, 3).copy().reshape(f, -1)
        for i in range(len(convs) - 1, -1, -1):
            (h, w, c), xp, xhat, inv, out = saved[i]
            f, _, oh, ow = out.shape
            gy *= out.reshape(f, -1) > 0
            dgamma, dbeta = np.einsum("fp,fp->f", gy, xhat), gy.sum(axis=1)
            grads[3 * i + 1], grads[3 * i + 2] = dgamma, dbeta
            gamma = bns[i].gamma.data
            if training:
                m = gy.shape[1]
                gy *= m
                gy -= dbeta[:, None]
                gy -= xhat * dgamma[:, None]
                gy *= (gamma * inv / m)[:, None]
            else:
                gy *= (gamma * inv)[:, None]
            weight = convs[i].weight.data
            s, (kh, kw) = convs[i].stride, weight.shape[2:]
            dw = sum(gy[:, cs] @ cols for cs, cols in _col_blocks(xp, s, kh, kw, oh, ow))
            grads[3 * i] = dw.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
            if not any(p._needs() for p in params[:3 * i]):
                break
            # one kernel offset at a time, into a channels-last padded buffer
            ph, pw = kh // 2, kw // 2
            gxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype)
            for di in range(kh):
                for dj in range(kw):
                    gxp[:, di:di + oh * s:s, dj:dj + ow * s:s] += \
                        (gy.T @ weight[:, :, di, dj]).reshape(n, oh, ow, c)
            gy = np.ascontiguousarray(gxp[:, ph:ph + h, pw:pw + w].transpose(3, 0, 1, 2)).reshape(c, -1)
        return [gr if p._needs() else None for p, gr in zip(params, grads)]

    return _node(feat, params, vjp)


# linear


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        """``x @ weight + bias`` over (N, in) rows, as one tape node."""
        def vjp(g):
            return (g @ self.weight.data.T, x.data.T @ g, g.sum(axis=0))

        return _node(x.data @ self.weight.data + self.bias.data, (x, self.weight, self.bias), vjp)


# GRU


class GRUCell(Module):
    """Gated recurrent cell: update/reset gates plus a tanh candidate.

    ``cell(x, h0)`` runs every step of the time-major rows ``x`` from
    the state array ``h0`` (see ``gru_sequence``)."""

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

    def __call__(self, x: Tensor, h0: np.ndarray) -> Tensor:
        return gru_sequence(self, x, h0)


def gru_sequence(cell: GRUCell, x: Tensor, h0: np.ndarray) -> Tensor:
    """Every step of ``cell`` over time-major rows, as one tape node.

    ``x`` holds T*N input rows (row t*N + i is sequence i at step t) and
    the constant ``h0`` the (N, H) state before step 0, which gets no
    gradient; returns the (T*N, H) states.
    Each step computes z = sigmoid(x W_z + b_z + h U_z), r likewise, the
    candidate c = tanh(x W_c + b_c + (r * h) U_c) and h' = (1 - z) * h + z * c.
    The backward pass walks the steps in reverse carrying dh, then forms
    dx and every parameter gradient over all T*N rows at once.  States
    and gradients are held in the cell's parameters' dtype.
    """
    n, hidden = h0.shape
    rows = x.data.shape[0]
    dtype = cell.w_update.data.dtype
    if rows % n:
        raise ValueError(f"gru_sequence: {rows} input rows are not whole steps of {n}")
    params = (cell.w_update, cell.u_update, cell.b_update, cell.w_reset, cell.u_reset,
              cell.b_reset, cell.w_cand, cell.u_cand, cell.b_cand)
    parents = (x,) + params
    record = _grad_enabled() and any(p._needs() for p in parents)
    u_z, u_r, u_c = cell.u_update.data, cell.u_reset.data, cell.u_cand.data
    x_z = x.data @ cell.w_update.data + cell.b_update.data
    x_r = x.data @ cell.w_reset.data + cell.b_reset.data
    x_c = x.data @ cell.w_cand.data + cell.b_cand.data
    states = np.empty((rows, hidden), dtype)
    # z, r and the candidate of every step, kept for the backward pass
    saved = np.empty((3, rows, hidden), dtype) if record else None
    h = h0
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
        h_prev = np.concatenate([h0, states[:-n]])
        # per-row factors from dh (update, candidate) and from d(r * h)
        # (reset) to each gate's pre-activation gradient
        f_z = (c - h_prev) * z * (1.0 - z)
        f_r = h_prev * r * (1.0 - r)
        f_c = z * (1.0 - c * c)
        keep = 1.0 - z
        # pre-activation gradients, columns [update | reset | candidate]
        d_pre = np.empty((rows, 3 * hidden), dtype)
        d_z, d_r, d_c = d_pre[:, :hidden], d_pre[:, hidden:2 * hidden], d_pre[:, 2 * hidden:]
        u_zr_t = np.concatenate([u_z, u_r], axis=1).T
        dh = np.zeros((n, hidden), dtype)
        for t in range(rows - n, -1, -n):
            s = slice(t, t + n)
            dh = dh + g[s]
            np.multiply(dh, f_c[s], out=d_c[s])
            d_rh = d_c[s] @ u_c.T
            np.multiply(dh, f_z[s], out=d_z[s])
            np.multiply(d_rh, f_r[s], out=d_r[s])
            if t:  # h0 gets no gradient, so step 0 carries no dh back
                dh = dh * keep[s] + d_rh * r[s] + d_pre[s, :2 * hidden] @ u_zr_t
        grads = [None] * len(parents)
        if x._needs():
            w_all = np.concatenate([cell.w_update.data, cell.w_reset.data, cell.w_cand.data], axis=1)
            grads[0] = d_pre @ w_all.T
        if any(p._needs() for p in params):
            d_w = np.split(x.data.T @ d_pre, 3, axis=1)
            d_b = np.split(d_pre.sum(axis=0), 3)
            d_u = np.split(h_prev.T @ d_pre[:, :2 * hidden], 2, axis=1)
            d_u.append((r * h_prev).T @ d_c)
            grads[1:] = [grad for gate in zip(d_w, d_u, d_b) for grad in gate]
        return grads

    return _node(states, parents, vjp)
