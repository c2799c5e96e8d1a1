"""Layers: the spatial encoders (convolution, batch normalization), linear,
GRU cell.

Encoder input is channels-last, (N, H, W, C), and so is every layer
inside the encoder; weights are (filters, C, k, k) and the flattened
output is in (filters, oh, ow) order.  Convolution keeps spatial dims at
stride 1 via zero padding.  Encoders that read the same input run as one
op whose first layer is one matmul over their stacked filters.

The tape is the encoders' mode switch.  With it on they train: batch
norm normalizes by batch statistics and advances its running buffers,
and noise is added.  Under ``no_grad()`` they infer: each batch norm is
folded into its convolution's weights and a bias, built once per
outermost scope, not once per call.

Layers are built in float64 (``Module.cast`` rounds a whole model to its
compute dtype once), and the fused ops compute in their parameters'
dtype.  A call that records no tape builds no parameter tuples, saved
arrays or backward closures.
"""

from __future__ import annotations

import numpy as np

from .tensor import _SCOPE_CONSTANTS, Parameter, Tensor, _grad_enabled, _node, _refuse_in_no_grad


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
        _refuse_in_no_grad("Module.set_buffer")
        if name not in self._buffers:
            raise KeyError(name)
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def cast(self, dtype) -> None:
        """Convert every parameter and buffer, recursively, to ``dtype``."""
        _refuse_in_no_grad("Module.cast")
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

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        """The output height and width over an h x w input."""
        kh, kw = self.weight.data.shape[2:]
        s = self.stride
        return (h + 2 * (kh // 2) - kh) // s + 1, (w + 2 * (kw // 2) - kw) // s + 1


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


def _padded(a: np.ndarray, conv: Conv2d, dtype) -> tuple[np.ndarray, int, int]:
    """Channels-last (n, h, w, C) ``a`` zero-padded in ``dtype`` for
    ``conv``'s 'same' convolution, and that convolution's output height
    and width."""
    _, c, kh, kw = conv.weight.data.shape
    if a.shape[3] != c:
        raise ValueError(f"spatial_encoder channel mismatch: input {a.shape[3]}, weight {c}")
    n, h, w, _ = a.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype)
    xp[:, ph:ph + h, pw:pw + w] = a
    return (xp, *conv.out_size(h, w))


def _weight_matrix(convs: tuple[Conv2d, ...]) -> np.ndarray:
    """The (F, k*k*C) matrix of the convolutions' filters, stacked in
    order, its columns in im2col order."""
    return np.concatenate([conv.weight.data.transpose(0, 2, 3, 1).reshape(len(conv.weight.data), -1)
                           for conv in convs])


def _folded(convs: tuple[Conv2d, ...], bns: tuple[BatchNorm, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The convolutions' (F, k*k*C) weight matrix with each filter's
    inference batch norm folded in, and the (F, 1) bias that goes with it:
    ``scale * W`` and ``beta - running_mean * scale`` with
    ``scale = gamma / sqrt(running_var + eps)``, formed in float64 and
    rounded once to the weights' dtype."""
    weight = _weight_matrix(convs)
    scale = np.concatenate([bn.gamma.data * (1.0 / np.sqrt(bn.running_var.astype(np.float64) + bn.eps))
                            for bn in bns])
    mean = np.concatenate([bn.running_mean for bn in bns])
    beta = np.concatenate([bn.beta.data for bn in bns])
    return ((weight * scale[:, None]).astype(weight.dtype),
            (beta - mean * scale).astype(weight.dtype)[:, None])


def _conv_rows(xp: np.ndarray, convs: tuple[Conv2d, ...], bns: tuple[BatchNorm, ...],
               oh: int, ow: int) -> tuple[np.ndarray, np.ndarray]:
    """The (F, n*oh*ow) output of convolutions that share kernel size and
    stride over the padded input ``xp``, their F filters stacked in order,
    and the (F, k*k*C) weight matrix it came from.  With the tape on: the
    plain convolution, for training batch norm to follow.  Under
    ``no_grad()``: the folded convolution and its bias (``_folded``, built
    once per outermost scope), whose output is batch norm's.

    Per row block one ``cols @ weight.T`` product, its transpose copied
    into the block's columns.  BLAS runs this orientation faster than
    ``weight @ cols.T`` at the encoders' few filters, and a test checks
    that it gives the same bits."""
    if _grad_enabled():
        weight, bias = _weight_matrix(convs), None
    else:
        if convs not in _SCOPE_CONSTANTS:
            _SCOPE_CONSTANTS[convs] = _folded(convs, bns)
        weight, bias = _SCOPE_CONSTANTS[convs]
    kh, kw = convs[0].weight.data.shape[2:]
    y = np.empty((len(weight), xp.shape[0] * oh * ow), xp.dtype)
    wt = weight.T
    for cs, cols in _col_blocks(xp, convs[0].stride, kh, kw, oh, ow):
        if bias is None:
            y[:, cs] = (cols @ wt).T
        else:
            np.add((cols @ wt).T, bias, out=y[:, cs])
    return y, weight


def spatial_encoder(
    x: np.ndarray,
    encoders: list,
    rng: np.random.Generator | None,
    noise_sigma: float,
) -> list[Tensor]:
    """Every encoder of ``encoders`` over the same constant channels-last
    (N, H, W, C) input ``x``: each a conv -> batch norm -> ReLU stack (its
    ``convs`` and ``bns`` lists), then additive Gaussian noise and flatten
    to (N, F*oh*ow) in (F, oh, ow) order.  Returns one feature Tensor per
    encoder, in order, each its own tape node.

    Layer 0 runs once for all of them, so their first convolutions must
    share input channels, kernel size and stride: one zero-padded copy of
    ``x``, one im2col matrix per ROW_BLOCK input rows and one matmul over
    the encoders' stacked filters, each block into its columns of one
    (F, P) array over all P = N*oh*ow output positions.  Each encoder then
    goes on from its rows of that array, one encoder after the other: its
    batch norm, its later layers (each zero-padded and multiplied by its
    own im2col blocks) and its noise.  Everything runs in the weights'
    dtype, except that batch norm's mean and variance accumulate in
    float64.

    The tape sets the mode.  With it on, the encoders train, whether or
    not any of their parameters does: batch norm normalizes each row of a
    layer's (F, P) output by the statistics of the P positions (at least
    2) and advances the running buffers, and noise is added.  Under
    ``no_grad()`` they infer: each batch norm is folded into its
    convolution (``_folded``), so a layer is one matmul per row block, a
    bias add and a ReLU, and no noise is added.
    Training noise is one float64 (N, F, oh, ow) standard-normal draw
    per encoder, in encoder order, scaled by ``noise_sigma`` and then
    rounded to the weights' dtype, the same values and generator state as
    ``rng.normal(0, noise_sigma, ...)``; the gradient passes through it.
    Each node's tape keeps its layers' padded inputs (layer 0's is shared),
    and its backward pass rebuilds the im2col blocks from them to sum the
    weight gradient block by block; of each layer's output it keeps only
    the ReLU mask, as bools.  ``x`` gets no gradient: the backward
    pass stops below the lowest layer with a trainable parameter.
    """
    if noise_sigma < 0:
        raise ValueError("sigma must be >= 0")
    if _grad_enabled() and noise_sigma > 0.0 and rng is None:
        raise ValueError("training-mode noise needs an RNG")
    if x.ndim != 4:
        raise ValueError("spatial_encoder expects (N, H, W, C) input")
    if not encoders:
        raise ValueError("spatial_encoder needs at least one encoder")
    firsts = tuple(enc.convs[0] for enc in encoders)
    if len({(conv.weight.data.shape[1:], conv.stride) for conv in firsts}) > 1:
        raise ValueError("spatial_encoder: the encoders' first layers differ in input "
                         "channels, kernel or stride")
    xp, oh, ow = _padded(x, firsts[0], firsts[0].weight.data.dtype)
    y, weight = _conv_rows(xp, firsts, tuple(enc.bns[0] for enc in encoders), oh, ow)
    feats, row = [], 0
    for enc, conv in zip(encoders, firsts):
        rows = slice(row, row + len(conv.weight.data))
        feats.append(_encoder_node(x, enc.convs, enc.bns, (xp, y[rows], weight[rows], oh, ow),
                                   rng, noise_sigma))
        row = rows.stop
    return feats


def _encoder_node(x, convs, bns, layer0, rng, noise_sigma) -> Tensor:
    """One encoder of ``spatial_encoder``, from ``layer0``: the padded
    input, the (F, P) convolution output, the (F, k*k*C) weight matrix
    and the output height and width of its first layer."""
    training = _grad_enabled()
    params = (tuple(p for conv, bn in zip(convs, bns) for p in (conv.weight, bn.gamma, bn.beta))
              if training else ())
    record = any(p.requires_grad for p in params)
    xp, y, weight, oh, ow = layer0
    n, dtype = x.shape[0], y.dtype
    a = x
    # saved per layer: input shape, padded input, x-hat and 1/std, the
    # layer's weight matrix, and the (F, n, oh, ow) bool ReLU mask in
    # place of the float output; the backward pass frees each layer's
    # entry as it goes and overwrites x-hat at its last use
    saved = []
    for i, (conv, bn) in enumerate(zip(convs, bns)):
        if i:
            xp, oh, ow = _padded(a, conv, dtype)
            y, weight = _conv_rows(xp, (conv,), (bn,), oh, ow)
        f, out, xhat, inv = len(y), y, None, None
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
            inv = (1.0 / np.sqrt(var + bn.eps)).astype(dtype)[:, None]
            xhat = y
            xhat *= inv
            out = np.multiply(xhat, bn.gamma.data[:, None], out=None if record else xhat)  # tape keeps x-hat
            out += bn.beta.data[:, None]
        np.maximum(out, 0.0, out=out)
        out = out.reshape(f, n, oh, ow)
        if record:
            saved.append((a.shape[1:], xp, xhat, inv, weight, out > 0))
        a = out.transpose(1, 2, 3, 0)
    if training and noise_sigma > 0.0:
        feat = np.empty((n, f, oh, ow), dtype)
        np.multiply(rng.standard_normal((n, f, oh, ow)), noise_sigma, out=feat)
        feat += out.transpose(1, 0, 2, 3)
    else:
        feat = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    feat = feat.reshape(n, -1)
    if not record:
        return _node(feat, (), None)

    def vjp(g):
        grads = [None] * len(params)
        f, _, oh, ow = saved[-1][-1].shape
        gy = g.reshape(n, f, oh, ow).transpose(1, 0, 2, 3).copy().reshape(f, -1)
        for i in range(len(convs) - 1, -1, -1):
            (h, w, c), xp, xhat, inv, weight, mask = saved.pop()  # the tape frees layer i
            f, _, oh, ow = mask.shape
            s, (kh, kw) = convs[i].stride, convs[i].weight.data.shape[2:]
            gy *= mask.reshape(f, -1)
            dbeta = gy.sum(axis=1)
            dgamma = np.einsum("fp,fp->f", gy, xhat)
            m = gy.shape[1]
            gy *= m
            gy -= dbeta[:, None]
            xhat *= dgamma[:, None]  # x-hat's last use
            gy -= xhat
            gy *= bns[i].gamma.data[:, None] * inv / m
            dw = sum(gy[:, cs] @ cols for cs, cols in _col_blocks(xp, s, kh, kw, oh, ow))
            grads[3 * i:3 * i + 3] = dw.reshape(f, kh, kw, c).transpose(0, 3, 1, 2), dgamma, dbeta
            if not any(p.requires_grad for p in params[:3 * i]):
                break
            # one kernel offset at a time, into a channels-last padded
            # buffer, through the weights the forward pass used
            weight = weight.reshape(f, kh, kw, c)
            ph, pw = kh // 2, kw // 2
            gxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype)
            for di in range(kh):
                for dj in range(kw):
                    gxp[:, di:di + oh * s:s, dj:dj + ow * s:s] += \
                        (gy.T @ weight[:, di, dj]).reshape(n, oh, ow, c)
            gy = np.ascontiguousarray(gxp[:, ph:ph + h, pw:pw + w].transpose(3, 0, 1, 2)).reshape(c, -1)
        return [gr if p.requires_grad else None for p, gr in zip(params, grads)]

    return _node(feat, params, vjp)


# linear


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(glorot_uniform(rng, (in_dim, out_dim), in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        """``x @ weight + bias`` over (N, in) rows, as one tape node."""
        y = x.data @ self.weight.data + self.bias.data
        if not _grad_enabled():
            return _node(y, (), None)

        def vjp(g):
            return (g @ self.weight.data.T, x.data.T @ g, g.sum(axis=0))

        return _node(y, (x, self.weight, self.bias), vjp)


# GRU


class GRUCell(Module):
    """Gated recurrent cell weights: update/reset gates plus a tanh
    candidate, run over a whole sequence batch by ``gru_sequence``."""

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


def gru_sequence(cell: GRUCell, x: Tensor, h0: np.ndarray) -> Tensor:
    """Every step of ``cell`` over time-major rows, as one tape node.

    ``x`` holds T*N input rows (row t*N + i is sequence i at step t) and
    the constant ``h0`` the (N, H) state before step 0, which gets no
    gradient; returns the (T*N, H) states.
    Each step computes z = sigmoid(x W_z + b_z + h U_z), r likewise, the
    candidate c = tanh(x W_c + b_c + (r * h) U_c) and h' = (1 - z) * h + z * c.
    The three input projections are separate products over all rows; the
    update and reset gates take one (H, 2H) recurrent product per step,
    ``h [U_z | U_r]``, and one sigmoid, and the backward pass reuses that
    concatenation.  A test checks that the BLAS in use gives the merged
    product the bits of the two separate ones; one (in, 3H) input product
    differs from the three at some row counts, so they stay separate.
    The backward pass walks the steps in reverse carrying dh, then forms
    dx and every parameter gradient over all T*N rows at once.  States
    and gradients are held in the cell's parameters' dtype.
    """
    n, hidden = h0.shape
    rows = x.data.shape[0]
    dtype = cell.w_update.data.dtype
    if rows % n:
        raise ValueError(f"gru_sequence: {rows} input rows are not whole steps of {n}")
    parents = (x, cell.w_update, cell.u_update, cell.b_update, cell.w_reset, cell.u_reset,
               cell.b_reset, cell.w_cand, cell.u_cand, cell.b_cand) if _grad_enabled() else ()
    record = any(p.requires_grad for p in parents)
    u_zr = np.concatenate([cell.u_update.data, cell.u_reset.data], axis=1)
    u_c = cell.u_cand.data
    # the gates' and the candidate's pre-activations for every step; each
    # step adds its recurrent products in place and applies its
    # nonlinearity there, leaving z | r and the candidate for the backward
    # pass
    x_zr = np.concatenate([x.data @ cell.w_update.data + cell.b_update.data,
                           x.data @ cell.w_reset.data + cell.b_reset.data], axis=1)
    x_c = x.data @ cell.w_cand.data + cell.b_cand.data
    states = np.empty((rows, hidden), dtype)
    h = h0
    for t in range(0, rows, n):
        s = slice(t, t + n)
        zr = x_zr[s]
        zr += h @ u_zr
        np.negative(zr, out=zr)
        np.exp(zr, out=zr)
        zr += 1.0
        np.divide(1.0, zr, out=zr)
        z, r = zr[:, :hidden], zr[:, hidden:]
        c = x_c[s]
        c += (r * h) @ u_c
        np.tanh(c, out=c)
        states[s] = (1.0 - z) * h + z * c
        h = states[s]
    if not record:
        return _node(states, (), None)
    params = parents[1:]

    def vjp(g):
        z, r, c = x_zr[:, :hidden], x_zr[:, hidden:], x_c
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
        u_zr_t = u_zr.T
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
        if x.requires_grad:
            w_all = np.concatenate([cell.w_update.data, cell.w_reset.data, cell.w_cand.data], axis=1)
            grads[0] = d_pre @ w_all.T
        if any(p.requires_grad for p in params):
            d_w = np.split(x.data.T @ d_pre, 3, axis=1)
            d_b = np.split(d_pre.sum(axis=0), 3)
            d_u = np.split(h_prev.T @ d_pre[:, :2 * hidden], 2, axis=1)
            d_u.append((r * h_prev).T @ d_c)
            grads[1:] = [grad for gate in zip(d_w, d_u, d_b) for grad in gate]
        return grads

    return _node(states, parents, vjp)
