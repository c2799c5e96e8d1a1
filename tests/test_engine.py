import ctypes
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoopnet.engine import (
    BatchNorm,
    Conv2d,
    GRUCell,
    Linear,
    Parameter,
    RMSProp,
    Tensor,
    backward,
    clip_gradients,
    concat,
    gru_sequence,
    load_checkpoint,
    no_grad,
    relu,
    save_checkpoint,
    softmax,
    softmax_nll,
    spatial_encoder,
)
from hoopnet.engine import checkpoint, nn
from hoopnet.engine.nn import Module
from hoopnet.engine.tensor import add, mul
from hoopnet.errors import CheckpointError

from _gradcheck import gradcheck, relative_error
from _oracles import (
    matmul,
    oracle_gru_sequence,
    oracle_pool,
    oracle_spatial_encoder,
    row_block,
    sigmoid,
    tanh,
)

RNG = np.random.default_rng(20240801)
TOL = 1e-4


# the spatial encoder: conv -> batch norm -> ReLU per layer, noise, flatten


class _Encoder:
    """Conv2d/BatchNorm holders for ``spatial_encoder``, one (filters,
    kernel, stride) per layer, with random batch-norm scales, shifts and
    running statistics; ``encoder(x, ...)`` runs the fused op and
    ``oracle(x, ...)`` the channels-first tape of one node per layer op,
    both on channels-last (N, H, W, C) input."""

    def __init__(self, in_channels, layers, seed=0):
        rng = np.random.default_rng(seed)
        self.convs, self.bns = [], []
        for f, k, s in layers:
            self.convs.append(Conv2d(in_channels, f, k, s, rng))
            bn = BatchNorm(f)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, f)
            bn.beta.data[...] = rng.normal(scale=0.3, size=f)
            bn.set_buffer("running_mean", rng.normal(scale=0.3, size=f))
            bn.set_buffer("running_var", rng.uniform(0.5, 2.0, f))
            self.bns.append(bn)
            in_channels = f

    def parameters(self):
        return [p for conv, bn in zip(self.convs, self.bns) for p in (conv.weight, bn.gamma, bn.beta)]

    def buffers(self):
        return [b for bn in self.bns for b in (bn.running_mean, bn.running_var)]

    def __call__(self, x, training=True, rng=None, noise_sigma=0.0):
        return spatial_encoder(x, self.convs, self.bns, training, rng, noise_sigma)

    def oracle(self, x, training=True, rng=None, noise_sigma=0.0):
        return oracle_spatial_encoder(self, x.transpose(0, 3, 1, 2), training, rng, noise_sigma)


def _identity_encoder(channels, beta=0.0):
    """One 1x1 layer that copies its input: identity kernel, batch norm
    with unit scale and no eps, shift ``beta``."""
    enc = _Encoder(channels, [(channels, 1, 1)])
    enc.convs[0].weight.data[...] = np.eye(channels)[:, :, None, None]
    bn = enc.bns[0]
    bn.gamma.data[...] = 1.0
    bn.beta.data[...] = beta
    bn.set_buffer("running_mean", np.zeros(channels))
    bn.set_buffer("running_var", np.ones(channels))
    bn.eps = 0.0
    return enc


ENCODER_CASES = [
    pytest.param(n_layers, stride, training, id=f"{n_layers}layer-stride{stride}-{mode}")
    for n_layers in (1, 2)
    for stride in (1, 2)
    for training, mode in ((True, "train"), (False, "eval"))
]


def _layers(n_layers, stride):
    """(filters, kernel, stride) of the first ``n_layers`` layers."""
    return [(3, 3, stride), (4, 3, 1)][:n_layers]


def test_conv_identity_kernel():
    x = RNG.normal(size=(2, 5, 5, 3))
    out = _identity_encoder(3)(x, training=False)
    np.testing.assert_allclose(out.data, np.maximum(x, 0.0).transpose(0, 3, 1, 2).reshape(2, -1))


def test_conv_gradcheck():
    enc = _Encoder(3, [(2, 3, 1)])
    x = RNG.normal(size=(2, 4, 4, 3))
    fixed = Tensor(_fixed_like((2, 2 * 4 * 4)))
    assert gradcheck(lambda: (enc(x) * fixed).sum(), enc.parameters()) < TOL


def test_conv_stride2_gradcheck():
    enc = _Encoder(2, [(3, 3, 2)])
    x = RNG.normal(size=(2, 5, 6, 2))
    fixed = Tensor(_fixed_like((2, 3 * 3 * 3)))
    assert gradcheck(lambda: (enc(x) * fixed).sum(), enc.parameters()) < TOL


def test_conv_shape_mismatch():
    enc = _Encoder(4, [(2, 3, 1)])
    with pytest.raises(ValueError, match="channel mismatch"):
        enc(np.zeros((2, 4, 4, 3)))


@pytest.mark.parametrize("n_layers,stride,training", ENCODER_CASES)
def test_spatial_encoder_gradcheck(n_layers, stride, training):
    # an odd, non-square grid; in a two-layer stack the first layer's
    # gradients pass through the second layer's input gradient
    enc = _Encoder(4, _layers(n_layers, stride), seed=stride)
    x = np.random.default_rng(11).normal(size=(3, 7, 5, 4))
    fixed = Tensor(_fixed_like(enc(x).data.shape))

    def loss():
        return (enc(x, training, np.random.default_rng(5), 0.1) * fixed).sum()

    assert gradcheck(loss, enc.parameters()) < TOL


@pytest.mark.parametrize("n_layers,stride,training", ENCODER_CASES)
def test_spatial_encoder_matches_oracle_tape(n_layers, stride, training):
    fused = _Encoder(4, _layers(n_layers, stride), seed=3)
    tape = _Encoder(4, _layers(n_layers, stride), seed=3)
    x = np.random.default_rng(12).poisson(0.3, size=(5, 9, 8, 4)).astype(np.float64)
    for _ in range(2):  # the second pass starts from advanced running buffers
        a = fused(x, training, np.random.default_rng(9), 0.05)
        b = tape.oracle(x, training, np.random.default_rng(9), 0.05)
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)
        fixed = Tensor(_fixed_like(a.data.shape))
        backward((a * fixed).sum())
        backward((b * fixed).sum())
        for p, q in zip(fused.parameters(), tape.parameters()):
            assert relative_error(p.grad, q.grad) < 1e-10
            p.grad = q.grad = None
        for u, v in zip(fused.buffers(), tape.buffers()):
            np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_layers,stride,training", ENCODER_CASES)
def test_spatial_encoder_gradcheck_in_row_blocks(n_layers, stride, training, monkeypatch):
    # 3 rows in blocks of 2: a full block, then a short one
    monkeypatch.setattr(nn, "ROW_BLOCK", 2)
    test_spatial_encoder_gradcheck(n_layers, stride, training)


@pytest.mark.parametrize("n_layers,stride,training", ENCODER_CASES)
def test_spatial_encoder_matches_oracle_tape_in_row_blocks(n_layers, stride, training, monkeypatch):
    # 5 rows in blocks of 2, 2 and 1
    monkeypatch.setattr(nn, "ROW_BLOCK", 2)
    test_spatial_encoder_matches_oracle_tape(n_layers, stride, training)


def test_spatial_encoder_im2col_stays_within_a_row_block(monkeypatch):
    im2col, seen = nn._im2col, []

    def spy(xp, stride, kh, kw, oh, ow):
        cols = im2col(xp, stride, kh, kw, oh, ow)
        seen.append((cols.shape[0], oh * ow))
        return cols

    monkeypatch.setattr(nn, "_im2col", spy)
    enc = _Encoder(2, [(3, 3, 2), (2, 3, 1)])
    n = 2 * nn.ROW_BLOCK + 1
    out = enc(RNG.normal(size=(n, 5, 4, 2)))
    backward((out * Tensor(_fixed_like(out.data.shape))).sum())
    # two layers of 3 x 2 output positions, three blocks each, forward and backward
    assert len(seen) == 2 * 2 * 3
    assert sum(rows for rows, _ in seen) == 2 * 2 * n * 6
    for rows, positions in seen:
        assert rows <= nn.ROW_BLOCK * positions


def test_spatial_encoder_no_grad_records_nothing():
    enc = _Encoder(2, [(3, 3, 1), (2, 3, 2)])
    x = RNG.normal(size=(3, 5, 4, 2))
    with no_grad():
        out = enc(x, training=True, rng=np.random.default_rng(0), noise_sigma=0.1)
    assert out._vjp is None and out._parents == () and not out.requires_grad


def test_spatial_encoder_frozen_parameters_get_no_gradient():
    enc = _Encoder(2, [(3, 3, 1), (2, 3, 2)])
    x = RNG.normal(size=(3, 5, 4, 2))
    fixed = Tensor(_fixed_like(enc(x).data.shape))
    params = enc.parameters()
    backward((enc(x) * fixed).sum())
    full = [p.grad for p in params]
    for p in params:
        p.grad = None
    frozen = {0, 4}  # the first conv weight and the second gamma
    for k in frozen:
        params[k].frozen = True
    backward((enc(x) * fixed).sum())
    for k, p in enumerate(params):
        if k in frozen:
            assert p.grad is None
        else:
            np.testing.assert_array_equal(p.grad, full[k])
    for p in params:
        p.frozen = True
    assert enc(x)._vjp is None


def _fixed_like(shape):
    rng = np.random.default_rng(99)
    return rng.normal(size=shape)


# the dense max-pool pyramid oracle (plain arrays, no tape)


def test_maxpool_constant_input():
    out = oracle_pool(np.full((1, 2, 4, 4), 3.5), (2,))
    assert out.shape == (1, 2, 2, 2)
    np.testing.assert_allclose(out, 3.5)


def test_maxpool_matches_brute_force():
    x = RNG.normal(size=(2, 3, 6, 6))
    out = oracle_pool(x, (2,))
    for n in range(2):
        for c in range(3):
            for i in range(3):
                for j in range(3):
                    window = x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    assert out[n, c, i, j] == window.max()


def test_maxpool_uneven_padding():
    x = RNG.normal(size=(1, 1, 5, 5))
    out = oracle_pool(x, (2,))
    assert out.shape == (1, 1, 3, 3)
    assert out[0, 0, 2, 2] == x[0, 0, 4, 4]


def test_maxpool_keeps_integer_counts_exact():
    x = RNG.integers(0, 6, size=(2, 3, 4, 7, 5))
    out = oracle_pool(x.astype(np.uint8), (2, 2))
    assert out.dtype == np.uint8 and out.shape == (2, 3, 4, 2, 2)
    np.testing.assert_array_equal(out, oracle_pool(x.astype(np.float64), (2, 2)))


# GRU


def test_gru_zero_weights_update_rule():
    cell = GRUCell(2, 2, np.random.default_rng(0))
    for p in cell.parameters():
        p.data[...] = 0.0
    h = np.ones((1, 2))
    x = Tensor(np.zeros((3, 2)))  # three steps
    out = gru_sequence(cell, x, h)
    # z=0.5, candidate=0 -> h' = h/2 at every step
    np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.25, 0.25], [0.125, 0.125]])


def test_gru_update_gate_closed_keeps_state():
    cell = GRUCell(2, 2, np.random.default_rng(1))
    cell.b_update.data[...] = -50.0  # update gate ~ 0 -> h' = h
    h = RNG.normal(size=(3, 2))
    x = Tensor(RNG.normal(size=(12, 2)))  # four steps of three rows
    out = gru_sequence(cell, x, h)
    np.testing.assert_allclose(out.data, np.tile(h, (4, 1)), atol=1e-12)


def test_gru_gradcheck():
    # one step, and three steps of two rows (gradients through time)
    cell = GRUCell(3, 4, np.random.default_rng(2))
    for steps in (1, 3):
        x = Tensor(RNG.normal(size=(steps * 2, 3)), requires_grad=True)
        h = RNG.normal(size=(2, 4))
        fixed = Tensor(_fixed_like((steps * 2, 4)))
        err = gradcheck(
            lambda: (gru_sequence(cell, x, h) * fixed).sum(), [x] + cell.parameters()
        )
        assert err < TOL


@pytest.mark.parametrize("steps,rows", [(1, 3), (5, 2), (4, 1)])
def test_gru_sequence_matches_step_tape_oracle(steps, rows):
    # the fused op against the per-step tape of elementary ops: equal
    # states, gradients equal up to summation order
    cell = GRUCell(3, 4, np.random.default_rng(4))
    x = Tensor(RNG.normal(size=(steps * rows, 3)), requires_grad=True)
    h = RNG.normal(size=(rows, 4))
    fixed = Tensor(RNG.normal(size=(steps * rows, 4)))
    leaves = [x] + cell.parameters()
    grads = []
    for run in (lambda: gru_sequence(cell, x, h), lambda: oracle_gru_sequence(cell, x, h, rows)):
        for t in leaves:
            t.grad = None
        out = run()
        backward((out * fixed).sum())
        grads.append((out.data, [t.grad for t in leaves]))
    (fused, g_fused), (oracle, g_oracle) = grads
    np.testing.assert_array_equal(fused, oracle)
    for a, b in zip(g_fused, g_oracle):
        assert relative_error(a, b) < 1e-12


def test_gru_sequence_frozen_and_constant_inputs():
    # gradients reach only what needs one; no grad mode records nothing
    cell = GRUCell(3, 4, np.random.default_rng(6))
    x = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
    h = RNG.normal(size=(2, 4))
    for p in cell.parameters():
        p.frozen = True
    backward(gru_sequence(cell, x, h).sum())
    assert x.grad is not None
    assert all(p.grad is None for p in cell.parameters())
    x.requires_grad = False
    assert not gru_sequence(cell, x, h).requires_grad  # nothing to differentiate
    with no_grad():
        out = gru_sequence(cell, x, h)
    assert out._vjp is None and not out.requires_grad
    with pytest.raises(ValueError):
        gru_sequence(cell, Tensor(np.zeros((5, 3))), h)


def test_gru_projected_matches_plain_step():
    # stepping all rows at once equals stepping each step's rows alone
    # from the previous step's state
    cell = GRUCell(3, 4, np.random.default_rng(3))
    x = Tensor(RNG.normal(size=(6, 3)))  # 3 steps x 2 rows, time-major
    h = RNG.normal(size=(2, 4))
    states = gru_sequence(cell, x, h)
    for t in range(3):
        h = gru_sequence(cell, Tensor(x.data[2 * t:2 * t + 2]), h).data
        np.testing.assert_array_equal(states.data[2 * t:2 * t + 2], h)


# batch normalization (inside the spatial encoder)


def test_batchnorm_normalizes():
    # a shift of 100 keeps every normalized value above the ReLU's kink
    out = _identity_encoder(3, beta=100.0)(RNG.normal(loc=5.0, scale=10.0, size=(16, 2, 2, 3)))
    feat = out.data.reshape(16, 3, 2, 2)
    np.testing.assert_allclose(feat.mean(axis=(0, 2, 3)), 100.0, atol=1e-6)
    np.testing.assert_allclose(feat.var(axis=(0, 2, 3)), 1.0, atol=1e-6)


def test_batchnorm_gamma_zero_gives_beta():
    enc = _Encoder(3, [(3, 3, 1)])
    enc.bns[0].gamma.data[...] = 0.0
    enc.bns[0].beta.data[...] = 2.5
    np.testing.assert_allclose(enc(RNG.normal(size=(2, 2, 2, 3))).data, 2.5)


def test_batchnorm_batch_of_one_rejected():
    enc = _Encoder(3, [(3, 3, 1)])
    with pytest.raises(ValueError, match="batch size"):
        enc(np.zeros((1, 1, 1, 3)), training=True)


def test_batchnorm_inference_uses_running_stats():
    enc = _Encoder(2, [(2, 1, 1)])
    x = RNG.normal(loc=3.0, size=(32, 1, 1, 2))
    for _ in range(200):
        enc(x, training=True)
    inf = enc(x, training=False)
    trn = enc(x, training=True)
    np.testing.assert_allclose(inf.data, trn.data, atol=1e-2)


def test_batchnorm_gradcheck():
    enc = _Encoder(4, [(3, 3, 1), (4, 3, 1)])
    x = RNG.normal(size=(6, 3, 3, 4))
    fixed = Tensor(_fixed_like((6, 4 * 3 * 3)))
    gammas_betas = [p for bn in enc.bns for p in (bn.gamma, bn.beta)]
    assert gradcheck(lambda: (enc(x) * fixed).sum(), gammas_betas) < TOL


def test_batchnorm_conv_layout_gradcheck():
    enc = _Encoder(2, [(2, 3, 1)])
    x = RNG.normal(size=(3, 4, 4, 2))
    fixed = Tensor(_fixed_like((3, 2 * 4 * 4)))
    bn = enc.bns[0]
    for training in (True, False):
        assert gradcheck(lambda: (enc(x, training) * fixed).sum(), [bn.gamma, bn.beta]) < TOL


# softmax / cross-entropy


def test_softmax_nll_uniform_logits():
    logits = Tensor(np.zeros((3, 7)))
    loss = softmax_nll(logits, np.array([0, 3, 6]))
    np.testing.assert_allclose(loss.data, math.log(7.0))


def test_softmax_nll_dominant_logit():
    logits = np.zeros((1, 289))
    logits[0, 42] = 50.0
    loss = softmax_nll(Tensor(logits), np.array([42]))
    assert loss.data[0] < 1e-10


def test_softmax_nll_matches_direct_evaluation():
    logits = RNG.normal(size=(5, 11))
    targets = RNG.integers(0, 11, 5)
    loss = softmax_nll(Tensor(logits), targets)
    for i in range(5):
        p = np.exp(logits[i]) / np.exp(logits[i]).sum()
        np.testing.assert_allclose(loss.data[i], -np.log(p[targets[i]]), rtol=1e-12)
    # targets are class indices only; (N, K) one-hot rows are refused
    with pytest.raises(ValueError, match="targets shape"):
        softmax_nll(Tensor(logits), np.eye(11)[targets])


def test_softmax_nll_backward_is_p_minus_target():
    logits = Parameter(RNG.normal(size=(3, 5)))
    targets = np.array([2, 0, 4])
    backward(softmax_nll(logits, targets).sum())
    p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expect = p.copy()
    expect[np.arange(3), targets] -= 1.0
    np.testing.assert_allclose(logits.grad, expect, atol=1e-12)


def test_softmax_nll_gradcheck():
    logits = Parameter(RNG.normal(size=(4, 9)))
    targets = RNG.integers(0, 9, 4)
    assert gradcheck(lambda: softmax_nll(logits, targets).sum(), [logits]) < TOL


def test_softmax_simplex_property():
    x = Tensor(RNG.normal(size=(30, 17)) * 10)
    p = softmax(x)
    assert (p.data >= 0).all()
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_gradcheck():
    x = Parameter(RNG.normal(size=(3, 6)))
    fixed = Tensor(_fixed_like((3, 6)))
    assert gradcheck(lambda: (softmax(x) * fixed).sum(), [x]) < TOL


# hadamard products: elementwise mul of same-shape tensors


def test_hadamard_identity_and_zero():
    a = Tensor(RNG.normal(size=(4, 5)))
    ones = Tensor(np.ones((4, 5)))
    np.testing.assert_array_equal(mul(a, ones).data, a.data)
    zeros = Tensor(np.zeros((4, 5)))
    np.testing.assert_array_equal(mul(a, zeros).data, 0.0)


def test_hadamard_shape_mismatch():
    with pytest.raises(ValueError):
        mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_hadamard_gradcheck():
    a = Parameter(RNG.normal(size=(3, 4)))
    b = Parameter(RNG.normal(size=(3, 4)))
    fixed = Tensor(_fixed_like((3, 4)))
    assert gradcheck(lambda: (mul(a, b) * fixed).sum(), [a, b]) < TOL


# elementwise + structural ops


def test_elementwise_gradchecks():
    for fn in (relu, sigmoid, tanh):
        x = Parameter(RNG.normal(size=(4, 3)))
        fixed = Tensor(_fixed_like((4, 3)))
        assert gradcheck(lambda: (fn(x) * fixed).sum(), [x]) < TOL, fn.__name__


def test_linear_and_concat_gradcheck():
    lin = Linear(5, 3, np.random.default_rng(4))
    x = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    y = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    fixed = Tensor(_fixed_like((2, 6)))

    def loss():
        return (concat([lin(x), lin(y)], axis=-1) * fixed).sum()

    assert gradcheck(loss, [x, y] + lin.parameters()) < TOL


@pytest.mark.parametrize("rows", [1, 16, 800])
def test_linear_matches_matmul_add_tape(rows):
    # the one-node Linear equals the two-node matmul + add tape bit for bit:
    # forward, input gradient and both parameter gradients, in float32
    lin = Linear(64, 289, np.random.default_rng(rows))
    lin.cast(np.float32)
    x_data = RNG.normal(size=(rows, 64)).astype(np.float32)
    upstream = Tensor(RNG.normal(size=(rows, 289)).astype(np.float32))
    results = []
    for forward in (lin, lambda x: add(matmul(x, lin.weight), lin.bias)):
        x = Tensor(x_data, requires_grad=True)
        for p in lin.parameters():
            p.grad = None
        out = forward(x)
        backward((out * upstream).sum())
        results.append([out.data, x.grad, lin.weight.grad, lin.bias.grad])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_row_block_gradcheck():
    x = Parameter(RNG.normal(size=(6, 3)))
    fixed = Tensor(_fixed_like((2, 3)))
    assert gradcheck(lambda: (row_block(x, 2, 4) * fixed).sum(), [x]) < TOL


def test_broadcast_add_gradcheck():
    x = Parameter(RNG.normal(size=(4, 3)))
    b = Parameter(RNG.normal(size=(3,)))
    assert gradcheck(lambda: ((x + b) * Tensor(_fixed_like((4, 3)))).sum(), [x, b]) < TOL


def test_plain_numbers_keep_float32_and_sums_widen():
    # a Python scalar or array operand takes the float32 tensor's dtype;
    # tsum returns float64 and passes a float32 gradient back
    x = Parameter(np.random.default_rng(3).normal(size=(4, 3)).astype(np.float32))
    y = 0.5 * x + x * np.ones(3)
    assert y.data.dtype == np.float32
    total = (y * 1e-4).sum()
    assert total.data.dtype == np.float64
    np.testing.assert_allclose(float(total.data), 1.5e-4 * x.data.astype(np.float64).sum(),
                               rtol=1e-6)
    backward(total * 3.0)
    assert x.grad.dtype == np.float32
    np.testing.assert_allclose(x.grad, 4.5e-4, rtol=1e-6)


# gaussian noise (inside the spatial encoder)


def _rng_state(rng):
    return rng.bit_generator.state["state"]


def test_noise_sigma_zero_is_identity():
    enc = _Encoder(3, [(2, 3, 1)])
    x = RNG.normal(size=(3, 3, 3, 3))
    rng = np.random.default_rng(0)
    before = _rng_state(rng)
    np.testing.assert_array_equal(enc(x, True, rng, 0.0).data, enc(x, True, None, 0.0).data)
    assert _rng_state(rng) == before


def test_noise_inference_is_identity():
    enc = _Encoder(3, [(2, 3, 1)])
    x = RNG.normal(size=(3, 3, 3, 3))
    rng = np.random.default_rng(0)
    before = _rng_state(rng)
    np.testing.assert_array_equal(enc(x, False, rng, 10.0).data, enc(x, False, None, 0.0).data)
    assert _rng_state(rng) == before


def test_noise_statistics():
    # zero input normalizes to beta = 0, so the output is the noise alone:
    # one (N, F, oh, ow) normal draw, flattened
    enc = _Encoder(4, [(4, 1, 1)])
    enc.bns[0].beta.data[...] = 0.0
    out = enc(np.zeros((250, 32, 32, 4)), True, np.random.default_rng(8), 1e-3)
    assert out.data.size == 1_024_000
    np.testing.assert_array_equal(
        out.data, np.random.default_rng(8).normal(0.0, 1e-3, (250, 4, 32, 32)).reshape(250, -1)
    )
    assert abs(out.data.mean()) < 5 * 1e-3 / math.sqrt(out.data.size)


def test_noise_draw_matches_rng_normal():
    # the same values as rng.normal(0, sigma, ...), and the same next draw
    enc = _Encoder(4, [(4, 1, 1)])
    enc.bns[0].beta.data[...] = 0.0
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    out = enc(np.zeros((6, 5, 7, 4)), True, rng, 0.3)
    np.testing.assert_array_equal(out.data, ref.normal(0.0, 0.3, (6, 4, 5, 7)).reshape(6, -1))
    assert _rng_state(rng) == _rng_state(ref)
    assert rng.normal() == ref.normal()


def test_noise_passes_gradient_through():
    enc = _Encoder(2, [(3, 3, 1), (2, 3, 2)])
    x = RNG.normal(size=(3, 5, 4, 2))
    grads = []
    for sigma in (0.0, 0.5):
        backward(enc(x, True, np.random.default_rng(1), sigma).sum())
        grads.append([p.grad for p in enc.parameters()])
        for p in enc.parameters():
            p.grad = None
    for a, b in zip(*grads):
        np.testing.assert_array_equal(a, b)


# optimizer


def test_rmsprop_zero_gradient_no_change():
    p = Parameter(np.array([1.0, 2.0]))
    p.grad = np.zeros(2)
    RMSProp([p], lr=0.1, momentum=0.9).step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_rmsprop_frozen_parameter_unchanged():
    p = Parameter(np.array([1.0]))
    p.frozen = True
    p.grad = np.array([5.0])
    RMSProp([p], lr=0.1).step()
    np.testing.assert_array_equal(p.data, [1.0])
    assert p.grad is None  # buffers still cleared


def test_rmsprop_hand_computed_steps():
    p = Parameter(np.array([0.0]))
    opt = RMSProp([p], lr=0.1, decay=0.0, momentum=0.0, rho=0.9, eps=1e-8)
    p.grad = np.array([1.0])
    opt.step()
    expect1 = -0.1 * 1.0 / (math.sqrt(0.1) + 1e-8)
    np.testing.assert_allclose(p.data, [expect1], rtol=1e-12)
    p.grad = np.array([1.0])
    opt.step()
    cache2 = 0.9 * 0.1 + 0.1
    expect2 = expect1 - 0.1 / (math.sqrt(cache2) + 1e-8)
    np.testing.assert_allclose(p.data, [expect2], rtol=1e-12)


def test_rmsprop_lr_decay():
    p = Parameter(np.array([0.0]))
    opt = RMSProp([p], lr=1.0, decay=0.5, momentum=0.0, rho=0.0, eps=0.0)
    p.grad = np.array([1.0])
    opt.step()  # t=0: lr 1.0, cache=1 -> step -1
    np.testing.assert_allclose(p.data, [-1.0])
    p.grad = np.array([1.0])
    opt.step()  # t=1: lr 1/1.5
    np.testing.assert_allclose(p.data, [-1.0 - 1.0 / 1.5])


def test_clip_gradients():
    a = Parameter(np.array([3.0]))
    b = Parameter(np.array([4.0]))
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    norm = clip_gradients([a, b], max_norm=10.0)
    assert norm == 5.0
    np.testing.assert_array_equal(a.grad, [3.0])  # below threshold: unchanged
    norm = clip_gradients([a, b], max_norm=2.5)
    np.testing.assert_allclose(np.hypot(a.grad[0], b.grad[0]), 2.5, rtol=1e-9)


def test_clip_gradients_random_norm_bound():
    params = [Parameter(np.zeros(7)) for _ in range(5)]
    for p in params:
        p.grad = RNG.normal(size=7) * 10
    clip_gradients(params, max_norm=1.0)
    total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    assert total <= 1.0 + 1e-9


# heap


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
    )]


def test_engine_import_keeps_freed_heap():
    # importing hoopnet.engine (done above) serves a 24 MiB array from the
    # heap, not from its own mapping, and keeps it there once freed
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("the C library has no mallinfo2")
    libc.mallinfo2.argtypes = ()
    libc.mallinfo2.restype = _MallInfo2
    before = libc.mallinfo2()
    block = np.ones(3 << 20)
    during = libc.mallinfo2()
    del block
    after = libc.mallinfo2()
    assert during.hblkhd == before.hblkhd
    assert after.arena == during.arena and after.fordblks >= 24 << 20


# determinism / freezing / autodiff behavior


def test_forward_determinism():
    cell = GRUCell(4, 4, np.random.default_rng(5))
    x = RNG.normal(size=(3, 4))
    h = RNG.normal(size=(3, 4))
    a = gru_sequence(cell, Tensor(x), h).data
    b = gru_sequence(cell, Tensor(x), h).data
    np.testing.assert_array_equal(a, b)


def test_frozen_bits_invariant_under_many_steps():
    lin = Linear(3, 3, np.random.default_rng(6))
    frozen_bytes = lin.weight.data.tobytes()
    lin.weight.frozen = True
    opt = RMSProp(lin.parameters(), lr=0.5, momentum=0.9)
    for _ in range(10):
        out = lin(Tensor(RNG.normal(size=(4, 3))))
        backward((out * out).sum())
        opt.step()
    assert lin.weight.data.tobytes() == frozen_bytes
    assert lin.bias.data.tobytes() != Parameter(np.zeros(3)).data.tobytes()


def test_backward_requires_scalar_and_finite():
    x = Parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(x + 0.0)
    bad = Tensor(np.array(np.inf))
    with pytest.raises(FloatingPointError):
        backward(bad)


def test_grad_accumulates_across_backward_calls():
    p = Parameter(np.array([2.0]))
    backward((p * 3.0).sum())
    backward((p * 3.0).sum())
    np.testing.assert_array_equal(p.grad, [6.0])


def test_no_grad_builds_no_tape():
    p = Parameter(np.ones(3))
    with no_grad():
        out = (p * 2.0).sum()
    assert out._vjp is None and out._parents == ()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6))
def test_softmax_rows_simplex_property(n, k):
    x = np.random.default_rng(n * 100 + k).normal(size=(n, k)) * 5
    p = softmax(Tensor(x)).data
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)


# checkpoints


class _TinyModel(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.layer = Linear(3, 2, rng)
        self.norm = BatchNorm(2)


def test_checkpoint_round_trip(tmp_path):
    m = _TinyModel(seed=1)
    state = list(m.named_state())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, "hash123", meta={"variant": "tiny", "completed_stages": "a,b"})
    m2 = _TinyModel(seed=2)
    state2 = list(m2.named_state())
    meta = load_checkpoint(path, state2, "hash123")
    assert meta["completed_stages"] == "a,b"
    np.testing.assert_array_equal(m2.layer.weight.data, m.layer.weight.data)
    np.testing.assert_array_equal(m2.norm.running_mean, m.norm.running_mean)


def test_checkpoint_hash_mismatch(tmp_path):
    m = _TinyModel()
    state = list(m.named_state())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, "aaaa")
    with pytest.raises(CheckpointError, match="different configuration"):
        load_checkpoint(path, state, "bbbb")


def test_checkpoint_shape_mismatch(tmp_path):
    m = _TinyModel()
    state = list(m.named_state())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, "h")

    class Other(Module):
        def __init__(self):
            super().__init__()
            self.layer = Linear(4, 2, np.random.default_rng(0))
            self.norm = BatchNorm(2)

    other = Other()
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(path, list(other.named_state()), "h")


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    m = _TinyModel()
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path, list(m.named_state()), "h")


def _checkpoint_bytes(manifest, manifest_len=None):
    n = len(manifest) if manifest_len is None else manifest_len
    return checkpoint.MAGIC + struct.pack("<IQ", checkpoint.VERSION, n) + manifest


@pytest.mark.parametrize("data", [
    checkpoint.MAGIC + b"\x01\x00",                                # header cut short
    _checkpoint_bytes(b"\xff\xfe"),                                 # manifest not UTF-8
    _checkpoint_bytes(b"config_hash h\ntensor layer.weight 2xq\n"),  # bad dims
    _checkpoint_bytes(b"config_hash h\n", manifest_len=1 << 62),    # manifest past the end
])
def test_checkpoint_corrupt_header(tmp_path, data):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match="bad.ckpt"):
        load_checkpoint(path, list(_TinyModel().named_state()), "h")


def test_checkpoint_failed_write_keeps_previous(tmp_path):
    m = _TinyModel(seed=1)
    state = list(m.named_state())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, "h", meta={"completed_stages": "a"})
    before = path.read_bytes()

    class FailingArray:
        # the manifest reads the shape; the data write then fails
        shape = (2,)

        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, state + [("broken", FailingArray())], "h",
                        meta={"completed_stages": "a,b"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    m2 = _TinyModel(seed=2)
    meta = load_checkpoint(path, list(m2.named_state()), "h")
    assert meta["completed_stages"] == "a"
    np.testing.assert_array_equal(m2.layer.weight.data, m.layer.weight.data)
