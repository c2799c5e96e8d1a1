"""Independent brute-force reimplementations used as test oracles.

Everything here is written loop-by-loop from the label definitions,
deliberately sharing no code with the package internals beyond CourtSpec
grid shapes.  The scalar court conversions below are the references the
package's array conversions are checked against.  ``oracle_rollout``
drives a model, one sequence and one look-ahead head at a time;
``oracle_gru_sequence`` steps a GRU cell through time with elementary
tape ops, including the ``matmul``, ``row_block``, ``sigmoid``, ``tanh``
and ``sub`` defined here (``matmul`` with ``add`` is also the two-node
form of ``Linear``);
``oracle_spatial_encoder`` runs a spatial encoder as a channels-first tape
of ``conv2d``, ``batch_norm``, ``relu``, ``gaussian_noise`` and
``reshape`` nodes, 8 for two layers.  ``oracle_augment_translate`` translates one
labeled sequence at a time by rebuilding its ``TrainingSequence`` and
``WeakLabels``, recomputing the straight-line targets with
``labels.attention_targets`` on each (T, 2) track.  ``float64_model``
widens a model to float64 for the tests whose tolerances are set for
float64 arithmetic.  ``oracle_infer`` and ``oracle_evaluate`` are
inference and teacher-forced evaluation by the probability route: float64
softmaxes of every head, argmaxes taken on the probabilities.
``shorten`` cuts a labeled sequence to its first steps.  ``oracle_walk``
is the synthetic agent walk on 2-element numpy arrays with
``np.linalg.norm`` distances, logging (dwell_start, dwell_end, box) for
finished moves only; ``oracle_possession_to_json`` and
``oracle_labels_to_json`` serialize with one ``float()`` per coordinate.
"""

from __future__ import annotations

import json
import math

import numpy as np

from hoopnet.bench import EvalMetrics
from hoopnet.court import CourtSpec
from hoopnet.data import Possession, SynthConfig, TrainingSequence, agent_positions
from numpy.lib.stride_tricks import as_strided

from hoopnet.engine.tensor import (
    Tensor,
    _node,
    _unbroadcast,
    _wrap,
    add,
    concat,
    mul,
    no_grad,
    relu,
    softmax_array,
)
from hoopnet.labels import WeakLabels, attention_targets
from hoopnet.model import Variant, batch_major
from hoopnet.rollout import RolloutResult
from hoopnet.train import LabeledSequence, assemble
from hoopnet.util import rng_for


def round_ties_to_zero(v: float) -> int:
    frac = abs(v) - math.floor(abs(v))
    if frac > 0.5:
        n = math.floor(abs(v)) + 1
    else:
        n = math.floor(abs(v))
    return int(math.copysign(n, v)) if v != 0 else 0


def action_index_of(spec: CourtSpec, dx_ft: float, dy_ft: float) -> int:
    r = spec.velocity_radius_cells
    cx = round_ties_to_zero(dx_ft / spec.micro_cell_ft)
    cy = round_ties_to_zero(dy_ft / spec.micro_cell_ft)
    cx = max(-r, min(r, cx))
    cy = max(-r, min(r, cy))
    return (cy + r) * (2 * r + 1) + (cx + r)


def cell_of(spec: CourtSpec, x: float, y: float) -> tuple[int, int]:
    """(col, row) of the micro cell holding one position, clamped to the grid."""
    col = max(0, min(spec.micro_cols - 1, math.floor(x / spec.micro_cell_ft)))
    row = max(0, min(spec.micro_rows - 1, math.floor(y / spec.micro_cell_ft)))
    return col, row


def cell_center(spec: CourtSpec, col: int, row: int) -> tuple[float, float]:
    return ((col + 0.5) * spec.micro_cell_ft, (row + 0.5) * spec.micro_cell_ft)


def box_of(spec: CourtSpec, x: float, y: float) -> int:
    """Id of the macro box holding one position, clamped to the grid."""
    bc = max(0, min(spec.macro_cols - 1, math.floor(x / spec.macro_box_ft)))
    br = max(0, min(spec.macro_rows - 1, math.floor(y / spec.macro_box_ft)))
    return bc + spec.macro_cols * br


def displacements_from_action_indices(spec: CourtSpec, indices: np.ndarray) -> np.ndarray:
    """Flattened action indices back to (..., 2) displacements in feet."""
    r = spec.velocity_radius_cells
    dxc = indices % spec.velocity_side - r
    dyc = indices // spec.velocity_side - r
    return np.stack([dxc * spec.micro_cell_ft, dyc * spec.micro_cell_ft], axis=-1)


def brute_micro_labels(points: np.ndarray, spec: CourtSpec):
    """Per-step look-ahead action labels recomputed with explicit loops."""
    n_raw = len(points)
    t_steps = n_raw // spec.subsample_stride
    labels = np.zeros((t_steps, spec.lookahead_steps), dtype=np.int64)
    padded = np.zeros((t_steps, spec.lookahead_steps), dtype=bool)
    for k in range(t_steps):
        for d in range(spec.lookahead_steps):
            r = spec.subsample_stride * k + d
            if r > n_raw - 2:
                padded[k, d] = True
                r = n_raw - 2
            dx = points[r + 1][0] - points[r][0]
            dy = points[r + 1][1] - points[r][1]
            labels[k, d] = action_index_of(spec, dx, dy)
    return labels, padded


def brute_stationary(points: np.ndarray, threshold: float) -> list[int]:
    """Midpoints of maximal slow runs plus the final frame, by linear scan."""
    slow = []
    for r in range(len(points) - 1):
        speed = math.hypot(points[r + 1][0] - points[r][0], points[r + 1][1] - points[r][1])
        slow.append(speed < threshold)
    result = []
    r = 0
    while r < len(slow):
        if slow[r]:
            start = r
            while r < len(slow) and slow[r]:
                r += 1
            result.append((start + r - 1) // 2)
        else:
            r += 1
    final = len(points) - 1
    if not result or result[-1] != final:
        result.append(final)
    return result


def brute_macro_labels(
    points: np.ndarray, stationary: list[int], spec: CourtSpec, min_segment_steps: int
) -> np.ndarray:
    """Next-stationary-point boxes with forward merging, all by loops."""
    t_steps = len(points) // spec.subsample_stride
    ids = []
    for k in range(t_steps):
        t = spec.subsample_stride * k
        target = None
        for f in stationary:
            if f > t:
                target = f
                break
        if target is None:
            target = stationary[-1]
        x, y = points[target]
        bc = max(0, min(spec.macro_cols - 1, math.floor(x / spec.macro_box_ft)))
        br = max(0, min(spec.macro_rows - 1, math.floor(y / spec.macro_box_ft)))
        ids.append(bc + spec.macro_cols * br)
    ids = list(ids)

    def segments(seq):
        segs = []
        start = 0
        for i in range(1, len(seq) + 1):
            if i == len(seq) or seq[i] != seq[start]:
                segs.append((start, i))
                start = i
        return segs

    changed = True
    while changed:
        changed = False
        segs = segments(ids)
        for i, (start, stop) in enumerate(segs[:-1]):
            if stop - start < min_segment_steps:
                for j in range(start, stop):
                    ids[j] = ids[segs[i + 1][0]]
                changed = True
                break
    segs = segments(ids)
    if len(segs) > 1 and segs[-1][1] - segs[-1][0] < min_segment_steps:
        for j in range(segs[-1][0], segs[-1][1]):
            ids[j] = ids[segs[-2][0]]
    return np.asarray(ids, dtype=np.int64)


def make_track(segments: list[tuple[float, float, int]], start=(5.0, 5.0)) -> np.ndarray:
    """Build a raw track from (vx, vy, n_frames) velocity segments."""
    pts = [np.array(start, dtype=np.float64)]
    for vx, vy, n in segments:
        for _ in range(n):
            pts.append(pts[-1] + np.array([vx, vy]))
    return np.asarray(pts)


def oracle_channelize(seq, spec: CourtSpec) -> np.ndarray:
    """Dense per-step occupancy counts of a TrainingSequence, shape
    (T, 4, rows, cols), channels ball, focal, teammates, opponents; built
    agent by agent with the scalar ``cell_of``."""
    out = np.zeros((seq.steps, 4, spec.micro_rows, spec.micro_cols))
    for t in range(seq.steps):
        agents = [(0, seq.ball_positions[t]), (1, seq.raw_positions[t])]
        agents += [(2, xy) for xy in seq.teammate_positions[t]]
        agents += [(3, xy) for xy in seq.opponent_positions[t]]
        for channel, (x, y) in agents:
            col, row = cell_of(spec, float(x), float(y))
            out[t, channel, row, col] += 1.0
    return out


def oracle_pool(x: np.ndarray, kernels: tuple[int, ...]) -> np.ndarray:
    """Max-pool pyramid over the last two axes, one level per kernel, in
    the input's dtype; a window that runs past the far edge takes the max
    of the cells it covers."""
    for k in kernels:
        if k == 1:
            continue
        h, w = x.shape[-2:]
        x = np.maximum.reduceat(x, np.arange(0, w, k), axis=-1)
        x = np.maximum.reduceat(x, np.arange(0, h, k), axis=-2)
    return x


def oracle_rollout(model, seq, config, spec: CourtSpec) -> RolloutResult:
    """One sequence rolled out alone by the probability route:
    ``oracle_infer`` on a (1, 1, 11, 2) batch per step, then a scalar
    choice per look-ahead head on ``p_combined`` (argmax with the lowest
    index on ties, or a draw from the normalised row), and argmaxes of
    ``p_macro`` and ``attention``."""
    total = config.burn_in_steps + config.horizon_steps
    lookahead = spec.lookahead_steps
    rng = rng_for(config.seed, "rollout", seq.possession_id, seq.focal_agent, seq.t0)
    clamps = 0

    path = np.empty((total, 2))
    macro_goals = np.full(total, -1, dtype=np.int64)
    actions = np.zeros((total, lookahead), dtype=np.int64)
    att_argmax = np.full(total, -1, dtype=np.int64)

    agents = agent_positions(seq)
    memory = model.reset_memory(1)
    pending = np.zeros(2)
    cur = np.zeros(2)
    for t in range(total):
        if t < config.burn_in_steps:
            cur = seq.raw_positions[t].copy()
        else:
            # clamp just inside the far edges, counting steps that clamp
            target = (cur[0] + pending[0], cur[1] + pending[1])
            cur = np.array([min(max(target[0], 0.0), spec.width_ft - 1e-9),
                            min(max(target[1], 0.0), spec.height_ft - 1e-9)])
            clamps += (cur[0], cur[1]) != target
        path[t] = cur
        # other agents freeze past the end of their track; the focal player
        # is agent 1
        x = agents[min(t, seq.steps - 1)].copy()
        x[1] = cur
        out, memory = oracle_infer(model, x[None, None], memory)
        pending[:] = 0.0
        for k in range(lookahead):
            scores = out["p_combined"][0, 0, k]
            if config.mode == "argmax":
                index = int(np.argmax(scores))
            else:
                index = int(rng.choice(len(scores), p=scores / scores.sum()))
            actions[t, k] = index
            pending += displacements_from_action_indices(spec, index)
        if out["p_macro"] is not None:
            macro_goals[t] = int(np.argmax(out["p_macro"][0, 0]))
        if out["attention"] is not None:
            att_argmax[t] = int(np.argmax(out["attention"][0, 0]))
    return RolloutResult(
        possession_id=seq.possession_id,
        focal_agent=seq.focal_agent,
        t0=seq.t0,
        burn_in=config.burn_in_steps,
        horizon=config.horizon_steps,
        mode=config.mode,
        path=path,
        macro_goals=macro_goals,
        actions=actions,
        attention_argmax=att_argmax,
        clamp_events=clamps,
    )


def matmul(a, b) -> Tensor:
    """2-d ``a @ b`` as a tape node, the product the GRU oracle steps with."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.data.shape} @ {b.data.shape}")

    def vjp(g):
        return (g @ b.data.T, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), vjp)


def row_block(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice x[start:stop]; backward scatters into zeros."""
    shape = x.data.shape

    def vjp(g):
        gx = np.zeros(shape)
        gx[start:stop] = g
        return (gx,)

    return _node(x.data[start:stop], (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def vjp(g):
        return (g.reshape(old),)

    return _node(x.data.reshape(shape), (x,), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def vjp(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), vjp)


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _node(out, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _node(out, (x,), vjp)


def oracle_gru_sequence(cell, x, h, n: int):
    """The GRU recurrence as a tape of elementary ops, 17 nodes per step:
    project every step's rows at once, then step through N-row blocks."""
    proj = {
        "update": add(matmul(x, cell.w_update), cell.b_update),
        "reset": add(matmul(x, cell.w_reset), cell.b_reset),
        "cand": add(matmul(x, cell.w_cand), cell.b_cand),
    }
    states = []
    for t in range(x.data.shape[0] // n):
        block = {k: row_block(v, t * n, (t + 1) * n) for k, v in proj.items()}
        z = sigmoid(add(block["update"], matmul(h, cell.u_update)))
        r = sigmoid(add(block["reset"], matmul(h, cell.u_reset)))
        cand = tanh(add(block["cand"], matmul(mul(r, h), cell.u_cand)))
        h = add(mul(sub(1.0, z), h), mul(z, cand))
        states.append(h)
    return concat(states, axis=0)


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


def conv2d(x: Tensor, weight, stride: int = 1) -> Tensor:
    """Bias-free cross-correlation with zero 'same' padding (odd kernels),
    channels-first, one im2col matmul."""
    f, c, kh, kw = weight.data.shape
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
            gxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + oh * stride:stride, j:j + ow * stride:stride] += \
                        (gmat @ weight.data[:, :, i, j]).reshape(n, oh, ow, c)
            gx = gxp[:, ph:ph + h, pw:pw + w].transpose(0, 3, 1, 2)
        return (gx, gw)

    return _node(out, (x, weight), vjp)


def batch_norm(x: Tensor, gamma, beta, running_mean, running_var, training: bool,
               eps: float = 1e-5, momentum: float = 0.9):
    """Per-channel batch norm of (N, C, H, W); returns (out, new running
    mean, new running var)."""
    axes, bshape = (0, 2, 3), (1, -1, 1, 1)
    if training:
        m = x.data.size // x.data.shape[1]
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        new_mean = momentum * running_mean + (1.0 - momentum) * mu
        new_var = momentum * running_var + (1.0 - momentum) * var
    else:
        mu, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
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


def gaussian_noise(x: Tensor, sigma: float, rng, training: bool) -> Tensor:
    """Additive i.i.d. noise in training mode, identity otherwise; the
    gradient passes through unchanged."""
    if not training or sigma == 0.0:
        return x
    noise = rng.normal(0.0, sigma, x.data.shape)
    return _node(x.data + noise, (x,), lambda g: (g,))


def oracle_spatial_encoder(encoder, x: np.ndarray, training: bool, rng, noise_sigma: float) -> Tensor:
    """``encoder`` (a ``model.SpatialEncoder``) as a tape of one node per
    conv, batch norm, ReLU, noise and flatten; advances the batch-norm
    running buffers in training mode."""
    h = Tensor(x)
    for conv, bn in zip(encoder.convs, encoder.bns):
        h, new_mean, new_var = batch_norm(conv2d(h, conv.weight, conv.stride), bn.gamma, bn.beta,
                                          bn.running_mean, bn.running_var, training,
                                          bn.eps, bn.momentum)
        if training:
            bn.set_buffer("running_mean", new_mean)
            bn.set_buffer("running_var", new_var)
        h = relu(h)
    h = gaussian_noise(h, noise_sigma, rng, training)
    return reshape(h, (h.shape[0], -1))


def oracle_augment_translate(batch, max_cells: int, rng, spec: CourtSpec):
    """Per-sequence translation: one ``rng.integers(lo, hi, size=2)`` draw
    per sequence, then new sequence and label objects for each shifted
    one.  Returns (new batch, clamped count).  ``raw_frame_positions``
    stays unshifted: only label extraction reads it, and that is done."""
    if max_cells == 0:
        return list(batch), 0
    out = []
    clamped = 0
    lo, hi = -(max_cells - 1), max_cells
    for item in batch:
        dx, dy = (int(v) for v in rng.integers(lo, hi, size=2))
        if dx == 0 and dy == 0:
            out.append(item)
            continue
        shift = np.array([dx * spec.micro_cell_ft, dy * spec.micro_cell_ft])
        hit = False

        def shifted(a: np.ndarray) -> np.ndarray:
            nonlocal hit
            s = a + shift
            c = s.copy()
            np.clip(c[..., 0], 0.0, spec.width_ft - 1e-9, out=c[..., 0])
            np.clip(c[..., 1], 0.0, spec.height_ft - 1e-9, out=c[..., 1])
            if not np.array_equal(c, s):
                hit = True
            return c

        seq = item.sequence
        new_seq = TrainingSequence(
            possession_id=seq.possession_id,
            focal_agent=seq.focal_agent,
            t0=seq.t0,
            raw_positions=shifted(seq.raw_positions),
            raw_frame_positions=seq.raw_frame_positions,
            ball_positions=shifted(seq.ball_positions),
            teammate_positions=shifted(seq.teammate_positions),
            opponent_positions=shifted(seq.opponent_positions),
        )
        target_xy = shifted(item.labels.macro_target_xy)
        macro = spec.boxes_from_positions(target_xy)
        attention = attention_targets(
            new_seq.raw_positions, macro, item.labels.attention_magnitudes, spec
        )
        new_labels = WeakLabels(
            micro=item.labels.micro,
            micro_padded=item.labels.micro_padded,
            macro=macro,
            macro_target_xy=target_xy,
            attention=attention,
            attention_magnitudes=item.labels.attention_magnitudes,
        )
        if hit:
            clamped += 1
        out.append(LabeledSequence(new_seq, new_labels))
    return out, clamped


def float64_model(model):
    """``model`` with every parameter and buffer widened to float64 (the
    float32-rounded initial values, exactly), so that all it computes
    runs in float64; returns the model."""
    model.cast(np.float64)
    return model


def shorten(item: LabeledSequence, steps: int) -> LabeledSequence:
    """``item`` cut to its first ``steps`` steps, labels included."""
    seq = item.sequence
    raw = steps * (len(seq.raw_frame_positions) // seq.steps)
    seq_s = TrainingSequence(
        seq.possession_id, seq.focal_agent, seq.t0,
        seq.raw_positions[:steps], seq.raw_frame_positions[:raw],
        seq.ball_positions[:steps], seq.teammate_positions[:steps],
        seq.opponent_positions[:steps],
    )
    lab = item.labels
    lab_s = WeakLabels(lab.micro[:steps], lab.micro_padded[:steps], lab.macro[:steps],
                       lab.macro_target_xy[:steps], lab.attention[:steps],
                       lab.attention_magnitudes[:steps])
    return LabeledSequence(seq_s, lab_s)


def oracle_infer(model, inputs: np.ndarray, memory: dict) -> tuple[dict, dict]:
    """Inference from ``memory`` by the probability route: each head's logits
    widened to float64 and softmaxed time-major, one look-ahead head at a
    time, then stacked batch-major; ``p_combined`` the product of
    ``p_raw`` and ``attention`` for attention variants; every output
    checked for finiteness."""
    with no_grad():
        outs, memory = model.run(inputs, memory, training=False)
    n = memory["_batch"]

    def probs(logits: Tensor) -> np.ndarray:
        return batch_major(softmax_array(logits.data.astype(np.float64)), n)

    p_raw = np.stack([probs(t) for t in outs["raw_logits"]], axis=2)
    result = {"p_raw": p_raw, "p_macro": None, "attention": None}
    if "macro_logits" in outs:
        result["p_macro"] = probs(outs["macro_logits"])
    if "attention_logits" in outs:
        result["attention"] = probs(outs["attention_logits"])
    if model.variant is Variant.H_CC:
        result["p_combined"] = np.stack([probs(t) for t in outs["cc_logits"]], axis=2)
    elif model.has_attention:
        result["p_combined"] = p_raw * result["attention"][:, :, None, :]
    else:
        result["p_combined"] = p_raw
    for key in ("p_raw", "p_macro", "attention", "p_combined"):
        v = result[key]
        if v is not None and not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite values in {key}")
    return result, memory


def oracle_evaluate(model, data: list[LabeledSequence], spec: CourtSpec, batch_size: int = 32,
                    burn_in: int = 20) -> EvalMetrics:
    """``bench.evaluate`` by the probability route: argmaxes of
    ``oracle_infer``'s probabilities, and the TV monitor between head 0's
    ``p_raw`` and ``attention``."""
    lookahead = spec.lookahead_steps
    correct = np.zeros(lookahead, dtype=np.int64)
    counted = np.zeros(lookahead, dtype=np.int64)
    macro_correct = macro_counted = 0
    late_correct = late_counted = 0
    att_correct = att_counted = 0
    tv_sum = 0.0
    tv_n = 0
    saw_macro = saw_attention = False

    for start in range(0, len(data), batch_size):
        chunk = data[start:start + batch_size]
        arrays = assemble(chunk, spec)
        n, t_steps = arrays["inputs"].shape[:2]
        outs = oracle_infer(model, arrays["inputs"], model.reset_memory(n))[0]
        pred = outs["p_combined"].argmax(axis=-1)       # (n, t, lookahead)
        valid = ~arrays["micro_padded"]
        hits = (pred == arrays["micro"]) & valid
        correct += hits.sum(axis=(0, 1))
        counted += valid.sum(axis=(0, 1))
        if outs.get("p_macro") is not None:
            saw_macro = True
            mp = outs["p_macro"].argmax(axis=-1)        # (n, t)
            eq = mp == arrays["macro"]
            macro_correct += int(eq.sum())
            macro_counted += n * t_steps
            late_correct += int(eq[:, burn_in:].sum())
            late_counted += n * max(t_steps - burn_in, 0)
        if outs.get("attention") is not None:
            saw_attention = True
            ap = outs["attention"].argmax(axis=-1)
            att_correct += int((ap == arrays["attention"]).sum())
            att_counted += n * t_steps
            tv_sum += float(
                0.5 * np.abs(outs["p_raw"][:, :, 0, :] - outs["attention"]).sum(axis=-1).sum()
            )
            tv_n += n * t_steps
    return EvalMetrics(
        acc_delta=tuple(correct / np.maximum(counted, 1)),
        n_delta=tuple(int(c) for c in counted),
        macro_acc=(macro_correct / macro_counted) if saw_macro and macro_counted else None,
        macro_acc_excl_burnin=(late_correct / late_counted) if saw_macro and late_counted else None,
        attention_acc=(att_correct / att_counted) if saw_attention and att_counted else None,
        tv_monitor=(tv_sum / tv_n) if tv_n else None,
        n_sequences=len(data),
    )


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def oracle_walk(rng: np.random.Generator, spec: CourtSpec, cfg: SynthConfig, length: int):
    """``data._walk`` frame by frame on numpy 2-vectors; same RNG calls in
    the same order.  Its log holds (dwell_start, dwell_end, box) of the
    moves that reached their goal."""
    margin = min(2.0, spec.width_ft / 10, spec.height_ft / 10)
    pos = np.array(
        [rng.uniform(margin, spec.width_ft - margin), rng.uniform(margin, spec.height_ft - margin)]
    )
    heading = rng.uniform(-math.pi, math.pi)
    alpha = 1.0 - math.exp(-cfg.curvature)
    traj = np.empty((length, 2))
    dwells = []
    t = 0
    while t < length:
        while True:
            box = int(rng.integers(spec.n_macro_boxes))
            center = spec.macro_box_centers(box)
            jitter = rng.uniform(-0.5, 0.5, 2) * (spec.macro_box_ft - 1.0)
            target = center + jitter
            if np.linalg.norm(target - pos) > spec.macro_box_ft:
                break
        speed = rng.uniform(cfg.speed_min_ft_per_frame, cfg.speed_max_ft_per_frame)
        while t < length and np.linalg.norm(target - pos) > speed:
            bearing = math.atan2(target[1] - pos[1], target[0] - pos[0])
            heading = _wrap_angle(heading + alpha * _wrap_angle(bearing - heading))
            pos = pos + speed * np.array([math.cos(heading), math.sin(heading)])
            pos[0] = min(max(pos[0], 0.0), spec.width_ft - 1e-9)
            pos[1] = min(max(pos[1], 0.0), spec.height_ft - 1e-9)
            traj[t] = pos
            t += 1
        if t >= length:
            break
        pos = target.copy()
        heading = rng.uniform(-math.pi, math.pi)
        dwell = int(rng.integers(cfg.dwell_frames_min, cfg.dwell_frames_max + 1))
        start = t
        while t < length and dwell > 0:
            traj[t] = pos
            t += 1
            dwell -= 1
        dwells.append((start, t - 1, box))
    if cfg.noise_std_ft > 0:
        traj = traj + rng.normal(0.0, cfg.noise_std_ft, traj.shape)
        np.clip(traj[:, 0], 0.0, spec.width_ft - 1e-9, out=traj[:, 0])
        np.clip(traj[:, 1], 0.0, spec.height_ft - 1e-9, out=traj[:, 1])
    return traj, dwells


def oracle_possession_to_json(p: Possession) -> str:
    obj = {
        "id": p.id,
        "tracks": [
            {
                "agent_id": t.agent_id,
                "role": t.role,
                "points": [[float(x), float(y)] for x, y in t.points],
            }
            for t in p.tracks
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def oracle_labels_to_json(seq: TrainingSequence, lab: WeakLabels) -> str:
    obj = {
        "possession_id": seq.possession_id,
        "focal_agent": seq.focal_agent,
        "t0": seq.t0,
        "micro": lab.micro.tolist(),
        "micro_padded": lab.micro_padded.astype(int).tolist(),
        "macro": lab.macro.tolist(),
        "macro_target_xy": [[float(x), float(y)] for x, y in lab.macro_target_xy],
        "attention": lab.attention.tolist(),
        "attention_magnitudes": lab.attention_magnitudes.tolist(),
    }
    return json.dumps(obj, separators=(",", ":"))
