import inspect
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoopnet import model as model_mod
from hoopnet import train as train_mod
from hoopnet.court import CourtSpec
from hoopnet.data import SynthConfig, agent_positions, synthesize, window
from hoopnet.engine import RMSProp, backward
from hoopnet.engine.checkpoint import load_checkpoint, read_manifest, save_checkpoint
from hoopnet.engine.tensor import softmax_array
from hoopnet.errors import ConfigError
from hoopnet.bench import EvalMetrics, evaluate
from hoopnet.labels import LabeledSequence, SegmentationConfig, label_sequence
from hoopnet.config import load_run_config
from hoopnet.model import (
    ArchitectureConfig,
    HPNModel,
    Variant,
    pooled_occupancy,
    time_major,
)
from hoopnet.train import (
    _STAGES,
    L2_ACTIVATION_WEIGHT,
    EpochRecord,
    Stage,
    TrainConfig,
    TrainReport,
    assemble,
    augment_translate,
    compute_loss,
    run_stage,
    stage_branches,
    stage_schedule,
    train_full,
)
from hoopnet.util import rng_for

from _oracles import (
    float64_model,
    oracle_augment_translate,
    oracle_channelize,
    oracle_compute_loss,
    oracle_pool,
    oracle_spatial_encoder,
    shorten,
)

SPEC = CourtSpec()
ARCH = ArchitectureConfig(conv_filters=(4, 6), conv_strides=(2, 1),
                          gru_cells=16, transfer_hidden=12)
SEG = SegmentationConfig(seed=55)
REPO = Path(__file__).resolve().parent.parent


def make_data(n_possessions=3, seed=41):
    cfg = SynthConfig(n_possessions=n_possessions, seed=seed)
    labeled = []
    for p in synthesize(cfg, SPEC):
        for s in window(p, SPEC, rng_for(seed, "w", p.id), 1):
            labeled.append(LabeledSequence(s, label_sequence(s, SPEC, SEG)))
    return labeled


DATA = make_data()


def small_cfg(**kw):
    base = dict(
        batch_size=4, epochs_pretrain=1, epochs_finetune=1,
        translate_max_cells=0, noise_sigma=0.0, holdout_eval_max=4,
        early_stop_patience=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_stage_schedules():
    assert stage_schedule(Variant.CNN) == [Stage.PRETRAIN_MICRO]
    assert stage_schedule(Variant.GRU_CNN) == [Stage.PRETRAIN_MICRO]
    assert Stage.PRETRAIN_ATTENTION not in stage_schedule(Variant.H_ATT)
    assert Stage.PRETRAIN_ATTENTION in stage_schedule(Variant.H_AUX)
    assert stage_schedule(Variant.H_CC)[-1] is Stage.FINETUNE


def test_stage_variant_mismatch():
    m = HPNModel(SPEC, ARCH, Variant.CNN, 1)
    with pytest.raises(ConfigError):
        run_stage(m, DATA[:4], [], Stage.FINETUNE, small_cfg(), SPEC, seed=1)
    m2 = HPNModel(SPEC, ARCH, Variant.GRU_CNN, 1)
    with pytest.raises(ConfigError):
        run_stage(m2, DATA[:4], [], Stage.PRETRAIN_MACRO, small_cfg(), SPEC, seed=1)
    m3 = HPNModel(SPEC, ARCH, Variant.H_CC, 1)
    with pytest.raises(ConfigError):
        run_stage(m3, DATA[:4], [], Stage.PRETRAIN_ATTENTION, small_cfg(), SPEC, seed=1)
    m4 = HPNModel(SPEC, ARCH, Variant.H_AUX, 1)
    run_stage(m4, DATA[:4], [], Stage.PRETRAIN_ATTENTION, small_cfg(), SPEC, seed=1)


# the branches each stage runs, for each variant that can run it
MICRO, MACRO, ATTENTION = frozenset({"micro"}), frozenset({"macro"}), frozenset({"macro", "attention"})
STAGE_BRANCHES = {
    Variant.CNN: {Stage.PRETRAIN_MICRO: MICRO},
    Variant.GRU_CNN: {Stage.PRETRAIN_MICRO: MICRO},
    Variant.H_CC: {Stage.PRETRAIN_MICRO: MICRO, Stage.PRETRAIN_MACRO: MACRO,
                   Stage.FINETUNE: frozenset({"micro", "macro", "combine"})},
    **{v: {Stage.PRETRAIN_MICRO: MICRO, Stage.PRETRAIN_MACRO: MACRO,
           Stage.PRETRAIN_ATTENTION: ATTENTION,
           Stage.FINETUNE: frozenset({"micro", "macro", "attention"})}
       for v in (Variant.H_STACK, Variant.H_ATT, Variant.H_AUX)},
}


@pytest.mark.parametrize("stage", list(Stage))
@pytest.mark.parametrize("variant", list(Variant))
def test_stage_variant_matrix(variant, stage):
    m = HPNModel(SPEC, ARCH, variant, 1)
    want = STAGE_BRANCHES[variant].get(stage)
    if want is None:
        with pytest.raises(ConfigError, match=stage.value):
            stage_branches(m, stage)
    else:
        assert stage_branches(m, stage) == want


# loss values


def test_finetune_loss_single_head_value():
    # -log(p_raw[target] * attention[target]) with p=0.5, mask=0.4 -> -log 0.2
    p_raw = np.full(SPEC.n_actions, 0.5 / (SPEC.n_actions - 1))
    p_raw[7] = 0.5
    att = np.full(SPEC.n_actions, 0.6 / (SPEC.n_actions - 1))
    att[7] = 0.4
    contribution = -math.log(p_raw[7]) - math.log(att[7])
    np.testing.assert_allclose(contribution, -math.log(0.2), rtol=1e-12)

    from hoopnet.engine import Tensor, softmax_nll

    target = np.array([[7]])
    total = softmax_nll([(Tensor(np.log(p_raw)[None]), target, 0.0),
                         (Tensor(np.log(att)[None]), target, 0.0)])
    np.testing.assert_allclose(float(total.data), -math.log(0.2), rtol=1e-9)


def test_pretrain_loss_zero_for_perfect_heads():
    from hoopnet.engine import Tensor, softmax_nll

    logits = np.full((8, 90), -60.0)
    targets = np.arange(8)
    logits[np.arange(8), targets] = 60.0
    loss = softmax_nll([(Tensor(logits), targets[:, None], 0.0)])
    assert float(loss.data) < 1e-6


def test_assembled_inputs_are_agent_positions():
    # regression guard: a desk batch is 16 x 50 x 11 x 2 float64 positions,
    # not dense (N, T, 4, rows, cols) occupancy grids
    batch = [DATA[i % len(DATA)] for i in range(16)]
    inputs = assemble(batch, SPEC)["inputs"]
    assert inputs.shape == (16, 50, 11, 2) and inputs.dtype == np.float64
    assert inputs.nbytes == 16 * 50 * 11 * 2 * 8


PYRAMIDS = [(1,), (2,), (2, 2), (3,), (2, 3)]
# far court edges and up to 3 ft off court, which clamp to the edge cells
EDGE_X = [-3.0, -1e-9, 0.0, 1e-9, 1.0, SPEC.width_ft - 1e-9, SPEC.width_ft, SPEC.width_ft + 3.0]
EDGE_Y = [-3.0, -1e-9, 0.0, 1e-9, 1.0, SPEC.height_ft - 1e-9, SPEC.height_ft, SPEC.height_ft + 3.0]


def _sequence_of_agents(agents):
    """A TrainingSequence holding (T, 11, 2) positions in input order."""
    from hoopnet.data import TrainingSequence

    focal = agents[:, 1]
    return TrainingSequence("p", "off0", 0, focal, np.repeat(focal, SPEC.subsample_stride, axis=0),
                            agents[:, 0], agents[:, 2:6], agents[:, 6:])


def _check_against_dense_oracle(agents, pyramid):
    seqs = [_sequence_of_agents(a) for a in agents]
    positions = np.stack([agent_positions(s) for s in seqs])
    np.testing.assert_array_equal(positions, agents)
    got = pooled_occupancy(time_major(positions), SPEC, math.prod(pyramid), np.float64)
    want = time_major(np.stack([oracle_pool(oracle_channelize(s, SPEC), pyramid) for s in seqs]))
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want.transpose(0, 2, 3, 1))  # channels-last


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pooled_occupancy_matches_dense_oracle(data):
    n, t_steps = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    pyramid = data.draw(st.sampled_from(PYRAMIDS))
    size = n * t_steps * 11

    def coords(edges, extent):
        value = st.one_of(st.sampled_from(edges), st.floats(-3.0, extent + 3.0))
        return data.draw(st.lists(value, min_size=size, max_size=size))

    agents = np.stack([coords(EDGE_X, SPEC.width_ft), coords(EDGE_Y, SPEC.height_ft)], axis=-1)
    agents = agents.reshape(n, t_steps, 11, 2)
    # move some agents onto agent 0, so that cells hold counts above one
    stacked = data.draw(st.lists(st.integers(1, 10), max_size=10))
    agents[:, :, stacked] = agents[:, :, :1]
    _check_against_dense_oracle(agents, pyramid)


@pytest.mark.parametrize("pyramid", PYRAMIDS)
def test_pooled_occupancy_single_step_edges(pyramid):
    # N = 1, T = 1: agents on the four far corners, off court and stacked
    corners = [(x, y) for x in (-3.0, SPEC.width_ft + 3.0) for y in (-3.0, SPEC.height_ft)]
    agents = np.array(corners + corners + [(0.0, 0.0)] * 3, dtype=np.float64)
    _check_against_dense_oracle(agents[None, None], pyramid)


def _counting_cases(rng, m, k):
    """(m, 11, 2) steps cycling through three cases: all eleven agents in
    one fine cell; in one k x k block, a stack of three teammates and one
    teammate in another cell, two opponents with them and three more in a
    third cell; and every agent up to 3 ft off an edge (several clamp into
    the same edge cell)."""
    cell = SPEC.micro_cell_ft
    steps = []
    for i in range(m):
        case = i % 3
        if case == 0:
            step = np.repeat(rng.uniform(-3.0, SPEC.width_ft + 3.0, (1, 2)), 11, axis=0)
        elif case == 1:
            corner = (rng.integers(0, [SPEC.micro_cols // k, SPEC.micro_rows // k]) * k + 0.5) * cell
            far = corner + (k - 1) * cell
            side = corner + [(k - 1) * cell, 0.0]
            step = rng.uniform(0.0, [SPEC.width_ft, SPEC.height_ft], (11, 2))
            step[2:5], step[5], step[6:8], step[8:11] = corner, far, corner, side
        else:
            xs = np.concatenate([rng.uniform(-3.0, 0.0, 6), rng.uniform(SPEC.width_ft, SPEC.width_ft + 3.0, 5)])
            ys = np.concatenate([rng.uniform(SPEC.height_ft, SPEC.height_ft + 3.0, 5), rng.uniform(-3.0, 0.0, 6)])
            step = np.stack([rng.permutation(xs), ys], axis=-1)
        steps.append(step)
    return np.stack(steps)


@pytest.mark.parametrize("pyramid", PYRAMIDS)
def test_pooled_occupancy_counting_cases(pyramid):
    k = math.prod(pyramid)
    steps = _counting_cases(np.random.default_rng(k), 1600, k)
    # all eleven in one cell: one ball, one focal, 4 teammates, 5 opponents
    one_cell = pooled_occupancy(steps[:1], SPEC, k, np.float32)
    assert sorted(one_cell[one_cell > 0].tolist()) == [1.0, 1.0, 4.0, 5.0]
    for i in range(3):  # M = 1, each case
        _check_against_dense_oracle(steps[i][None, None], pyramid)
    _check_against_dense_oracle(steps.reshape(32, 50, 11, 2), pyramid)  # M = 1,600


def test_finetune_loss_decomposition_recomputed():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 5)
    batch = DATA[:4]
    loss = compute_loss(m, batch, Stage.FINETUNE, small_cfg(), SPEC, rng=None)
    # training-mode batch norm uses batch statistics, so a second run over
    # the same inputs reproduces the loss's forward pass
    n, t_steps = len(batch), batch[0].sequence.steps
    outs, _ = m.run(assemble(batch, SPEC)["inputs"], m.reset_memory(n))
    p_raw = [softmax_array(t.data) for t in outs["raw_logits"]]
    attention = softmax_array(outs["attention_logits"].data)
    total = 0.0
    for t in range(t_steps):
        for i, item in enumerate(batch):
            row = t * n + i  # time-major
            for k in range(SPEC.lookahead_steps):
                target = item.labels.micro[t, k]
                total += -math.log(p_raw[k][row, target])
                total += -math.log(attention[row, target])
            total += L2_ACTIVATION_WEIGHT * float(
                sum((p[row] ** 2).sum() for p in p_raw) + (attention[row] ** 2).sum()
            )
    np.testing.assert_allclose(float(loss.data), total / (n * t_steps), atol=1e-10)


def test_run_stage_frees_each_batch_tape_before_the_next_forward_pass(monkeypatch):
    # the loss node's VJP closure holds its whole tape; once batch k is
    # stepped, nothing may keep it alive into batch k + 1's compute_loss
    closures = []

    def tracking(*args, **kwargs):
        assert all(ref() is None for ref in closures)
        loss = compute_loss(*args, **kwargs)
        closures.append(weakref.ref(loss._vjp))
        return loss

    monkeypatch.setattr(train_mod, "compute_loss", tracking)
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 1)
    run_stage(m, DATA[:6], [], Stage.FINETUNE, small_cfg(batch_size=2), SPEC, seed=1)
    assert len(closures) == 3


def test_finetune_backward_peak_stays_within_the_forward_tape():
    # one desk-shaped h_att fine-tune batch (16 sequences x 50 steps, desk
    # architecture) under tracemalloc: backward() frees what it walks, so
    # its peak stays near the forward tape and little more than the
    # gradients outlives it
    cfg = load_run_config((REPO / "configs" / "desk.cfg").read_text(encoding="utf-8"))
    spec = cfg.court
    sequences = []
    for p in synthesize(SynthConfig(n_possessions=2, seed=3), spec):
        sequences += window(p, spec, rng_for(3, "w", p.id), 2)
    batch = assemble([LabeledSequence(s, label_sequence(s, spec, cfg.labels)) for s in sequences[:16]],
                     spec)
    assert batch["inputs"].shape[:2] == (16, 50)
    m = HPNModel(spec, cfg.arch, Variant.H_ATT, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = compute_loss(m, batch, Stage.FINETUNE, cfg.train, spec, rng=rng_for(3, "noise"))
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert tape > 20 << 20  # MB: the batch is desk-sized
    assert peak <= 1.1 * tape, (peak, tape)
    assert held <= 0.1 * tape, (held, tape)


def _tape(loss):
    """Every node reachable from ``loss`` that needs a gradient: the tape
    backward() walks."""
    seen, stack, nodes = {id(loss)}, [loss], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def _count_op_nodes(nodes, op):
    return sum(n._vjp is not None and n._vjp.__qualname__.startswith(f"{op}.") for n in nodes)


def _finetune_tapes(steps):
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 5)
    cfg = small_cfg()
    return [
        _tape(compute_loss(m, [shorten(it, t) for it in DATA[:2]], Stage.FINETUNE, cfg, SPEC))
        for t in steps
    ]


def test_finetune_softmax_nll_nodes_independent_of_steps():
    # the whole loss is one node over all T*N rows at once, whatever the
    # sequence length: its parents are the four look-ahead heads' logits
    # and the attention logits
    tapes = _finetune_tapes((3, 6))
    assert [_count_op_nodes(tape, "softmax_nll") for tape in tapes] == [1, 1]
    for tape in tapes:
        assert _count_op_nodes(tape[:1], "softmax_nll") == 1  # the root
        assert len(tape[0]._parents) == SPEC.lookahead_steps + 1


def test_finetune_tape_nodes_independent_of_steps():
    # each GRU recurrence is one node whatever the sequence length, so
    # the whole tape is the same size at T = 3 and T = 6.  Below the loss
    # node, the only softmax is the model's goal distribution, and no
    # per-term sums, products or additions remain
    short, long = _finetune_tapes((3, 6))
    assert len(short) == len(long) == 58
    assert _count_op_nodes(short, "gru_sequence") == _count_op_nodes(long, "gru_sequence") == 2
    assert _count_op_nodes(short, "softmax") == 1


def test_finetune_tape_fused_encoders_save_fourteen_nodes(monkeypatch):
    # desk architecture and noise: a two-layer encoder as a tape of conv,
    # batch norm and ReLU per layer, noise and flatten is 8 nodes; fused it
    # is 1, and the h_att fine-tune runs the micro and macro encoders
    desk = load_run_config((REPO / "configs" / "desk.cfg").read_text())
    batch = [shorten(it, 3) for it in DATA[:2]]

    def tape_size():
        m = HPNModel(SPEC, desk.arch, Variant.H_ATT, 5)
        loss = compute_loss(m, batch, Stage.FINETUNE, desk.train, SPEC, rng=rng_for(1, "noise"))
        return len(_tape(loss))

    fused = tape_size()
    monkeypatch.setattr(model_mod, "spatial_encoder", lambda x, encoders, *args: [
        oracle_spatial_encoder(enc, x.transpose(0, 3, 1, 2), True, *args) for enc in encoders])
    assert tape_size() - fused == 14


@pytest.mark.parametrize("variant,stage", [
    (v, st) for v in Variant for st in Stage if st in STAGE_BRANCHES[v]])
def test_compute_loss_matches_composed_tape_oracle(variant, stage):
    # the one loss node against the tape of one cross-entropy per (logits,
    # target column), one softmax per penalty and a chain of sums, on a
    # tiny float64 model with every parameter trainable: the value and
    # every parameter gradient
    arch = ArchitectureConfig(conv_filters=(2, 3), conv_strides=(2, 1), gru_cells=5,
                              transfer_hidden=4)
    arrays = assemble([shorten(it, 4) for it in DATA[:3]], SPEC)
    cfg = small_cfg(noise_sigma=1e-3)
    results = []
    for loss_fn in (compute_loss, oracle_compute_loss):
        m = float64_model(HPNModel(SPEC, arch, variant, 8))
        loss = loss_fn(m, arrays, stage, cfg, rng=rng_for(8, "noise"))
        backward(loss)
        results.append((float(loss.data), [p.grad for p in m.parameters()]))
    (value, grads), (want, want_grads) = results
    np.testing.assert_allclose(value, want, rtol=1e-12)
    for g, w in zip(grads, want_grads):
        assert (g is None) == (w is None)
        if g is not None:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)


@pytest.mark.parametrize("stage,exps", [
    (Stage.PRETRAIN_MICRO, 4), (Stage.PRETRAIN_MACRO, 1), (Stage.FINETUNE, 6)])
def test_training_step_exponential_count(monkeypatch, stage, exps):
    # desk shapes: each logits array's softmax is computed once per loss
    # and backward pass (the h_att fine-tune's six are its four look-ahead
    # heads, the attention logits and the model's goal distribution).
    # Every exponential in the engine's tensor module goes through one
    # helper, so counting its calls counts them all.
    import hoopnet.engine.tensor as tensor_mod

    assert inspect.getsource(tensor_mod).count("np.exp(") == 1
    assert "np.exp(" in inspect.getsource(tensor_mod._shifted_exp)
    desk = load_run_config((REPO / "configs" / "desk.cfg").read_text())
    m = HPNModel(SPEC, desk.arch, Variant.H_ATT, 5)
    m.set_trainable(_STAGES[stage][0])
    batch = [DATA[i % len(DATA)] for i in range(desk.train.batch_size)]
    calls = []
    real = tensor_mod._shifted_exp
    monkeypatch.setattr(tensor_mod, "_shifted_exp", lambda x: calls.append(x.shape) or real(x))
    loss = compute_loss(m, batch, stage, desk.train, SPEC, rng=rng_for(5, "noise"))
    backward(loss)
    assert len(calls) == exps
    assert all(rows == desk.train.batch_size * batch[0].sequence.steps for rows, _ in calls)


def test_finetune_gradcheck_tiny_model():
    arch = ArchitectureConfig(conv_filters=(2,), conv_strides=(2,), gru_cells=4,
                              transfer_hidden=4)
    m = float64_model(HPNModel(SPEC, arch, Variant.H_ATT, 2))
    cfg = small_cfg()
    short = [shorten(item, 3) for item in DATA[:2]]

    from _gradcheck import gradcheck

    err = gradcheck(
        lambda: compute_loss(m, short, Stage.FINETUNE, cfg, SPEC, rng=None),
        m.parameters(),
        max_elements=6,
    )
    assert err < 1e-4


def test_finetune_batch_stays_float32():
    # a model computes in float32: its outputs, memory, gradients and
    # optimizer state; the loss and eval_sequence's probabilities are float64
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 4)
    assert all(a.dtype == np.float32 for _, a in m.named_state())
    cfg = small_cfg(noise_sigma=1e-3)
    arrays = assemble(DATA[:4], SPEC)
    outs, memory = m.run(arrays["inputs"], m.reset_memory(4), rng=rng_for(4, "noise"),
                         noise_sigma=cfg.noise_sigma)
    assert [t.data.dtype for t in (*outs["raw_logits"], outs["macro_logits"],
                                    outs["attention_logits"])] == [np.float32] * 6
    assert memory["micro"].dtype == memory["macro"].dtype == np.float32
    m.set_trainable({"micro", "macro", "attention", "combine"})
    optimizer = RMSProp(m.parameters(), 1e-3, momentum=0.9)
    loss = compute_loss(m, arrays, Stage.FINETUNE, cfg, SPEC, rng=rng_for(4, "noise"))
    assert loss.data.dtype == np.float64
    backward(loss)
    assert all(p.grad.dtype == np.float32 for p in m.parameters())
    optimizer.step()
    state = optimizer.cache + optimizer.buf + [a for _, a in m.named_state()]
    assert all(a.dtype == np.float32 for a in state)
    assert any(b.any() for b in optimizer.buf)
    logits, memory = m.logits(arrays["inputs"], m.reset_memory(4))
    assert memory["micro"].dtype == memory["macro"].dtype == np.float32
    assert all(v.dtype == np.float32 for v in logits.values() if v is not None)
    probs = m.eval_sequence(arrays["inputs"])
    assert all(v.dtype == np.float64 for v in probs.values())
    for key in ("p_raw", "p_macro", "attention"):
        assert np.abs(probs[key].sum(axis=-1) - 1.0).max() < 1e-9, key


def test_checkpoint_round_trip_is_exact_in_float32(tmp_path):
    # a trained float32 model stored as float64 reloads bit for bit, and a
    # float64 state loads rounded to float32
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 6)
    for stage in stage_schedule(m.variant):
        run_stage(m, DATA[:8], [], stage, small_cfg(noise_sigma=1e-3), SPEC, seed=6)
    path = tmp_path / "h_att.ckpt"
    save_checkpoint(path, m.state_for_checkpoint(), m.config_hash())
    fresh = HPNModel(SPEC, ARCH, Variant.H_ATT, 7)
    load_checkpoint(path, fresh.state_for_checkpoint(), fresh.config_hash())
    inputs = assemble(DATA[8:12], SPEC)["inputs"]
    want, got = m.eval_sequence(inputs), fresh.eval_sequence(inputs)
    assert all(_same_bytes(want[k], got[k]) for k in want if want[k] is not None)

    wide = float64_model(HPNModel(SPEC, ARCH, Variant.H_ATT, 6))
    rng = np.random.default_rng(6)
    for _, a in wide.state_for_checkpoint():
        a[...] = rng.standard_normal(a.shape)
    save_checkpoint(path, wide.state_for_checkpoint(), wide.config_hash())
    load_checkpoint(path, fresh.state_for_checkpoint(), fresh.config_hash())
    for (_, a), (_, b) in zip(wide.state_for_checkpoint(), fresh.state_for_checkpoint()):
        assert b.dtype == np.float32 and not np.array_equal(a, b)
        np.testing.assert_array_equal(b, a.astype(np.float32))


# augmentation


class FixedRng:
    """Stands in for a Generator: each ``integers`` call returns the next
    of the given offsets."""

    def __init__(self, *offsets):
        self.offsets = iter(offsets)

    def integers(self, lo, hi, size=None):
        return np.array(next(self.offsets))


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_augment_zero_is_identity():
    arrays = assemble(DATA[:3], SPEC)
    clamped = augment_translate(arrays, 0, rng_for(1, "aug"), SPEC)
    want = assemble(DATA[:3], SPEC)
    assert clamped == 0 and all(_same_bytes(arrays[k], want[k]) for k in want)


def test_augment_shifts_consistently():
    item = DATA[0]
    arrays = assemble([item], SPEC)
    augment_translate(arrays, 8, FixedRng([3, 0]), SPEC)
    np.testing.assert_allclose(
        arrays["inputs"][0, :, 1, 0],
        np.clip(item.sequence.raw_positions[:, 0] + 3.0, 0, SPEC.width_ft - 1e-9),
    )
    np.testing.assert_allclose(
        arrays["inputs"][0, :, 0, 1], item.sequence.ball_positions[:, 1]
    )
    # velocity labels untouched
    np.testing.assert_array_equal(arrays["micro"][0], item.labels.micro)
    # goal labels recomputed from shifted stationary positions
    expect = SPEC.boxes_from_positions(
        np.clip(
            item.labels.macro_target_xy + np.array([3.0, 0.0]),
            [0, 0], [SPEC.width_ft - 1e-9, SPEC.height_ft - 1e-9],
        )
    )
    np.testing.assert_array_equal(arrays["macro"][0], expect)


def test_augment_interior_shift_moves_boxes():
    # when nothing clamps and the goal stays in one box per segment, the
    # new labels equal the shifted boxes
    item = DATA[1]
    target = item.labels.macro_target_xy
    if (target[:, 0] % 5 > 1).all() and (target[:, 0] < 44).all():
        arrays = assemble([item], SPEC)
        augment_translate(arrays, 8, FixedRng([1, 0]), SPEC)
        # same or +1 box column depending on in-box offset; recomputation
        # keeps every step's target inside the court
        assert (arrays["macro"][0] >= 0).all()


def test_augment_occupancy_shift():
    from hoopnet.data import TrainingSequence

    item = DATA[2]
    seq = item.sequence

    def squeeze(a):  # pull everything well inside the court so nothing clamps
        return a * 0.7 + 4.0

    interior = LabeledSequence(
        TrainingSequence(
            seq.possession_id, seq.focal_agent, seq.t0,
            squeeze(seq.raw_positions), squeeze(seq.raw_frame_positions),
            squeeze(seq.ball_positions), squeeze(seq.teammate_positions),
            squeeze(seq.opponent_positions),
        ),
        item.labels,
    )
    arrays = assemble([interior], SPEC)
    clamped = augment_translate(arrays, 8, FixedRng([3, 0]), SPEC)
    assert clamped == 0
    a = oracle_channelize(interior.sequence, SPEC)
    b = oracle_channelize(_sequence_of_agents(arrays["inputs"][0]), SPEC)
    # every occupied cell moves exactly three columns right
    np.testing.assert_array_equal(b[:, :, :, 3:], a[:, :, :, : SPEC.micro_cols - 3])
    assert b[:, :, :, :3].sum() == 0


def test_augment_matches_per_sequence_oracle():
    # bit for bit, with the same clamp count and RNG state afterwards,
    # over batches that hold zero offsets and clamped sequences; every
    # offset is zero at max_cells 1
    batch = [DATA[i % len(DATA)] for i in range(16)]
    zero_offsets = clamped = 0
    for max_cells in (1, 2, 8):
        for seed in range(10):
            rng, oracle_rng = rng_for(seed, "aug"), rng_for(seed, "aug")
            arrays = assemble(batch, SPEC)
            got = augment_translate(arrays, max_cells, rng, SPEC)
            items, want = oracle_augment_translate(batch, max_cells, oracle_rng, SPEC)
            assert got == want
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            expect = assemble(items, SPEC)
            assert arrays.keys() == expect.keys()
            assert all(_same_bytes(arrays[k], expect[k]) for k in expect)
            zero_offsets += sum(a is b for a, b in zip(items, batch))
            clamped += got
    assert zero_offsets > 0 and clamped > 0


def test_augment_leaves_zero_offset_rows_off_court():
    # ingest lets positions lie up to bounds_tolerance_ft off court; a
    # sequence drawn a zero offset keeps them, a shifted one is clamped
    from hoopnet.data import TrainingSequence

    seq = DATA[0].sequence

    def off_court(a):
        a = a.copy()
        a[:SPEC.subsample_stride] = (-2.0, -1.5)
        return a

    off = TrainingSequence(
        seq.possession_id, seq.focal_agent, seq.t0,
        off_court(seq.raw_positions), off_court(seq.raw_frame_positions),
        off_court(seq.ball_positions), off_court(seq.teammate_positions),
        off_court(seq.opponent_positions),
    )
    item = LabeledSequence(off, label_sequence(off, SPEC, SEG))
    arrays = assemble([item, item], SPEC)
    before = assemble([item], SPEC)
    assert augment_translate(arrays, 8, FixedRng([0, 0], [-3, 0]), SPEC) == 1
    assert all(_same_bytes(arrays[k][:1], before[k]) for k in before)
    assert arrays["inputs"][0, 0, 0, 0] == -2.0 and (arrays["inputs"][1] >= 0).all()


# stage training behavior


def test_lr_zero_keeps_parameters():
    m = HPNModel(SPEC, ARCH, Variant.GRU_CNN, 4)
    before = {n: p.data.copy() for n, p in m.named_parameters()}
    cfg = small_cfg(lr_pretrain=1e-30)  # effectively zero
    run_stage(m, DATA[:8], [], Stage.PRETRAIN_MICRO, cfg, SPEC, seed=2)
    for n, p in m.named_parameters():
        np.testing.assert_allclose(p.data, before[n], atol=1e-12)


def test_freezing_per_stage_bytes():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 4)
    groups = m.parameter_groups()
    macro_bytes = [p.data.tobytes() for p in groups["macro"]]
    attention_bytes = [p.data.tobytes() for p in groups["attention"]]
    run_stage(m, DATA[:8], [], Stage.PRETRAIN_MICRO, small_cfg(), SPEC, seed=3)
    assert [p.data.tobytes() for p in groups["macro"]] == macro_bytes
    assert [p.data.tobytes() for p in groups["attention"]] == attention_bytes
    micro_bytes = [p.data.tobytes() for p in groups["micro"]]
    run_stage(m, DATA[:8], [], Stage.PRETRAIN_MACRO, small_cfg(), SPEC, seed=3)
    assert [p.data.tobytes() for p in groups["micro"]] == micro_bytes


def test_training_deterministic_same_seed(tmp_path):
    def train_once(path):
        m = HPNModel(SPEC, ARCH, Variant.H_ATT, 6)
        report = train_full(m, DATA[:8], DATA[8:12], small_cfg(), seed=9, checkpoint_path=path)
        return report, path.read_bytes()

    r1, b1 = train_once(tmp_path / "a.ckpt")
    r2, b2 = train_once(tmp_path / "b.ckpt")
    assert b1 == b2
    assert [rec.loss for rec in r1.records] == [rec.loss for rec in r2.records]
    assert [rec.holdout for rec in r1.records] == [rec.holdout for rec in r2.records]


class _Interrupted(Exception):
    pass


def test_resume_matches_uninterrupted(tmp_path, monkeypatch):
    cfg = small_cfg()
    full_path = tmp_path / "full.ckpt"
    m_full = HPNModel(SPEC, ARCH, Variant.H_ATT, 8)
    train_full(m_full, DATA[:8], [], cfg, seed=4, checkpoint_path=full_path)

    # interrupted as fine-tuning starts, after the first two stages'
    # checkpoint, then resumed
    part_path = tmp_path / "part.ckpt"
    m_part = HPNModel(SPEC, ARCH, Variant.H_ATT, 8)
    run_stage = train_mod.run_stage

    def interrupt_finetune(model, train_data, holdout_data, stage, *args):
        if stage is Stage.FINETUNE:
            raise _Interrupted
        return run_stage(model, train_data, holdout_data, stage, *args)

    with monkeypatch.context() as patch:
        patch.setattr(train_mod, "run_stage", interrupt_finetune)
        with pytest.raises(_Interrupted):
            train_full(m_part, DATA[:8], [], cfg, seed=4, checkpoint_path=part_path)
    assert read_manifest(part_path)[2]["completed_stages"] == "pretrain_micro,pretrain_macro"
    m_resume = HPNModel(SPEC, ARCH, Variant.H_ATT, 8)
    train_full(m_resume, DATA[:8], [], cfg, seed=4, checkpoint_path=part_path, resume=True)
    assert part_path.read_bytes() == full_path.read_bytes()


def test_report_csv_columns(tmp_path):
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 10)
    report = train_full(m, DATA[:8], DATA[8:12], small_cfg(), seed=5,
                        checkpoint_path=tmp_path / "h_att.ckpt")
    csv = report.to_csv()
    header = csv.splitlines()[0]
    assert header.startswith("stage,epoch,loss,acc_delta0")
    assert len(csv.splitlines()) == 1 + len(report.records)
    # tv monitor exists and is finite for the attention variant
    assert all(
        rec.holdout.tv_monitor is not None and math.isfinite(rec.holdout.tv_monitor)
        for rec in report.records
    )


def test_report_rows_with_and_without_a_holdout_keep_their_bytes():
    # a record's holdout scores as evaluate returns them; a stage run
    # without a holdout writes zero accuracies and empty cells
    scores = EvalMetrics(acc_delta=(0.5, 0.25, 0.125, 1 / 3), n_delta=(8, 8, 8, 6),
                         macro_acc=0.1, macro_acc_excl_burnin=0.2, attention_acc=2 / 3,
                         tv_monitor=0.4567891, n_sequences=3)
    records = [
        EpochRecord(stage="pretrain_macro", epoch=1, loss=1.2345678, grad_norm_mean=3.5,
                    seconds=0.12345, clamped_sequences=2, holdout=scores),
        EpochRecord(stage="finetune", epoch=0, loss=0.5, grad_norm_mean=0.25,
                    seconds=1.0, clamped_sequences=0, holdout=None),
    ]
    assert TrainReport(records, 4).to_csv() == (
        "stage,epoch,loss,acc_delta0,acc_delta1,acc_delta2,acc_delta3,macro_acc,attention_acc,"
        "tv_monitor,grad_norm_mean,seconds,clamped_sequences\n"
        "pretrain_macro,1,1.234568,0.500000,0.250000,0.125000,0.333333,0.100000,0.666667,"
        "0.456789,3.500000,0.123,2\n"
        "finetune,0,0.500000,0.000000,0.000000,0.000000,0.000000,,,,0.250000,1.000,0\n"
    )


# the holdout score each stage's early stopping watches: the head it trains
WATCHED = {Stage.PRETRAIN_MICRO: "raw_acc_delta0", Stage.PRETRAIN_MACRO: "macro_acc",
           Stage.PRETRAIN_ATTENTION: "attention_acc", Stage.FINETUNE: "acc_delta0"}


@pytest.mark.parametrize("stage", list(Stage), ids=lambda s: s.value)
def test_early_stopping_watches_the_head_each_stage_trains(monkeypatch, stage):
    # scripted holdout scores over five epochs with a patience of two: the
    # watched score flat while every other rises stops after three
    # epochs; the watched score rising while the others stay flat runs all five
    cfg = small_cfg(epochs_pretrain=5, epochs_finetune=5, early_stop_patience=2)
    for watched_rises, epochs_run in ((False, 3), (True, 5)):
        epochs = iter(range(5))

        def scripted(*args, **kwargs):
            epoch = next(epochs)
            score = {key: epoch / 10 if (key == WATCHED[stage]) == watched_rises else 0.5
                     for key in WATCHED.values()}
            return EvalMetrics(acc_delta=(score["acc_delta0"], 0.0, 0.0, 0.0), n_delta=(1,) * 4,
                               macro_acc=score["macro_acc"], macro_acc_excl_burnin=None,
                               attention_acc=score["attention_acc"], tv_monitor=None,
                               n_sequences=1, raw_acc_delta0=score["raw_acc_delta0"])

        monkeypatch.setattr(train_mod.bench, "evaluate", scripted)
        m = HPNModel(SPEC, ARCH, Variant.H_AUX, 1)
        records = run_stage(m, DATA[:4], DATA[4:5], stage, cfg, SPEC, seed=1)
        assert len(records) == epochs_run


def test_run_stage_stores_evaluate_result_and_none_without_a_holdout():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 10)
    cfg = small_cfg()
    # six holdout sequences, of which the first holdout_eval_max = 4 are scored
    (rec,) = run_stage(m, DATA[:8], DATA[8:14], Stage.PRETRAIN_MICRO, cfg, SPEC, seed=5)
    assert rec.holdout == evaluate(m, DATA[8:12], SPEC)
    assert rec.holdout.n_sequences == cfg.holdout_eval_max
    (rec,) = run_stage(m, DATA[:8], [], Stage.PRETRAIN_MICRO, cfg, SPEC, seed=5)
    assert rec.holdout is None


def test_divergence_detection():
    m = HPNModel(SPEC, ARCH, Variant.GRU_CNN, 12)
    for p in m.parameters():
        p.data[...] = np.nan
    from hoopnet.errors import DivergenceError

    with pytest.raises((DivergenceError, FloatingPointError)):
        run_stage(m, DATA[:4], [], Stage.PRETRAIN_MICRO, small_cfg(), SPEC, seed=7)
