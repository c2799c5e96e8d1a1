import contextlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hoopnet.engine.nn as nn_mod
import hoopnet.engine.tensor as tensor_mod
import hoopnet.model as model_mod
import hoopnet.rollout as rollout_mod
from hoopnet.config import load_run_config
from hoopnet.court import CourtSpec
from hoopnet.data import SynthConfig, agent_positions, synthesize, window
from hoopnet.engine.tensor import softmax_array
from hoopnet.errors import ConfigError, DataError
from hoopnet.model import ArchitectureConfig, HPNModel, Variant
from hoopnet.rollout import (
    RolloutConfig,
    batch_rollout,
    choose_step,
    load_rollouts,
    rollout_to_json,
    save_rollouts,
)
from hoopnet.util import rng_for

from _oracles import action_index_of, oracle_infer, oracle_rollout

SPEC = CourtSpec()
ARCH = ArchitectureConfig(conv_filters=(4, 6), conv_strides=(2, 1),
                          gru_cells=16, transfer_hidden=12)


def sequences(n=3, seed=61):
    cfg = SynthConfig(n_possessions=max(1, (n + 4) // 5), seed=seed)
    out = []
    for p in synthesize(cfg, SPEC):
        out.extend(window(p, SPEC, rng_for(seed, "w", p.id), 1))
    return out[:n]


SEQS = sequences()


def truncated(seq, steps):
    """The first ``steps`` steps of a sequence."""
    stride = SPEC.subsample_stride
    return replace(
        seq,
        raw_positions=seq.raw_positions[:steps],
        raw_frame_positions=seq.raw_frame_positions[:steps * stride],
        ball_positions=seq.ball_positions[:steps],
        teammate_positions=seq.teammate_positions[:steps],
        opponent_positions=seq.opponent_positions[:steps],
    )


def rollout(model, seq, config):
    return batch_rollout(model, [seq], config, SPEC)[0]


def one_hot(index, value=10.0):
    """(n_actions,) float32 logits favouring one action."""
    row = np.zeros(SPEC.n_actions, np.float32)
    row[index] = value
    return row


class _ConstantModel:
    """Stub emitting the same logits at every step: one (n_actions,) row
    for every look-ahead head and, if given, attention logits."""

    def __init__(self, spec, raw, attention=None):
        self.spec = spec
        self.raw = raw
        self.attention = attention

    def reset_memory(self, batch=1):
        return {"_owner": id(self), "_batch": batch}

    def logits(self, x, mem):
        n, t_steps = x.shape[:2]
        raw = np.broadcast_to(self.raw, (n, t_steps, self.spec.lookahead_steps, self.spec.n_actions))
        attention = None if self.attention is None else \
            np.broadcast_to(self.attention, (n, t_steps, self.spec.n_actions))
        return {"raw": raw, "macro": None, "attention": attention, "cc": None}, mem


class _CountingModel:
    """Wraps a model, recording the number of steps of each ``logits`` call."""

    def __init__(self, model):
        self.model = model
        self.steps = []

    def reset_memory(self, batch=1):
        return self.model.reset_memory(batch)

    def logits(self, x, mem):
        self.steps.append(x.shape[1])
        return self.model.logits(x, mem)


@pytest.mark.parametrize("horizon", [0, 7])
def test_burn_in_is_one_infer_call(horizon):
    m = _CountingModel(HPNModel(SPEC, ARCH, Variant.H_ATT, 3))
    batch_rollout(m, SEQS, RolloutConfig(burn_in_steps=20, horizon_steps=horizon), SPEC)
    assert m.steps == [20] + [1] * horizon


@pytest.mark.parametrize("variant", [Variant.H_ATT, Variant.H_CC, Variant.CNN])
def test_burn_in_choices_equal_teacher_forced_eval(variant):
    # the burn-in picks what choose_step picks from eval_logits of the
    # ground-truth prefix, drawing first from each sequence's rollout RNG
    m = HPNModel(SPEC, ARCH, variant, 23)
    burn_in = 20
    prefix = np.stack([agent_positions(s)[:burn_in] for s in SEQS])
    for mode in ("argmax", "sample"):
        cfg = RolloutConfig(burn_in_steps=burn_in, horizon_steps=5, mode=mode, seed=8)
        results = batch_rollout(m, SEQS, cfg, SPEC)
        rngs = [rng_for(cfg.seed, "rollout", s.possession_id, s.focal_agent, s.t0) for s in SEQS]
        actions, macro, attention = choose_step(m.eval_logits(prefix), mode, rngs)
        for i, r in enumerate(results):
            np.testing.assert_array_equal(r.actions[:burn_in], actions[i])
            np.testing.assert_array_equal(r.macro_goals[:burn_in], macro[i])
            np.testing.assert_array_equal(r.attention_argmax[:burn_in], attention[i])


def test_horizon_zero_is_pure_ground_truth():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 3)
    cfg = RolloutConfig(burn_in_steps=20, horizon_steps=0)
    result = rollout(m, SEQS[0], cfg)
    assert result.path.shape == (20, 2)
    np.testing.assert_array_equal(result.path, SEQS[0].raw_positions[:20])


def test_burn_in_exactness_bit_for_bit():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 3)
    cfg = RolloutConfig(burn_in_steps=20, horizon_steps=30)
    result = rollout(m, SEQS[0], cfg)
    assert result.path.shape == (50, 2)
    assert result.path[:20].tobytes() == SEQS[0].raw_positions[:20].tobytes()


def test_stationary_model_freezes_focal():
    m = _ConstantModel(SPEC, one_hot(SPEC.stationary_action_index))
    cfg = RolloutConfig(burn_in_steps=5, horizon_steps=10)
    result = rollout(m, SEQS[0], cfg)
    anchor = SEQS[0].raw_positions[4]
    for t in range(5, 15):
        np.testing.assert_array_equal(result.path[t], anchor)


def test_constant_motion_advances_and_clamps():
    # each of the 4 look-ahead actions moves one cell east: +4 ft per step
    east = action_index_of(SPEC, 1.0, 0.0)
    m = _ConstantModel(SPEC, one_hot(east))
    cfg = RolloutConfig(burn_in_steps=2, horizon_steps=30)
    result = rollout(m, SEQS[0], cfg)
    x0 = result.path[1][0]
    for h in range(1, 5):
        expect = min(x0 + 4.0 * h, SPEC.width_ft - 1e-9)
        np.testing.assert_allclose(result.path[1 + h][0], expect)
    assert result.path[:, 0].max() <= SPEC.width_ft
    assert result.clamp_events > 0  # it eventually runs off the right edge


def test_bounds_always_hold():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 5)
    cfg = RolloutConfig(burn_in_steps=20, horizon_steps=30)
    for seq in SEQS:
        r = rollout(m, seq, cfg)
        assert (r.path[:, 0] >= 0).all() and (r.path[:, 0] <= SPEC.width_ft).all()
        assert (r.path[:, 1] >= 0).all() and (r.path[:, 1] <= SPEC.height_ft).all()


def test_memory_persists_prefix_property():
    # a longer rollout extends a shorter one without resetting memory
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 7)
    short = rollout(m, SEQS[1], RolloutConfig(burn_in_steps=20, horizon_steps=10))
    long = rollout(m, SEQS[1], RolloutConfig(burn_in_steps=20, horizon_steps=25))
    np.testing.assert_array_equal(long.path[:30], short.path)
    np.testing.assert_array_equal(long.macro_goals[:30], short.macro_goals[:30])


def test_memory_persists_prefix_property_sampled():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 7)
    a = rollout(m, SEQS[1], RolloutConfig(20, 10, "sample", seed=3))
    b = rollout(m, SEQS[1], RolloutConfig(20, 25, "sample", seed=3))
    np.testing.assert_array_equal(b.path[:30], a.path)


def test_argmax_mode_ignores_seed():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 9)
    a = rollout(m, SEQS[0], RolloutConfig(20, 15, "argmax", seed=1))
    b = rollout(m, SEQS[0], RolloutConfig(20, 15, "argmax", seed=999))
    np.testing.assert_array_equal(a.path, b.path)


def test_sample_mode_seeded_determinism():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 9)
    a = rollout(m, SEQS[0], RolloutConfig(20, 15, "sample", seed=5))
    b = rollout(m, SEQS[0], RolloutConfig(20, 15, "sample", seed=5))
    np.testing.assert_array_equal(a.path, b.path)
    c = rollout(m, SEQS[0], RolloutConfig(20, 15, "sample", seed=6))
    assert not np.array_equal(a.path, c.path)


@pytest.mark.parametrize("variant", list(Variant))
def test_batch_rollout_matches_one_sequence_oracle(variant):
    # one batched recurrence on the logits equals rolling each sequence out
    # alone by the probability route in argmax mode, and equals rolling it
    # out alone in sample mode; the horizon runs past the 50 recorded steps
    # (and the short sequence's 30), so the other agents freeze at
    # different steps
    m = HPNModel(SPEC, ARCH, variant, 19)
    batch = SEQS + [truncated(SEQS[2], 30)]
    for mode in ("argmax", "sample"):
        cfg = RolloutConfig(burn_in_steps=20, horizon_steps=40, mode=mode, seed=4)
        results = batch_rollout(m, batch, cfg, SPEC)
        assert len(results) == len(batch)
        assert sum(r.clamp_events for r in results) > 0
        for seq, r in zip(batch, results):
            alone = (oracle_rollout(m, seq, cfg, SPEC) if mode == "argmax"
                     else batch_rollout(m, [seq], cfg, SPEC)[0])
            assert rollout_to_json(r) == rollout_to_json(alone)


# sample mode draws from softmax(raw + attention) where the probability
# route normalises softmax(raw) * softmax(attention); the two agree to
# rounding: at most 6.5e-16 relative for these models, checked at 1e-12
SAMPLE_RTOL = 1e-12


@pytest.mark.parametrize("variant", list(Variant))
def test_sample_probabilities_match_probability_oracle(monkeypatch, variant):
    used = []

    def keep(x):
        used.append(real(x))
        return used[-1]

    real = rollout_mod.softmax_array
    monkeypatch.setattr(rollout_mod, "softmax_array", keep)
    m = HPNModel(SPEC, ARCH, variant, 19)
    inputs = np.stack([agent_positions(s) for s in SEQS])
    rngs = [np.random.default_rng(i) for i in range(len(SEQS))]
    choose_step(m.eval_logits(inputs), "sample", rngs)
    want = oracle_infer(m, inputs, m.reset_memory(len(SEQS)))[0]["p_combined"]
    assert len(used) == 1 and used[0].dtype == np.float64
    np.testing.assert_allclose(used[0], want / want.sum(axis=-1, keepdims=True),
                               rtol=SAMPLE_RTOL, atol=0)


@pytest.mark.parametrize("variant,per_call", [(Variant.H_ATT, 1), (Variant.CNN, 0)])
def test_argmax_step_softmax_count(monkeypatch, variant, per_call):
    # an argmax-mode model call softmaxes only the transfer net's input,
    # h_att's goal distribution, and nothing for cnn
    calls = []
    for module in (tensor_mod, model_mod, rollout_mod):
        real = module.softmax_array
        monkeypatch.setattr(module, "softmax_array",
                            lambda x, real=real: calls.append(x.shape) or real(x))
    m = HPNModel(SPEC, ARCH, variant, 3)
    batch_rollout(m, SEQS, RolloutConfig(burn_in_steps=20, horizon_steps=3), SPEC)
    assert len(calls) == (1 + 3) * per_call
    assert all(shape[-1] == SPEC.n_macro_boxes for shape in calls)


@pytest.mark.parametrize("variant,nodes", [(Variant.H_ATT, 13), (Variant.CNN, 7)])
def test_step_tensor_node_count(monkeypatch, variant, nodes):
    # a T = 1 model call builds one Tensor per op, each Linear one: for
    # h_att two encoders, two GRUs, four look-ahead heads, the goal head,
    # its softmax and the transfer net's two layers and ReLU; for cnn one
    # encoder, the linear core and its ReLU, and four heads
    m = HPNModel(SPEC, ARCH, variant, 3)
    inputs = np.stack([agent_positions(s)[:1] for s in SEQS])  # (N, 1, 11, 2)
    made = []
    for module in (tensor_mod, nn_mod):
        real = module._node
        monkeypatch.setattr(module, "_node", lambda *args, real=real: made.append(1) or real(*args))
    m.logits(inputs, m.reset_memory(len(SEQS)))
    assert len(made) == nodes


@pytest.mark.parametrize("variant", list(Variant))
def test_batch_rollout_equals_its_steps_outside_frozen_state(monkeypatch, variant):
    # one no_grad() scope over the rollout, or each call in a scope of its own
    m = HPNModel(SPEC, ARCH, variant, 29)
    for mode in ("argmax", "sample"):
        cfg = RolloutConfig(burn_in_steps=20, horizon_steps=30, mode=mode, seed=6)
        scoped = [rollout_to_json(r) for r in batch_rollout(m, SEQS, cfg, SPEC)]
        with monkeypatch.context() as patch:
            patch.setattr(rollout_mod, "no_grad", contextlib.nullcontext)
            plain = [rollout_to_json(r) for r in batch_rollout(m, SEQS, cfg, SPEC)]
        assert scoped == plain


@pytest.mark.parametrize("variant,pairs", [(Variant.H_ATT, 3), (Variant.CNN, 2)])
def test_desk_rollout_builds_each_inference_constant_once(monkeypatch, variant, pairs):
    # a 20 + 30 desk rollout is 31 model calls; it builds the folded
    # (weight, bias) pair of the stacked layer 0 and of each encoder's
    # layer 1 once, where the same steps each in a no_grad() scope of
    # their own build them on every call; no unfolded weight matrix is
    # built beside them
    desk_cfg = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"
    desk = load_run_config(desk_cfg.read_text())
    m = HPNModel(desk.court, desk.arch, variant, 1)
    built, matrices = [], []
    folded, weight_matrix = nn_mod._folded, nn_mod._weight_matrix
    monkeypatch.setattr(nn_mod, "_folded", lambda convs, bns: built.append(convs) or folded(convs, bns))
    monkeypatch.setattr(nn_mod, "_weight_matrix",
                        lambda convs: matrices.append(convs) or weight_matrix(convs))
    cfg = desk.rollout
    assert (cfg.burn_in_steps, cfg.horizon_steps) == (20, 30)
    batch_rollout(m, SEQS[:1], cfg, desk.court)
    assert len(set(built)) == len(built) == pairs
    assert matrices == built
    built.clear()
    matrices.clear()
    monkeypatch.setattr(rollout_mod, "no_grad", contextlib.nullcontext)
    batch_rollout(m, SEQS[:1], cfg, desk.court)
    assert len(built) == 31 * pairs
    assert matrices == built


def test_a_failing_rollout_closes_its_no_grad_scope():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 3)
    m.micro_heads[0].bias.data[0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite values in the raw logits"):
        batch_rollout(m, SEQS, RolloutConfig(burn_in_steps=20, horizon_steps=5), SPEC)
    assert tensor_mod._GRAD_ENABLED and not tensor_mod._SCOPE_CONSTANTS
    bn = m.micro_encoder.bn0
    bn.set_buffer("running_mean", bn.running_mean + 0.5)  # writers work again


def test_batch_rollout_duplicates_and_short_sequence():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 11)
    cfg = RolloutConfig(20, 10, "sample", seed=2)
    r = batch_rollout(m, [SEQS[0], SEQS[1], SEQS[0]], cfg, SPEC)
    assert rollout_to_json(r[0]) == rollout_to_json(r[2])  # duplicates identical
    # one sequence shorter than the burn-in fails the whole batch
    with pytest.raises(ConfigError, match="burn-in"):
        batch_rollout(m, [SEQS[0], truncated(SEQS[1], 19)], cfg, SPEC)


def test_underflowing_product_still_moves_by_the_scores():
    # raw favours east by 760 over west, attention puts -1000 on east: the
    # float64 product of their softmaxes has no mass anywhere, and both
    # modes follow the largest raw + attention, west
    east, west = action_index_of(SPEC, 1.0, 0.0), action_index_of(SPEC, -1.0, 0.0)
    raw = one_hot(east, 800.0)
    raw[west] = 40.0
    attention = one_hot(east, -1000.0)
    product = softmax_array(raw.astype(np.float64)) * softmax_array(attention.astype(np.float64))
    assert not product.any()
    m = _ConstantModel(SPEC, raw, attention)
    west_only = rollout(_ConstantModel(SPEC, one_hot(west)), SEQS[0], RolloutConfig(2, 5))
    for mode in ("argmax", "sample"):
        r = rollout(m, SEQS[0], RolloutConfig(burn_in_steps=2, horizon_steps=5, mode=mode))
        assert (r.actions == west).all()
        np.testing.assert_array_equal(r.path, west_only.path)


def test_batch_rollout_empty_rejected():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 11)
    with pytest.raises(ConfigError):
        batch_rollout(m, [], RolloutConfig(), SPEC)


def test_config_validation():
    # a bad value is refused when the config is built
    with pytest.raises(ValueError, match="burn_in_steps"):
        RolloutConfig(burn_in_steps=0)
    with pytest.raises(ValueError, match="burn_in_steps"):
        RolloutConfig(burn_in_steps=51)  # longer than any sequence
    with pytest.raises(ValueError, match="greedy"):
        RolloutConfig(mode="greedy")
    # a sequence shorter than the burn-in is refused when rolled out
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 1)
    with pytest.raises(ConfigError, match="burn-in"):
        rollout(m, truncated(SEQS[0], 19), RolloutConfig(burn_in_steps=20))


def test_macro_goal_switch_metric_and_json_round_trip(tmp_path):
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 13)
    cfg = RolloutConfig(20, 10)
    results = batch_rollout(m, SEQS, cfg, SPEC)
    for r in results:
        expected = int(np.count_nonzero(np.diff(r.macro_goals)))
        assert r.macro_switches == expected
    path = tmp_path / "rollouts.jsonl"
    save_rollouts(results, path)
    again = load_rollouts(path)
    assert len(again) == len(results)
    for a, b in zip(again, results):
        np.testing.assert_array_equal(a.path, b.path)
        np.testing.assert_array_equal(a.actions, b.actions)
        assert a.macro_switches == b.macro_switches
        assert rollout_to_json(a) == rollout_to_json(b)


# a rollout line from when rollout files held a zero_mass_fallbacks count
OLD_LINE = ('{"possession_id":"p0","focal_agent":"a2","t0":8,"burn_in":1,"horizon":1,'
            '"mode":"argmax","path":[[1.5,2.0],[5.5,2.0]],"macro_goals":[3,3],'
            '"actions":[[170,170,170,170],[170,170,170,170]],"attention_argmax":[9,9],'
            '"clamp_events":0,"zero_mass_fallbacks":0,"macro_switches":0}')


def test_load_rollouts_reads_a_line_with_the_dropped_fallback_count(tmp_path):
    # old rollout files still load
    line = OLD_LINE
    path = tmp_path / "old.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    (r,) = load_rollouts(path)
    assert (r.possession_id, r.focal_agent, r.t0, r.burn_in, r.horizon) == ("p0", "a2", 8, 1, 1)
    np.testing.assert_array_equal(r.path, [[1.5, 2.0], [5.5, 2.0]])
    assert r.macro_goals.tolist() == [3, 3] and r.attention_argmax.tolist() == [9, 9]
    assert r.actions.shape == (2, 4) and r.clamp_events == 0 and r.macro_switches == 0
    assert rollout_to_json(r) == line.replace(',"zero_mass_fallbacks":0', "")


@pytest.mark.parametrize("change, message", [
    (lambda obj: OLD_LINE[:90], "Unterminated string"),  # a line cut short
    (lambda obj: json.dumps([obj]), "not a JSON object"),
    (lambda obj: json.dumps({k: v for k, v in obj.items() if k != "horizon"}), "missing field 'horizon'"),
    (lambda obj: json.dumps({**obj, "t0": "8"}), "field 't0' must be int"),
    (lambda obj: json.dumps({**obj, "t0": 8.0}), "field 't0' must be int"),
    (lambda obj: json.dumps({**obj, "mode": None}), "field 'mode' must be str"),
    (lambda obj: json.dumps({**obj, "path": [1.5, 2.0]}), "field 'path' must be a rank-2 float64 array"),
    (lambda obj: json.dumps({**obj, "path": [[1.5, "x"]]}), "field 'path' must be a rank-2"),
    (lambda obj: json.dumps({**obj, "macro_goals": [3.5, 3]}), "field 'macro_goals' must be a rank-1 int64"),
    (lambda obj: json.dumps({**obj, "actions": [[170], [170, 170]]}), "inhomogeneous"),
    (lambda obj: json.dumps({**obj, "burn_in": 0}), "field 'burn_in' must be >= 1"),
    (lambda obj: json.dumps({**obj, "horizon": -1}), "field 'horizon' must be >= 0"),
    (lambda obj: json.dumps({**obj, "horizon": 2}), "field 'path' must have burn_in + horizon = 3 entries"),
    (lambda obj: json.dumps({**obj, "macro_goals": [3]}), "field 'macro_goals' must have"),
    (lambda obj: json.dumps({**obj, "actions": [[170] * 4] * 3}), "field 'actions' must have"),
    (lambda obj: json.dumps({**obj, "attention_argmax": [9, 9, 9]}), "field 'attention_argmax' must have"),
    (lambda obj: json.dumps({**obj, "path": [[1.5, 2.0, 0.0], [5.5, 2.0, 0.0]]}), "(x, y) pairs"),
])
def test_load_rollouts_names_the_file_and_line_of_a_bad_record(tmp_path, change, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(OLD_LINE + "\n\n" + change(json.loads(OLD_LINE)) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} line 3: .*{re.escape(message)}"):
        load_rollouts(path)


def test_failed_rollout_write_keeps_previous_file(tmp_path):
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 13)
    results = batch_rollout(m, SEQS[:2], RolloutConfig(20, 5), SPEC)
    path = tmp_path / "rollouts.jsonl"
    save_rollouts(results[:1], path)
    before = path.read_bytes()
    # the second line fails to serialize after the first was written: a
    # value JSON cannot encode, or an array field that holds no array
    # (never written as null)
    for broken, error in [(replace(results[1], clamp_events=object()), TypeError),
                          (replace(results[1], path=None), AttributeError)]:
        with pytest.raises(error):
            save_rollouts([results[0], broken], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rollouts.jsonl"]


def test_non_hierarchical_rollout_has_no_macro_goals():
    m = HPNModel(SPEC, ARCH, Variant.GRU_CNN, 15)
    r = rollout(m, SEQS[0], RolloutConfig(20, 5))
    assert (r.macro_goals == -1).all()
    assert r.macro_switches == 0
