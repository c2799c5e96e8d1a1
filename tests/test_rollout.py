from dataclasses import replace

import numpy as np
import pytest

from hoopnet.court import CourtSpec
from hoopnet.data import SynthConfig, agent_positions, synthesize, window
from hoopnet.errors import ConfigError
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

from _oracles import action_index_of, oracle_rollout

SPEC = CourtSpec()
ARCH = ArchitectureConfig(conv_filters=(4, 6), conv_kernels=(3, 3), conv_strides=(2, 1),
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


class _ConstantModel:
    """Stub emitting a fixed action for every look-ahead head."""

    variant = Variant.GRU_CNN
    hierarchical = False

    def __init__(self, spec, action_index, combined_mass=True):
        self.spec = spec
        self.index = action_index
        self.combined_mass = combined_mass

    def reset_memory(self, batch=1):
        return {"_owner": id(self), "_batch": batch}

    def infer(self, x, mem):
        n, t_steps = x.shape[:2]
        p = np.zeros((n, t_steps, self.spec.lookahead_steps, self.spec.n_actions))
        p[..., self.index] = 1.0
        combined = p if self.combined_mass else np.zeros_like(p)
        return {"p_raw": p, "p_macro": None, "attention": None, "p_combined": combined}, mem


class _CountingModel:
    """Wraps a model, recording the number of steps of each ``infer`` call."""

    def __init__(self, model):
        self.model = model
        self.steps = []

    def reset_memory(self, batch=1):
        return self.model.reset_memory(batch)

    def infer(self, x, mem):
        self.steps.append(x.shape[1])
        return self.model.infer(x, mem)


@pytest.mark.parametrize("horizon", [0, 7])
def test_burn_in_is_one_infer_call(horizon):
    m = _CountingModel(HPNModel(SPEC, ARCH, Variant.H_ATT, 3))
    batch_rollout(m, SEQS, RolloutConfig(burn_in_steps=20, horizon_steps=horizon), SPEC)
    assert m.steps == [20] + [1] * horizon


@pytest.mark.parametrize("variant", [Variant.H_ATT, Variant.H_CC, Variant.CNN])
def test_burn_in_choices_equal_teacher_forced_eval(variant):
    # the burn-in picks what choose_step picks from eval_sequence of the
    # ground-truth prefix, drawing first from each sequence's rollout RNG
    m = HPNModel(SPEC, ARCH, variant, 23)
    burn_in = 20
    prefix = np.stack([agent_positions(s)[:burn_in] for s in SEQS])
    for mode in ("argmax", "sample"):
        cfg = RolloutConfig(burn_in_steps=burn_in, horizon_steps=5, mode=mode, seed=8)
        results = batch_rollout(m, SEQS, cfg, SPEC)
        rngs = [rng_for(cfg.seed, "rollout", s.possession_id, s.focal_agent, s.t0) for s in SEQS]
        actions, _, macro, attention = choose_step(m.eval_sequence(prefix), mode, rngs)
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
    m = _ConstantModel(SPEC, SPEC.stationary_action_index)
    cfg = RolloutConfig(burn_in_steps=5, horizon_steps=10)
    result = rollout(m, SEQS[0], cfg)
    anchor = SEQS[0].raw_positions[4]
    for t in range(5, 15):
        np.testing.assert_array_equal(result.path[t], anchor)


def test_constant_motion_advances_and_clamps():
    # each of the 4 look-ahead actions moves one cell east: +4 ft per step
    east = action_index_of(SPEC, 1.0, 0.0)
    m = _ConstantModel(SPEC, east)
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
    # one batched recurrence equals rolling each sequence out alone; the
    # horizon runs past the 50 recorded steps (and the short sequence's
    # 30), so the other agents freeze at different steps
    m = HPNModel(SPEC, ARCH, variant, 19)
    batch = SEQS + [truncated(SEQS[2], 30)]
    for mode in ("argmax", "sample"):
        cfg = RolloutConfig(burn_in_steps=20, horizon_steps=40, mode=mode, seed=4)
        results = batch_rollout(m, batch, cfg, SPEC)
        assert len(results) == len(batch)
        assert sum(r.clamp_events for r in results) > 0
        for seq, r in zip(batch, results):
            assert rollout_to_json(r) == rollout_to_json(oracle_rollout(m, seq, cfg, SPEC))


def test_batch_rollout_duplicates_and_short_sequence():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 11)
    cfg = RolloutConfig(20, 10, "sample", seed=2)
    r = batch_rollout(m, [SEQS[0], SEQS[1], SEQS[0]], cfg, SPEC)
    assert rollout_to_json(r[0]) == rollout_to_json(r[2])  # duplicates identical
    # one sequence shorter than the burn-in fails the whole batch
    with pytest.raises(ConfigError, match="burn-in"):
        batch_rollout(m, [SEQS[0], truncated(SEQS[1], 19)], cfg, SPEC)


def test_zero_mass_steps_fall_back_to_raw():
    east = action_index_of(SPEC, 1.0, 0.0)
    cfg = RolloutConfig(burn_in_steps=2, horizon_steps=5)
    for mode in ("argmax", "sample"):
        cfg = replace(cfg, mode=mode)
        fallen = rollout(_ConstantModel(SPEC, east, combined_mass=False), SEQS[0], cfg)
        assert fallen.zero_mass_fallbacks == 7 * SPEC.lookahead_steps
        assert (fallen.actions == east).all()
        ok = rollout(_ConstantModel(SPEC, east), SEQS[0], cfg)
        assert ok.zero_mass_fallbacks == 0
        np.testing.assert_array_equal(fallen.path, ok.path)


def test_batch_rollout_empty_rejected():
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 11)
    with pytest.raises(ConfigError):
        batch_rollout(m, [], RolloutConfig(), SPEC)


def test_config_validation():
    with pytest.raises(ConfigError):
        RolloutConfig(burn_in_steps=0).validate()
    with pytest.raises(ConfigError):
        RolloutConfig(mode="greedy").validate()
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 1)
    with pytest.raises(ConfigError, match="burn-in"):
        rollout(m, SEQS[0], RolloutConfig(burn_in_steps=51))


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


def test_failed_rollout_write_keeps_previous_file(tmp_path):
    m = HPNModel(SPEC, ARCH, Variant.H_ATT, 13)
    results = batch_rollout(m, SEQS[:2], RolloutConfig(20, 5), SPEC)
    path = tmp_path / "rollouts.jsonl"
    save_rollouts(results[:1], path)
    before = path.read_bytes()
    # the second line fails to serialize after the first was written
    broken = replace(results[1], path=None)
    with pytest.raises(TypeError):
        save_rollouts([results[0], broken], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rollouts.jsonl"]


def test_non_hierarchical_rollout_has_no_macro_goals():
    m = HPNModel(SPEC, ARCH, Variant.GRU_CNN, 15)
    r = rollout(m, SEQS[0], RolloutConfig(20, 5))
    assert (r.macro_goals == -1).all()
    assert r.macro_switches == 0
