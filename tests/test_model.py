import math
import re
from pathlib import Path

import numpy as np
import pytest

from hoopnet.config import load_run_config
from hoopnet.court import CourtSpec
from hoopnet.engine import RMSProp, nn, no_grad, spatial_encoder
from hoopnet.engine import tensor as tensor_mod
from hoopnet.engine.checkpoint import load_checkpoint, save_checkpoint
from hoopnet.errors import CheckpointError
from hoopnet.engine.tensor import softmax_array
from hoopnet import model as model_mod
from hoopnet.model import (
    PYRAMID,
    ArchitectureConfig,
    HPNModel,
    Variant,
    combined_scores,
    pooled_occupancy,
    time_major,
)
from hoopnet.rollout import choose_step

from _oracles import float64_model, oracle_infer, oracle_spatial_encoder

SPEC = CourtSpec()
ARCH = ArchitectureConfig(conv_filters=(4, 6), conv_strides=(2, 1),
                          gru_cells=16, transfer_hidden=12)
RNG = np.random.default_rng(7)


def random_positions(rng, n=1):
    """(n, 11, 2) agent positions anywhere on the court."""
    return rng.uniform(0.0, 1.0, size=(n, 11, 2)) * np.array([SPEC.width_ft, SPEC.height_ft])


def fresh(variant, seed=3, arch=ARCH):
    return HPNModel(SPEC, arch, variant, seed)


def one_step(m, positions, memory, route=None):
    """``m.logits`` (or ``route``, such as ``oracle_infer``) on the
    (11, 2) positions of one step of one sequence; the outputs come
    without their N and T axes."""
    x = positions[None, None]
    outs, memory = route(m, x, memory) if route else m.logits(x, memory)
    return {k: None if v is None else v[0, 0] for k, v in outs.items()}, memory


def one_step_probs(m, positions, memory):
    """``one_step`` by the probability route."""
    return one_step(m, positions, memory, oracle_infer)


def step_logits(raw, macro=None, attention=None, cc=None):
    """One sequence's logits at one step in the form ``choose_step``
    takes (N = 1, T = 1)."""
    outs = {"raw": raw, "macro": macro, "attention": attention, "cc": cc}
    return {k: None if v is None else v[None, None] for k, v in outs.items()}


def actions_of(outs, mode="argmax", rng=None):
    """The (lookahead,) action indices ``choose_step`` picks for one
    sequence at one step."""
    return choose_step(outs, mode, None if rng is None else [rng])[0][0, 0]


def test_output_simplexes():
    m = fresh(Variant.H_ATT)
    out, _ = one_step_probs(m, random_positions(RNG)[0], m.reset_memory(1))
    np.testing.assert_allclose(out["p_raw"].sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(out["p_macro"].sum(), 1.0, atol=1e-9)
    np.testing.assert_allclose(out["attention"].sum(), 1.0, atol=1e-9)
    assert (out["p_raw"] >= 0).all() and (out["attention"] >= 0).all()


def test_combined_is_elementwise_product():
    m = fresh(Variant.H_ATT)
    out, _ = one_step_probs(m, random_positions(RNG)[0], m.reset_memory(1))
    for k in range(SPEC.lookahead_steps):
        recomputed = np.array([out["p_raw"][k][j] * out["attention"][j] for j in range(SPEC.n_actions)])
        np.testing.assert_allclose(out["p_combined"][k], recomputed, atol=1e-12)


def test_combined_log_identity():
    # the softmax of combined_scores is the masked product renormalised:
    # log p_combined = raw + attention up to a per-row constant
    m = fresh(Variant.H_ATT)
    x = random_positions(RNG)[0]
    logits, _ = one_step(m, x, m.reset_memory(1))
    probs, _ = one_step_probs(m, x, m.reset_memory(1))
    scores = combined_scores(step_logits(**logits))[0, 0]
    want = probs["p_combined"] / probs["p_combined"].sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(softmax_array(scores), want, rtol=1e-12, atol=0)


def test_uniform_attention_preserves_argmax():
    m = fresh(Variant.H_ATT)
    out, _ = one_step(m, random_positions(RNG)[0], m.reset_memory(1))
    uniform = np.zeros(SPEC.n_actions, np.float32)
    forced = step_logits(out["raw"], out["macro"], uniform)
    np.testing.assert_array_equal(actions_of(forced), actions_of(step_logits(out["raw"])))


def test_positive_scaling_invariance():
    # scaling the attention mask by c > 0 adds log c to its logits
    m = fresh(Variant.H_ATT, seed=11)
    out, _ = one_step(m, random_positions(RNG)[0], m.reset_memory(1))
    base = step_logits(out["raw"], out["macro"], out["attention"].astype(np.float64))
    for scale in (1e-6, 0.5, 3.0, 1e6):
        attention = out["attention"].astype(np.float64) + np.log(scale)
        scaled = step_logits(out["raw"], out["macro"], attention)
        np.testing.assert_array_equal(actions_of(scaled), actions_of(base))
        np.testing.assert_array_equal(choose_step(scaled, "argmax")[2],
                                      choose_step(base, "argmax")[2])
        np.testing.assert_array_equal(
            actions_of(scaled, "sample", np.random.default_rng(5)),
            actions_of(base, "sample", np.random.default_rng(5)),
        )


def test_predict_action_modes():
    raw = np.zeros((4, SPEC.n_actions), np.float32)
    raw[:, 17] = 50.0
    out = step_logits(raw)
    assert actions_of(out).tolist() == [17] * 4
    assert actions_of(out, "sample", np.random.default_rng(0)).tolist() == [17] * 4
    # tie at two maxima: lower flattened index wins
    tie = np.zeros((4, SPEC.n_actions), np.float32)
    tie[:, 5] = tie[:, 9] = 3.0
    tied = step_logits(tie)
    assert actions_of(tied).tolist() == [5] * 4
    # rows of a batch are chosen independently
    both = {k: None if v is None else np.concatenate([v, tied[k]]) for k, v in out.items()}
    assert choose_step(both, "argmax")[0].tolist() == [[[17] * 4], [[5] * 4]]
    with pytest.raises(ValueError, match="unknown mode"):
        choose_step(out, "bogus")
    with pytest.raises(ValueError, match="one RNG per sequence"):
        choose_step(both, "sample", [np.random.default_rng(0)])


def test_predict_action_sampling_frequencies():
    scores = np.full((1, 1, 1, SPEC.n_actions), -1e4)  # no mass off idx
    probs = np.array([0.5, 0.3, 0.2])
    idx = [10, 20, 30]
    scores[0, 0, 0, idx] = np.log(probs * 7.0)  # unnormalized on purpose
    rng = np.random.default_rng(123)
    n, chunk = 100_000, 1000
    rows = np.broadcast_to(scores, (chunk, 1, 1, SPEC.n_actions))
    out = {"raw": rows, "macro": None, "attention": None, "cc": None}
    picks = np.concatenate(
        [choose_step(out, "sample", [rng] * chunk)[0][:, 0, 0] for _ in range(n // chunk)]
    )
    counts = np.bincount(picks, minlength=SPEC.n_actions)
    assert counts.sum() == counts[idx].sum() == n
    for i, p in zip(idx, probs):
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(counts[i] - n * p) < 3 * sigma


def test_choose_step_survives_an_underflowing_product():
    # +800 on action 7 and -1000 there, as float32 logits: the float64
    # softmax product of the probability route has no mass at all, while
    # the scores still rank every action
    raw = np.tile(np.arange(SPEC.n_actions, dtype=np.float32) / 1000, (4, 1))
    raw[:, 7] = 800.0
    attention = np.zeros(SPEC.n_actions, np.float32)
    attention[7] = -1000.0
    product = softmax_array(raw.astype(np.float64)) * softmax_array(attention.astype(np.float64))
    assert not product.any()
    out = step_logits(raw, attention=attention)
    want = (raw.astype(np.float64) + attention).argmax(axis=-1)
    assert want.tolist() == [SPEC.n_actions - 1] * 4
    assert actions_of(out).tolist() == want.tolist()
    for seed in range(5):
        picked = actions_of(out, "sample", np.random.default_rng(seed))
        assert ((picked >= 0) & (picked < SPEC.n_actions) & (picked != 7)).all()


def test_predict_macro():
    raw = np.zeros((4, 289), np.float32)
    macro = np.zeros(90, np.float32)
    macro[42] = 2.0
    assert choose_step(step_logits(raw, macro), "argmax")[1].tolist() == [[42]]
    uniform = np.zeros(90, np.float32)
    _, macro, attention = choose_step(step_logits(raw, uniform, raw[0]), "argmax")
    assert macro.tolist() == attention.tolist() == [[0]]  # tie rule
    # a variant without a macro head or attention reports -1
    _, macro, attention = choose_step(step_logits(raw), "argmax")
    assert macro.tolist() == attention.tolist() == [[-1]]


def test_choose_step_over_steps_matches_one_step_calls():
    # one (N, T) call picks what T one-step calls pick, and in sample mode
    # it draws the same values from identically seeded RNGs
    rng = np.random.default_rng(4)
    n, t_steps = 3, 6
    inputs = np.stack([random_positions(rng, n=n) for _ in range(t_steps)], axis=1)
    m = fresh(Variant.H_ATT, seed=13)
    outs, _ = m.logits(inputs, m.reset_memory(n))
    for mode in ("argmax", "sample"):
        whole = choose_step(outs, mode, [np.random.default_rng(i) for i in range(n)])
        rngs = [np.random.default_rng(i) for i in range(n)]
        for t in range(t_steps):
            step = {k: None if v is None else v[:, t:t + 1] for k, v in outs.items()}
            for a, b in zip(whole, choose_step(step, mode, rngs)):
                np.testing.assert_array_equal(a[:, t:t + 1], b, err_msg=f"{mode} t={t}")


def test_variant_structure():
    cnn = fresh(Variant.CNN)
    assert "macro" not in cnn.branches and cnn.reset_memory(1).keys() == {"_owner", "_batch"}
    out, _ = one_step(cnn, random_positions(RNG)[0], cnn.reset_memory(1))
    assert out["macro"] is None and out["attention"] is None and out["cc"] is None
    np.testing.assert_array_equal(combined_scores(step_logits(**out))[0, 0], out["raw"])

    gru = fresh(Variant.GRU_CNN)
    assert "macro" not in gru.branches and "micro" in gru.reset_memory(1)

    cc = fresh(Variant.H_CC)
    out, _ = one_step(cc, random_positions(RNG)[0], cc.reset_memory(1))
    assert out["attention"] is None and out["macro"] is not None
    np.testing.assert_array_equal(combined_scores(step_logits(**out))[0, 0], out["cc"])

    stack = fresh(Variant.H_STACK)
    out, _ = one_step(stack, random_positions(RNG)[0], stack.reset_memory(1))
    assert out["attention"] is not None

    aux = fresh(Variant.H_AUX)
    assert "attention" in aux.branches


def test_memory_ownership_checked():
    a = fresh(Variant.GRU_CNN, seed=1)
    b = fresh(Variant.GRU_CNN, seed=2)
    with pytest.raises(ValueError, match="different model"):
        a.logits(random_positions(RNG)[:, None], b.reset_memory(1))
    with pytest.raises(ValueError, match="batch"):
        a.logits(random_positions(RNG, n=2)[:, None], a.reset_memory(1))


def test_dense_grid_input_rejected():
    # the model input is agent positions; a stale occupancy grid is refused
    m = fresh(Variant.H_ATT)
    grid = np.zeros((2, 3, 4, SPEC.micro_rows, SPEC.micro_cols))
    with pytest.raises(ValueError, match=r"\(N, T, 11, 2\)"):
        m.run(grid, m.reset_memory(2))


def test_reset_and_replay_determinism():
    m = fresh(Variant.H_ATT, seed=9)
    rng = np.random.default_rng(0)
    xs = [random_positions(rng)[0] for _ in range(50)]

    def run():
        mem = m.reset_memory(1)
        outs = []
        for x in xs:
            out, mem = one_step(m, x, mem)
            outs.append(out)
        return outs

    first, second = run(), run()
    for a, b in zip(first, second):
        for key in ("raw", "macro", "attention"):
            np.testing.assert_array_equal(a[key], b[key])


def test_sequence_path_matches_step_path():
    # one T-step logits call equals T one-step calls with carried memory, for
    # every variant and a batch of two sequences
    rng = np.random.default_rng(1)
    n, t_steps = 2, 6
    inputs = np.stack([random_positions(rng, n=n) for _ in range(t_steps)], axis=1)
    for variant in Variant:
        m = float64_model(fresh(variant, seed=21))
        whole, mem_whole = m.logits(inputs, m.reset_memory(n))
        mem = m.reset_memory(n)
        for t in range(t_steps):
            step, mem = m.logits(inputs[:, t:t + 1], mem)
            for key, value in whole.items():
                if value is None:
                    assert step[key] is None, (variant, key)
                else:
                    np.testing.assert_allclose(value[:, t], step[key][:, 0], atol=1e-12,
                                               err_msg=f"{variant.value} {key} t={t}")
        for key in ("micro", "macro"):
            assert (key in mem) == (key in mem_whole)
            if key in mem:
                np.testing.assert_allclose(mem_whole[key], mem[key], atol=1e-12)
        # a sequence's outputs do not depend on the rest of its batch
        alone, _ = m.logits(inputs[1:, :1], m.reset_memory(1))
        np.testing.assert_allclose(combined_scores(alone)[0, 0], combined_scores(whole)[1, 0],
                                   atol=1e-12)


def test_uniform_attention_ablation_equals_gru_cnn():
    # same init seed -> identical micro branches; zeroing the transfer
    # output layer forces a uniform mask, reproducing the baseline
    h_att = fresh(Variant.H_ATT, seed=33)
    gru_cnn = fresh(Variant.GRU_CNN, seed=33)
    h_att.transfer_out_layer.weight.data[...] = 0.0
    h_att.transfer_out_layer.bias.data[...] = 0.0
    rng = np.random.default_rng(2)
    mem_a = h_att.reset_memory(1)
    mem_b = gru_cnn.reset_memory(1)
    probs_a, probs_b = h_att.reset_memory(1), gru_cnn.reset_memory(1)
    for _ in range(10):
        x = random_positions(rng)[0]
        out_a, mem_a = one_step(h_att, x, mem_a)
        out_b, mem_b = one_step(gru_cnn, x, mem_b)
        assert not out_a["attention"].any()
        np.testing.assert_array_equal(out_a["raw"], out_b["raw"])
        np.testing.assert_array_equal(actions_of(step_logits(**out_a)),
                                      actions_of(step_logits(**out_b)))
        p_a, probs_a = one_step_probs(h_att, x, probs_a)
        p_b, probs_b = one_step_probs(gru_cnn, x, probs_b)
        np.testing.assert_allclose(p_a["attention"], 1.0 / SPEC.n_actions, atol=1e-15)
        for k in range(4):
            renorm = p_a["p_combined"][k] / p_a["p_combined"][k].sum()
            np.testing.assert_allclose(renorm, p_b["p_combined"][k], atol=1e-12)


def test_h_stack_chains_heads():
    m = fresh(Variant.H_STACK, seed=5)
    assert m.micro_heads[0].weight.data.shape[0] == ARCH.gru_cells
    for head in m.micro_heads[1:]:
        assert head.weight.data.shape[0] == ARCH.gru_cells + SPEC.n_actions


def test_parameter_groups_and_freezing():
    m = fresh(Variant.H_AUX)
    groups = m.parameter_groups()
    assert groups["micro"] and groups["macro"] and groups["attention"]
    assert not groups["combine"]
    m.set_trainable({"macro"})
    assert all(not p.requires_grad for p in groups["micro"])
    assert all(p.requires_grad for p in groups["macro"])
    m.set_trainable({"micro", "macro", "attention", "combine"})
    assert all(p.requires_grad for p in m.parameters())
    # the groups are the branches of BRANCHES, and no other name trains
    assert set(groups) == set().union(*model_mod.BRANCHES.values())
    with pytest.raises(ValueError, match="transfer"):
        m.set_trainable({"transfer"})


def test_spatial_encoder_call_is_one_tape_node():
    m = fresh(Variant.H_ATT)
    pooled = pooled_occupancy(random_positions(RNG, n=6), SPEC, 4, np.float32)
    outs = spatial_encoder(pooled, [m.micro_encoder, m.macro_encoder], np.random.default_rng(0), 1e-3)
    assert len(outs) == 2
    for out, enc in zip(outs, (m.micro_encoder, m.macro_encoder)):
        assert out._vjp is not None
        assert all(p._vjp is None for p in out._parents)  # leaves only
        assert list(out._parents) == [p for _, p in enc.named_parameters()]


def test_desk_eval_logits_builds_one_layer0_im2col_per_row_block(monkeypatch):
    # both h_att encoders read one im2col of the pooled occupancy (its 4
    # channels) per ROW_BLOCK input rows: 150 rows are 3 blocks, not 6
    desk = load_run_config((Path(__file__).resolve().parent.parent / "configs" / "desk.cfg").read_text())
    m = HPNModel(desk.court, desk.arch, Variant.H_ATT, 1)
    im2col, channels = nn._im2col, []

    def spy(xp, *args):
        channels.append(xp.shape[-1])
        return im2col(xp, *args)

    monkeypatch.setattr(nn, "_im2col", spy)
    positions = RNG.uniform(0.0, 1.0, size=(3, 50, 11, 2)) * [desk.court.width_ft, desk.court.height_ft]
    m.eval_logits(positions)
    assert channels.count(4) == math.ceil(3 * 50 / nn.ROW_BLOCK) == 3


def test_checkpoint_config_hash_guard(tmp_path):
    m = fresh(Variant.H_ATT, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m.state_for_checkpoint(), m.config_hash())
    other_arch = ArchitectureConfig(conv_filters=(4, 6), conv_strides=(2, 1), gru_cells=17,
                                    transfer_hidden=12)
    other = HPNModel(SPEC, other_arch, Variant.H_ATT, 1)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, other.state_for_checkpoint(), other.config_hash())
    # same config round-trips
    m2 = fresh(Variant.H_ATT, seed=99)
    load_checkpoint(path, m2.state_for_checkpoint(), m2.config_hash())
    for (_, a), (_, b) in zip(m2.state_for_checkpoint(), m.state_for_checkpoint()):
        np.testing.assert_array_equal(a, b)


def test_micro_init_identical_across_variants():
    # encoder draws come first, so they agree for every variant; the full
    # micro branch agrees across the recurrent variants
    a = fresh(Variant.CNN, seed=77)
    b = fresh(Variant.H_ATT, seed=77)
    c = fresh(Variant.GRU_CNN, seed=77)
    np.testing.assert_array_equal(
        a.micro_encoder.conv0.weight.data, b.micro_encoder.conv0.weight.data
    )
    np.testing.assert_array_equal(b.micro_heads[0].weight.data, c.micro_heads[0].weight.data)
    np.testing.assert_array_equal(b.micro_core.w_update.data, c.micro_core.w_update.data)


# no_grad(): inference constants built once per outermost scope


def perturbed(variant, seed=3, arch=ARCH):
    """``fresh`` with random batch-norm scales, shifts and running
    statistics, so that every inference constant shows in the logits."""
    m = fresh(variant, seed, arch)
    rng = np.random.default_rng(seed)
    for enc in (m.micro_encoder, getattr(m, "macro_encoder", None)):
        for bn in enc.bns if enc is not None else ():
            f = len(bn.gamma.data)
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, f)
            bn.beta.data[...] = rng.normal(scale=0.3, size=f)
            bn.set_buffer("running_mean", rng.normal(scale=0.3, size=f).astype(bn.running_mean.dtype))
            bn.set_buffer("running_var", rng.uniform(0.5, 2.0, f).astype(bn.running_var.dtype))
    return m


def positions(n, steps, seed=11):
    """(n, steps, 11, 2) agent positions anywhere on the court."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, steps, 11, 2)) * np.array([SPEC.width_ft, SPEC.height_ft])


def logits_bytes(m, x):
    """The bytes of every ``eval_logits`` head of ``m`` on ``x``."""
    return b"".join(v.tobytes() for v in m.eval_logits(x).values() if v is not None)


@pytest.mark.parametrize("variant", list(Variant))
def test_logits_inside_frozen_state_are_bit_identical(variant):
    m = perturbed(variant)
    for n, steps in ((1, 1), (1, 20), (3, 1), (3, 20)):
        x = positions(n, steps)
        memory = m.reset_memory(n)
        for key in memory:  # a nonzero starting state
            if not key.startswith("_"):
                memory[key] = np.full_like(memory[key], 0.25)
        want, want_memory = m.logits(x, memory)
        with no_grad():
            for _ in range(2):  # the call that builds the constants, then one that reuses them
                got, got_memory = m.logits(x, memory)
                assert got.keys() == want.keys()
                for key, value in want.items():
                    assert (got[key] is None) == (value is None)
                    if value is not None:
                        assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes()
                for key, value in want_memory.items():
                    if not key.startswith("_"):
                        assert got_memory[key].tobytes() == value.tobytes()


def _writers(m, tmp_path):
    """One call per writer of parameters and buffers, each changing every
    output of ``m``: an RMSProp step, a cast, a running-mean update and a
    checkpoint load of other weights."""
    for p in m.parameters():
        p.grad = np.ones_like(p.data)
    opt = RMSProp(m.parameters(), lr=0.05)
    other = perturbed(m.variant, seed=4)
    path = tmp_path / "other.ckpt"
    save_checkpoint(path, other.state_for_checkpoint(), other.config_hash())
    bn = m.micro_encoder.bn0
    return {
        "RMSProp.step": opt.step,
        "Module.cast": lambda: m.cast(np.float64),
        "Module.set_buffer": lambda: bn.set_buffer("running_mean", bn.running_mean + 0.5),
        "load_checkpoint": lambda: load_checkpoint(path, m.state_for_checkpoint(), m.config_hash()),
    }


def test_writers_raise_inside_no_grad(tmp_path):
    m = perturbed(Variant.H_ATT)
    state = [a.tobytes() for _, a in m.named_state()]
    writers = _writers(m, tmp_path)
    x = positions(2, 3)
    with no_grad():
        m.eval_logits(x)
        for name, write in writers.items():
            with pytest.raises(RuntimeError, match=rf"^{re.escape(name)} inside engine\.no_grad\(\)"):
                write()
    assert [a.tobytes() for _, a in m.named_state()] == state


@pytest.mark.parametrize("writer", ["RMSProp.step", "Module.cast", "Module.set_buffer",
                                    "load_checkpoint", "in-place"])
def test_a_write_after_frozen_state_shows_in_the_next_call(tmp_path, writer):
    # the constants built in one scope do not reach the next: each
    # writer's change, and a write straight into the arrays, shows in the
    # next scope's logits, which equal the logits of a call in a scope of
    # its own
    m = perturbed(Variant.H_ATT)
    x = positions(2, 3)
    with no_grad():
        before = logits_bytes(m, x)
    if writer == "in-place":
        rng = np.random.default_rng(5)
        for conv, bn in zip(m.micro_encoder.convs, m.micro_encoder.bns):
            conv.weight.data[...] = rng.normal(scale=0.3, size=conv.weight.data.shape)
            bn.running_var[...] = rng.uniform(0.5, 2.0, bn.running_var.shape)
    else:
        _writers(m, tmp_path)[writer]()
    with no_grad():
        after = logits_bytes(m, x)
    assert after != before
    assert after == logits_bytes(m, x)


DESK_ARCH = load_run_config((Path(__file__).resolve().parent.parent / "configs" / "desk.cfg")
                            .read_text()).arch


def _unfolded_encoders(pooled, encoders, rng, noise_sigma):
    """Inference ``spatial_encoder`` as the oracle's tape: conv, then
    batch norm."""
    return [oracle_spatial_encoder(enc, pooled.transpose(0, 3, 1, 2), False, rng, noise_sigma)
            for enc in encoders]


@pytest.mark.parametrize("seed", [1, 3])
def test_folded_inference_features_match_the_unfolded_encoder(seed):
    # inference folds batch norm into the convolutions: at desk shapes its
    # float32 features lie within float32 rounding of the unfolded float64
    # encoder, no further off than the unfolded float32 encoder is
    m = perturbed(Variant.H_ATT, seed, DESK_ARCH)
    pooled = pooled_occupancy(time_major(positions(8, 20, seed)), SPEC, math.prod(PYRAMID), np.float32)
    encoders = [m.micro_encoder, m.macro_encoder]
    with no_grad():
        folded = spatial_encoder(pooled, encoders, None, 0.0)
    plain = _unfolded_encoders(pooled, encoders, None, 0.0)
    float64_model(m)
    wide = _unfolded_encoders(pooled.astype(np.float64), encoders, None, 0.0)
    for got, unfolded, want in zip(folded, plain, wide):
        assert got.data.dtype == unfolded.data.dtype == np.float32
        bound = 4 * np.finfo(np.float32).eps * np.abs(want.data).max()
        assert np.abs(got.data - want.data).max() <= bound
        assert np.abs(unfolded.data - want.data).max() <= bound
        assert not np.array_equal(got.data, unfolded.data)  # the fold is in use


@pytest.mark.parametrize("variant", list(Variant))
def test_folded_eval_logits_keep_their_argmaxes(monkeypatch, variant):
    m = perturbed(variant, 1, DESK_ARCH)
    x = positions(8, 20, 1)
    folded = m.eval_logits(x)
    monkeypatch.setattr(model_mod, "spatial_encoder", _unfolded_encoders)
    unfolded = m.eval_logits(x)
    for key, value in folded.items():
        if value is not None:
            np.testing.assert_allclose(value, unfolded[key], rtol=0,
                                       atol=1e-5 * np.abs(unfolded[key]).max())
            np.testing.assert_array_equal(value.argmax(axis=-1), unfolded[key].argmax(axis=-1))


def test_no_grad_scopes_nest():
    m = perturbed(Variant.H_ATT)
    x = positions(2, 3)
    want = logits_bytes(m, x)
    bn = m.micro_encoder.bn0
    with no_grad():
        with no_grad():
            assert logits_bytes(m, x) == want
        # the inner exit keeps the outer scope's constants and its refusals
        assert tensor_mod._SCOPE_CONSTANTS
        with pytest.raises(RuntimeError, match="^Module.set_buffer"):
            bn.set_buffer("running_mean", bn.running_mean + 0.5)
        assert logits_bytes(m, x) == want
    assert not tensor_mod._SCOPE_CONSTANTS
    bn.set_buffer("running_mean", bn.running_mean + 0.5)
    assert logits_bytes(m, x) != want


# one switch: the tape on trains the encoders, no_grad() infers


def _buffers(m):
    return [b.copy() for enc in (m.micro_encoder, m.macro_encoder) for bn in enc.bns
            for b in (bn.running_mean, bn.running_var)]


def test_a_taped_run_trains_the_encoders_even_when_they_are_frozen():
    # batch statistics, advanced running buffers and noise, whether or not
    # the encoders' parameters train (the attention stage holds them
    # fixed): both runs give the same bits, and neither is inference's
    x = positions(4, 3)
    runs = []
    for trainable in ({"micro", "macro", "attention"}, {"attention"}):
        m = perturbed(Variant.H_ATT)
        m.set_trainable(trainable)
        rng, before = np.random.default_rng(2), _buffers(m)
        outs, _ = m.run(x, m.reset_memory(4), rng=rng, noise_sigma=0.1)
        after = _buffers(m)
        assert not any(np.array_equal(a, b) for a, b in zip(after, before))
        assert rng.bit_generator.state != np.random.default_rng(2).bit_generator.state
        runs.append((outs["macro_logits"].data, after, rng.bit_generator.state))
    (trained, buffers, state), (frozen, frozen_buffers, frozen_rng_state) = runs
    np.testing.assert_array_equal(frozen, trained)
    for a, b in zip(frozen_buffers, buffers):
        np.testing.assert_array_equal(a, b)
    assert frozen_rng_state == state
    m = perturbed(Variant.H_ATT)
    with no_grad():
        inferred = m.run(x, m.reset_memory(4))[0]["macro_logits"].data
    assert not np.allclose(inferred, trained)


def test_a_run_under_no_grad_leaves_buffers_and_generator_be():
    m = perturbed(Variant.H_ATT)
    x = positions(4, 3)
    rng, before = np.random.default_rng(2), _buffers(m)
    with no_grad():
        outs, _ = m.run(x, m.reset_memory(4), rng=rng, noise_sigma=0.1)
    assert rng.bit_generator.state == np.random.default_rng(2).bit_generator.state
    for a, b in zip(_buffers(m), before):
        np.testing.assert_array_equal(a, b)
    assert all(not out.requires_grad for out in outs["raw_logits"])
