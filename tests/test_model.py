import numpy as np
import pytest

from hoopnet.court import CourtSpec, VelocityAction
from hoopnet.engine.checkpoint import load_checkpoint, save_checkpoint
from hoopnet.model import (
    ArchitectureConfig,
    HPNModel,
    StepOutput,
    Variant,
    forward_step,
    predict_action,
    predict_macro,
)
from hoopnet.errors import CheckpointError

SPEC = CourtSpec()
ARCH = ArchitectureConfig(conv_filters=(4, 6), conv_kernels=(3, 3), conv_strides=(2, 1),
                          gru_cells=16, transfer_hidden=12)
RNG = np.random.default_rng(7)


def random_positions(rng, n=1):
    """(n, 11, 2) agent positions anywhere on the court."""
    return rng.uniform(0.0, 1.0, size=(n, 11, 2)) * np.array([SPEC.width_ft, SPEC.height_ft])


def fresh(variant, seed=3, arch=ARCH):
    return HPNModel(SPEC, arch, variant, seed)


def test_output_simplexes():
    m = fresh(Variant.H_ATT)
    out, _ = forward_step(m, random_positions(RNG)[0], m.reset_memory(1))
    np.testing.assert_allclose(out.p_raw.sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(out.p_macro.sum(), 1.0, atol=1e-9)
    np.testing.assert_allclose(out.attention.sum(), 1.0, atol=1e-9)
    assert (out.p_raw >= 0).all() and (out.attention >= 0).all()


def test_combined_is_elementwise_product():
    m = fresh(Variant.H_ATT)
    out, _ = forward_step(m, random_positions(RNG)[0], m.reset_memory(1))
    for k in range(SPEC.lookahead_steps):
        recomputed = np.array([out.p_raw[k][j] * out.attention[j] for j in range(SPEC.n_actions)])
        np.testing.assert_allclose(out.p_combined[k], recomputed, atol=1e-12)


def test_combined_log_identity():
    m = fresh(Variant.H_ATT)
    out, _ = forward_step(m, random_positions(RNG)[0], m.reset_memory(1))
    logs = np.log(out.p_combined[0])
    np.testing.assert_allclose(logs, np.log(out.p_raw[0]) + np.log(out.attention), atol=1e-9)


def test_uniform_attention_preserves_argmax():
    m = fresh(Variant.H_ATT)
    out, _ = forward_step(m, random_positions(RNG)[0], m.reset_memory(1))
    uniform = np.full(SPEC.n_actions, 1.0 / SPEC.n_actions)
    forced = StepOutput(out.p_raw, out.p_macro, uniform, out.p_raw * uniform)
    for k in range(4):
        assert predict_action(SPEC, forced, k) == predict_action(
            SPEC, StepOutput(out.p_raw, out.p_macro, None, out.p_raw), k
        )


def test_positive_scaling_invariance():
    m = fresh(Variant.H_ATT, seed=11)
    out, _ = forward_step(m, random_positions(RNG)[0], m.reset_memory(1))
    for scale in (1e-6, 0.5, 3.0, 1e6):
        scaled = StepOutput(out.p_raw, out.p_macro, out.attention * scale,
                            out.p_raw * (out.attention * scale))
        for k in range(4):
            assert predict_action(SPEC, scaled, k) == predict_action(SPEC, out, k)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        assert predict_action(SPEC, scaled, 0, "sample", rng_a) == predict_action(
            SPEC, out, 0, "sample", rng_b
        )


def test_predict_action_modes():
    p_combined = np.zeros((4, SPEC.n_actions))
    p_combined[:, 17] = 1.0
    out = StepOutput(p_combined.copy(), None, None, p_combined)
    assert predict_action(SPEC, out, 0) == SPEC.action_from_index(17)
    assert predict_action(SPEC, out, 0, "sample", np.random.default_rng(0)) == \
        SPEC.action_from_index(17)
    # tie at two maxima: lower flattened index wins
    tie = np.zeros((4, SPEC.n_actions))
    tie[:, 5] = tie[:, 9] = 0.5
    out = StepOutput(tie.copy(), None, None, tie)
    assert predict_action(SPEC, out, 1) == SPEC.action_from_index(5)
    with pytest.raises(ValueError):
        predict_action(SPEC, out, 9)
    with pytest.raises(ValueError):
        predict_action(SPEC, out, 0, "bogus")


def test_predict_action_sampling_frequencies():
    scores = np.zeros((4, SPEC.n_actions))
    probs = np.array([0.5, 0.3, 0.2])
    idx = [10, 20, 30]
    scores[0, idx] = probs * 7.0  # unnormalized on purpose
    out = StepOutput(scores.copy(), None, None, scores)
    rng = np.random.default_rng(123)
    n = 100_000
    counts = {i: 0 for i in idx}
    for _ in range(n):
        a = predict_action(SPEC, out, 0, "sample", rng)
        counts[SPEC.action_index(a)] += 1
    for i, p in zip(idx, probs):
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(counts[i] - n * p) < 3 * sigma


def test_predict_action_zero_mass_fallback():
    from hoopnet.court import ClampCounter

    p_raw = np.zeros((4, SPEC.n_actions))
    p_raw[:, 100] = 1.0
    out = StepOutput(p_raw, None, None, np.zeros((4, SPEC.n_actions)))
    counter = ClampCounter()
    assert predict_action(SPEC, out, 0, fallback_counter=counter) == SPEC.action_from_index(100)
    assert counter.count == 1


def test_predict_macro():
    p_macro = np.zeros(90)
    p_macro[42] = 1.0
    out = StepOutput(np.zeros((4, 289)), p_macro, None, np.zeros((4, 289)))
    assert predict_macro(out).id == 42
    uniform = StepOutput(np.zeros((4, 289)), np.full(90, 1 / 90), None, np.zeros((4, 289)))
    assert predict_macro(uniform).id == 0  # tie rule
    with pytest.raises(ValueError):
        predict_macro(StepOutput(np.zeros((4, 289)), None, None, np.zeros((4, 289))))


def test_variant_structure():
    cnn = fresh(Variant.CNN)
    assert not cnn.hierarchical and cnn.reset_memory(1).keys() == {"_owner", "_batch"}
    out, _ = forward_step(cnn, random_positions(RNG)[0], cnn.reset_memory(1))
    assert out.p_macro is None and out.attention is None
    np.testing.assert_array_equal(out.p_combined, out.p_raw)

    gru = fresh(Variant.GRU_CNN)
    assert not gru.hierarchical and "micro" in gru.reset_memory(1)

    cc = fresh(Variant.H_CC)
    out, _ = forward_step(cc, random_positions(RNG)[0], cc.reset_memory(1))
    assert out.attention is None and out.p_macro is not None
    np.testing.assert_allclose(out.p_combined.sum(axis=-1), 1.0, atol=1e-9)

    stack = fresh(Variant.H_STACK)
    out, _ = forward_step(stack, random_positions(RNG)[0], stack.reset_memory(1))
    assert out.attention is not None

    aux = fresh(Variant.H_AUX)
    assert aux.has_attention


def test_memory_ownership_checked():
    a = fresh(Variant.GRU_CNN, seed=1)
    b = fresh(Variant.GRU_CNN, seed=2)
    with pytest.raises(ValueError, match="different model"):
        forward_step(a, random_positions(RNG)[0], b.reset_memory(1))
    with pytest.raises(ValueError, match="batch"):
        a.infer(random_positions(RNG, n=2)[:, None], a.reset_memory(1))


def test_dense_grid_input_rejected():
    # the model input is agent positions; a stale occupancy grid is refused
    m = fresh(Variant.H_ATT)
    grid = np.zeros((2, 3, 4, SPEC.micro_rows, SPEC.micro_cols))
    with pytest.raises(ValueError, match=r"\(N, T, 11, 2\)"):
        m.run(grid, m.reset_memory(2), training=False)


def test_reset_and_replay_determinism():
    m = fresh(Variant.H_ATT, seed=9)
    rng = np.random.default_rng(0)
    xs = [random_positions(rng)[0] for _ in range(50)]

    def run():
        mem = m.reset_memory(1)
        outs = []
        for x in xs:
            out, mem = forward_step(m, x, mem)
            outs.append(out)
        return outs

    first, second = run(), run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.p_combined, b.p_combined)
        np.testing.assert_array_equal(a.p_macro, b.p_macro)


def test_sequence_path_matches_step_path():
    # one T-step infer equals T one-step calls with carried memory, for
    # every variant and a batch of two sequences
    rng = np.random.default_rng(1)
    n, t_steps = 2, 6
    inputs = np.stack([random_positions(rng, n=n) for _ in range(t_steps)], axis=1)
    for variant in Variant:
        m = fresh(variant, seed=21)
        whole, mem_whole = m.infer(inputs, m.reset_memory(n))
        mem = m.reset_memory(n)
        for t in range(t_steps):
            step, mem = m.infer(inputs[:, t:t + 1], mem)
            for key, value in whole.items():
                if value is None:
                    assert step[key] is None, (variant, key)
                else:
                    np.testing.assert_allclose(value[:, t], step[key][:, 0], atol=1e-12,
                                               err_msg=f"{variant.value} {key} t={t}")
        for key in ("micro", "macro"):
            assert (key in mem) == (key in mem_whole)
            if key in mem:
                np.testing.assert_allclose(mem_whole[key].data, mem[key].data, atol=1e-12)
        # forward_step is the single-sequence T = 1 case of the same path
        out, _ = forward_step(m, inputs[1, 0], m.reset_memory(1))
        np.testing.assert_allclose(out.p_combined, whole["p_combined"][1, 0], atol=1e-12)


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
    for _ in range(10):
        x = random_positions(rng)[0]
        out_a, mem_a = forward_step(h_att, x, mem_a)
        out_b, mem_b = forward_step(gru_cnn, x, mem_b)
        np.testing.assert_allclose(out_a.attention, 1.0 / SPEC.n_actions, atol=1e-15)
        np.testing.assert_allclose(out_a.p_raw, out_b.p_raw, atol=1e-12)
        for k in range(4):
            assert predict_action(SPEC, out_a, k) == predict_action(SPEC, out_b, k)
            renorm = out_a.p_combined[k] / out_a.p_combined[k].sum()
            np.testing.assert_allclose(renorm, out_b.p_combined[k], atol=1e-12)


def test_h_stack_chains_heads():
    m = fresh(Variant.H_STACK, seed=5)
    assert m.micro_heads[0].weight.data.shape[0] == ARCH.gru_cells
    for head in m.micro_heads[1:]:
        assert head.weight.data.shape[0] == ARCH.gru_cells + SPEC.n_actions


def test_parameter_groups_and_freezing():
    m = fresh(Variant.H_AUX)
    groups = m.parameter_groups()
    assert groups["micro"] and groups["macro"] and groups["transfer"]
    assert not groups["combine"]
    m.set_trainable({"macro"})
    assert all(p.frozen for p in groups["micro"])
    assert all(not p.frozen for p in groups["macro"])
    m.set_trainable({"micro", "macro", "transfer", "combine"})
    assert all(not p.frozen for p in m.parameters())


def test_shared_encoder_option():
    arch = ArchitectureConfig(conv_filters=(4,), conv_kernels=(3,), conv_strides=(2,),
                              gru_cells=8, transfer_hidden=8, shared_encoder=True)
    m = HPNModel(SPEC, arch, Variant.H_ATT, 3)
    assert m.macro_encoder is m.micro_encoder
    names = [n for n, _ in m.named_parameters()]
    assert len(names) == len(set(names))  # no duplicate registrations
    out, _ = forward_step(m, random_positions(RNG)[0], m.reset_memory(1))
    np.testing.assert_allclose(out.p_macro.sum(), 1.0, atol=1e-9)


def test_checkpoint_config_hash_guard(tmp_path):
    m = fresh(Variant.H_ATT, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m.state_for_checkpoint(), m.config_hash())
    other_arch = ArchitectureConfig(conv_filters=(4, 6), conv_kernels=(3, 3),
                                    conv_strides=(2, 1), gru_cells=17, transfer_hidden=12)
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
