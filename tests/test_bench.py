import numpy as np
import pytest

from hoopnet import bench as bench_mod
from hoopnet import model as model_mod
from hoopnet.bench import (
    BenchmarkRow,
    benchmark,
    benchmark_csv,
    claim_lines,
    evaluate,
)
from hoopnet.court import CourtSpec
from hoopnet.data import SynthConfig, synthesize, window
from hoopnet.engine.tensor import softmax_array
from hoopnet.errors import ConfigError, DataError
from hoopnet.labels import LabeledSequence, SegmentationConfig, label_sequence
from hoopnet.model import ArchitectureConfig, HPNModel, Variant
from hoopnet.render import (
    BOX_MAX_OPACITY,
    BURN_IN,
    EXTRAPOLATED,
    RenderSpec,
    render_rollout_svg,
    render_rollouts,
)
from hoopnet.rollout import RolloutConfig, batch_rollout
from hoopnet.train import TrainConfig, assemble, run_stage, stage_schedule
from hoopnet.util import rng_for

from _oracles import oracle_evaluate, oracle_evaluate_whole_chunks, oracle_infer, shorten

SPEC = CourtSpec()
ARCH = ArchitectureConfig(conv_filters=(4, 6), conv_strides=(2, 1),
                          gru_cells=16, transfer_hidden=12)
SEG = SegmentationConfig(seed=77)
BURN_IN_STEPS = RolloutConfig().burn_in_steps


def labeled_data(n_possessions=3, seed=71):
    cfg = SynthConfig(n_possessions=n_possessions, seed=seed)
    out = []
    for p in synthesize(cfg, SPEC):
        for s in window(p, SPEC, rng_for(seed, "w", p.id), 1):
            out.append(LabeledSequence(s, label_sequence(s, SPEC, SEG)))
    return out


DATA = labeled_data()


class _OraclePolicy:
    """Replays the weak labels as one-hot scores.  The attention scores
    are half height, so the combined argmax stays the micro label."""

    def __init__(self, data, spec, with_macro=True, with_attention=True):
        self.data = data
        self.spec = spec
        self.cursor = 0
        self.with_macro = with_macro
        self.with_attention = with_attention

    def eval_logits(self, inputs):
        n, t_steps = inputs.shape[:2]
        chunk = self.data[self.cursor:self.cursor + n]
        self.cursor += n
        k, a, g = self.spec.lookahead_steps, self.spec.n_actions, self.spec.n_macro_boxes
        raw = np.zeros((n, t_steps, k, a))
        macro = np.zeros((n, t_steps, g))
        attention = np.zeros((n, t_steps, a))
        for i, item in enumerate(chunk):
            for t in range(t_steps):
                for kk in range(k):
                    raw[i, t, kk, item.labels.micro[t, kk]] = 1.0
                macro[i, t, item.labels.macro[t]] = 1.0
                attention[i, t, item.labels.attention[t]] = 0.5
        return {
            "raw": raw,
            "macro": macro if self.with_macro else None,
            "attention": attention if self.with_attention else None,
            "cc": None,
        }


class _ConstantClassPolicy:
    """Always predicts one fixed action class for every head."""

    def __init__(self, spec, index):
        self.spec = spec
        self.index = index

    def eval_logits(self, inputs):
        n, t_steps = inputs.shape[:2]
        raw = np.zeros((n, t_steps, self.spec.lookahead_steps, self.spec.n_actions))
        raw[..., self.index] = 1.0
        return {"raw": raw, "macro": None, "attention": None, "cc": None}


class _RandomMacroPolicy:
    """Uniform-random goal-box argmax; everything else is a fixed class."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = np.random.default_rng(seed)

    def eval_logits(self, inputs):
        n, t_steps = inputs.shape[:2]
        raw = np.zeros((n, t_steps, self.spec.lookahead_steps, self.spec.n_actions))
        raw[..., 0] = 1.0
        macro = self.rng.random((n, t_steps, self.spec.n_macro_boxes))
        return {"raw": raw, "macro": macro, "attention": None, "cc": None}


def test_oracle_policy_scores_one():
    m = evaluate(_OraclePolicy(DATA, SPEC), DATA, SPEC)
    assert m.acc_delta == (1.0, 1.0, 1.0, 1.0)
    assert m.macro_acc == 1.0
    assert m.macro_acc_excl_burnin == 1.0
    assert m.attention_acc == 1.0


def test_constant_class_matches_empirical_frequency():
    idx = SPEC.stationary_action_index
    m = evaluate(_ConstantClassPolicy(SPEC, idx), DATA, SPEC)
    for d in range(4):
        valid = 0
        hits = 0
        for item in DATA:
            mask = ~item.labels.micro_padded[:, d]
            valid += int(mask.sum())
            hits += int(((item.labels.micro[:, d] == idx) & mask).sum())
        np.testing.assert_allclose(m.acc_delta[d], hits / valid, atol=1e-12)
        assert m.n_delta[d] == valid


def test_padded_lookahead_steps_excluded():
    m = evaluate(_OraclePolicy(DATA, SPEC), DATA, SPEC)
    t_steps = DATA[0].sequence.steps
    total = len(DATA) * t_steps
    assert m.n_delta[0] == total
    assert m.n_delta[3] == total - len(DATA)  # one padded label per sequence


def test_random_macro_head_near_chance():
    m = evaluate(_RandomMacroPolicy(SPEC, 4), DATA * 7, SPEC)
    n = m.n_delta[0] // 1  # steps evaluated
    p = 1.0 / SPEC.n_macro_boxes
    sigma = (p * (1 - p) / (len(DATA) * 7 * 50)) ** 0.5
    assert abs(m.macro_acc - p) < 3 * sigma + 1e-9


def test_empty_holdout_rejected():
    with pytest.raises(DataError):
        evaluate(_OraclePolicy([], SPEC), [], SPEC)


def test_benchmark_rows_and_csv():
    models = {
        "cnn": HPNModel(SPEC, ARCH, Variant.CNN, 1),
        "h_att": HPNModel(SPEC, ARCH, Variant.H_ATT, 1),
        "h_cc": HPNModel(SPEC, ARCH, Variant.H_CC, 1),
    }
    rows = benchmark(models, DATA[:6], SPEC, BURN_IN_STEPS)
    assert [r.variant for r in rows] == ["cnn", "h_cc", "h_att"]  # canonical order
    cnn_row = rows[0]
    assert cnn_row.macro_acc is None and cnn_row.attention_acc is None
    cc_row = rows[1]
    assert cc_row.macro_acc is not None and cc_row.attention_acc is None
    att_row = rows[2]
    assert att_row.macro_acc is not None and att_row.attention_acc is not None
    csv = benchmark_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == ("variant,acc_delta0,acc_delta1,acc_delta2,acc_delta3,"
                        "macro_acc,macro_acc_excl_burnin,attention_acc,n_eval")
    assert len(lines) == 4
    assert lines[1].startswith("cnn,")
    assert ",,," not in lines[3]  # attention row fully populated


def test_benchmark_deterministic_and_matches_per_op_calls():
    model = HPNModel(SPEC, ARCH, Variant.H_ATT, 6)
    rows1 = benchmark({"h_att": model}, DATA[:6], SPEC, BURN_IN_STEPS)
    rows2 = benchmark({"h_att": model}, DATA[:6], SPEC, BURN_IN_STEPS)
    assert rows1 == rows2
    direct = evaluate(model, DATA[:6], SPEC)
    assert rows1[0].acc_delta == direct.acc_delta
    assert rows1[0].macro_acc == direct.macro_acc


class _EarlyMacroPolicy(_OraclePolicy):
    """The oracle with every goal-box prediction from step 15 on wrong."""

    def eval_logits(self, inputs):
        outs = super().eval_logits(inputs)
        outs["macro"][:, 15:] = np.roll(outs["macro"][:, 15:], 1, axis=-1)
        return outs


@pytest.mark.parametrize("burn_in", [None, 20, 10, 3])
def test_benchmark_late_macro_excludes_the_given_burn_in(burn_in):
    # None: evaluate on its own, whose burn-in defaults to the rollout
    # config's; benchmark takes it from its caller
    policy = _EarlyMacroPolicy(DATA, SPEC)
    if burn_in is None:
        late_acc = evaluate(policy, DATA, SPEC).macro_acc_excl_burnin
    else:
        late_acc = benchmark({"h_att": policy}, DATA, SPEC, burn_in)[0].macro_acc_excl_burnin
    late = BURN_IN_STEPS if burn_in is None else burn_in
    t_steps = DATA[0].sequence.steps
    assert late_acc == max(15 - late, 0) / (t_steps - late)


def test_benchmark_spec_mismatch():
    other_spec = CourtSpec(micro_cell_ft=0.5)
    model = HPNModel(other_spec, ARCH, Variant.CNN, 1)
    with pytest.raises(ConfigError, match="different court"):
        benchmark({"cnn": model}, DATA[:2], SPEC, BURN_IN_STEPS)


# the paper's claim


def _claim_rows(cnn=0.30, gru_cnn=0.33, h_att=0.35, late=0.2):
    def row(variant, d0, late=None):
        return BenchmarkRow(variant, (d0, 0.1, 0.1, 0.1), None, late, None, 100)

    return [row("cnn", cnn), row("gru_cnn", gru_cnn), row("h_att", h_att, late)]


def _verdicts(lines):
    return [line.rsplit(": ", 1)[1] for line in lines]


def test_claim_margin_of_exactly_the_threshold_passes():
    # 0.42 - 0.37 is 0.04999999999999999 in floating point
    lines = claim_lines(_claim_rows(cnn=0.37, gru_cnn=0.40, h_att=0.42), SPEC)
    assert len(lines) == 3
    assert "margin +0.050000" in lines[0]
    assert _verdicts(lines) == ["pass", "pass", "pass"]
    lines = claim_lines(_claim_rows(cnn=0.37, gru_cnn=0.40, h_att=0.4199), SPEC)
    assert _verdicts(lines)[0] == "fail"


def test_claim_ordering_ties_pass():
    lines = claim_lines(_claim_rows(cnn=0.3, gru_cnn=0.3, h_att=0.3), SPEC)
    assert _verdicts(lines) == ["fail", "pass", "pass"]
    lines = claim_lines(_claim_rows(cnn=0.3, gru_cnn=0.36, h_att=0.35), SPEC)
    assert _verdicts(lines)[2] == "fail"


@pytest.mark.parametrize("missing", ["cnn", "gru_cnn", "h_att"])
def test_claim_needs_all_three_variants(missing):
    rows = [r for r in _claim_rows() if r.variant != missing]
    assert claim_lines(rows, SPEC) == []


def test_claim_late_macro_threshold_follows_the_court():
    coarse = CourtSpec(height_ft=50.0, macro_box_ft=10.0)  # 5 x 5 boxes
    assert SPEC.n_macro_boxes == 90 and coarse.n_macro_boxes == 25
    rows = _claim_rows(late=0.2)
    assert _verdicts(claim_lines(rows, SPEC))[1] == "pass"
    line = claim_lines(rows, coarse)[1]
    assert "need >= 10/25 = 0.400000" in line and line.endswith("fail")
    assert _verdicts(claim_lines(_claim_rows(late=0.4), coarse))[1] == "pass"
    assert _verdicts(claim_lines(_claim_rows(late=None), SPEC))[1] == "fail"


# rendering


def _rollouts(horizon=10, seed=17):
    model = HPNModel(SPEC, ARCH, Variant.H_ATT, seed)
    seqs = [item.sequence for item in DATA[:2]]
    cfg = RolloutConfig(burn_in_steps=20, horizon_steps=horizon)
    return batch_rollout(model, seqs, cfg, SPEC), seqs


# evaluation on logits against the probability route it replaced


@pytest.fixture(scope="module")
def models():
    """Every variant at random init (False) and after one epoch of each of
    its training stages, two batches each (True)."""
    cfg = TrainConfig(batch_size=4, epochs_pretrain=1, epochs_finetune=1, lr_finetune=1e-3)
    out = {}
    for variant in Variant:
        out[variant, False] = HPNModel(SPEC, ARCH, variant, 3)
        trained = HPNModel(SPEC, ARCH, variant, 3)
        for stage in stage_schedule(variant):
            run_stage(trained, DATA[:8], [], stage, cfg, SPEC, seed=4)
        out[variant, True] = trained
    return out


SHAPES = pytest.mark.parametrize("n,t_steps", [(1, 1), (1, 7), (3, 1), (3, 7)])
STATES = pytest.mark.parametrize("trained", [False, True])
VARIANTS = pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)


@SHAPES
@STATES
@VARIANTS
def test_infer_matches_probability_oracle(models, variant, trained, n, t_steps):
    # the float64 softmaxes of the logits, and eval_sequence from fresh
    # memory, equal the probability route bit for bit
    m = models[variant, trained]
    inputs = assemble([shorten(it, t_steps) for it in DATA[:n]], SPEC)["inputs"]
    got_mem, want_mem = m.reset_memory(n), m.reset_memory(n)
    for step in range(2):  # from fresh memory, then from the memory it returned
        logits, got_mem = m.logits(inputs, got_mem)
        want, want_mem = oracle_infer(m, inputs, want_mem)
        for key, head in (("p_raw", "raw"), ("p_macro", "macro"), ("attention", "attention")):
            if want[key] is None:
                assert logits[head] is None, key
            else:
                got = softmax_array(logits[head].astype(np.float64))
                np.testing.assert_array_equal(got, want[key], err_msg=key)
        if step == 0:
            probs = m.eval_sequence(inputs)
            assert probs.keys() == want.keys()
            for key, value in want.items():
                assert (probs[key] is None) == (value is None), key
                if value is not None:
                    assert probs[key].dtype == np.float64
                    np.testing.assert_array_equal(probs[key], value, err_msg=key)
        assert got_mem.keys() == want_mem.keys()
        for key in ("micro", "macro"):
            if key in want_mem:
                np.testing.assert_array_equal(got_mem[key], want_mem[key])


@SHAPES
@STATES
@VARIANTS
def test_evaluate_matches_probability_oracle(models, variant, trained, n, t_steps):
    # every field equal, tv_monitor bit for bit; n = 3 runs two chunks
    m = models[variant, trained]
    data = [shorten(it, t_steps) for it in DATA[:n]]
    want = oracle_evaluate(m, data, SPEC, batch_size=2, burn_in=3)
    assert evaluate(m, data, SPEC, batch_size=2, burn_in=3) == want
    assert (want.tv_monitor is not None) == ("attention" in m.branches)


@pytest.mark.parametrize("score_block", [bench_mod.SCORE_BLOCK, 2])
@STATES
@VARIANTS
def test_evaluate_in_score_blocks_matches_whole_chunk_scoring(models, variant, trained, score_block,
                                                             monkeypatch):
    # every field bit for bit, tv_monitor included: 15 sequences in chunks
    # of 7, 7 and 1, none of them a whole number of blocks but the last
    monkeypatch.setattr(bench_mod, "SCORE_BLOCK", score_block)
    m = models[variant, trained]
    want = oracle_evaluate_whole_chunks(m, DATA, SPEC, batch_size=7, burn_in=3)
    assert evaluate(m, DATA, SPEC, batch_size=7, burn_in=3) == want
    assert (want.tv_monitor is not None) == ("attention" in m.branches)


@VARIANTS
def test_evaluate_softmaxes_only_head_zero_and_attention(monkeypatch, variant):
    # no full probability arrays: per chunk, the TV monitor's two
    # softmaxes for attention variants and none otherwise
    calls = {"bench": 0, "model": 0}

    def counting(module, where):
        real = module.softmax_array

        def count(x):
            calls[where] += 1
            return real(x)

        monkeypatch.setattr(module, "softmax_array", count)

    counting(bench_mod, "bench")
    counting(model_mod, "model")
    m = HPNModel(SPEC, ARCH, variant, 1)
    evaluate(m, DATA[:6], SPEC, batch_size=3)  # two chunks
    assert calls == {"bench": 2 * 2 if "attention" in m.branches else 0, "model": 0}


@pytest.mark.parametrize("variant,layer,value,head", [
    (Variant.CNN, "micro_head0", np.nan, "raw"),
    (Variant.H_ATT, "macro_head", np.nan, "macro"),
    (Variant.H_ATT, "transfer_out_layer", np.inf, "attention"),
    (Variant.H_CC, "combine_head1", np.nan, "cc"),
])
def test_non_finite_logit_raises_naming_the_head(variant, layer, value, head):
    m = HPNModel(SPEC, ARCH, variant, 1)
    getattr(m, layer).bias.data[5] = value
    inputs = assemble(DATA[:2], SPEC)["inputs"]
    with pytest.raises(FloatingPointError, match=f"in the {head} logits"):
        m.logits(inputs, m.reset_memory(2))
    with pytest.raises(FloatingPointError, match=f"in the {head} logits"):
        evaluate(m, DATA[:2], SPEC)


def test_render_basic_svg():
    results, seqs = _rollouts()
    svg = render_rollout_svg(results[0], seqs[0], SPEC, RenderSpec())
    assert svg.startswith("<svg ") or svg.startswith("<svg\n") or svg.startswith("<svg")
    assert svg.count("<polyline") >= 12  # ball + 9 agents + two focal trails
    assert "</svg>" in svg


def test_render_horizon_zero_draws_single_trail():
    results, seqs = _rollouts(horizon=0)
    svg = render_rollout_svg(results[0], seqs[0], SPEC, RenderSpec())
    polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    # burn-in only, no extrapolation trail
    assert sum(f'stroke="{BURN_IN}"' in line for line in polylines) == 1
    assert not any(f'stroke="{EXTRAPOLATED}"' in line for line in polylines)


def test_render_single_constant_macro_box_full_opacity():
    results, seqs = _rollouts()
    const = results[0]
    object.__setattr__(const, "macro_goals", np.full_like(const.macro_goals, 42))
    svg = render_rollout_svg(const, seqs[0], SPEC, RenderSpec())
    assert svg.count(f'fill-opacity="{BOX_MAX_OPACITY:.2f}"') == 1


def test_render_deterministic_bytes(tmp_path):
    results, seqs = _rollouts()
    a = render_rollouts(results, seqs, SPEC, RenderSpec(), tmp_path / "a")
    b = render_rollouts(results, seqs, SPEC, RenderSpec(), tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_render_rejects_empty():
    with pytest.raises(DataError):
        render_rollouts([], [], SPEC, RenderSpec(), "/tmp/nowhere")
