"""Teacher-forced benchmark metrics and the comparison table.

All metrics feed ground-truth states at every step; they measure
prediction, never simulation.  Look-ahead accuracy compares each head's
argmax to the velocity label that many raw frames ahead; steps whose
label was end-padded are excluded from the look-ahead denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .court import CourtSpec
from .engine.tensor import softmax_array
from .errors import ConfigError, DataError
from .labels import LabeledSequence, assemble
from .model import Variant
from .rollout import RolloutConfig, choose_step
from .util import atomic_open

# The paper's claim as three criteria: h_att beats cnn on look-ahead-0
# accuracy by CLAIM_MARGIN; h_att's late macro accuracy reaches
# CLAIM_MACRO_BOXES times chance (1 / n_macro_boxes); h_att >= gru_cnn >= cnn.
CLAIM_MARGIN = 0.05
CLAIM_MACRO_BOXES = 10

# sequences per scoring block of an evaluation chunk: a desk block's
# float64 softmaxes are about 0.5 MB each, where a 32-sequence chunk's
# are 3.7 MB
SCORE_BLOCK = 4


@dataclass(frozen=True)
class EvalMetrics:
    acc_delta: tuple[float, ...]
    n_delta: tuple[int, ...]
    macro_acc: float | None
    macro_acc_excl_burnin: float | None
    attention_acc: float | None
    tv_monitor: float | None
    n_sequences: int
    # head 0 of the raw micro heads alone, which pre-training scores; None
    # in records built without it
    raw_acc_delta0: float | None = None


@dataclass(frozen=True)
class BenchmarkRow:
    variant: str
    acc_delta: tuple[float, ...]
    macro_acc: float | None
    macro_acc_excl_burnin: float | None
    attention_acc: float | None
    n_eval: int


def evaluate(
    policy,
    data: list[LabeledSequence],
    spec: CourtSpec,
    batch_size: int = 32,
    burn_in: int = RolloutConfig.burn_in_steps,
) -> EvalMetrics:
    """Teacher-forced pass over ``data``, in chunks stacked by ``labels.assemble``.

    ``policy`` needs one method, ``eval_logits(inputs)``, taking an
    (N, T, 11, 2) batch of agent positions and returning batch-major
    logits as ``HPNModel.logits`` does: ``raw`` (N, T, lookahead,
    n_actions), ``macro`` (N, T, n_boxes), ``attention`` (N, T, n_actions)
    and ``cc`` (N, T, lookahead, n_actions), None where the policy lacks
    the head.  HPNModel satisfies this, and oracle or stub policies can
    too.

    Predictions are the rollouts' argmax-mode choices
    (``rollout.choose_step``), so they equal the argmaxes of the heads'
    probabilities except where two scores tie exactly; there the lower
    index wins.  ``raw_acc_delta0`` scores the argmax of raw head 0 alone.
    Only the TV monitor needs probabilities: the float64 softmaxes of
    head 0 and of the attention logits.  Each chunk is scored SCORE_BLOCK
    sequences at a time; the TV monitor's per-step distances fill one
    (N, T) array that is summed once, so no metric depends on the block
    size.
    """
    if not data:
        raise DataError("cannot evaluate on an empty holdout")
    lookahead = spec.lookahead_steps
    correct = np.zeros(lookahead, dtype=np.int64)
    counted = np.zeros(lookahead, dtype=np.int64)
    raw_correct = macro_correct = late_correct = att_correct = 0
    tv_sum = 0.0
    # the macro and attention scores count every step, or every step past
    # the burn-in
    steps = late_steps = 0

    for start in range(0, len(data), batch_size):
        arrays = assemble(data[start:start + batch_size], spec)
        n, t_steps = arrays["inputs"].shape[:2]
        logits = policy.eval_logits(arrays["inputs"])
        has_attention = logits["attention"] is not None
        pred = np.empty((n, t_steps, lookahead), np.int64)
        macro_pred, att_pred, raw_pred0 = np.empty((3, n, t_steps), np.int64)
        # laid out in memory as the logits are (time-major for HPNModel),
        # so its one sum adds in the order of a whole-chunk sum
        tv_steps = np.empty_like(logits["attention"][..., 0], np.float64) if has_attention else None
        # SCORE_BLOCK sequences at a time, so that every float64 temporary
        # stays a block's size
        for b in range(0, n, SCORE_BLOCK):
            rows = slice(b, b + SCORE_BLOCK)
            block = {key: None if value is None else value[rows] for key, value in logits.items()}
            pred[rows], macro_pred[rows], att_pred[rows] = choose_step(block, "argmax")
            raw_pred0[rows] = block["raw"][:, :, 0].argmax(axis=-1)
            if has_attention:
                p0 = softmax_array(block["raw"][:, :, 0, :].astype(np.float64))
                attention = softmax_array(block["attention"].astype(np.float64))
                tv_steps[rows] = np.abs(p0 - attention).sum(axis=-1)
        valid = ~arrays["micro_padded"]
        hits = (pred == arrays["micro"]) & valid
        correct += hits.sum(axis=(0, 1))
        counted += valid.sum(axis=(0, 1))
        raw_correct += int(((raw_pred0 == arrays["micro"][:, :, 0]) & valid[:, :, 0]).sum())
        steps += n * t_steps
        late_steps += n * max(t_steps - burn_in, 0)
        if logits["macro"] is not None:
            eq = macro_pred == arrays["macro"]  # (n, t)
            macro_correct += int(eq.sum())
            late_correct += int(eq[:, burn_in:].sum())
        if has_attention:
            att_correct += int((att_pred == arrays["attention"]).sum())
            tv_sum += float(0.5 * tv_steps.sum())
    # a policy has the same heads in every chunk
    has_macro = logits["macro"] is not None
    return EvalMetrics(
        acc_delta=tuple(correct / np.maximum(counted, 1)),
        n_delta=tuple(int(c) for c in counted),
        macro_acc=macro_correct / steps if has_macro and steps else None,
        macro_acc_excl_burnin=late_correct / late_steps if has_macro and late_steps else None,
        attention_acc=att_correct / steps if has_attention and steps else None,
        tv_monitor=tv_sum / steps if has_attention and steps else None,
        n_sequences=len(data),
        raw_acc_delta0=raw_correct / max(int(counted[0]), 1),
    )


def benchmark(
    models: dict,
    holdout: list[LabeledSequence],
    spec: CourtSpec,
    burn_in: int,
) -> list[BenchmarkRow]:
    """One row per model of ``models`` (keyed by variant name), in
    canonical variant order; the late macro accuracy excludes the first
    ``burn_in`` steps (``rollout.burn_in_steps`` in the CLI)."""
    rows = []
    for variant in Variant:
        model = models.get(variant.value)
        if model is None:
            continue
        if model.spec != spec:
            raise ConfigError(f"model {variant.value} was built for a different court spec")
        m = evaluate(model, holdout, spec, burn_in=burn_in)
        rows.append(
            BenchmarkRow(
                variant=variant.value,
                acc_delta=m.acc_delta,
                macro_acc=m.macro_acc,
                macro_acc_excl_burnin=m.macro_acc_excl_burnin,
                attention_acc=m.attention_acc,
                n_eval=sum(m.n_delta),
            )
        )
    return rows


def csv_cell(v: float | None) -> str:
    """A CSV cell of ``bench.csv`` and the training reports: empty for a
    metric the variant lacks."""
    return "" if v is None else f"{v:.6f}"


def benchmark_csv(rows: list[BenchmarkRow]) -> str:
    if not rows:
        raise DataError("no benchmark rows to write")
    acc = ",".join(f"acc_delta{k}" for k in range(len(rows[0].acc_delta)))
    lines = [f"variant,{acc},macro_acc,macro_acc_excl_burnin,attention_acc,n_eval"]
    for r in rows:
        cells = (*r.acc_delta, r.macro_acc, r.macro_acc_excl_burnin, r.attention_acc)
        lines.append(",".join([r.variant, *map(csv_cell, cells), str(r.n_eval)]))
    return "\n".join(lines) + "\n"


def write_benchmark_csv(rows: list[BenchmarkRow], path: str | Path) -> None:
    with atomic_open(path) as fh:
        fh.write(benchmark_csv(rows))


def claim_lines(rows: list[BenchmarkRow], spec: CourtSpec) -> list[str]:
    """The claim's three criteria as ``pass``/``fail`` lines, printed at
    bench.csv's precision; empty unless cnn, gru_cnn and h_att are all
    among ``rows``.  The margin is rounded to 9 decimals so that float
    noise in the subtraction cannot fail a margin of exactly CLAIM_MARGIN."""
    by_variant = {r.variant: r for r in rows}
    if not {"cnn", "gru_cnn", "h_att"} <= by_variant.keys():
        return []
    cnn, gru, att = (by_variant[v].acc_delta[0] for v in ("cnn", "gru_cnn", "h_att"))
    late = by_variant["h_att"].macro_acc_excl_burnin
    need = CLAIM_MACRO_BOXES / spec.n_macro_boxes

    def verdict(ok: bool) -> str:
        return "pass" if ok else "fail"

    late_text = "-" if late is None else f"{late:.6f}"
    return [
        f"(a) h_att acc_delta0 {att:.6f} - cnn acc_delta0 {cnn:.6f} = margin {att - cnn:+.6f}, "
        f"need >= {CLAIM_MARGIN:.6f}: {verdict(round(att - cnn, 9) >= CLAIM_MARGIN)}",
        f"(b) h_att macro_acc_excl_burnin {late_text}, need >= "
        f"{CLAIM_MACRO_BOXES}/{spec.n_macro_boxes} = {need:.6f}: "
        f"{verdict(late is not None and late >= need)}",
        f"(c) h_att acc_delta0 {att:.6f} >= gru_cnn {gru:.6f} >= cnn {cnn:.6f}: "
        f"{verdict(att >= gru >= cnn)}",
    ]
