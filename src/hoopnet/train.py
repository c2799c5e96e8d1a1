"""Multi-stage training: branch-wise pre-training on weak labels, then
fine-tuning the whole network on the combined micro objective.

Each stage freezes all parameter groups but its own, gets a fresh
optimizer, and derives its RNG from (run seed, stage name), so a run can
resume at any stage boundary and replay identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import bench
from .court import CourtSpec
from .data import agent_positions
from .engine import RMSProp, Tensor, backward, clip_gradients, softmax_nll
from .engine.checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DivergenceError
from .labels import LabeledSequence, WeakLabels, attention_targets
from .model import HPNModel, Variant, time_major
from .util import rng_for


class Stage(str, Enum):
    PRETRAIN_MICRO = "pretrain_micro"
    PRETRAIN_MACRO = "pretrain_macro"
    PRETRAIN_ATTENTION = "pretrain_attention"
    FINETUNE = "finetune"


# RMSprop's inverse-time learning-rate decay, momentum and squared-gradient
# average, the same in every stage
DECAY = 1e-6
MOMENTUM = 0.9
RHO = 0.9
# each batch's gradients are clipped to this global L2 norm
GRAD_CLIP_NORM = 10.0
# fine-tuning penalises the sum of squared action probabilities by this weight
L2_ACTIVATION_WEIGHT = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    lr_pretrain: float = 1e-3
    lr_finetune: float = 1e-5
    batch_size: int = 16
    epochs_pretrain: int = 2
    epochs_finetune: int = 2
    noise_sigma: float = 1e-3
    translate_max_cells: int = 8
    holdout_eval_max: int = 128
    early_stop_patience: int = 5

    def __post_init__(self) -> None:
        if self.lr_pretrain <= 0 or self.lr_finetune <= 0:
            raise ValueError("lr_pretrain and lr_finetune must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch normalization)")
        # 0 turns noise, translation and early stopping off;
        # holdout_eval_max = 0 evaluates the whole holdout
        for name in ("epochs_pretrain", "epochs_finetune", "noise_sigma",
                     "translate_max_cells", "holdout_eval_max", "early_stop_patience"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class EpochRecord:
    stage: str
    epoch: int
    loss: float
    grad_norm_mean: float
    seconds: float
    clamped_sequences: int
    holdout: bench.EvalMetrics | None  # None without a holdout


@dataclass
class TrainReport:
    records: list[EpochRecord]
    lookahead_steps: int

    def to_csv(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.6f}"

        acc = ",".join(f"acc_delta{k}" for k in range(self.lookahead_steps))
        lines = [f"stage,epoch,loss,{acc},macro_acc,attention_acc,tv_monitor,grad_norm_mean,"
                 "seconds,clamped_sequences"]
        for r in self.records:
            # zero accuracies and empty cells without a holdout
            m = r.holdout
            acc = m.acc_delta if m else (0.0,) * self.lookahead_steps
            heads = (m.macro_acc, m.attention_acc, m.tv_monitor) if m else (None,) * 3
            lines.append(
                ",".join(
                    [
                        r.stage,
                        str(r.epoch),
                        f"{r.loss:.6f}",
                        *[f"{a:.6f}" for a in acc],
                        *[fmt(v) for v in heads],
                        f"{r.grad_norm_mean:.6f}",
                        f"{r.seconds:.3f}",
                        str(r.clamped_sequences),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def stage_schedule(variant: Variant) -> list[Stage]:
    """Default stage order per variant; baselines train micro only."""
    if variant in (Variant.CNN, Variant.GRU_CNN):
        return [Stage.PRETRAIN_MICRO]
    if variant is Variant.H_AUX:
        return [Stage.PRETRAIN_MICRO, Stage.PRETRAIN_MACRO, Stage.PRETRAIN_ATTENTION, Stage.FINETUNE]
    return [Stage.PRETRAIN_MICRO, Stage.PRETRAIN_MACRO, Stage.FINETUNE]


# Per stage: the parameter groups it trains, the branches it needs, and
# the holdout accuracy of the head it trains, which early stopping
# watches.  A stage runs the branches it needs; fine-tuning runs every
# branch the model has, and needs a macro branch.
_STAGES: dict[Stage, tuple] = {
    Stage.PRETRAIN_MICRO: ({"micro"}, frozenset({"micro"}), lambda m: m.raw_acc_delta0),
    Stage.PRETRAIN_MACRO: ({"macro"}, frozenset({"macro"}), lambda m: m.macro_acc),
    Stage.PRETRAIN_ATTENTION: ({"attention"}, frozenset({"macro", "attention"}),
                               lambda m: m.attention_acc),
    Stage.FINETUNE: ({"micro", "macro", "attention", "combine"}, frozenset({"micro", "macro"}),
                     lambda m: m.acc_delta[0]),
}


def stage_branches(model: HPNModel, stage: Stage) -> frozenset[str]:
    """Branches ``stage`` runs on ``model``; ConfigError when the model
    lacks one the stage needs."""
    needs = _STAGES[stage][1]
    if not needs <= model.branches:
        raise ConfigError(f"{stage.value} needs branches {sorted(needs)}; "
                          f"variant {model.variant.value} has {sorted(model.branches)}")
    return model.branches if stage is Stage.FINETUNE else needs


# batch assembly and augmentation


def assemble(batch: list[LabeledSequence], spec: CourtSpec | None = None) -> dict:
    """Stack a batch's model inputs, (N, T, 11, 2) agent positions, under
    ``inputs`` and every ``WeakLabels`` field under its own name, as new
    arrays.  Positions are independent of ``spec``."""
    arrays = {"inputs": np.stack([agent_positions(it.sequence) for it in batch])}
    for f in fields(WeakLabels):
        arrays[f.name] = np.stack([getattr(it.labels, f.name) for it in batch])
    return arrays


def augment_translate(
    arrays: dict,
    max_cells: int,
    rng: np.random.Generator,
    spec: CourtSpec,
) -> int:
    """Shift each sequence of an assembled batch by a uniform integer cell
    offset in (-max, max), updating ``arrays`` in place; return how many
    shifted sequences had a model input or goal target clamped onto the
    court.

    All agent positions and the goal-target positions move together, and
    each shifted position is clamped to the court.  Goal and straight-line
    labels are recomputed from the positions, while velocity labels are
    translation invariant and kept as they are.  A sequence drawn a zero
    offset is left untouched, so positions that ingest let lie off court
    stay unclamped.  Each sequence takes one ``rng.integers`` draw.
    """
    if max_cells == 0:
        return 0
    lo, hi = -(max_cells - 1), max_cells  # integers in (-max, max)
    offsets = np.stack([rng.integers(lo, hi, size=2) for _ in range(len(arrays["inputs"]))])
    rows = np.flatnonzero(offsets.any(axis=1))
    shift = offsets[rows] * spec.micro_cell_ft
    clamped = np.zeros(len(rows), dtype=bool)
    for key in ("inputs", "macro_target_xy"):
        moved = arrays[key][rows]
        moved += np.expand_dims(shift, tuple(range(1, moved.ndim - 1)))
        on_court = np.clip(moved, 0.0, spec.far_edge)
        clamped |= (on_court != moved).any(axis=tuple(range(1, moved.ndim)))
        arrays[key][rows] = on_court
    arrays["macro"] = spec.boxes_from_positions(arrays["macro_target_xy"])
    arrays["attention"] = attention_targets(
        arrays["inputs"][:, :, 1], arrays["macro"], arrays["attention_magnitudes"], spec
    )
    return int(clamped.sum())


# loss


def compute_loss(
    model: HPNModel,
    arrays: dict | list[LabeledSequence],
    stage: Stage,
    cfg: TrainConfig,
    spec: CourtSpec | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Stage loss over a batch as a graph scalar, ready for backward().

    Pre-training stages are plain cross-entropies against their weak-label
    stream.  Fine-tuning scores each look-ahead head's target under the
    product of the raw action distribution and the attention mask (for the
    concatenation variant, under its combined head), plus an L2 penalty on
    the attention and raw-action output distributions.  The scalar is the
    per-(sequence, step) mean.

    This builds the stage's term list for ``softmax_nll``, one term per
    logits array over all T*N time-major rows of one ``model.run``: each
    micro head with its own look-ahead target column, the fine-tune
    attention logits with every look-ahead column and the penalty, and
    h_cc's raw heads with the penalty alone.  So the whole loss is one tape
    node, and each logits array's softmax is computed once.

    ``arrays`` is a batch as ``assemble`` stacks it, augmented or not; a
    list of labeled sequences is assembled here first.
    """
    branches = stage_branches(model, stage)
    if isinstance(arrays, list):
        arrays = assemble(arrays, spec)
    inputs = arrays["inputs"]
    n, t_steps = inputs.shape[:2]
    outs, _ = model.run(
        inputs, model.reset_memory(n), rng=rng, noise_sigma=cfg.noise_sigma, branches=branches,
    )
    micro = time_major(arrays["micro"])  # (T*N, lookahead)
    columns = [micro[:, k:k + 1] for k in range(micro.shape[1])]  # one per look-ahead head
    if stage is Stage.PRETRAIN_MICRO:
        terms = [(logits, target, 0.0) for logits, target in zip(outs["raw_logits"], columns)]
    elif stage in (Stage.PRETRAIN_MACRO, Stage.PRETRAIN_ATTENTION):
        key = "macro" if stage is Stage.PRETRAIN_MACRO else "attention"
        terms = [(outs[f"{key}_logits"], time_major(arrays[key])[:, None], 0.0)]
    elif model.variant is Variant.H_CC:
        terms = [(logits, target, 0.0) for logits, target in zip(outs["cc_logits"], columns)]
        terms += [(logits, micro[:, :0], L2_ACTIVATION_WEIGHT) for logits in outs["raw_logits"]]
    else:  # fine-tune with an attention mask
        terms = [(logits, target, L2_ACTIVATION_WEIGHT)
                 for logits, target in zip(outs["raw_logits"], columns)]
        terms.append((outs["attention_logits"], micro, L2_ACTIVATION_WEIGHT))
    return softmax_nll(terms, 1.0 / (n * t_steps))


# stage loop


def run_stage(
    model: HPNModel,
    train_data: list[LabeledSequence],
    holdout_data: list[LabeledSequence],
    stage: Stage,
    cfg: TrainConfig,
    spec: CourtSpec,
    seed: int,
) -> list[EpochRecord]:
    stage_branches(model, stage)
    model.set_trainable(_STAGES[stage][0])
    # every stage starts from a fresh optimizer so a run can resume at
    # stage boundaries from a parameters-only checkpoint
    for p in model.parameters():
        p.grad = None
    lr = cfg.lr_finetune if stage is Stage.FINETUNE else cfg.lr_pretrain
    optimizer = RMSProp(model.parameters(), lr, DECAY, MOMENTUM, RHO)
    rng = rng_for(seed, "stage", stage.value)
    epochs = cfg.epochs_finetune if stage is Stage.FINETUNE else cfg.epochs_pretrain

    records: list[EpochRecord] = []
    best_acc = -1.0
    since_best = 0
    for epoch in range(epochs):
        tic = time.perf_counter()
        order = rng.permutation(len(train_data))
        loss_sum = 0.0
        norm_sum = 0.0
        n_batches = 0
        clamped = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            arrays = assemble([train_data[i] for i in idx], spec)
            clamped += augment_translate(arrays, cfg.translate_max_cells, rng, spec)
            loss = None  # frees the last batch's tape before this batch's forward pass
            loss = compute_loss(model, arrays, stage, cfg, spec, rng=rng)
            if not np.isfinite(loss.data):
                raise DivergenceError(f"non-finite loss in stage {stage.value}")
            backward(loss)
            norm_sum += clip_gradients(model.parameters(), GRAD_CLIP_NORM)
            optimizer.step()
            loss_sum += float(loss.data)
            n_batches += 1
        seconds = time.perf_counter() - tic
        metrics = bench.evaluate(
            model, holdout_data, spec, max_sequences=cfg.holdout_eval_max
        ) if holdout_data else None
        records.append(
            EpochRecord(
                stage=stage.value,
                epoch=epoch,
                loss=loss_sum / max(n_batches, 1),
                grad_norm_mean=norm_sum / max(n_batches, 1),
                seconds=seconds,
                clamped_sequences=clamped,
                holdout=metrics,
            )
        )
        if metrics is not None and cfg.early_stop_patience > 0:
            score = _STAGES[stage][2](metrics)
            if score > best_acc + 1e-12:
                best_acc = score
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.early_stop_patience:
                    break
    return records


def completed_stages(meta: dict[str, str]) -> list[str]:
    """Names of the stages a checkpoint's metadata records as done, in
    the order they ran."""
    return [s for s in meta.get("completed_stages", "").split(",") if s]


def train_full(
    model: HPNModel,
    train_data: list[LabeledSequence],
    holdout_data: list[LabeledSequence],
    cfg: TrainConfig,
    spec: CourtSpec,
    seed: int,
    checkpoint_path: str | Path | None = None,
    resume: bool = False,
) -> TrainReport | None:
    """Run the variant's ``stage_schedule`` in order, checkpointing at
    stage boundaries.

    With ``resume=True`` and an existing checkpoint, completed stages are
    skipped and training continues identically to an uninterrupted run
    (stage RNGs derive from the run seed, and each stage starts with a
    fresh optimizer); the report holds the stages this call trained, and
    is None when every stage was already done.
    """
    schedule = stage_schedule(model.variant)
    done: list[str] = []
    if resume and checkpoint_path is not None and Path(checkpoint_path).exists():
        meta = load_checkpoint(
            checkpoint_path, model.state_for_checkpoint(), model.config_hash()
        )
        done = completed_stages(meta)
        if all(stage.value in done for stage in schedule):
            return None
    records: list[EpochRecord] = []
    completed = list(done)
    for stage in schedule:
        if stage.value in done:
            continue
        records.extend(
            run_stage(model, train_data, holdout_data, stage, cfg, spec, seed)
        )
        completed.append(stage.value)
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path,
                model.state_for_checkpoint(),
                model.config_hash(),
                meta={
                    "variant": model.variant.value,
                    "completed_stages": ",".join(completed),
                },
            )
    return TrainReport(records, spec.lookahead_steps)
