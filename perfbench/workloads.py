"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop in one process: the next operation starts
when the previous one returns.  A workload has a set-up (input generation,
model build, one warm-up call), a timed main loop, and a probe before or
after the loop that measures what the main loop does not (see README.md).

The program only ever sees inputs generated here from ``--seed``: a
possessions JSONL file that goes through ingest, windowing and labelling,
or, for repro-quick, the CLI run on that seed.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hoopnet import bench, cli, data, labels, render, rollout, train
from hoopnet.config import load_run_config, parse_document
from hoopnet.engine import checkpoint
from hoopnet.errors import ConfigError
from hoopnet.model import HPNModel, Variant
from hoopnet.util import derive_seed, rng_for

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 1
WEIGHTS_SEED = 0

# Desk-shaped inputs: possessions 0-1 give the 16 training sequences,
# possessions 2-8 the 64 holdout sequences (10 windows per possession).
TRAIN_POSSESSIONS = 2
HOLDOUT_POSSESSIONS = 7
N_TRAIN = 16
N_HOLDOUT = 64
EVAL_BATCH = 32
N_ROLLOUTS = 4
# sequences in the checkpoint round-trip check: small, so that holding two
# models' outputs for it never sets the run's peak memory
CHECKPOINT_BATCH = 4
SETUP_REPEATS = 3
REFERENCE_LOOP_S = 0.001  # timings read as on a host where interpreter_seconds() is 1 ms
PROBE_SHARE = 1 / 2  # of --seconds, for each kind of work the probe measures

# Tolerances for the reference values of REFERENCE_SEED: a change of float
# summation order moves a loss by far less than 1e-6 relative, while a
# wrong gradient moves the losses after the first update by much more.
# Accuracies may move by a few argmax ties.
LOSS_RTOL = 1e-6
ACC_ATOL = 0.005


def cpu_seconds() -> float:
    """CPU seconds used by this process: every timing of the benchmark is a
    difference of these (see README, Noise)."""
    return time.process_time()


def interpreter_seconds() -> float:
    """CPU seconds of a fixed pure-Python loop, median of three: the host's
    speed right now."""
    times = []
    for _ in range(3):
        t0 = cpu_seconds()
        total = 0
        for i in range(10_000):
            total += i * i
        times.append(cpu_seconds() - t0)
    return sorted(times)[1]


def at_reference_speed(seconds: list, loops: list) -> list:
    """seconds[i] scaled by REFERENCE_LOOP_S over the mean of loops[i] and
    loops[i + 1], the interpreter_seconds() timed just before and after it:
    the CPU time the same work takes drifts by half within a minute on a
    shared host, and the loop drifts with it."""
    return [s * 2 * REFERENCE_LOOP_S / (a + b) for s, a, b in zip(seconds, loops, loops[1:])]


def closed_loop(op, seconds: float | None = None, count: int | None = None) -> list[float]:
    """Run op(i) back to back until ``seconds`` of wall time have passed (at
    least once) or ``count`` times; returns each call's CPU seconds at
    reference speed.  Garbage from the previous call is collected before
    each call."""
    times, loops = [], [interpreter_seconds()]
    deadline = time.perf_counter() + (seconds or 0.0)
    while (count is None and (not times or time.perf_counter() < deadline)) or \
            (count is not None and len(times) < count):
        gc.collect()
        t0 = cpu_seconds()
        op(len(times))
        times.append(cpu_seconds() - t0)
        loops.append(interpreter_seconds())
    return at_reference_speed(times, loops)


def load_config(name: str, out_dir: Path) -> tuple:
    """The workload's complete config, minus keys the program no longer has.

    Returns (RunConfig, document text the program accepts, ignored keys).
    A removed key did nothing the program still knows of, so dropping it
    keeps the workload; a bad value is still an error.
    """
    entries = parse_document((HERE / "configs" / f"{name}.cfg").read_text(encoding="utf-8"))
    kept, ignored = [], []
    for (section, key), value in entries.items():
        if (section, key) == ("paths", "out_dir"):
            value = str(out_dir)
        item = f"{section}.{key} = {value}"
        try:
            load_run_config(item)
        except ConfigError as exc:
            if "unknown config" not in str(exc):
                raise
            ignored.append(f"{section}.{key}")
            continue
        kept.append(item)
    text = "\n".join(kept) + "\n"
    return load_run_config(text), text, ignored


@dataclass
class Inputs:
    train: list
    holdout: list


def make_inputs(cfg, seed: int, out_dir: Path) -> Inputs:
    """Synthesize possessions from the seed, write them as JSONL, and run
    them through ingest, windowing and labelling as the CLI does."""
    out_dir.mkdir(parents=True, exist_ok=True)
    synth = replace(
        cfg.synth, n_possessions=TRAIN_POSSESSIONS + HOLDOUT_POSSESSIONS,
        seed=derive_seed(seed, "synth"),
    )
    path = out_dir / "possessions.jsonl"
    data.save_possessions(data.synthesize(synth, cfg.court), path)
    possessions = data.ingest(path, cfg.court, cfg.data.bounds_tolerance_ft)
    label_cfg = replace(cfg.labels, seed=derive_seed(seed, "labels"))
    groups = []
    for p in possessions:
        windows = data.window(p, cfg.court, rng_for(seed, "window", p.id), cfg.data.windows_per_player)
        groups.append([
            train.LabeledSequence(s, labels.label_sequence(s, cfg.court, label_cfg)) for s in windows
        ])
    train_set = [it for g in groups[:TRAIN_POSSESSIONS] for it in g][:N_TRAIN]
    holdout = [it for g in groups[TRAIN_POSSESSIONS:] for it in g][:N_HOLDOUT]
    if len(train_set) != N_TRAIN or len(holdout) != N_HOLDOUT:
        raise RuntimeError(f"inputs came out {len(train_set)}/{len(holdout)} sequences")
    every = train_set + holdout
    labels.export_labels([it.sequence for it in every], [it.labels for it in every],
                         out_dir / "labels.jsonl")
    return Inputs(train_set, holdout)


def build_model(cfg, variant: str) -> HPNModel:
    """Weights from a fixed seed: the workload seed varies only the inputs."""
    return HPNModel(cfg.court, cfg.arch, Variant(variant), derive_seed(WEIGHTS_SEED, "init", variant))


class Tally:
    """Operations and checks attempted and failed, plus timing samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}

    def check(self, ok: bool, what: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.failed += n
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, fn, n: int = 1):
        """Call fn(); a raise counts as n failed operations.  On success the
        caller counts the operations through the checks of their output."""
        try:
            return fn()
        except Exception:  # the loop must go on and report the failure
            self.attempted += n
            self.failed += n
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def sample(self, kind: str, value: float) -> None:
        self.samples.setdefault(kind, []).append(value)


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def check_repeat(ctx: "Context", tally: Tally, key: str, observed: list) -> None:
    """The first value seen under ``key`` is compared with the reference
    (for REFERENCE_SEED); every later one must repeat it exactly."""
    if key in ctx.first:
        tally.check(observed == ctx.first[key], f"{key} did not repeat: {observed} != {ctx.first[key]}")
        return
    ctx.first[key] = observed
    if ctx.seed != REFERENCE_SEED:
        return
    want = load_reference().get(key)
    if want is None or len(want) != len(observed):
        tally.check(False, f"reference {key}: got {observed}, want {want}")
        return
    for got, ref in zip(observed, want):
        if ".loss" in key:
            ok = math.isclose(got, ref, rel_tol=LOSS_RTOL, abs_tol=2e-6)
        else:
            ok = abs(got - ref) <= ACC_ATOL
        tally.check(ok, f"reference {key}: got {got!r}, want {ref!r}")


def check_eval(tally: Tally, m, what: str) -> None:
    values = [*m.acc_delta, m.macro_acc, m.macro_acc_excl_burnin, m.attention_acc]
    tally.check(all(v is None or 0.0 <= v <= 1.0 for v in values),
                f"{what}: accuracies {values} outside [0, 1]", n=math.ceil(m.n_sequences / EVAL_BATCH))


def check_rollouts(tally: Tally, results, spec, what: str) -> None:
    for r in results:
        p = r.path
        on_court = bool(np.isfinite(p).all() and (p[:, 0] >= 0).all() and (p[:, 0] <= spec.width_ft).all()
                        and (p[:, 1] >= 0).all() and (p[:, 1] <= spec.height_ft).all())
        tally.check(on_court, f"{what}: rollout {r.possession_id}/{r.focal_agent} leaves the court")


def check_probabilities(tally: Tally, outs: dict, what: str) -> None:
    for key in ("p_raw", "p_macro", "attention"):
        v = outs.get(key)
        if v is not None:
            tally.check(bool(np.abs(v.sum(axis=-1) - 1.0).max() < 1e-9), f"{what}: {key} rows do not sum to 1")


def majority_share(holdout: list) -> float:
    """Share of the most frequent look-ahead-0 label over valid holdout steps."""
    y = np.concatenate([it.labels.micro[~it.labels.micro_padded[:, 0], 0] for it in holdout])
    return float(np.bincount(y).max() / y.size)


@dataclass
class Context:
    workload: str
    seed: int
    cfg: object  # the desk config: inputs, main loops of the desk workloads, probe
    ignored_keys: list
    inputs: Inputs
    out: Path
    probe_seconds: float = 0.0
    config_path: Path | None = None  # the document repro-quick passes to the CLI
    models: dict = field(default_factory=dict)
    first: dict = field(default_factory=dict)  # first value seen per check_repeat key


def make_context(workload, seed: int, out: Path, tally: Tally, seconds: float) -> Context:
    """One set-up: config, inputs from the seed, models and a warm-up call."""
    cfg, _, ignored = load_config("desk", out)
    cfg = replace(cfg, rollout=replace(cfg.rollout, seed=derive_seed(seed, "rollout")))
    ctx = Context(workload.name, seed, cfg, ignored, make_inputs(cfg, seed, out), out,
                  probe_seconds=seconds * PROBE_SHARE)
    workload.setup(ctx, tally)
    return ctx


# training, evaluation and rollout steps shared by the workloads


def train_pass(ctx: Context, tally: Tally) -> HPNModel | None:
    """The h_att stage schedule from fresh fixed-seed weights; one batch is
    one operation.  Every pass must reproduce the first pass's losses.
    Each stage's CPU seconds are taken at reference speed."""
    cfg = ctx.cfg
    model = build_model(cfg, "h_att")
    losses, seconds, loops, seq_updates = [], [], [interpreter_seconds()], 0
    per_epoch = max(1, len(ctx.inputs.train) // cfg.train.batch_size)
    for stage in train.stage_schedule(model.variant):
        epochs = cfg.train.epochs_finetune if stage is train.Stage.FINETUNE else cfg.train.epochs_pretrain
        t0 = cpu_seconds()
        records = tally.run(
            f"train {stage.value}",
            lambda: train.run_stage(model, ctx.inputs.train, [], stage, cfg.train, cfg.court, ctx.seed),
            n=epochs * per_epoch,
        )
        seconds.append(cpu_seconds() - t0)
        loops.append(interpreter_seconds())
        if records is None:
            return None
        for r in records:
            tally.check(math.isfinite(r.loss), f"{stage.value} loss {r.loss} not finite", n=per_epoch)
            losses.append(r.loss)
        seq_updates += len(records) * len(ctx.inputs.train)
    check_repeat(ctx, tally, "train.loss", losses)
    tally.sample("train_seq_per_s", seq_updates / sum(at_reference_speed(seconds, loops)))
    return model


def evaluate_chunks(ctx: Context, tally: Tally, model: HPNModel, variant: str) -> tuple[list, list]:
    """Teacher-forced evaluation of the holdout, one 32-sequence chunk per
    call; returns each chunk's metrics and CPU seconds at reference speed."""
    metrics, seconds, loops = [], [], [interpreter_seconds()]
    for start in range(0, N_HOLDOUT, EVAL_BATCH):
        chunk = ctx.inputs.holdout[start:start + EVAL_BATCH]
        t0 = cpu_seconds()
        m = tally.run(f"evaluate {variant}", lambda: bench.evaluate(
            model, chunk, ctx.cfg.court, batch_size=EVAL_BATCH))
        seconds.append(cpu_seconds() - t0)
        loops.append(interpreter_seconds())
        if m is not None:
            check_eval(tally, m, f"evaluate {variant}")
            metrics.append(m)
    return metrics, at_reference_speed(seconds, loops)


def rollout_each(ctx: Context, tally: Tally, model: HPNModel, variant: str) -> tuple[list, list]:
    """Burn-in rollouts of the first holdout sequences, one per call;
    returns the rollouts and each call's CPU seconds at reference speed."""
    results, seconds, loops = [], [], [interpreter_seconds()]
    for item in ctx.inputs.holdout[:N_ROLLOUTS]:
        t0 = cpu_seconds()
        r = tally.run(f"rollout {variant}", lambda: rollout.batch_rollout(
            model, [item.sequence], ctx.cfg.rollout, ctx.cfg.court, threads=1))
        seconds.append(cpu_seconds() - t0)
        loops.append(interpreter_seconds())
        if r is not None:
            check_rollouts(tally, r, ctx.cfg.court, f"rollout {variant}")
            results.extend(r)
    return results, at_reference_speed(seconds, loops)


def merge_metrics(chunks: list):
    """One EvalMetrics over equal-size chunks: look-ahead accuracies weighted
    by their counts, the per-step rates averaged."""
    n = np.array([m.n_delta for m in chunks], dtype=np.float64)
    acc = np.array([m.acc_delta for m in chunks])
    acc_delta = tuple((acc * n).sum(axis=0) / np.maximum(n.sum(axis=0), 1))

    def mean(values):
        return None if values[0] is None else float(np.mean(values))

    return bench.EvalMetrics(
        acc_delta=acc_delta,
        n_delta=tuple(int(c) for c in n.sum(axis=0)),
        macro_acc=mean([m.macro_acc for m in chunks]),
        macro_acc_excl_burnin=mean([m.macro_acc_excl_burnin for m in chunks]),
        attention_acc=mean([m.attention_acc for m in chunks]),
        tv_monitor=mean([m.tv_monitor for m in chunks]),
        n_sequences=sum(m.n_sequences for m in chunks),
    )


def steps_per_rollout(ctx: Context) -> int:
    return ctx.cfg.rollout.burn_in_steps + ctx.cfg.rollout.horizon_steps


def probe(ctx: Context, tally: Tally, measure: frozenset) -> dict:
    """Train h_att, check a checkpoint round trip, evaluate and roll out
    the trained model, and write its bench row, rollouts and SVGs.  The
    kinds of work named in ``measure`` ("train", "eval", "rollout") take
    turns for half of ``--seconds`` (wall time) each and record throughput
    samples (time spent in the other kinds, which run once, does not
    count); taking turns spreads each kind's samples over the whole probe.
    Returns the quality inputs."""
    state = {"model": None, "evals": [], "rollouts": []}
    work = {
        "train": lambda: state.update(model=train_pass(ctx, tally)),
        "eval": lambda: _evaluate_once(ctx, tally, state, "eval" in measure),
        "rollout": lambda: _rollout_once(ctx, tally, state, "rollout" in measure),
    }
    budget = ctx.probe_seconds * len(measure)
    measured = 0.0
    rounds = 0
    while rounds == 0 or measured < budget:
        for kind, step in work.items():
            # unmeasured kinds run in the first round only
            if kind not in measure and rounds:
                continue
            if rounds == 0 and kind == "eval" and not tally.run(
                    "checkpoint", lambda: check_checkpoint(ctx, tally, state["model"])):
                return {}
            gc.collect()  # as in closed_loop
            t0 = time.perf_counter()
            step()
            if kind in measure:
                measured += time.perf_counter() - t0
            if state["model"] is None:
                return {}
        rounds += 1
    if not state["evals"] or not state["rollouts"]:
        return {}
    return tally.run("probe outputs", lambda: _write_outputs(ctx, tally, state)) or {}


def check_checkpoint(ctx: Context, tally: Tally, model: HPNModel) -> bool:
    """A checkpoint loaded into a fresh model reproduces eval_sequence exactly."""
    cfg = ctx.cfg
    ckpt = ctx.out / "h_att.ckpt"
    checkpoint.save_checkpoint(ckpt, model.state_for_checkpoint(), model.config_hash(),
                               meta={"variant": "h_att"})
    fresh = HPNModel(cfg.court, cfg.arch, Variant.H_ATT, derive_seed(ctx.seed, "fresh"))
    checkpoint.load_checkpoint(ckpt, fresh.state_for_checkpoint(), fresh.config_hash())
    batch = train.assemble(ctx.inputs.holdout[:CHECKPOINT_BATCH], cfg.court)["inputs"]
    a, b = model.eval_sequence(batch), fresh.eval_sequence(batch)
    same = all((a[k] is None and b[k] is None) or np.array_equal(a[k], b[k]) for k in a)
    tally.check(same, "checkpoint reload changed eval_sequence output")
    check_probabilities(tally, a, "eval_sequence h_att")
    return True


def _evaluate_once(ctx: Context, tally: Tally, state: dict, measure: bool) -> None:
    chunks, seconds = evaluate_chunks(ctx, tally, state["model"], "h_att")
    if len(chunks) == len(seconds):
        state["evals"].append(merge_metrics(chunks))
        check_repeat(ctx, tally, "probe.acc_delta", list(state["evals"][-1].acc_delta))
    if measure:
        for s in seconds:
            tally.sample("eval_seq_per_s", EVAL_BATCH / s)


def _rollout_once(ctx: Context, tally: Tally, state: dict, measure: bool) -> None:
    results, seconds = rollout_each(ctx, tally, state["model"], "h_att")
    if len(results) == N_ROLLOUTS:
        state["rollouts"].append(results)
    if measure:
        for s in seconds:
            tally.sample("rollout_steps_per_s", steps_per_rollout(ctx) / s)


def _write_outputs(ctx: Context, tally: Tally, state: dict) -> dict:
    cfg, out = ctx.cfg, ctx.out
    m, results = state["evals"][0], state["rollouts"][0]
    row = bench.BenchmarkRow("h_att", m.acc_delta, m.macro_acc, m.macro_acc_excl_burnin,
                             m.attention_acc, sum(m.n_delta))
    bench.write_benchmark_csv([row], out / "bench.csv")
    tally.check(len(read_csv(out / "bench.csv")) == 1, "probe bench.csv must have one row")
    rollout.save_rollouts(results, out / "rollouts.jsonl")
    tally.check(len(rollout.load_rollouts(out / "rollouts.jsonl")) == len(results), "rollouts JSONL round trip")
    svgs = render.render_rollouts(results, [it.sequence for it in ctx.inputs.holdout[:N_ROLLOUTS]],
                                  cfg.court, cfg.render, out / "svg", prefix="h_att")
    tally.check(len(svgs) == len(results), "one SVG per rollout")
    return {"acc_delta0": m.acc_delta[0], "majority": majority_share(ctx.inputs.holdout)}


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# the workloads: set-up, one main-loop operation, probe; probe_first runs
# the probe before the main loop


class TrainDesk:
    """h_att stage schedule at desk shapes, empty holdout in the loop.  The
    probe trains its own model and runs first: evaluation and rollouts
    timed after the main loop ran on whatever heap its training left, and
    their throughput moved by a fifth from run to run."""

    name = "train-desk"
    probe_first = True

    def setup(self, ctx: Context, tally: Tally) -> None:
        warm = build_model(ctx.cfg, "h_att")
        loss = train.compute_loss(warm, ctx.inputs.train[:4], train.Stage.FINETUNE, ctx.cfg.train,
                                  ctx.cfg.court, rng=rng_for(ctx.seed, "warm-up"))
        train.backward(loss)

    def op(self, ctx: Context, tally: Tally) -> None:
        train_pass(ctx, tally)

    def post(self, ctx: Context, tally: Tally) -> dict:
        return probe(ctx, tally, frozenset({"eval", "rollout"}))


class InferDesk:
    """Teacher-forced evaluation and burn-in rollouts of fixed-seed h_att
    and cnn weights; no tape."""

    name = "infer-desk"
    probe_first = False
    variants = ("h_att", "cnn")

    def setup(self, ctx: Context, tally: Tally) -> None:
        ctx.models = {v: build_model(ctx.cfg, v) for v in self.variants}
        first = ctx.inputs.holdout[:4]
        for model in ctx.models.values():
            bench.evaluate(model, first, ctx.cfg.court)
            rollout.batch_rollout(model, [first[0].sequence], ctx.cfg.rollout, ctx.cfg.court)

    def op(self, ctx: Context, tally: Tally) -> None:
        # one throughput sample per chunk (or rollout) index covers both
        # variants, so every sample holds the same mix of work
        eval_s, roll_s = [], []
        for variant, model in ctx.models.items():
            chunks, e = evaluate_chunks(ctx, tally, model, variant)
            _, r = rollout_each(ctx, tally, model, variant)
            eval_s.append(e)
            roll_s.append(r)
            if len(chunks) == len(e):
                check_repeat(ctx, tally, f"infer.acc_delta.{variant}", list(merge_metrics(chunks).acc_delta))
        for times in zip(*eval_s):
            tally.sample("eval_seq_per_s", len(times) * EVAL_BATCH / sum(times))
        for times in zip(*roll_s):
            tally.sample("rollout_steps_per_s", len(times) * steps_per_rollout(ctx) / sum(times))

    def post(self, ctx: Context, tally: Tally) -> dict:
        return probe(ctx, tally, frozenset({"train"}))


class ReproQuick:
    """The CLI `repro` command with the quick config into a fresh dir."""

    name = "repro-quick"
    probe_first = False
    variants = cli.REPRO_VARIANTS

    def setup(self, ctx: Context, tally: Tally) -> None:
        _, text, ignored = load_config("quick", ctx.out / "run")
        ctx.ignored_keys += ignored
        ctx.config_path = ctx.out / "quick.cfg"
        ctx.config_path.write_text(text, encoding="utf-8")
        cli.main(["--config", str(ctx.config_path), "--seed", str(ctx.seed), "defaults"])

    def op(self, ctx: Context, tally: Tally) -> None:
        run_dir = ctx.out / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        argv = ["--config", str(ctx.config_path), "--set", f"paths.out_dir={run_dir}",
                "--seed", str(ctx.seed), "repro"]
        code = tally.run("repro", lambda: cli.main(argv))
        if tally.check(code == 0, f"repro exited with {code}"):
            tally.run("repro outputs", lambda: self.check_outputs(ctx, tally, run_dir))

    def check_outputs(self, ctx: Context, tally: Tally, run_dir: Path) -> None:
        rows = read_csv(run_dir / "bench.csv")
        tally.check([r["variant"] for r in rows] == list(self.variants), "bench.csv: one row per variant")
        accs = [float(v) for r in rows for k, v in r.items() if "acc" in k and v]
        tally.check(all(0.0 <= a <= 1.0 for a in accs), "bench.csv accuracies outside [0, 1]")
        losses = [float(r["loss"]) for v in self.variants for r in read_csv(run_dir / "reports" / f"{v}.csv")]
        tally.check(all(math.isfinite(x) for x in losses), "training report losses not finite")
        results = rollout.load_rollouts(run_dir / "rollouts" / "h_att.jsonl")
        check_rollouts(tally, results, ctx.cfg.court, "repro rollout")
        tally.check(len(list((run_dir / "svg").glob("*.svg"))) == len(results), "one SVG per rollout")
        for v in self.variants:
            tally.check((run_dir / "checkpoints" / f"{v}.ckpt").is_file(), f"checkpoint {v} missing")
        check_repeat(ctx, tally, "repro.loss", losses)
        for r in rows:
            check_repeat(ctx, tally, f"repro.acc_delta.{r['variant']}",
                         [float(r[f"acc_delta{k}"]) for k in range(4)])

    def post(self, ctx: Context, tally: Tally) -> dict:
        return probe(ctx, tally, frozenset({"train", "eval", "rollout"}))


WORKLOADS = {w.name: w for w in (TrainDesk(), InferDesk(), ReproQuick())}
