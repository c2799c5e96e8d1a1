"""Command-line entry point wiring the full pipeline.

Commands: synth, label, train, rollout, bench, render, repro, defaults.
One config document plus a single --seed flag determine every output
byte; repeated runs with the same inputs produce identical artifacts
(training reports record wall time and are the one exception).  Every
command but defaults reads one ``Run``: the config with its seeds, the
output layout, and the prepared sequences it shares between steps.

Exit codes: 0 success, 1 usage/config, 2 data, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

from . import bench as bench_mod
from . import data as data_mod
from . import labels as labels_mod
from . import render as render_mod
from . import rollout as rollout_mod
from .config import RunConfig, dump_run_config, load_run_config
from .engine.checkpoint import load_checkpoint
from .errors import ConfigError, DataError, DivergenceError, HoopnetError
from .model import HPNModel, Variant
from .train import completed_stages, stage_schedule, train_full
from .util import atomic_open, derive_seed, rng_for

ALL_VARIANTS = [v.value for v in Variant]
REPRO_VARIANTS = ["cnn", "gru_cnn", "h_cc", "h_att", "h_aux"]


def _load_config(args) -> RunConfig:
    text = None
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    return load_run_config(text, args.set or [])


def _prepare_sequences(cfg: RunConfig, possessions_path: Path, seed: int):
    """Shared deterministic pipeline: ingest -> window -> label -> split."""
    possessions = data_mod.ingest(possessions_path, cfg.court, cfg.data.bounds_tolerance_ft)
    labeled: list[labels_mod.LabeledSequence] = []
    for p in sorted(possessions, key=lambda p: p.id):
        rng = rng_for(seed, "window", p.id)
        for seq in data_mod.window(p, cfg.court, rng, cfg.data.windows_per_player):
            labels = labels_mod.label_sequence(seq, cfg.court, cfg.labels)
            labeled.append(labels_mod.LabeledSequence(seq, labels))
    if not labeled:
        raise DataError("no training sequences (all possessions shorter than a window?)")
    train, holdout = data_mod.split(labeled, cfg.data.holdout_fraction, derive_seed(seed, "split"))
    return train, holdout


class Run:
    """One invocation: the config with its seeds derived from ``seed``, the
    output layout under ``paths.out_dir``, the (train, holdout) split and
    each variant's model."""

    def __init__(self, cfg: RunConfig, seed: int):
        self.cfg = replace(
            cfg,
            synth=replace(cfg.synth, seed=derive_seed(seed, "synth")),
            labels=replace(cfg.labels, seed=derive_seed(seed, "labels")),
            rollout=replace(cfg.rollout, seed=derive_seed(seed, "rollout")),
        )
        self.seed = seed
        self.root = Path(cfg.paths.out_dir)
        self.possessions = self.root / "possessions.jsonl"
        self.labels = self.root / "labels.jsonl"
        self.checkpoints = self.root / "checkpoints"
        self.reports = self.root / "reports"
        self.rollouts = self.root / "rollouts"
        self.svg = self.root / "svg"
        self.bench_csv = self.root / "bench.csv"
        self.claim = self.root / "claim.txt"

    def checkpoint(self, variant: str) -> Path:
        return self.checkpoints / f"{variant}.ckpt"

    def report(self, variant: str) -> Path:
        return self.reports / f"{variant}.csv"

    def rollout_file(self, variant: str) -> Path:
        return self.rollouts / f"{variant}.jsonl"

    @cached_property
    def split(self):
        """(train, holdout), prepared from the possessions file on first
        use and shared by every later step of the run."""
        return _prepare_sequences(self.cfg, self.possessions, self.seed)

    def new_model(self, variant: str) -> HPNModel:
        return HPNModel(self.cfg.court, self.cfg.arch, Variant(variant),
                        derive_seed(self.seed, "init", variant))

    def trained_model(self, variant: str) -> HPNModel:
        model = self.new_model(variant)
        ckpt = self.checkpoint(variant)
        if not ckpt.exists():
            raise DataError(f"no checkpoint for variant {variant} at {ckpt}; run train first")
        done = completed_stages(load_checkpoint(ckpt, model.state_for_checkpoint(), model.config_hash()))
        left = [s.value for s in stage_schedule(model.variant) if s.value not in done]
        if left:  # training diverged or was stopped after an earlier stage
            raise DataError(f"checkpoint {ckpt} has not finished stages {', '.join(left)}; "
                            f"run train --variant {variant} --resume")
        return model


def cmd_synth(run: Run) -> None:
    possessions = data_mod.synthesize(run.cfg.synth, run.cfg.court)
    run.root.mkdir(parents=True, exist_ok=True)
    data_mod.save_possessions(possessions, run.possessions)
    print(f"wrote {len(possessions)} possessions to {run.possessions}")


def cmd_label(run: Run) -> None:
    train, holdout = run.split
    everything = train + holdout
    labels_mod.export_labels(
        [it.sequence for it in everything], [it.labels for it in everything], run.labels
    )
    print(f"wrote {len(everything)} label rows to {run.labels}")


def cmd_train(run: Run, variant: str, resume: bool = False) -> None:
    train, holdout = run.split
    model = run.new_model(variant)
    run.checkpoints.mkdir(parents=True, exist_ok=True)
    run.reports.mkdir(parents=True, exist_ok=True)
    report = train_full(
        model,
        train,
        holdout,
        run.cfg.train,
        run.cfg.court,
        run.seed,
        checkpoint_path=run.checkpoint(variant),
        resume=resume,
    )
    if report is None:  # a finished run's report stays as it was
        print(f"trained {variant}: every stage was already done in {run.checkpoint(variant)}")
        return
    with atomic_open(run.report(variant)) as fh:
        fh.write(report.to_csv())
    # the last epoch's holdout score covers at most train.holdout_eval_max
    # sequences, where bench scores them all
    final = report.records[-1].holdout if report.records else None
    acc = (f"{final.acc_delta[0]:.3f} over {final.n_sequences} of {len(holdout)} "
           "holdout sequences") if final else "n/a"
    print(f"trained {variant}: checkpoint {run.checkpoint(variant)}, holdout acc_delta0 {acc}")


def cmd_rollout(run: Run, variant: str) -> None:
    _, holdout = run.split
    model = run.trained_model(variant)
    n = min(run.cfg.run.n_rollouts, len(holdout))
    sequences = [it.sequence for it in holdout[:n]]
    results = rollout_mod.batch_rollout(model, sequences, run.cfg.rollout, run.cfg.court)
    run.rollouts.mkdir(parents=True, exist_ok=True)
    rollout_mod.save_rollouts(results, run.rollout_file(variant))
    print(f"wrote {len(results)} rollouts to {run.rollout_file(variant)}")


def _check_distinct(variants: list[str] | None) -> None:
    """A usage error when ``--variants`` names a variant twice: repro would
    train it twice and bench would score it twice."""
    repeated = sorted({v for v in variants or () if variants.count(v) > 1})
    if repeated:
        raise ConfigError(f"--variants names {', '.join(repeated)} more than once")


def cmd_bench(run: Run, variants: list[str] | None) -> None:
    _check_distinct(variants)
    _, holdout = run.split
    variants = variants or [v.value for v in Variant if run.checkpoint(v.value).exists()]
    if not variants:
        raise DataError("no trained checkpoints found to benchmark")
    models = {v: run.trained_model(v) for v in variants}
    rows = bench_mod.benchmark(models, holdout, run.cfg.court, burn_in=run.cfg.rollout.burn_in_steps)
    bench_mod.write_benchmark_csv(rows, run.bench_csv)
    for row in rows:
        print(
            f"{row.variant}: delta0 {row.acc_delta[0]:.3f}, "
            f"macro {row.macro_acc if row.macro_acc is not None else '-'}"
        )
    print(f"wrote {run.bench_csv}")
    claim = bench_mod.claim_lines(rows, run.cfg.court)
    if claim:
        with atomic_open(run.claim) as fh:
            fh.write("\n".join(claim) + "\n")
        print("\n".join(claim) + f"\nwrote {run.claim}")
    else:  # claim.txt always describes the bench.csv beside it
        run.claim.unlink(missing_ok=True)


def cmd_render(run: Run, variant: str) -> None:
    _, holdout = run.split
    by_key = {
        (it.sequence.possession_id, it.sequence.focal_agent, it.sequence.t0): it.sequence
        for it in holdout
    }
    results = rollout_mod.load_rollouts(run.rollout_file(variant))
    sequences = []
    for r in results:
        key = (r.possession_id, r.focal_agent, r.t0)
        if key not in by_key:
            raise DataError(f"rollout {key} has no matching holdout sequence")
        sequences.append(by_key[key])
    written = render_mod.render_rollouts(
        results, sequences, run.cfg.court, run.cfg.render, run.svg, prefix=variant
    )
    print(f"wrote {len(written)} SVGs to {run.svg}")


def cmd_repro(run: Run, variants: list[str]) -> None:
    """End-to-end desk-scale reproduction: synth, label, train every
    variant, benchmark, roll out and render the attention model.  The
    run prepares the sequences once, after synth, for every step."""
    _check_distinct(variants)
    cmd_synth(run)
    cmd_label(run)
    for variant in variants:
        cmd_train(run, variant)
    cmd_bench(run, variants)
    roll_variant = "h_att" if "h_att" in variants else variants[-1]
    cmd_rollout(run, roll_variant)
    cmd_render(run, roll_variant)
    print(f"repro complete under {run.root}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoopnet",
        description="Train and evaluate hierarchical trajectory policies on court tracking data.",
    )
    parser.add_argument("--config", help="config document (default: every key at its default)")
    parser.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE", help="override one config key"
    )
    parser.add_argument("--seed", type=int, help="run seed; required, no hidden entropy")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate synthetic possessions")
    sub.add_parser("label", help="window possessions and export the weak-label sidecar")
    p = sub.add_parser("train", help="train one variant")
    p.add_argument("--variant", required=True, choices=ALL_VARIANTS)
    p.add_argument("--resume", action="store_true", help="continue from the stage checkpoint")
    p = sub.add_parser("rollout", help="generate rollouts for a trained variant")
    p.add_argument("--variant", required=True, choices=ALL_VARIANTS)
    p = sub.add_parser("bench", help="benchmark trained variants into bench.csv and claim.txt")
    p.add_argument("--variants", nargs="*", choices=ALL_VARIANTS)
    p = sub.add_parser("render", help="render saved rollouts to SVG")
    p.add_argument("--variant", required=True, choices=ALL_VARIANTS)
    p = sub.add_parser("repro", help="full pipeline over all baseline variants")
    p.add_argument("--variants", nargs="+", choices=ALL_VARIANTS, default=REPRO_VARIANTS)
    sub.add_parser("defaults", help="print a complete config document with defaults")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "defaults":
            print(dump_run_config(_load_config(args)), end="")
            return 0
        if args.seed is None:
            raise ConfigError("--seed is required; randomness is never implicit")
        run = Run(_load_config(args), args.seed)
        commands = {
            "synth": lambda: cmd_synth(run),
            "label": lambda: cmd_label(run),
            "train": lambda: cmd_train(run, args.variant, args.resume),
            "rollout": lambda: cmd_rollout(run, args.variant),
            "bench": lambda: cmd_bench(run, args.variants),
            "render": lambda: cmd_render(run, args.variant),
            "repro": lambda: cmd_repro(run, args.variants),
        }
        commands[args.command]()
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except HoopnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
