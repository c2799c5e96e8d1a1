"""Command-line entry point wiring the full pipeline.

Commands: synth, label, train, rollout, bench, render, repro.  One config
document plus a single --seed flag determine every output byte; repeated
runs with the same inputs produce identical artifacts (training reports
record wall time and are the one exception).

Exit codes: 0 success, 1 usage/config, 2 data, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
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
from .train import TrainConfig, train_full
from .util import atomic_open, derive_seed, rng_for

ALL_VARIANTS = [v.value for v in Variant]
REPRO_VARIANTS = ["cnn", "gru_cnn", "h_cc", "h_att", "h_aux"]


class _Paths:
    def __init__(self, out_dir: str):
        self.root = Path(out_dir)
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


def _load_config(args) -> RunConfig:
    text = None
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    return load_run_config(text, args.set or [])


def _seeded(cfg: RunConfig, seed: int) -> RunConfig:
    return replace(
        cfg,
        synth=replace(cfg.synth, seed=derive_seed(seed, "synth")),
        labels=replace(cfg.labels, seed=derive_seed(seed, "labels")),
        rollout=replace(cfg.rollout, seed=derive_seed(seed, "rollout")),
    )


def _prepare_sequences(cfg: RunConfig, paths: _Paths, seed: int):
    """Shared deterministic pipeline: ingest -> window -> label -> split."""
    possessions = data_mod.ingest(paths.possessions, cfg.court, cfg.data.bounds_tolerance_ft)
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


def _load_model(cfg: RunConfig, paths: _Paths, variant: str, seed: int) -> HPNModel:
    model = HPNModel(cfg.court, cfg.arch, Variant(variant), derive_seed(seed, "init", variant))
    ckpt = paths.checkpoint(variant)
    if not ckpt.exists():
        raise DataError(f"no checkpoint for variant {variant} at {ckpt}; run train first")
    load_checkpoint(ckpt, model.state_for_checkpoint(), model.config_hash())
    return model


def cmd_synth(cfg: RunConfig, paths: _Paths, args) -> int:
    possessions = data_mod.synthesize(cfg.synth, cfg.court)
    paths.root.mkdir(parents=True, exist_ok=True)
    data_mod.save_possessions(possessions, paths.possessions)
    print(f"wrote {len(possessions)} possessions to {paths.possessions}")
    return 0


def cmd_label(cfg: RunConfig, paths: _Paths, args, split=None) -> int:
    train, holdout = split or _prepare_sequences(cfg, paths, args.seed)
    everything = train + holdout
    labels_mod.export_labels(
        [it.sequence for it in everything], [it.labels for it in everything], paths.labels
    )
    print(f"wrote {len(everything)} label rows to {paths.labels}")
    return 0


def _train_variant(
    cfg: RunConfig, paths: _Paths, variant: str, seed: int, resume: bool, split=None
) -> None:
    train, holdout = split or _prepare_sequences(cfg, paths, seed)
    model = HPNModel(cfg.court, cfg.arch, Variant(variant), derive_seed(seed, "init", variant))
    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    paths.reports.mkdir(parents=True, exist_ok=True)
    report = train_full(
        model,
        train,
        holdout,
        cfg.train,
        cfg.court,
        seed,
        checkpoint_path=paths.checkpoint(variant),
        resume=resume,
    )
    if report is None:  # a finished run's report stays as it was
        print(f"trained {variant}: every stage was already done in {paths.checkpoint(variant)}")
        return
    with atomic_open(paths.report(variant)) as fh:
        fh.write(report.to_csv())
    # the last epoch's holdout score covers at most train.holdout_eval_max
    # sequences, where bench scores them all
    final = report.records[-1].holdout if report.records else None
    acc = (f"{final.acc_delta[0]:.3f} over {final.n_sequences} of {len(holdout)} "
           "holdout sequences") if final else "n/a"
    print(f"trained {variant}: checkpoint {paths.checkpoint(variant)}, holdout acc_delta0 {acc}")


def cmd_train(cfg: RunConfig, paths: _Paths, args) -> int:
    _train_variant(cfg, paths, args.variant, args.seed, args.resume)
    return 0


def cmd_rollout(cfg: RunConfig, paths: _Paths, args, split=None) -> int:
    _, holdout = split or _prepare_sequences(cfg, paths, args.seed)
    model = _load_model(cfg, paths, args.variant, args.seed)
    n = min(cfg.run.n_rollouts, len(holdout))
    sequences = [it.sequence for it in holdout[:n]]
    results = rollout_mod.batch_rollout(model, sequences, cfg.rollout, cfg.court)
    paths.rollouts.mkdir(parents=True, exist_ok=True)
    rollout_mod.save_rollouts(results, paths.rollout_file(args.variant))
    print(f"wrote {len(results)} rollouts to {paths.rollout_file(args.variant)}")
    return 0


def _check_distinct(variants: list[str] | None) -> None:
    """A usage error when ``--variants`` names a variant twice: repro would
    train it twice and bench would score it twice."""
    repeated = sorted({v for v in variants or () if variants.count(v) > 1})
    if repeated:
        raise ConfigError(f"--variants names {', '.join(repeated)} more than once")


def cmd_bench(cfg: RunConfig, paths: _Paths, args, split=None) -> int:
    _check_distinct(args.variants)
    _, holdout = split or _prepare_sequences(cfg, paths, args.seed)
    variants = args.variants or [
        v.value for v in Variant if paths.checkpoint(v.value).exists()
    ]
    if not variants:
        raise DataError("no trained checkpoints found to benchmark")
    models = {v: _load_model(cfg, paths, v, args.seed) for v in variants}
    rows = bench_mod.benchmark(models, holdout, cfg.court, burn_in=cfg.rollout.burn_in_steps)
    bench_mod.write_benchmark_csv(rows, paths.bench_csv)
    for row in rows:
        print(
            f"{row.variant}: delta0 {row.acc_delta[0]:.3f}, "
            f"macro {row.macro_acc if row.macro_acc is not None else '-'}"
        )
    print(f"wrote {paths.bench_csv}")
    claim = bench_mod.claim_lines(rows, cfg.court)
    if claim:
        with atomic_open(paths.claim) as fh:
            fh.write("\n".join(claim) + "\n")
        print("\n".join(claim) + f"\nwrote {paths.claim}")
    else:  # claim.txt always describes the bench.csv beside it
        paths.claim.unlink(missing_ok=True)
    return 0


def cmd_render(cfg: RunConfig, paths: _Paths, args, split=None) -> int:
    _, holdout = split or _prepare_sequences(cfg, paths, args.seed)
    by_key = {
        (it.sequence.possession_id, it.sequence.focal_agent, it.sequence.t0): it.sequence
        for it in holdout
    }
    results = rollout_mod.load_rollouts(paths.rollout_file(args.variant))
    sequences = []
    for r in results:
        key = (r.possession_id, r.focal_agent, r.t0)
        if key not in by_key:
            raise DataError(f"rollout {key} has no matching holdout sequence")
        sequences.append(by_key[key])
    written = render_mod.render_rollouts(
        results, sequences, cfg.court, cfg.render, paths.svg, prefix=args.variant
    )
    print(f"wrote {len(written)} SVGs to {paths.svg}")
    return 0


def cmd_repro(cfg: RunConfig, paths: _Paths, args) -> int:
    """End-to-end desk-scale reproduction: synth, label, train every
    variant, benchmark, roll out and render the attention model.  The
    sequences are prepared once and shared by every step."""
    _check_distinct(args.variants)
    cmd_synth(cfg, paths, args)
    split = _prepare_sequences(cfg, paths, args.seed)
    cmd_label(cfg, paths, args, split)
    for variant in args.variants:
        _train_variant(cfg, paths, variant, args.seed, resume=False, split=split)
    bench_args = argparse.Namespace(seed=args.seed, variants=args.variants)
    cmd_bench(cfg, paths, bench_args, split)
    roll_variant = "h_att" if "h_att" in args.variants else args.variants[-1]
    roll_args = argparse.Namespace(seed=args.seed, variant=roll_variant)
    cmd_rollout(cfg, paths, roll_args, split)
    cmd_render(cfg, paths, roll_args, split)
    print(f"repro complete under {paths.root}")
    return 0


def cmd_defaults(cfg: RunConfig, paths: _Paths, args) -> int:
    print(dump_run_config(cfg), end="")
    return 0


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


_COMMANDS = {
    "synth": cmd_synth,
    "label": cmd_label,
    "train": cmd_train,
    "rollout": cmd_rollout,
    "bench": cmd_bench,
    "render": cmd_render,
    "repro": cmd_repro,
    "defaults": cmd_defaults,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "defaults" and args.seed is None:
            raise ConfigError("--seed is required; randomness is never implicit")
        cfg = _load_config(args)
        if args.seed is not None:
            cfg = _seeded(cfg, args.seed)
        paths = _Paths(cfg.paths.out_dir)
        return _COMMANDS[args.command](cfg, paths, args)
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
