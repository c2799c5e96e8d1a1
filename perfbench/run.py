"""Run one hoopnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 3 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run, plus the tracing overhead.
Everything the program prints goes to standard error.  Outputs, spans and
a record of the run and its environment go under ``.perfbench-out/``.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("train-desk", "infer-desk", "repro-quick")
# Checkpoint bytes differ between 1 and 2 OpenBLAS threads, so the thread
# count is fixed before numpy loads, and recorded.  One thread: at desk
# shapes two threads are no faster on a 2-core machine, one thread keeps the
# reference values the same on machines with more cores, and a busy second
# core cannot stall a BLAS call.
MAX_BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_cpu_s": "s",
    "train_seq_per_s": "seq/s",
    "eval_seq_per_s": "seq/s",
    "rollout_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
    "quality.acc_delta0_lift": "ratio",
    "success_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's reference values (reference seed only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads() -> dict:
    n = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = n
    return {var: n for var in THREAD_VARS}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the record is informative; older numpy lacks mode=
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hoopnet" / "__init__.py").is_file():
        print(f"error: no hoopnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    stdout = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        result, record = run(args, threads)
    out = OUT / args.workload
    (out / "run.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result), file=stdout)
    return 0


def run(args, threads: dict) -> tuple[dict, dict]:
    import workloads
    from tracing import PER_LAYER, Tracer, layer_metrics

    import_s = workloads.cpu_seconds()  # since the process started
    workload = workloads.WORKLOADS[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = workloads.Tally()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    loops = [workloads.interpreter_seconds()]
    setup_times = []
    for i in range(workloads.SETUP_REPEATS):
        if tracer:
            tracer.run_id = f"setup:{i}"
        t0 = workloads.cpu_seconds()
        ctx = workloads.make_context(workload, args.seed, out, tally, args.seconds)
        setup_times.append(workloads.cpu_seconds() - t0)
        loops.append(workloads.interpreter_seconds())
    # at reference speed, the imports by the loop timed right after them
    setup_s = import_s * workloads.REFERENCE_LOOP_S / loops[0] + statistics.median(
        workloads.at_reference_speed(setup_times, loops))

    def op(i: int, phase: str = "main") -> None:
        if tracer:
            tracer.run_id = f"{phase}:{i}"
        workload.op(ctx, tally)

    def probe() -> dict:
        if tracer:
            tracer.run_id = "probe"
        return workload.post(ctx, tally)

    if workload.probe_first:
        quality = probe()
    if tracer:
        tracer.uninstall()
        untraced = workloads.closed_loop(op, seconds=args.seconds)
        tracer.install()
        times = workloads.closed_loop(lambda i: op(i, "traced"), count=len(untraced))
    else:
        times = workloads.closed_loop(op, seconds=args.seconds)
    if not workload.probe_first:
        quality = probe()
    if tracer:
        tracer.uninstall()

    def median_or_zero(kind: str) -> float:
        return statistics.median(tally.samples[kind]) if tally.samples.get(kind) else 0.0

    if tracer:
        values = layer_metrics(tracer.spans, tracer.counters)
        values["trace.op_cpu_s"] = statistics.median(times)
        values["trace.untraced_op_cpu_s"] = statistics.median(untraced)
        values["trace.overhead_s"] = values["trace.op_cpu_s"] - values["trace.untraced_op_cpu_s"]
        units = dict(PER_LAYER)
        tracer.write(out / "spans.jsonl")
    else:
        values = {
            "setup_s": setup_s,
            "op_cpu_s": statistics.median(times),
            "train_seq_per_s": median_or_zero("train_seq_per_s"),
            "eval_seq_per_s": median_or_zero("eval_seq_per_s"),
            "rollout_steps_per_s": median_or_zero("rollout_steps_per_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality.acc_delta0_lift": quality["acc_delta0"] / quality["majority"] if quality else 0.0,
            "success_rate": (tally.attempted - tally.failed) / max(tally.attempted, 1),
        }
        units = END_TO_END_UNITS
    attempted = max(tally.attempted, 1)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    record = {
        "args": vars(args),
        "environment": environment(threads),
        "import_s": import_s,
        "setup_times_s": setup_times,
        "interpreter_loop_s": loops,
        "op_times_s": times,
        "samples": tally.samples,
        "quality": quality,
        "ignored_config_keys": ctx.ignored_keys,
        "missing_trace_targets": tracer.missing if tracer else [],
        "result": result,
    }
    if args.record_reference:
        if args.seed != workloads.REFERENCE_SEED:
            raise SystemExit(f"--record-reference needs --seed {workloads.REFERENCE_SEED}")
        ref = workloads.load_reference()
        ref.update(ctx.first)
        (workloads.HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result, record


if __name__ == "__main__":
    sys.exit(main())
