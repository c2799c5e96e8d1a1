"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps a plain ``pytest`` run of the repository from
collecting it: the smoke runs of the three workloads take about a minute
and a half.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_the_union_of_child_spans():
    # root 0-10 has children a (1-4) and b (3-6) that overlap, as spans from
    # two threads can; a has child c (2-3); "late" has no parent
    spans = [
        (1, 0, "root", 0.0, 10.0, "r"),
        (2, 1, "a", 1.0, 4.0, "r"),
        (3, 1, "b", 3.0, 6.0, "r"),
        (4, 2, "c", 2.0, 3.0, "r"),
        (5, 0, "late", 20.0, 21.0, "r"),
    ]
    assert tracing.self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}
    assert tracing.breakdown(spans, "a") == {"a": (1, 2.0), "c": (1, 1.0)}


def test_layer_metrics_aggregate_calls_counters_and_stage_batches():
    spans = [
        (1, 0, "train.run_stage.finetune", 0.0, 4.0, "m"),
        (2, 1, "train.compute_loss", 0.0, 1.0, "m"),
        (3, 1, "engine.RMSProp.step", 1.0, 1.5, "m"),
        (4, 1, "train.compute_loss", 2.0, 3.0, "m"),
        (5, 1, "engine.RMSProp.step", 3.0, 3.5, "m"),
        (6, 0, "engine.backward", 5.0, 6.0, "m"),
        (7, 0, "engine.backward", 6.0, 8.0, "m"),
    ]
    m = tracing.layer_metrics(spans, {"engine.backward.tape_nodes": 30.0})
    assert m["train.run_stage.calls"] == 1
    assert m["train.run_stage.self_s"] == pytest.approx(1.0)
    assert m["train.compute_loss.calls"] == 2
    assert m["train.run_stage.finetune.s_per_batch"] == pytest.approx(2.0)
    assert m["train.run_stage.pretrain_micro.s_per_batch"] == 0.0
    assert m["engine.backward.self_s"] == pytest.approx(3.0)
    assert m["engine.backward.tape_nodes"] == pytest.approx(15.0)
    assert set(m) == {name for name, _ in tracing.PER_LAYER}


def test_tracer_records_nesting_where_the_caller_looks_up_and_restores():
    import hoopnet.train as train_mod

    original = train_mod.backward
    tracer = tracing.Tracer()
    tracer.install([("hoopnet.train", "backward", "engine.backward", {}),
                    ("hoopnet.train", "no_such_function", "x.y", {})])
    try:
        assert train_mod.backward is not original
        with tracer.span("outer"):
            with pytest.raises(ValueError):
                train_mod.backward(train_mod.Tensor(np.zeros(2)))  # not a scalar
    finally:
        tracer.uninstall()
    assert train_mod.backward is original
    assert tracer.missing == ["hoopnet.train.no_such_function"]
    (inner, outer) = tracer.spans
    assert inner[2] == "engine.backward" and outer[2] == "outer" and inner[1] == outer[0]


def test_metric_names_and_units_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == dict(tracing.PER_LAYER)
    # repro-quick runs but is not listed: see README, Workloads
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["train-desk", "infer-desk"]
    assert set(run.WORKLOAD_NAMES) == {"train-desk", "infer-desk", "repro-quick"}
    for name in [*end_to_end, *per_layer, *run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name


def test_same_seed_gives_identical_inputs(tmp_path):
    import workloads

    cfg = workloads.load_config("desk", tmp_path)[0]

    def arrays(seed, sub):
        inputs = workloads.make_inputs(cfg, seed, tmp_path / sub)
        out = []
        for it in inputs.train + inputs.holdout:
            s, lab = it.sequence, it.labels
            out += [s.raw_frame_positions, s.ball_positions, s.teammate_positions,
                    s.opponent_positions, lab.micro, lab.macro, lab.attention]
        return out, (tmp_path / sub / "possessions.jsonl").read_bytes()

    a, a_file = arrays(5, "a")
    b, b_file = arrays(5, "b")
    c, _ = arrays(6, "c")
    assert a_file == b_file
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("train-desk", 0), ("train-desk", 1), ("infer-desk", 0), ("repro-quick", 0),
])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr[-2000:]
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "train-desk", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
