"""Span tracing of hoopnet from outside the package.

Each traced function is replaced, at the module or class attribute where
its callers look it up, by a wrapper that records one span per call:
(span id, parent span id, name, start, end, run id).  Spans stay in memory
until the run ends.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.

Patching where the caller looks a name up matters: ``hoopnet.train``
imports ``backward`` by name, so only a wrapper on ``hoopnet.train.backward``
sees the training loop's calls.  A target the package no longer has is
skipped and listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def _stage_label(args, kwargs) -> str:
    stage = kwargs["stage"] if "stage" in kwargs else args[3]
    return f"train.run_stage.{getattr(stage, 'value', stage)}"


def _pool_bytes(tracer, args, kwargs) -> None:
    tracer.add("model.pyramid_pool_np.bytes_in", args[0].nbytes)


def _channel_bytes(tracer, result) -> None:
    tracer.add("data.channelize.bytes_out", result.nbytes)


def count_tape_nodes(loss) -> int:
    """Nodes reachable from ``loss`` that need a gradient: the tape that
    ``backward`` walks."""
    seen = {id(loss)}
    stack = [loss]
    n = 0
    while stack:
        node = stack.pop()
        n += 1
        for parent in getattr(node, "_parents", ()):
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return n


def _tape_nodes(tracer, args, kwargs) -> None:
    # counted in a span of its own so the walk shows as tracing overhead,
    # not as self time of the caller
    with tracer.span("trace.count_tape_nodes"):
        tracer.add("engine.backward.tape_nodes", count_tape_nodes(args[0]))


# (module, attribute path, span name, options).  One function may appear
# under several modules when more than one module imports it by name.
TARGETS = [
    ("hoopnet.data", "synthesize", "data.synthesize", {}),
    ("hoopnet.data", "ingest", "data.ingest", {}),
    ("hoopnet.data", "window", "data.window", {}),
    ("hoopnet.train", "channelize", "data.channelize", {"after": _channel_bytes}),
    ("hoopnet.labels", "label_sequence", "labels.label_sequence", {}),
    ("hoopnet.labels", "export_labels", "labels.export_labels", {}),
    ("hoopnet.train", "augment_translate", "train.augment_translate", {}),
    ("hoopnet.train", "assemble", "train.assemble", {}),
    ("hoopnet.bench", "assemble", "train.assemble", {}),
    ("hoopnet.train", "compute_loss", "train.compute_loss", {}),
    ("hoopnet.train", "run_stage", "train.run_stage", {"label": _stage_label}),
    ("hoopnet.model", "pyramid_pool_np", "model.pyramid_pool_np", {"before": _pool_bytes}),
    ("hoopnet.train", "pyramid_pool_np", "model.pyramid_pool_np", {"before": _pool_bytes}),
    ("hoopnet.model", "HPNModel.sequence_tensors", "model.sequence_tensors", {}),
    ("hoopnet.model", "HPNModel.eval_sequence", "model.eval_sequence", {}),
    ("hoopnet.model", "HPNModel.step_tensors", "model.step_tensors", {}),
    ("hoopnet.rollout", "forward_step", "model.forward_step", {}),
    ("hoopnet.engine.nn", "conv2d", "engine.conv2d", {}),
    ("hoopnet.engine.nn", "batch_norm", "engine.batch_norm", {}),
    ("hoopnet.engine.nn", "GRUCell.project_inputs", "engine.GRUCell.project_inputs", {}),
    ("hoopnet.engine.nn", "GRUCell.step_projected", "engine.GRUCell.step_projected", {}),
    ("hoopnet.train", "softmax_nll", "engine.softmax_nll", {}),
    ("hoopnet.train", "backward", "engine.backward", {"before": _tape_nodes}),
    ("hoopnet.train", "clip_gradients", "engine.clip_gradients", {}),
    ("hoopnet.engine.optim", "RMSProp.step", "engine.RMSProp.step", {}),
    ("hoopnet.engine.checkpoint", "save_checkpoint", "engine.save_checkpoint", {}),
    ("hoopnet.train", "save_checkpoint", "engine.save_checkpoint", {}),
    ("hoopnet.engine.checkpoint", "load_checkpoint", "engine.load_checkpoint", {}),
    ("hoopnet.train", "load_checkpoint", "engine.load_checkpoint", {}),
    ("hoopnet.cli", "load_checkpoint", "engine.load_checkpoint", {}),
    ("hoopnet.bench", "evaluate", "bench.evaluate", {}),
    ("hoopnet.bench", "write_benchmark_csv", "bench.write_benchmark_csv", {}),
    ("hoopnet.rollout", "batch_rollout", "rollout.batch_rollout", {}),
    ("hoopnet.rollout", "save_rollouts", "rollout.save_rollouts", {}),
    ("hoopnet.render", "render_rollouts", "render.render_rollouts", {}),
]

STAGES = ("pretrain_micro", "pretrain_macro", "finetune")
_TIMED = sorted({name for _, _, name, _ in TARGETS})
_COUNTERS = [
    ("data.channelize.bytes_out", "bytes"),
    ("model.pyramid_pool_np.bytes_in", "bytes"),
    ("engine.backward.tape_nodes", "count"),
]

# Every per-layer metric, in report order, with its unit.
PER_LAYER: list[tuple[str, str]] = (
    [(f"{name}.{stat}", unit) for name in _TIMED for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + _COUNTERS
    + [(f"train.run_stage.{stage}.s_per_batch", "s") for stage in STAGES]
    + [("trace.op_cpu_s", "s"), ("trace.untraced_op_cpu_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``uninstall``
    restores every original."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.process_time()

    def _close(self, sid: int, parent: int, name: str, start: float) -> None:
        end = time.process_time()
        self._stack().pop()
        self.spans.append((sid, parent, name, start, end, self.run_id))

    def wrap(self, fn, name: str, label=None, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span_name = name if label is None else label(args, kwargs)
            sid, parent, start = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, span_name, start)
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS) -> None:
        self.missing = []
        for module_name, path, name, opts in targets:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, **opts))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, run_id in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "run": run_id,
                }) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent, self.start = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start)
        return False


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, []))
        for sid, _, _, start, end, _ in spans
    }


def layer_metrics(spans: list[tuple], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer calls, self seconds, counters and per-stage seconds per batch."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    own = self_times(spans)
    for sid, _, name, _, _, _ in spans:
        if name.startswith("train.run_stage."):
            name = "train.run_stage"
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own[sid]
    for name, value in counters.items():
        out[name] = value
    calls = out["engine.backward.calls"]
    out["engine.backward.tape_nodes"] = counters.get("engine.backward.tape_nodes", 0) / calls if calls else 0.0

    # seconds per optimizer step inside each stage's run_stage spans
    parent_of = {sid: parent for sid, parent, *_ in spans}
    stage_of: dict[int, str] = {}
    stage_time: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        if name.startswith("train.run_stage."):
            stage = name[len("train.run_stage."):]
            stage_of[sid] = stage
            stage_time[stage] += end - start
    steps: dict[str, int] = defaultdict(int)
    for sid, parent, name, *_ in spans:
        if name != "engine.RMSProp.step":
            continue
        while parent and parent not in stage_of:
            parent = parent_of.get(parent, 0)
        if parent:
            steps[stage_of[parent]] += 1
    for stage in STAGES:
        if steps[stage]:
            out[f"train.run_stage.{stage}.s_per_batch"] = stage_time[stage] / steps[stage]
    return out


def breakdown(spans: list[tuple], ancestor: str) -> dict[str, tuple[int, float]]:
    """Self seconds and calls per span name, over spans that descend from
    (or are) a span named ``ancestor``; used to read one stage's profile."""
    parent_of = {sid: parent for sid, parent, *_ in spans}
    name_of = {sid: name for sid, _, name, *_ in spans}
    own = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, *_ in spans:
        node = sid
        while node and name_of[node] != ancestor:
            node = parent_of.get(node, 0)
        if node:
            entry = out[name_of[sid]]
            entry[0] += 1
            entry[1] += own[sid]
    return {k: (v[0], v[1]) for k, v in out.items()}


def read_spans(path: Path) -> list[tuple]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            spans.append((s["id"], s["parent"], s["name"], s["start"], s["end"], s["run"]))
    return spans


if __name__ == "__main__":
    # python3 perfbench/tracing.py SPANS.jsonl [ANCESTOR]: self seconds and
    # calls per span name, over the whole trace or under spans named ANCESTOR
    import sys

    spans = read_spans(Path(sys.argv[1]))
    if len(sys.argv) > 2:
        rows = breakdown(spans, sys.argv[2])
    else:
        own = self_times(spans)
        rows = defaultdict(lambda: (0, 0.0))
        for sid, _, name, *_ in spans:
            calls, seconds = rows[name]
            rows[name] = (calls + 1, seconds + own[sid])
    total = sum(seconds for _, seconds in rows.values())
    for name, (calls, seconds) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:40s} {calls:8d} {seconds:10.3f} s {100 * seconds / total:6.1f} %")
    print(f"{'total self time':40s} {'':8s} {total:10.3f} s")
