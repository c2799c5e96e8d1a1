"""The benchmark's calls into the package still resolve.

perfbench/ reaches into hoopnet by name: it imports modules and functions,
passes keywords, reads fields and traces functions where their callers
look them up.  A rename in the package would otherwise surface only as a
failed benchmark run, or as a traced layer that silently reads 0.
"""

import ast
import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from hoopnet.bench import BenchmarkRow, EvalMetrics
from hoopnet.data import TrainingSequence
from hoopnet.labels import LabeledSequence, WeakLabels
from hoopnet.model import HPNModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CALLERS = ["workloads.py", "selftest.py"]


def _package_imports(tree: ast.Module) -> dict[str, object]:
    """Local name -> hoopnet object for every import of the package,
    including those inside functions."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hoopnet" and alias.asname:
                    names[alias.asname] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hoopnet":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    obj = getattr(module, alias.name)
                else:  # a submodule not yet loaded as an attribute
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = obj
    return names


def _chain(node: ast.expr) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _uses(name: str):
    """(dotted name, resolved object or the error, keywords passed) for
    every attribute chain and call rooted at a package import in
    perfbench/<name>."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    imported = _package_imports(tree)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        # the outermost attribute of each chain, or a bare name being called
        if id(node) in inner or not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if isinstance(node, ast.Name) and id(node) not in calls:
            continue
        chain = _chain(node)
        if not chain or chain[0] not in imported:
            continue
        obj = imported[chain[0]]
        for attr in chain[1:]:
            if not hasattr(obj, attr):
                obj = AttributeError(f"{'.'.join(chain)}: no attribute {attr!r}")
                break
            obj = getattr(obj, attr)
        call = calls.get(id(node))
        keywords = [kw.arg for kw in call.keywords if kw.arg] if call else []
        yield ".".join(chain), obj, keywords


@pytest.mark.parametrize("name", CALLERS)
def test_perfbench_names_and_keywords_resolve(name):
    uses = list(_uses(name))
    assert uses, f"perfbench/{name} uses nothing from hoopnet"
    broken = []
    for dotted, obj, keywords in uses:
        if isinstance(obj, AttributeError):
            broken.append(str(obj))
            continue
        if not keywords:
            continue
        params = inspect.signature(obj).parameters
        takes_any = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
        broken += [f"{dotted}: no parameter {kw!r}" for kw in keywords
                   if kw not in params and not takes_any]
    assert broken == []


def test_workloads_call_the_cli_by_its_kept_names():
    dotted = {use[0] for use in _uses("workloads.py")}
    assert {"cli.main", "cli.REPRO_VARIANTS", "rollout.batch_rollout"} <= dotted


def test_perfbench_reads_these_fields_and_methods():
    # read off objects that the package hands back, which the scan above
    # cannot follow
    for method in ("eval_sequence", "state_for_checkpoint", "config_hash"):
        assert callable(getattr(HPNModel, method, None)), method
    names = {f.name for f in fields(TrainingSequence)}
    assert {"raw_frame_positions", "ball_positions", "teammate_positions",
            "opponent_positions"} <= names
    assert {"micro", "micro_padded", "macro", "attention"} <= {f.name for f in fields(WeakLabels)}
    assert {"sequence", "labels"} <= {f.name for f in fields(LabeledSequence)}
    # merge_metrics builds EvalMetrics by keyword, and reads n_delta back
    assert {"acc_delta", "n_delta", "macro_acc", "macro_acc_excl_burnin", "attention_acc",
            "tv_monitor", "n_sequences"} <= {f.name for f in fields(EvalMetrics)}
    # _write_outputs builds a BenchmarkRow from six positional values
    assert [f.name for f in fields(BenchmarkRow)] == [
        "variant", "acc_delta", "macro_acc", "macro_acc_excl_burnin", "attention_acc", "n_eval"]


# traced names that no longer resolve; the trace targets in
# perfbench/tracing.py still name them, and their metrics read 0
MISSING_TODAY = {
    "hoopnet.train.channelize",
    "hoopnet.model.pyramid_pool_np",
    "hoopnet.train.pyramid_pool_np",
    "hoopnet.model.HPNModel.sequence_tensors",
    "hoopnet.model.HPNModel.step_tensors",
    "hoopnet.rollout.forward_step",
    "hoopnet.engine.nn.conv2d",
    "hoopnet.engine.nn.batch_norm",
    "hoopnet.engine.nn.GRUCell.project_inputs",
    "hoopnet.engine.nn.GRUCell.step_projected",
}


def test_traced_layers_that_resolve_still_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= MISSING_TODAY
