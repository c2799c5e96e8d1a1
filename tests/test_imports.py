"""Package structure: every import at module level, so that an import
cycle cannot hide inside a function, and facts that several modules use
stated in one place."""

import ast
import inspect
from pathlib import Path

import hoopnet
from hoopnet import engine, labels, model, train

PACKAGE = Path(hoopnet.__file__).parent


def test_every_import_is_at_module_level():
    nested = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert nested == []


def test_every_module_level_import_is_used():
    # no linter runs here, so this stands in for one: a name a module
    # imports must be read in it or listed in its __all__
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert unused == []


def test_labeled_sequence_lives_in_labels_and_still_resolves_from_train():
    assert train.LabeledSequence is labels.LabeledSequence


def test_variant_branches_and_the_court_edge_are_stated_once():
    # one BRANCHES entry per variant, and the clamp just inside the far
    # court edges only as CourtSpec.far_edge
    assert set(model.BRANCHES) == set(model.Variant)
    restated = [str(path.relative_to(PACKAGE)) for path in sorted(PACKAGE.rglob("*.py"))
                if path.name != "court.py" and "- 1e-9" in path.read_text(encoding="utf-8")]
    assert restated == []
    # training versus inference only as the tape: on, or under no_grad()
    assert "training" not in inspect.signature(model.HPNModel.run).parameters
    assert "training" not in inspect.signature(engine.spatial_encoder).parameters
    assert not hasattr(engine, "frozen_state")
