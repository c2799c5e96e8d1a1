"""Package structure: every import at module level, so that an import
cycle cannot hide inside a function."""

import ast
from pathlib import Path

import hoopnet
from hoopnet import labels, train

PACKAGE = Path(hoopnet.__file__).parent


def test_every_import_is_at_module_level():
    nested = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert nested == []


def test_labeled_sequence_lives_in_labels_and_still_resolves_from_train():
    assert train.LabeledSequence is labels.LabeledSequence
