"""Guard against public package code that nothing in the package uses."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "micas"

# Public names kept although no code in the package calls them.
ALLOWED = {
    "finite_diff_check": "the end-to-end gradient criterion (5) checks the sampler with it",
    "full_run": "the ranking and determinism criteria (7, 10) run the whole pipeline through it",
    "report_equal": "criterion 10 and the benchmark's repeat check compare reports with it",
    "fuse": "the benchmark's predict_score timing builds its input with it",
    "predict_score": "the benchmark times one-prompt scoring through it",
}


def references(node) -> Counter:
    """Names loaded anywhere under node, as bare names or attributes."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def public_definitions(tree):
    """Public module-level functions and classes, and the public methods of those classes.

    Uses are matched by name alone, so a method counts as used wherever any
    attribute of that name is loaded.
    """
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def test_every_public_definition_is_used_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = sum((references(tree) for tree in trees), Counter())
    unused = []
    for tree in trees:
        for node in public_definitions(tree):
            # a definition's own body (recursion) does not count as a use
            if used[node.name] - references(node)[node.name] < 1 and node.name not in ALLOWED:
                unused.append(node.name)
    assert unused == [], f"public definitions with no use in src/micas: {unused}"
