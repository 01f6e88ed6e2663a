"""Guard against package code that nothing uses: public definitions, function parameters and dataclass fields."""

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
    "sample_inference": "the benchmark's sampler checks and independent label estimates call it",
    "PromptBank": "the benchmark's sampler checks draw their prompts from it",
    "from_pairs": "the benchmark's sampler checks build their PromptBank with it",
    "for_task": "the benchmark's sampler checks read a task's PromptBank pool with it",
}

# (function, parameter) pairs kept although the function never reads the parameter.
UNREAD_ALLOWED = {
    ("predict_score", "cfg"): "the benchmark calls predict_score with this signature",
}

# (dataclass, field) pairs kept although no package code outside the class reads the field.
FIELD_ALLOWED = {
    ("RankerTraining", "labels_path"): "the benchmark's label checks read the label cache through it",
    ("PromptBank", "prompts"): "only PromptBank's own methods, which the benchmark calls, read it",
}


def package_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]


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


def unused_definitions(trees):
    """Names of the public definitions that no package code outside their own body uses."""
    used = sum((references(tree) for tree in trees), Counter())
    for tree in trees:
        for node in public_definitions(tree):
            # a definition's own body (recursion) does not count as a use
            if used[node.name] - references(node)[node.name] < 1:
                yield node.name


def test_every_public_definition_is_used_in_the_package():
    unused = [name for name in unused_definitions(package_trees()) if name not in ALLOWED]
    assert unused == [], f"public definitions with no use in src/micas: {unused}"


def unread_parameters(tree):
    """(function, parameter) for each parameter that its function or lambda never loads; `_` names are exempt.

    A load anywhere in the function's body, nested functions included,
    counts as a read.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            loaded = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            for param in params:
                if not param.arg.startswith("_") and param.arg not in loaded:
                    yield getattr(node, "name", "<lambda>"), param.arg


def test_every_parameter_is_read_by_its_function():
    unread = [pair for tree in package_trees() for pair in unread_parameters(tree) if pair not in UNREAD_ALLOWED]
    assert unread == [], f"parameters that their function never reads in src/micas: {unread}"


def test_unread_parameter_scan_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b, _c):\n    return a\n\ng = lambda x, y: y\n")
    assert list(unread_parameters(tree)) == [("f", "b"), ("<lambda>", "x")]


def attribute_loads(node) -> Counter:
    """Attribute names loaded anywhere under node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def is_dataclass(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def unread_fields(trees):
    """(class, field) for each annotated field of a dataclass that no code outside its class body loads.

    Like methods, fields are matched by attribute name alone.
    """
    used = sum((attribute_loads(tree) for tree in trees), Counter())
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                own = attribute_loads(node)
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        name = stmt.target.id
                        if used[name] - own[name] < 1:
                            yield node.name, name


def test_every_dataclass_field_is_read_outside_its_class():
    unread = [pair for pair in unread_fields(package_trees()) if pair not in FIELD_ALLOWED]
    assert unread == [], f"dataclass fields that nothing outside their class reads in src/micas: {unread}"


def test_unread_field_scan_finds_an_unread_field():
    tree = ast.parse(
        "@dataclass\nclass A:\n    kept: int\n    only_self: int\n\n"
        "    def total(self):\n        return self.only_self\n\n"
        "class B:\n    ignored: int\n\n"
        "def use(a):\n    return a.kept\n"
    )
    assert list(unread_fields([tree])) == [("A", "only_self")]


def test_every_allowance_still_names_an_unused_definition():
    # an allowance whose definition is gone, or now has a use, outlives its reason
    trees = package_trees()
    stale = sorted(set(ALLOWED) - set(unused_definitions(trees)))
    stale += sorted(set(UNREAD_ALLOWED) - {pair for tree in trees for pair in unread_parameters(tree)})
    stale += sorted(set(FIELD_ALLOWED) - set(unread_fields(trees)))
    assert stale == [], f"allowances that no longer hold in src/micas: {stale}"
