"""Nothing in src/gubcover is there for the tests alone.

Every function and method defined in the package, dunders aside, must be
referenced somewhere in the package or in perfbench/ outside its own
definition.  A reference is a name, an attribute, or a part of one of
perfbench's dotted target strings ("SearchState.undo_trial" names
undo_trial); an import alone is none.  Matching is by bare name, so this catches a definition that
no code reads at all, not one shadowed by a namesake.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
# the constructor README's Quick start uses
ALLOWED = {"model.Instance.from_columns"}


def definitions(tree):
    """(qualified name, node) of each function and method, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                yield from walk(child, name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def references(tree, targets):
    """(name, line) of each name and attribute in tree, and, with targets,
    of each part of a dotted identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif targets and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if TARGET.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def unreferenced(root=ROOT):
    package = root / "src" / "gubcover"
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) + sorted((root / "perfbench").glob("*.py"))}
    refs = [(name, path, line)
            for path, tree in trees.items()
            for name, line in references(tree, targets=path.parent.name == "perfbench")]
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and not (where == path and line in inside)
                       for ref, where, line in refs):
                yield f"{path.stem}.{qualname}"


def test_every_definition_is_used_outside_the_tests():
    assert set(unreferenced()) == ALLOWED


def test_scan_sees_an_unused_definition(tmp_path):
    package = tmp_path / "src" / "gubcover"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "mod.py").write_text(
        "class Instance:\n"
        "    def from_columns(self):\n        pass\n"
        "def loop(n):\n    return loop(n - 1)\n"
        "def used():\n    pass\n"
        "def by_target():\n    pass\n")
    (package / "user.py").write_text("from .mod import loop, used\nused()\n")
    (tmp_path / "perfbench" / "spans.py").write_text('TARGETS = [("mod", "by_target")]\n')
    assert set(unreferenced(tmp_path)) == {"mod.Instance.from_columns", "mod.loop"}
