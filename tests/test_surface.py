"""Every name the package exports is used by something other than the tests.

A name exported from qdiff/__init__.py must be referenced by the library
itself (outside its own definition), by a demo or by the benchmark, or be a
named reference below: a slow, paper-faithful form that a fast path is
tested against, or a gate constructor that the tests' circuits need. A
library function that only its own unit test calls fails here, so it either
gains a caller or goes.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "qdiff" / "__init__.py"
CALLER_DIRS = ("src/qdiff", "demos", "perfbench")

# exported names kept without a caller, each with why it stays
NAMED_REFERENCES = {
    "forward": "the B = 1 reference for model.forward_trace",
    "phase": "the PHASE gate's constructor; acceptance test_04 builds its probes with it",
    "controlled": "the CU gate's constructor; the random-circuit oracles draw CU gates",
}


def exported_names():
    tree = ast.parse(INIT.read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def referenced_names(tree, skip):
    """Names, attributes and imports used in `tree`, outside the definition of `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_caller_outside_the_tests():
    trees = [ast.parse(path.read_text()) for d in CALLER_DIRS
             for path in sorted((ROOT / d).rglob("*.py")) if path != INIT]
    names = exported_names()
    assert len(names) > 50
    unused = [name for name in names if name not in NAMED_REFERENCES
              and not any(name in referenced_names(tree, name) for tree in trees)]
    assert unused == []


def test_named_references_are_exported():
    assert set(NAMED_REFERENCES) <= set(exported_names())
