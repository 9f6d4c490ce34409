"""Every name the package exports is used by something other than the tests.

A name exported from qdiff/__init__.py must be referenced by the library,
by a demo or by the benchmark, or be a named reference below: a slow,
paper-faithful form that a fast path is tested against, or a gate
constructor that the tests' circuits need. A reference is a bare name inside
the defining module (outside the name's own definition), and elsewhere an
import of the name or a `module.name` attribute read; an unrelated variable
that happens to share the name does not count. A library function that only
its own unit test calls fails here, so it either gains a caller or goes.
The same holds for every module-level private name in src/qdiff, which
only the library itself may use, and for every public module-level name that
the package does not export: it needs a caller in the library, a demo or the
benchmark, or a place in MODULE_REFERENCES below.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "qdiff" / "__init__.py"
CALLER_DIRS = ("src/qdiff", "demos", "perfbench")

# exported names kept without a caller, each with why it stays
NAMED_REFERENCES = {
    "forward": "the B = 1 reference for model.forward_trace",
    "loss": "the B = 1 reference for model._batch_loss",
    "phase": "the PHASE gate's constructor; acceptance test_04 builds its probes with it",
    "controlled": "the CU gate's constructor; the random-circuit oracles draw CU gates",
    "x": "the X gate's constructor; the random-circuit oracles draw X gates",
}

# public, non-exported module-level names kept without a caller, each with why it stays
MODULE_REFERENCES = {
    "measure.shift_gradient": "the parameter-shift rule, the reference the adjoint sweep "
                              "is tested against",
    "bench.bloch_points_of_state": "one state's Bloch vector through the density matrix, "
                                   "the reference for bloch_points' batched path",
    "bench.haar_pdf": "the Haar fidelity density, the reference haar_bin_masses' closed-form "
                      "bin integrals are tested against",
}


def exports():
    """(defining module, name) for each name qdiff/__init__.py re-exports."""
    tree = ast.parse(INIT.read_text())
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def references(path, modules):
    """(module, name) pairs that the file at `path` references, for `module` one of
    `modules`: bare names read inside the module's own file (outside the definition
    of the name), and elsewhere `from <module> import name` and `module.name` reads."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent.name == "qdiff" else None
    aliases = {}  # local name -> qdiff module, from `from qdiff import model` and the like
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "qdiff"):
            aliases.update({a.asname or a.name: a.name for a in node.names if a.name in modules})
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()  # inside: the names of the enclosing definitions
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside |= {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own is not None \
                and node.id not in inside:
            found.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            found.update((module, alias.name) for alias in node.names)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_caller_outside_the_tests():
    names = exports()
    assert len(names) > 50
    modules = {module for module, _ in names}
    found = set().union(*(references(path, modules) for d in CALLER_DIRS
                          for path in sorted((ROOT / d).rglob("*.py")) if path != INIT))
    unused = [name for module, name in names
              if name not in NAMED_REFERENCES and (module, name) not in found]
    assert unused == []


def module_definitions(path):
    """Module-level names the file at `path` defines: functions, classes and
    assigned names."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def private_definitions(path):
    """The module-level names that start with one underscore."""
    return {name for name in module_definitions(path)
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_has_a_caller_in_the_library():
    """A private helper that only the tests call fails here, as an export does above."""
    paths = sorted((ROOT / "src" / "qdiff").glob("*.py"))
    modules = {path.stem for path in paths}
    found = set().union(*(references(path, modules) for path in paths))
    defined = [(path.stem, name) for path in paths for name in sorted(private_definitions(path))]
    assert len(defined) > 10
    assert [f"{module}.{name}" for module, name in defined if (module, name) not in found] == []


def test_named_references_are_exported():
    assert set(NAMED_REFERENCES) <= {name for _, name in exports()}


def test_every_public_module_name_has_a_caller_outside_the_tests():
    """A public name the package does not export, such as measure.adjoint_gradient,
    is held to the exports' rule: a caller in the library, a demo or the benchmark,
    or a named reference."""
    paths = [path for path in sorted((ROOT / "src" / "qdiff").glob("*.py")) if path != INIT]
    modules = {path.stem for path in paths}
    exported = set(exports())
    found = set().union(*(references(path, modules) for d in CALLER_DIRS
                          for path in sorted((ROOT / d).rglob("*.py")) if path != INIT))
    defined = [(path.stem, name) for path in paths for name in sorted(module_definitions(path))
               if not name.startswith("_") and (path.stem, name) not in exported]
    assert len(defined) > 10
    unused = [f"{module}.{name}" for module, name in defined if (module, name) not in found]
    assert sorted(unused) == sorted(MODULE_REFERENCES)
