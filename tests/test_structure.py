"""Module structure of distpf: an acyclic import graph, imports at top level only,
stdlib only, ``dataclasses`` in ``classify`` only, no private name left unread, and a
package namespace that is the union of the module ``__all__`` lists."""

import ast
import graphlib
import importlib
import pathlib
import sys

import distpf

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "distpf"


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _relative_imports(tree) -> set:
    """Names of the sibling modules a module imports anywhere in its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def _absolute_imports(tree) -> list:
    """Names of the modules a module imports by absolute name anywhere in its body."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
    return out


def test_relative_imports_form_no_cycle():
    trees = _trees()
    graph = {name: _relative_imports(tree) & trees.keys() for name, tree in trees.items()}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}.py:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_only_stdlib_imports():
    found = [
        f"{name}.py:{module}"
        for name, tree in _trees().items()
        for module in _absolute_imports(tree)
        if module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def test_only_classify_imports_dataclasses():
    """The value types derive from ``coeffs._Record``, which builds them without code.

    ``@dataclass`` writes and ``exec``s each class's methods at import, a cost
    every CLI call pays.  ``classify.Verdict`` stays a dataclass because
    ``perfbench/test_perfbench.py`` builds wrong verdicts with
    ``dataclasses.replace``; no other module may bring the import back.
    """
    found = [
        name
        for name, tree in _trees().items()
        for module in _absolute_imports(tree)
        if module.split(".")[0] == "dataclasses"
    ]
    assert found == ["classify"]


def test_no_unused_imports():
    """Every name a module imports is used in it; ``__init__`` only re-exports."""
    found = []
    for name, tree in _trees().items():
        if name == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{name}.py:{node.lineno}:{b}" for b in bound if b not in used]
    assert found == []


def test_every_private_name_is_read_in_src():
    """Every module-level ``_name`` is read somewhere in the package, so a
    helper goes when its last caller goes; a test alone does not keep it."""
    trees = _trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            private = [b for b in bound if b.startswith("_") and not b.startswith("__")]
            found += [f"{name}.py:{node.lineno}:{b}" for b in private if b not in read]
    assert found == []


def test_package_exports_the_union_of_module_all_lists():
    """Every module but ``cli`` is star-imported into the package."""
    owners = {}
    for name in sorted(_trees().keys() - {"__init__", "cli"}):
        module = importlib.import_module(f"distpf.{name}")
        for public in module.__all__:
            assert public not in owners, f"{public} in {owners[public].__name__} and {name}"
            assert hasattr(module, public), f"{name}.__all__ names unbound {public}"
            owners[public] = module
    assert sorted(distpf.__all__) == sorted(owners)
    for public, module in owners.items():
        assert getattr(distpf, public) is getattr(module, public), public
