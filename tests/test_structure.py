"""Module structure of distpf: an acyclic import graph, imports at top level only,
stdlib only, ``dataclasses`` in ``classify`` only, no private name left unread, no
public name or class member that nothing needs, no alias constructor, and a package
namespace that is the union of the module ``__all__`` lists."""

import ast
import graphlib
import importlib
import pathlib
import sys
import types

import distpf

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "distpf"


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


def _attribute_loads(tree, by_text=False) -> set:
    """Every name a module loads as an attribute; with ``by_text`` also every
    name it spells as a string, as ``perfbench``'s tracer does to wrap a
    function where its callers find it."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif by_text and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def _read_names(tree, by_text=False) -> set:
    """Every name a module reads, bare or as an attribute (see ``_attribute_loads``)."""
    bare = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bare | _attribute_loads(tree, by_text)


def _annotation_names(tree) -> set:
    """Every name inside an annotation of a module, quoted or not."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _annotation_names(ast.parse(f"x: {node.value}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return names


# Public names that no program path reads, each with the reason it stays.
NEEDED_UNREAD = {
    "q_nonvanishing": "acceptance test 11 specifies the predicate",
}


def test_every_public_name_is_needed():
    """Each name in ``distpf.__all__`` is read outside its own module (in the
    package, ``demos/`` or ``perfbench/``), names a type in an annotation of
    its own module, or is exempt above; a test alone does not keep it."""
    trees = _trees()
    outside = set().union(
        *(_read_names(ast.parse(path.read_text())) for path in (ROOT / "demos").glob("*.py")),
        *(_read_names(ast.parse(path.read_text()), True) for path in (ROOT / "perfbench").glob("*.py")),
    )
    found = []
    for name in sorted(trees.keys() - {"__init__", "cli"}):
        read = outside.union(*(_read_names(tree) for other, tree in trees.items() if other != name))
        annotated = _annotation_names(trees[name])
        for public in importlib.import_module(f"distpf.{name}").__all__:
            if public not in read and public not in annotated and public not in NEEDED_UNREAD:
                found.append(f"{name}.{public}")
    assert found == []


def test_every_private_name_is_read_in_src():
    """Every module-level ``_name`` is read somewhere in the package, so a
    helper goes when its last caller goes; a test alone does not keep it."""
    trees = _trees()
    read = set().union(*map(_read_names, trees.values()))
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


def test_every_public_member_is_read():
    """Each public method, property, staticmethod and classmethod of a class in
    ``distpf.__all__`` is loaded as an attribute in the package, ``demos/`` or
    ``perfbench/``; a test alone does not keep it."""
    read = set().union(
        *map(_attribute_loads, _trees().values()),
        *(_attribute_loads(ast.parse(path.read_text())) for path in (ROOT / "demos").glob("*.py")),
        *(_attribute_loads(ast.parse(path.read_text()), True) for path in (ROOT / "perfbench").glob("*.py")),
    )
    members = (types.FunctionType, property, staticmethod, classmethod)
    found = [
        f"{public}.{member}"
        for public in sorted(distpf.__all__)
        if isinstance(cls := getattr(distpf, public), type)
        for member, value in vars(cls).items()
        if not member.startswith("_") and isinstance(value, members) and member not in read
    ]
    assert found == []



def test_no_alias_constructor():
    """Each value is built by calling its class: no staticmethod or classmethod
    of a class in ``distpf.__all__`` has a body that is only ``return Cls(...)``
    (or ``cls(...)``) with each argument a constant, ``()`` or one of its own
    parameters, a second name for a call of the class."""
    public = set(distpf.__all__)
    found = []
    for tree in _trees().values():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in public):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
                body = fn.body[1:] if ast.get_docstring(fn) else fn.body
                if not (decorators & {"staticmethod", "classmethod"} and len(body) == 1):
                    continue
                call = body[0].value if isinstance(body[0], ast.Return) else None
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                    continue
                params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
                trivial = all(
                    isinstance(a, ast.Constant)
                    or (isinstance(a, ast.Tuple) and not a.elts)
                    or (isinstance(a, ast.Name) and a.id in params)
                    for a in [*call.args, *(keyword.value for keyword in call.keywords)]
                )
                if call.func.id in (cls.name, "cls") and trivial:
                    found.append(f"{cls.name}.{fn.name}")
    assert found == []
