"""Module structure of distpf: an acyclic import graph, imports at top level only
(but for the two loaders of deferred names), stdlib only, ``dataclasses`` in
``classify`` only, no private name left unread, no public name or class member
that nothing needs, no alias constructor, a package namespace that is the union of
the module ``__all__`` lists and resolves each name on first lookup, and commands
that load only the modules they run."""

import ast
import graphlib
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import distpf
import distpf.cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "distpf"


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _deferred_modules(tree) -> set:
    """Keys of a module-level ``_DEFERRED`` table: the sibling modules that the
    module's loader imports by name with ``importlib.import_module``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_DEFERRED" for t in node.targets):
            out.update(key.value for key in node.value.keys)
    return out


def _relative_imports(tree) -> set:
    """Names of the sibling modules a module imports anywhere in its body, or loads
    through its ``_DEFERRED`` table."""
    out = _deferred_modules(tree)
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
    # The loaders' edges, which only their _DEFERRED tables show.
    assert graph["__init__"] == trees.keys() - {"__init__", "cli"}
    assert {"classify", "distlap", "oracle"} <= graph["cli"]
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


def _import_module_calls(node) -> int:
    """Calls of ``import_module`` or ``__import__``, as a name or an attribute, in ``node``."""
    calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
    return sum(getattr(f, "attr", getattr(f, "id", None)) in ("import_module", "__import__") for f in calls)


def test_import_module_only_in_the_loaders():
    """``importlib.import_module`` (or ``__import__``) is called only by the package's PEP 562
    ``__getattr__`` and the CLI's ``_load``, the two loaders of deferred names;
    ``test_no_import_inside_a_function`` does not see such a call."""
    found = []
    for name, tree in _trees().items():
        in_functions = 0
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _import_module_calls(fn):
                found.append(f"{name}.{fn.name}")
                in_functions += _import_module_calls(fn)
        if _import_module_calls(tree) > in_functions:
            found.append(f"{name} at module level")
    assert sorted(found) == ["__init__.__getattr__", "cli._load"]


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
    """Every module but ``cli`` exports its ``__all__`` through the package,
    whose table lists each module's names in its own order."""
    owners = {}
    for name in sorted(_trees().keys() - {"__init__", "cli"}):
        module = importlib.import_module(f"distpf.{name}")
        assert distpf._DEFERRED[name] == tuple(module.__all__), name
        for public in module.__all__:
            assert public not in owners, f"{public} in {owners[public].__name__} and {name}"
            assert hasattr(module, public), f"{name}.__all__ names unbound {public}"
            owners[public] = module
    assert sorted(distpf.__all__) == sorted(owners)
    for public, module in owners.items():
        assert getattr(distpf, public) is getattr(module, public), public


def test_package_namespace_resolves_names_on_lookup():
    """``dir``, star import and attribute lookup see the same names as ``__all__``;
    a resolved name is bound in the package, and an unknown one is an error."""
    assert set(distpf.__all__) <= set(dir(distpf))
    star: dict = {}
    exec("from distpf import *", star)
    assert star.keys() - {"__builtins__"} == set(distpf.__all__)
    assert all(star[name] is getattr(distpf, name) for name in distpf.__all__)
    assert all(name in vars(distpf) for name in distpf.__all__)
    for module in (distpf, distpf.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


# The modules each command loads besides distpf, distpf.coeffs,
# distpf.pseudofunction and distpf.radial, which build_spec needs for all.
COMMAND_MODULES = [
    (["coeffs", "--order", "3"], set()),
    (["solve", "--energy", "-1/4", "--order", "4"], set()),
    (["laplacian", "--config", "{cfg}"], {"distpf.distlap"}),
    (["laplacian", "--config", "{cfg}", "--verify"], {"distpf.distlap", "distpf.oracle"}),
    (["verify"], {"distpf.distlap", "distpf.oracle"}),
    (["classify", "--energy", "-1/4", "--order", "4"], {"distpf.classify", "distpf.distlap", "dataclasses"}),
]


def _imported(args: list, cwd) -> set:
    """The distpf modules and ``dataclasses`` that a fresh interpreter run with
    ``args`` imports, from its ``-v`` trace: one ``import 'name'`` line per
    module as it enters ``sys.modules``, whatever imported it."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-v", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(re.findall(r"^import '([\w.]+)' #", proc.stderr, re.MULTILINE))
    return {m for m in loaded if m.split(".")[0] in ("distpf", "dataclasses")}


@pytest.mark.parametrize("route", ["-m", "main"])
@pytest.mark.parametrize("argv, extra", COMMAND_MODULES, ids=[" ".join(argv) for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_what_it_runs(tmp_path, route, argv, extra):
    """Run through ``python -m distpf.cli`` (the code runs as ``__main__``) and through
    ``distpf.cli.main`` (as the console script does), a command imports the
    four modules every command needs and the ones it runs, nothing else."""
    cfg = tmp_path / "pf.cfg"
    cfg.write_text("s = -3\ncoeffs = 1, 2\nell = 1\nmu = 0\n")
    argv = [a.format(cfg=cfg) for a in argv]
    expected = {"distpf", "distpf.coeffs", "distpf.pseudofunction", "distpf.radial", *extra}
    if route == "-m":
        args = ["-m", "distpf.cli", *argv]
    else:
        args = ["-c", "import sys, distpf.cli; sys.exit(distpf.cli.main(sys.argv[1:]))", *argv]
        expected.add("distpf.cli")
    assert _imported(args, tmp_path) == expected


def test_import_distpf_loads_no_submodule(tmp_path):
    assert _imported(["-c", "import distpf"], tmp_path) == {"distpf"}


def test_parse_verdict_loads_classify(tmp_path):
    """``perfbench``'s check parses a verdict in a process that ran no command."""
    doc = distpf.cli.run("classify", distpf.cli.build_spec({}, {"root": "singular"}))[2]["verdict"]
    code = "import json, sys, distpf.cli; distpf.cli.parse_verdict(json.loads(sys.argv[1]))"
    assert "distpf.classify" in _imported(["-c", code, json.dumps(doc)], tmp_path)


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
