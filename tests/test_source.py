import ast
import importlib
from pathlib import Path

import braid3
from braid3.laurent import LaurentPoly1, LaurentPoly2

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent
SOURCES = sorted(Path(braid3.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements; broken identities must raise
    # ConsistencyError instead
    sources = sorted(Path(braid3.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_xu_never_mirrors():
    # quasipositivity is read from the kind of the one normal form; a second
    # reduction of the mirror image is the path that was removed
    tree = ast.parse((Path(braid3.__file__).parent / "xu.py").read_text(encoding="utf-8"))
    names = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "mirror")
        or (isinstance(node, ast.Attribute) and node.attr == "mirror")
        or (isinstance(node, ast.alias) and node.name == "mirror")
    ]
    assert names == []


def _trace_point(layer, path):
    owner = importlib.import_module(f"braid3.{layer}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def _bindings(tracer):
    modules = [braid3] + [importlib.import_module(f"braid3.{m}") for m in tracer.LAYERS]
    return {(mod.__name__, key): value for mod in modules for key, value in vars(mod).items()}


def test_perfbench_trace_points_resolve_and_restore(monkeypatch):
    # ``perfbench/run.py --trace 1`` wraps these names from outside the
    # package; a renamed or deleted entry point would break it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = {point: _trace_point(*point) for point in tracer.TRACE_POINTS}
    bound = _bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {point: _trace_point(*point) for point in tracer.TRACE_POINTS}
    finally:
        t.uninstall()
    assert [p for p in before if wrapped[p] is before[p]] == []
    assert [p for p in before if _trace_point(*p) is not before[p]] == []
    after = _bindings(tracer)
    assert after.keys() == bound.keys()
    assert [key for key in bound if after[key] is not bound[key]] == []


def test_each_polynomial_class_has_its_own_mul():
    # the tracer wraps both methods by name; one shared __mul__ would be
    # wrapped twice and counted twice
    mul1, mul2 = vars(LaurentPoly1).get("__mul__"), vars(LaurentPoly2).get("__mul__")
    assert callable(mul1) and callable(mul2)
    assert mul1 is not mul2
    assert mul1.__code__ is not mul2.__code__


def test_every_public_definition_is_exported_or_used():
    # the package holds production paths and documented API; a public
    # function or class that neither braid3.__all__ nor another part of the
    # package reaches is test-only code, and belongs beside the oracles
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    references: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(node)
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in braid3.__all__:
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(ref) in own for ref in references.get(node.name, [])):
                unreached.append(f"{module}.{node.name}")
    assert unreached == []


def test_every_exported_name_resolves():
    assert [name for name in braid3.__all__ if not hasattr(braid3, name)] == []


def test_package_imports_no_test_module():
    # the package must run from an install, where tests/ is not on the path
    test_modules = {path.stem for path in TESTS.glob("*.py")} | {"tests"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] in test_modules]
    assert found == []
