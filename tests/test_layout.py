"""Source layout rules checked by reading the package's own files."""

import ast
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "esymfano"


def private_sibling_imports(path):
    """Leading-underscore names that a module takes from its sibling modules,
    by `from .mod import _name` or by `mod._name` after `from . import mod`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("esymfano")
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module in (None, "esymfano"):
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in private_sibling_imports(path)]
    assert found == []


def test_bench_tracer_hooks_exist_and_are_restored():
    """The benchmark's tracer finds every attribute it hooks, replaces them,
    and puts each original back on uninstall."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = list(tracing.MODULES)
    owners += [
        cls
        for mod in tracing.MODULES
        for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__.startswith("esymfano")
    ]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # an AttributeError here names a hook that is gone
        assert all(getattr(h, a) is not orig for h, a, orig in tracer._undo)
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_monomial_order_stays_at_the_presentation_layer():
    """The graded-lex order decides how terms are printed and which witness
    is shown; spans, ranks and nullspaces must not depend on it, so only
    poly (which defines it) and cli use grlex_key."""
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Name) and node.id == "grlex_key")
                or (isinstance(node, ast.Attribute) and node.attr == "grlex_key")
                or (isinstance(node, ast.alias) and node.name == "grlex_key")
            ):
                users.add(path.name)
    assert users == {"cli.py", "poly.py"}
