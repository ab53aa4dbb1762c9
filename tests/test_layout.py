"""Source layout rules checked by reading the package's own files."""

import ast
import builtins
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


def test_bench_tracer_wraps_each_parser_once(capsys):
    """The parser tree is built once, yet every parser build_parser returns
    is the tracer's own: each main call times one build and one parse_args,
    wrappers never stack, and none is left after uninstall."""
    from esymfano import cli

    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _ in range(3):
            cli.main(["isolated", "--d", "1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["cli.parse"] == 6
    assert "parse_args" not in vars(cli.build_parser())
    assert "parse_args" not in vars(cli._parser_tree())


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


def test_every_exception_is_a_value_error():
    """main() turns a ValueError into exit 2 and one error line, and catches
    nothing else, so every exception class the package defines must derive
    from ValueError.  A class's bases are followed through the package to the
    builtin classes at the root."""
    bases = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                    for b in node.bases
                ]

    def roots(name):
        builtin = getattr(builtins, name or "", None)
        if isinstance(builtin, type):
            return [builtin]
        return [root for base in bases.get(name, ()) for root in roots(base)]

    errors = {
        name: roots(name)
        for name in bases
        if any(issubclass(root, BaseException) for root in roots(name))
    }
    assert {"BudgetExceeded", "FieldError", "InputError"} <= set(errors)
    assert [
        name for name, found in errors.items()
        if not any(issubclass(root, ValueError) for root in found)
    ] == []


def test_linear_form_is_only_a_polynomial_constructor():
    """A linear form is the Polynomial built from its coefficient row: its
    class defines __init__ and nothing else, and no code tells a form apart
    from other polynomials, so no second factor path can come back."""
    methods, checks = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and node.name == "LinearForm":
                assert [ast.unparse(b) for b in node.bases] == ["Polynomial"]
                methods += [
                    f.name for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "isinstance"
                and any(
                    getattr(n, "id", getattr(n, "attr", None)) == "LinearForm"
                    for arg in node.args[1:]
                    for n in ast.walk(arg)
                )
            ):
                checks.append(f"{path.name}:{node.lineno}")
    assert methods == ["__init__"]
    assert checks == []


# Public names with no caller in src/ or bench/, each kept for the tests
TEST_ONLY = {
    # slow oracles that the fast paths are checked against; poly_eval is not
    # listed, as invariants calls it.  nullspace is the kernel of the
    # expansion route that the reciprocal relation space is compared with
    "elem_sym",
    "nullspace",
    # dimension counts whose values the tests check
    "expected_dimension",
    "stratum_dimension",
    # reads one coefficient in the tests' assertions
    "coefficient",
}


def referenced_names(path, strings):
    """Names, attributes and imported names a file uses, and with strings
    its string constants too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_no_public_name_without_a_caller():
    """Every public function, method and class of the package is used in
    src/ (outside __init__.py, which only re-exports) or in bench/, whose
    tracer names its hooks as strings, or is listed in TEST_ONLY.  The set
    holds only such names, so an entry goes once its name gains a caller."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    defined = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.add(node.name)
    used = set().union(*(referenced_names(p, strings=False) for p in sources))
    used |= set().union(
        *(referenced_names(p, strings=True) for p in sorted((ROOT / "bench").glob("*.py")))
    )
    assert defined - used == TEST_ONLY
