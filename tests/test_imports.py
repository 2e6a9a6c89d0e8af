"""Stdlib stand-ins for a linter: every import in the package modules is used
and made at module level, only the expression core reads child-node tuples
directly, no function takes a tolerance of its own, every SamplePlan field is
set by the program and every suite takes only a plan, every top-level
definition is reached, the names the traced bench run wraps exist, and the
command line starts without the modules it never uses."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsusy"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes of a module or function, not those of the functions it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    # an import must be used in the scope that makes it: the module, or the
    # function it sits in (nested functions included)
    tree = ast.parse(source)
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module,) + _FUNCTIONS):
            continue
        imported = {}
        for node in _own_nodes(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        out += [f"{name} (line {line})" for name, line in imported.items() if name not in used]
    return sorted(out)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]


def test_detector_flags_an_unused_local_import():
    # tau is used in g, but the import in f is dead
    source = ("from math import pi\n\n"
              "def f():\n    from math import tau\n    return pi\n\n"
              "def g(tau):\n    return tau\n\n"
              "def h():\n    import os\n    return lambda: os.sep\n")
    assert unused_imports(source) == ["tau (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def local_imports(source: str) -> list[int]:
    """Lines of the imports made inside a function, except those marked
    "# import cycle": a module-level import there would fail."""
    lines = source.splitlines()
    return sorted({n.lineno for scope in ast.walk(ast.parse(source))
                   if isinstance(scope, _FUNCTIONS) for n in ast.walk(scope)
                   if isinstance(n, (ast.Import, ast.ImportFrom))
                   and not lines[n.lineno - 1].endswith("# import cycle")})


def test_detector_flags_a_local_import():
    source = ("import os\n\n"
              "def f():\n    import math\n    return math.pi\n\n"
              "def g():\n    from .parser import to_string  # import cycle\n"
              "    return to_string\n\n"
              "class C:\n    def m(self):\n        def inner():\n"
              "            from os import sep\n            return sep\n        return inner\n")
    assert local_imports(source) == [4, 14]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_module_level(path):
    # a function-local import hides a dependency; the one kind kept breaks an
    # import cycle and says so
    assert local_imports(path.read_text(encoding="utf-8")) == []


def child_tuple_reads(source: str) -> list[int]:
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in ("terms", "factors"))


def test_detector_flags_a_child_tuple_read():
    assert child_tuple_reads("x = 1\nys = [f(t) for t in e.terms]\n") == [2]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name not in ("expr.py", "parser.py")),
    ids=lambda p: p.name)
def test_tree_traversal_goes_through_children(path):
    # everything else walks expressions with expr.children / expr.rebuild,
    # which visit each shared subtree once
    assert child_tuple_reads(path.read_text(encoding="utf-8")) == []


def evaluate_refs(source: str) -> list[int]:
    tree = ast.parse(source)
    return sorted(
        n.lineno for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == "evaluate")
        or (isinstance(n, ast.Attribute) and n.attr == "evaluate")
        or (isinstance(n, ast.ImportFrom) and any(a.name == "evaluate" for a in n.names)))


def test_detector_flags_an_evaluate_reference():
    assert evaluate_refs("from .expr import evaluate_exact, evaluate\n"
                         "y = expr.evaluate(e, 1.0)\nz = evaluate_exact(e, 1)\n") == [1, 2]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "expr.py"], ids=lambda p: p.name)
def test_numeric_sampling_goes_through_the_batch_kernel(path):
    # evaluate is a one-point call for callers outside the package; every
    # module samples through invariance.safe_points or expr.values_and_faults
    assert evaluate_refs(path.read_text(encoding="utf-8")) == []


def tol_parameters(source: str) -> list[str]:
    """The functions and lambdas, as "name (line n)", with a parameter named tol."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, _FUNCTIONS + (ast.Lambda,)):
            a = n.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(x is not None and x.arg == "tol" for x in params):
                out.append(f"{getattr(n, 'name', '<lambda>')} (line {n.lineno})")
    return sorted(out)


def test_detector_flags_a_tol_parameter():
    source = ("def f(x, tol=1e-9):\n    return x\n\n"
              "class C:\n    def m(self, *, tol):\n        return lambda tol: tol\n\n"
              "def g(plan, **tol):\n    return plan.tol\n\n"
              "def h(plan):\n    return replace(plan, tol=10 * plan.tol)\n")
    assert tol_parameters(source) == [
        "<lambda> (line 6)", "f (line 1)", "g (line 8)", "m (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_tolerance(path):
    # SamplePlan.tol is the one tolerance of every sampled residual; a check
    # that needs another margin states it as a multiple of plan.tol
    assert tol_parameters(path.read_text(encoding="utf-8")) == []


def unset_fields(fields: list, sources: list) -> list[str]:
    """The fields that no call SamplePlan(...) or replace(...) in sources
    passes by keyword."""
    passed = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call) and getattr(
                    n.func, "id", getattr(n.func, "attr", None)) in ("SamplePlan", "replace"):
                passed |= {k.arg for k in n.keywords}
    return sorted(set(fields) - passed)


def test_detector_flags_an_unset_field():
    sources = ["p = SamplePlan(seed=3)\n",
               "q = dataclasses.replace(p, tol=1.0)\nr = other(m=2)\nSamplePlan(**kw)\n"]
    assert unset_fields(["seed", "tol", "m", "holdout"], sources) == ["holdout", "m"]


def test_every_plan_field_is_set_by_the_program():
    # a field that no caller in src/ sets has one value in use: it is a
    # constant of invariance, not a field
    from qsusy.invariance import SamplePlan

    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unset_fields([f.name for f in dataclasses.fields(SamplePlan)], sources) == []


def test_every_suite_takes_only_a_plan():
    from qsusy.suites import SUITES

    assert {name: len(inspect.signature(suite).parameters)
            for name, suite in SUITES.items()} == dict.fromkeys(SUITES, 1)


_RULE_ERRORS = ("PoleError", "EvalDomainError", "UnboundSymbolError")


def rule_error_sites(source: str) -> list[str]:
    """Where an exception of the float rules is built: the outermost function
    around each call, a method named with its class, or "<module>"."""
    out = []

    def visit(node, prefix, site):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in _RULE_ERRORS:
                    out.append(site or "<module>")
            if site is None and isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", None)
            elif site is None and isinstance(child, _FUNCTIONS):
                visit(child, prefix, prefix + child.name)
            else:
                visit(child, prefix, site)

    visit(ast.parse(source), "", None)
    return sorted(out)


def test_detector_finds_where_rule_errors_are_built():
    source = ("class B:\n    def m(self):\n        raise expr.UnboundSymbolError('x')\n\n"
              "def _walker():\n    def node():\n        return lambda k: PoleError('p')\n"
              "    return node\n\n"
              "def evaluate():\n    raise EvalDomainError('d')\n\n"
              "E = PoleError\nF = PoleError('m')\n")
    assert rule_error_sites(source) == ["<module>", "B.m", "_walker", "evaluate"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_float_rules_live_in_the_kernel(path):
    # the batch kernel is the one float interpreter: its rules build their
    # exceptions in expr._walker, and an unbound opaque function's is
    # Binding.func_derivative's
    home = {"_walker", "Binding.func_derivative"} if path.name == "expr.py" else set()
    assert set(rule_error_sites(path.read_text(encoding="utf-8"))) <= home


BENCH = SRC.parents[1] / "bench"

# top-level definitions that nothing reaches yet, each with the reason it stays
_UNREACHED = {
    "x2.x2b_basis": "the only home of the partner polynomials; a suite check "
                    "of them needs a new bench reference first",
}


def unreferenced(sources: dict, known: set) -> list[str]:
    """Top-level functions and classes, as "module.name", that no other
    top-level statement of any module refers to by name or attribute and
    that are not in `known`."""
    defined, refs = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, _FUNCTIONS + (ast.ClassDef,)):
                defined.append((module, stmt.name, stmt))
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
                refs.append((stmt, names))
    return sorted(f"{module}.{name}" for module, name, stmt in defined
                  if name not in known
                  and not any(name in names for other, names in refs if other is not stmt))


def test_detector_flags_an_unreferenced_definition():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    return g()\n\n"
                    "def h():\n    pass\n\nclass C:\n    pass\n",
               "b": "import a\n\nX = a.C\n\ndef main():\n    pass\n"}
    assert unreferenced(sources, {"main"}) == ["a.f", "a.h"]


def _bench_names() -> set:
    """Every name, attribute and string constant in the bench scripts."""
    out = set()
    for path in BENCH.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.add(n.value)
            elif isinstance(n, ast.ImportFrom):
                out |= {a.name for a in n.names}
    return out


def test_every_definition_is_reached():
    # reached: referred to from another top-level statement in src/, exported
    # by the package, or named by the bench scripts; the exemptions are
    # exactly the definitions that are not, so a stale one fails too
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.name for n in ast.walk(init) if isinstance(n, ast.ImportFrom)
                for a in n.names}
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced(sources, exported | _bench_names()) == sorted(_UNREACHED)


def test_the_exact_evaluator_helpers_are_reached():
    # evaluate_exact's compiler and run are reached only through one another
    # and evaluate_exact: the guard must see those references
    source = (SRC / "expr.py").read_text(encoding="utf-8")
    helpers = ["expr._instruction", "expr._term", "expr._value"]
    assert set(unreferenced({"expr": source}, set())).isdisjoint(helpers)
    assert unreferenced({"expr": "def _value(x):\n    return x\n"}, set()) == ["expr._value"]


def _bench_assignment(name: str):
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == name for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"bench/tracing.py assigns no {name}")


def test_traced_names_exist():
    # the traced bench run wraps these module attributes by name
    pairs = [(module, attr) for module, attr, _ in _bench_assignment("_TARGETS")]
    pairs += [(f"qsusy.{layer}", f) for layer, funcs in _bench_assignment("_BUILDERS").items()
              for f in funcs]
    missing = [f"{m}.{a}" for m, a in pairs if not hasattr(importlib.import_module(m), a)]
    assert pairs
    assert missing == []


# scipy's LAPACK wrappers are loaded alone; scipy.linalg's __init__ would bring
# in these, and a lazily imported module would load inside a timed check
_UNUSED_MODULES = ("scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma")

_IMPORT_PROBE = f"""
import json, sys
import qsusy.cli
from qsusy import numerics, parse
loaded = sorted(m for m in {_UNUSED_MODULES!r} if m in sys.modules)
before = set(sys.modules)
qsusy.cli.run_suite(qsusy.cli.SuiteConfig(seed=7))
numerics.fd_spectrum(parse("q^2/2", "q"), numerics.Grid(-12.0, 12.0, 400), 2)
print(json.dumps([loaded, sorted(set(sys.modules) - before)]))
"""


def test_the_command_line_loads_only_what_it_uses():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    loaded, added = json.loads(out.stdout.splitlines()[-1])
    assert loaded == []
    assert added == []
