"""Import boundaries between the two computation routes, read with ``ast``.

The lambda-ring route (``anomcancel.kvirt``) must not import the theta route
(``theta``, ``modforms``) or the verifier built on both (``anomaly``), and the
tensor-string oracle in ``tests/helpers.py`` must not import the lambda-ring
route it checks.  Only direct imports are read: ``algebra``, ``genus`` (root
families, additive sums over roots) and ``qseries`` (the lattice units) are
shared ground, and the two routes share one exp, ``algebra.exp_by_grade``.
No oracle in ``tests/helpers.py`` may reach the fast packed kernel
(``mul_sum``, its ``field_width`` and ``_kronecker``) it checks, and no library module but
``algebra`` names the monomial packing, builds a polynomial from raw int
numerators or reads a polynomial's packed ``nums``: the others go through
``QColumns.of`` and ``QColumns.coefficient``, and through the public
constructor and the ring operations.  The string oracle reads nothing of the
library but ``algebra``: its series is the oracles' own ``TermSeries``.

Three guards run code instead of reading it.  ``import anomcancel`` loads
no process-pool machinery, which would cost every ``verify`` more time than
its computation, and no ``dataclasses``, whose ``inspect`` and class
processing cost more than the rest of the package does.  And the string
oracle and the naive exp run with both integer kernels, ``dot`` and
``mul_sum``, switched off wherever they are looked up.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from anomcancel import algebra
from anomcancel.genus import FAMILY_TM, LINE, RootFamily, build_generator_table
from anomcancel.kvirt import complexified_bundle
from anomcancel.theta import RootFactor

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "anomcancel"
SOURCES = ROOT / "src" / PACKAGE
KVIRT = SOURCES / "kvirt.py"
HELPERS = ROOT / "tests" / "helpers.py"

FAST_KERNEL = ("mul_sum", "field_width", "_kronecker")
PACKING = {"packing", "Packing", "_from_ints"}
STRING_ORACLE = ("TermSeries", "_weighed", "_add_products", "weighted_poly_mul", "naive_combination",
                 "naive_rescale", "_psi", "_reduce", "_bundle_exp_by_powers", "_string_factor",
                 "string_product_oracle", "theta_strings")


def names_in(tree: ast.Module) -> set[str]:
    """Every imported name, attribute read (``algebra.mul_sum``) and bare name in ``tree``."""
    names = {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return names | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def import_sources(tree: ast.Module) -> dict[str, str]:
    """``{bound name: absolute module}`` for every import in ``tree``, relative ones in the package."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = a.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, "imports reach above the package"
            base = ".".join(filter(None, [PACKAGE if node.level else "", node.module]))
            for a in node.names:
                # ``from . import theta`` binds a module; ``from .theta import x`` a name in it
                out[a.asname or a.name] = f"{base}.{a.name}" if node.module is None else base
    return out


def test_import_sources_resolves_relative_and_absolute_forms():
    tree = ast.parse("from . import theta\nfrom .modforms import decompose as d\n"
                     "from anomcancel.kvirt import adams\nimport fractions")
    assert import_sources(tree) == {"theta": "anomcancel.theta", "d": "anomcancel.modforms",
                                    "adams": "anomcancel.kvirt", "fractions": "fractions"}


@pytest.mark.parametrize("forbidden", ["theta", "modforms", "anomaly"])
def test_kvirt_imports_nothing_from_the_theta_route(forbidden):
    sources = import_sources(ast.parse(KVIRT.read_text())).values()
    assert sources, "kvirt imports nothing at all: the parse found no imports"
    assert not [m for m in sources if m == f"{PACKAGE}.{forbidden}"
                or m.startswith(f"{PACKAGE}.{forbidden}.")]


def test_kvirt_imports_only_shared_ground():
    sources = import_sources(ast.parse(KVIRT.read_text())).values()
    package = {m for m in sources if m.startswith(f"{PACKAGE}.")}
    assert package <= {f"{PACKAGE}.{m}" for m in ("algebra", "genus", "qseries")}, package


@pytest.mark.parametrize("kernel", FAST_KERNEL)
def test_helpers_never_name_the_fast_kernel(kernel):
    """Neither an import nor an attribute read (``algebra.mul_sum``) brings the kernel into the oracles."""
    assert kernel not in names_in(ast.parse(HELPERS.read_text()))


def test_only_algebra_names_the_packing():
    """Polynomials enter the packed form by ``QColumns.of`` and leave it by ``QColumns.coefficient``;
    only ``algebra`` builds one from raw ints."""
    modules = sorted(SOURCES.glob("*.py"))
    assert len(modules) > 1 and SOURCES / "algebra.py" in modules
    named = {p.name: sorted(names_in(ast.parse(p.read_text())) & PACKING)
             for p in modules if p.name != "algebra.py"}
    assert not {m: n for m, n in named.items() if n}


def test_only_algebra_reads_the_stored_numerators():
    """``GradedPolynomial.nums`` is keyed by packed monomial, a format kept inside ``algebra``: the
    others read ``.terms``, ``int_form`` and the packed series.  Local variables named ``nums`` are
    no attribute read, so they pass."""
    modules = sorted(SOURCES.glob("*.py"))
    assert len(modules) > 1 and SOURCES / "algebra.py" in modules
    readers = [p.name for p in modules if p.name != "algebra.py" and any(
        isinstance(n, ast.Attribute) and n.attr == "nums" for n in ast.walk(ast.parse(p.read_text())))]
    assert not readers


@pytest.mark.parametrize("module", ["anomaly", "kvirt"])
def test_the_verdict_path_never_applies_the_relation_to_an_output(module):
    """The setting's relation enters once, on the root families' elementary classes."""
    assert "apply_constraint" not in names_in(ast.parse((SOURCES / f"{module}.py").read_text()))


def test_one_exp_serves_both_routes():
    """The lambda-ring strings run the theta route's exp on packed pieces, with no series type or exp of their own."""
    kvirt, genus = (names_in(ast.parse((SOURCES / f"{m}.py").read_text())) for m in ("kvirt", "genus"))
    assert not kvirt & {"PuiseuxSeries", "_exp"}
    assert "exp_by_grade" in kvirt and "exp_by_grade" in genus


def test_helpers_import_nothing_from_kvirt():
    sources = import_sources(ast.parse(HELPERS.read_text())).values()
    assert not [m for m in sources if m.startswith(f"{PACKAGE}.kvirt")]


def test_string_oracle_reads_only_algebra_and_series_from_the_library():
    tree = ast.parse(HELPERS.read_text())
    sources = import_sources(tree)
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert set(STRING_ORACLE) <= set(defs)
    used = {sources[n.id] for name in STRING_ORACLE for n in ast.walk(defs[name])
            if isinstance(n, ast.Name) and n.id in sources}
    assert used <= {"fractions", "operator", f"{PACKAGE}.algebra"}, used


def test_oracles_run_with_the_integer_kernels_switched_off(monkeypatch):
    """The string oracle and the naive exp multiply their own term maps: with ``dot`` and
    ``mul_sum`` raising under every name the package and the helpers bind them to, both still run."""
    table = build_generator_table(2, 1, True, 4)
    tangent = complexified_bundle(RootFamily(FAMILY_TM, 2), table)
    line = complexified_bundle(LINE, table)
    log = RootFactor({(2, 0): Fraction(1, 6), (2, 8): Fraction(-2), (4, 0): Fraction(1, 180)}, 4, 8)

    def switched_off(*args, **kwargs):
        raise AssertionError("an oracle ran a library kernel")

    kernels = (algebra.dot, algebra.mul_sum)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE] + [helpers]
    bound = [(m, attr) for m in modules for attr, value in vars(m).items() if any(value is k for k in kernels)]
    assert (algebra, "dot") in bound and (algebra, "mul_sum") in bound
    for module, attr in bound:
        monkeypatch.setattr(module, attr, switched_off)
    with pytest.raises(AssertionError, match="library kernel"):
        tangent * line
    for kind in ("theta2", "theta_c"):
        assert helpers.string_product_oracle(helpers.theta_strings(kind, tangent, line), 1).terms
    assert helpers.naive_exp_over_roots(log.terms, 2, "nM", table, 4, 8).terms


@pytest.fixture(scope="module")
def cold_import_modules() -> set[str]:
    """The top-level names of every module a fresh ``import anomcancel, anomcancel.cli`` loads."""
    code = "import json, sys, anomcancel, anomcancel.cli; print(json.dumps([anomcancel.__file__, *sys.modules]))"
    env = dict(os.environ, PYTHONPATH=str(SOURCES.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    origin, *loaded = json.loads(done.stdout)
    assert Path(origin).parent == SOURCES and "anomcancel.suite" in loaded
    return {m.split(".")[0] for m in loaded}


def test_import_loads_no_process_pool(cold_import_modules):
    """A fresh interpreter imports the package and its CLI without ``concurrent`` or ``multiprocessing``."""
    assert not cold_import_modules & {"concurrent", "multiprocessing"}


def test_import_loads_no_dataclasses(cold_import_modules):
    """The records are plain classes: the import loads neither ``dataclasses`` nor the ``inspect`` it pulls in."""
    assert not cold_import_modules & {"dataclasses", "inspect"}
