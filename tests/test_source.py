"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heigen"


def test_no_assert_statements():
    """Invariant checks must survive ``python -O``, which strips asserts,
    so the package raises explicit errors instead."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Calls that reach BLAS: matrix products and the numpy.linalg routines.
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}


def _blas_uses(tree):
    """(enclosing function, source) of each matrix product, BLAS-named
    call or numpy.linalg call in a module, except ``np.linalg.norm`` with an
    ``axis=`` keyword (without one, ``norm`` calls BLAS ``dot``)."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                found.append((fn.name, ast.unparse(node)))
            elif isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name.rpartition(".")[2] in BLAS_NAMES:
                    found.append((fn.name, ast.unparse(node)))
                elif "linalg." in name and not (
                    name.endswith("linalg.norm") and any(kw.arg == "axis" for kw in node.keywords)
                ):
                    found.append((fn.name, ast.unparse(node)))
    return found


def test_package_makes_no_blas_call():
    """No module calls BLAS, so no result depends on the BLAS build or its
    thread count: the solvers, the oracle's sign scoring and the checks
    built on them alike."""
    found = [
        (path.name, *use)
        for path in sorted(PACKAGE.rglob("*.py"))
        for use in _blas_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_blas_guard_catches_each_form():
    source = """
def f(a, b):
    a @ b
    np.dot(a, b)
    a.dot(b)
    np.einsum("i,i", a, b)
    np.linalg.solve(a, b)
    np.linalg.norm(a)
    np.linalg.norm(a, axis=1)
"""
    assert [s for _, s in _blas_uses(ast.parse(source))] == [
        "a @ b", "np.dot(a, b)", "a.dot(b)", "np.einsum('i,i', a, b)",
        "np.linalg.solve(a, b)", "np.linalg.norm(a)",
    ]


def _callers(tree, name):
    """Enclosing function of each call to ``name`` in a module."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == name
    ]


def test_only_descent_runs_the_snapped_polish():
    """The power path's Perron vector is strictly positive, so snapping its
    small entries to zero could only pull it toward another eigenpair; it
    finishes with ``_polish_once`` and ``_finished`` instead.  Descent
    polishes at one site, the block where a group is checked or leaves."""
    tree = ast.parse((PACKAGE / "spectral.py").read_text(encoding="utf-8"))
    assert _callers(tree, "_polish") == ["_descend_batch"]


def test_caller_guard_catches_each_form():
    source = """
def f(kernel, x):
    _polish(kernel, x)

def g(kernel, x):
    return spectral._polish(kernel, x), _polish_once(kernel, x)

def h(kernel, x):
    def inner():
        return _polish(kernel, x)
    return inner
"""
    assert _callers(ast.parse(source), "_polish") == ["f", "g", "h", "inner"]


def _package_imports(tree):
    """The heigen modules a module imports, relative or absolute, as
    written: ``.hypergraph``, ``heigen.canon``; ``from . import x`` gives
    ``.x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.level or base.split(".")[0] == "heigen":
                found.update([base] if node.module else [base + a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "heigen")
    return found


def test_spectral_imports_only_the_graph_type():
    """The solver module holds solvers only; the relocation bookkeeping that
    needs ``constructions`` lives in ``analysis``."""
    tree = ast.parse((PACKAGE / "spectral.py").read_text(encoding="utf-8"))
    assert _package_imports(tree) == {".hypergraph"}


def test_import_guard_catches_each_form():
    source = """
import numpy as np
from dataclasses import dataclass
from .hypergraph import Hypergraph
from .constructions import Relocation
from . import canon
import heigen.analysis
from heigen.cli import main

def f():
    from .canon import canonical_form
"""
    assert _package_imports(ast.parse(source)) == {
        ".hypergraph", ".constructions", ".canon", "heigen.analysis", "heigen.cli",
    }


def _self_assignments(tree, cls):
    """(method, target) of each assignment to an attribute of ``self`` in
    the methods of class ``cls`` other than ``__init__``: an attribute
    stored to, whether by a plain, tuple or augmented assignment."""
    return [
        (fn.name, ast.unparse(node))
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and c.name == cls
        for fn in c.body
        if isinstance(fn, ast.FunctionDef) and fn.name != "__init__"
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and ast.unparse(node.value) == "self"
    ]


def test_kernel_keeps_no_state_between_calls():
    """A ``_Kernel`` holds its graphs and buffers only: the caller owns each
    batch's index, so no call depends on the one before it."""
    tree = ast.parse((PACKAGE / "spectral.py").read_text(encoding="utf-8"))
    assert _self_assignments(tree, "_Kernel") == []


def test_state_guard_catches_each_form():
    source = """
class _Kernel:
    def __init__(self, g):
        self.g = g

    def plain(self, x):
        self.x = x
        other.y = x
        self.buffer[0] = x

    def tuple(self, x):
        self.a, (self.b, y) = x, (x, x)

    def augmented(self, x):
        self.count += 1

class Other:
    def f(self, x):
        self.x = x
"""
    assert _self_assignments(ast.parse(source), "_Kernel") == [
        ("plain", "self.x"), ("tuple", "self.a"), ("tuple", "self.b"), ("augmented", "self.count"),
    ]


def _import_time_calls(tree):
    """(line, callee) of each call expression evaluated when a module is
    imported: in module and class statements, decorators and default
    arguments, but not in the bodies of functions or lambdas, which run only
    when called."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            evaluated = getattr(node, "decorator_list", []) + node.args.defaults + node.args.kw_defaults
            for child in evaluated:
                if child is not None:
                    visit(child)
            return
        if isinstance(node, ast.Call):
            found.append((node.lineno, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


# The calls each import makes today; set-up time is a benchmark metric.
IMPORT_TIME_CALLS = {"dataclass", "SolverConfig", "np.finfo", "dir", "name.startswith"}


def test_imports_run_only_the_known_calls():
    """Importing heigen evaluates only a known handful of calls, so no
    computation creeps into import time."""
    found = [
        (path.name, line, callee)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, callee in _import_time_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if callee not in IMPORT_TIME_CALLS
    ]
    assert found == []


def test_import_time_guard_catches_each_form():
    source = """
TABLE = build()

@register("x")
def f(a, b=default(), *, c=keyword()):
    body()
    return lambda: inner()

class C(Base.make()):
    field = value()

    @staticmethod
    def g():
        nested()

pick = lambda x=choose(): later()
squares = [square(v) for v in values()]
"""
    assert [callee for _, callee in _import_time_calls(ast.parse(source))] == [
        "build", "register", "default", "keyword", "Base.make", "value", "choose", "square", "values",
    ]
