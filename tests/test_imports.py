"""Static checks: only ``flow`` imports scipy, and only its public modules,
``scipy.integrate`` only inside the vertex flow's solver; no frgelab module
imports another's private names or reads a private attribute of an object
other than its own; no frgelab module holds an ``assert`` statement.

scipy costs about half a second of start-up, so every command but ``flow``
runs on numpy alone, and a grid flow without ``scipy.integrate``.  scipy
keeps its internals in modules whose path has a component starting with an
underscore (``scipy.integrate._ivp``, ``scipy.sparse._csr``); they change
between releases without notice.  What
one frgelab module shares with another is public, so a private helper can
change with its own module.  ``python -O`` strips asserts, so a check the
program relies on raises a typed error instead.  Every source file is
parsed, not imported, so an import inside a function is seen as well.
"""

import ast
from pathlib import Path

import pytest

import frgelab

SOURCES = sorted(Path(frgelab.__file__).parent.glob("*.py"))


def scipy_imports(source: str) -> list[str]:
    """The dotted names of scipy that ``source`` imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "scipy"]
    return found


def private_scipy_imports(source: str) -> list[str]:
    """The dotted names of scipy that ``source`` imports through a private
    module path component."""
    return [name for name in scipy_imports(source)
            if any(part.startswith("_") for part in name.split(".")[1:])]


def private_frgelab_imports(source: str) -> list[str]:
    """The underscore names, dunders aside, that ``source`` imports from a
    frgelab module, relatively or by the package's name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "frgelab"):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def foreign_private_attributes(source: str) -> list[str]:
    """The underscore attributes, dunders aside, that ``source`` reads or
    writes on anything but ``self`` or ``cls``, as ``owner.name`` (the owner
    a name or the kind of its expression)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            continue
        owner = node.value.id if isinstance(node.value, ast.Name) else type(node.value).__name__
        if owner not in ("self", "cls"):
            found.append(f"{owner}.{node.attr}")
    return found


def assert_statements(source: str) -> list[int]:
    """The lines of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_sources_found():
    assert {"flow.py", "functionals.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_scipy_module(path):
    assert private_scipy_imports(path.read_text()) == []


def test_only_flow_imports_scipy():
    assert [p.name for p in SOURCES if scipy_imports(p.read_text())] == ["flow.py"]


def test_flow_takes_only_the_band_lu_from_lapack():
    # the vertex flow's Cholesky and inverse stay with np.linalg: scipy's
    # dpotrf/dpotri ran a second OpenBLAS thread and lifted the benchmark's
    # vertex_multimode cpu_norm_s from 0.075-0.081 s to 0.108-0.113 s while
    # its wall time fell
    flow_source = next(p for p in SOURCES if p.name == "flow.py").read_text()
    lapack = [name for name in scipy_imports(flow_source)
              if name.startswith("scipy.linalg.lapack")]
    assert sorted(lapack) == ["scipy.linalg.lapack.dgbtrf", "scipy.linalg.lapack.dgbtrs"]


def scipy_import_sites(source: str, package: str) -> list[str]:
    """The dotted names of the classes and functions, innermost last
    (``"<module>"`` at the top level), around each import of ``package`` or
    of a module below it in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name == package or name.startswith(package + ".") for name in names):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_the_vertex_flow_imports_scipy_integrate():
    # a grid flow steps on frgelab's own solver protocol: scipy.integrate,
    # about a quarter second of start-up, is for the vertex flow's RK45 alone
    flow_source = next(p for p in SOURCES if p.name == "flow.py").read_text()
    assert scipy_import_sites(flow_source, "scipy.integrate") == ["_VertexFlow.solver"]


def test_the_site_check_sees_every_scope():
    source = """
import scipy.integrate
from scipy.integrate import RK45
from scipy.integrate2 import nothing
class A:
    def f(self):
        if True:
            from scipy.integrate._ivp import base
def g():
    def h():
        import scipy.integrate as si
"""
    assert scipy_import_sites(source, "scipy.integrate") == [
        "<module>", "<module>", "A.f", "g.h"]


def test_the_check_sees_nested_imports():
    source = """
import numpy as np
from . import flow
def late():
    if True:
        import scipy as sp
    from scipy.special import logsumexp
"""
    assert sorted(scipy_imports(source)) == ["scipy", "scipy.special.logsumexp"]


def test_the_check_sees_private_paths():
    source = """
import scipy.sparse._csr
from scipy.integrate._ivp.bdf import BDF
from scipy.integrate import _ivp, OdeSolver
from scipy.linalg.lapack import dgbtrf
def late():
    from scipy.sparse import _sparsetools
"""
    assert private_scipy_imports(source) == [
        "scipy.sparse._csr", "scipy.integrate._ivp.bdf.BDF", "scipy.integrate._ivp",
        "scipy.sparse._sparsetools",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_frgelab_import(path):
    assert private_frgelab_imports(path.read_text()) == []


def test_the_check_sees_private_frgelab_names():
    source = """
from . import __version__, convex
from .model import unfold, _position
from frgelab.functionals import _lanes
from numpy import _core
def late():
    from ..frgelab.flow import _GridFlow
"""
    assert private_frgelab_imports(source) == ["_position", "_lanes", "_GridFlow"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_foreign_private_attribute(path):
    assert foreign_private_attributes(path.read_text()) == []


def test_the_check_sees_foreign_private_attributes():
    source = """
class A:
    def f(self, other):
        self._own = other._theirs
        cls = type(self)
        return cls._table, other.spec._position_map, super().__init__()
def g(ctx, solver):
    ctx._scales = solver.__dict__
    return (ctx or solver)._cache
"""
    assert sorted(foreign_private_attributes(source)) == [
        "Attribute._position_map", "BoolOp._cache", "ctx._scales", "other._theirs"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_statements(path.read_text()) == []


def test_the_check_sees_assert_statements():
    source = """
def f(x):
    assert x > 0, "positive"
    if x:
        assert x
"""
    assert assert_statements(source) == [3, 5]
