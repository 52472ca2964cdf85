"""Static check: frgelab imports only scipy's public modules.

scipy keeps its internals in modules whose path has a component starting
with an underscore (``scipy.integrate._ivp``, ``scipy.sparse._csr``); they
change between releases without notice.  Every source file is parsed, not
imported, so an import inside a function is seen as well.
"""

import ast
from pathlib import Path

import pytest

import frgelab

SOURCES = sorted(Path(frgelab.__file__).parent.glob("*.py"))


def private_scipy_imports(source: str) -> list[str]:
    """The dotted names of scipy that ``source`` imports through a private
    module path component."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            head, *rest = name.split(".")
            if head == "scipy" and any(part.startswith("_") for part in rest):
                found.append(name)
    return found


def test_sources_found():
    assert {"flow.py", "functionals.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_scipy_module(path):
    assert private_scipy_imports(path.read_text()) == []


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
