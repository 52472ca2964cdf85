"""The benchmark's span tracer still finds every name it wraps.

``perfbench/spans.py`` wraps frgelab functions by name; a renamed or deleted
target breaks only traced benchmark runs, so this checks the install here.
The module is compiled from its source, which writes no bytecode cache.
"""

import types
from pathlib import Path

import frgelab
from frgelab import cli, convex, flow, functionals, measure, model, regulator  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_installs_on_the_package():
    tracer = _load_spans().Tracer(frgelab)
    try:
        tracer.install()
        # the by-name imports the benchmark's self-test relies on
        for owner, attr in ((functionals, "build_measure"), (convex, "build_measure"),
                            (flow, "covariance"), (measure, "covariance")):
            assert hasattr(getattr(owner, attr), "__wrapped_original__"), (owner, attr)
    finally:
        tracer.uninstall()
