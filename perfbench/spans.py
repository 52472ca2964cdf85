"""Spans around frgelab's public functions, installed from outside the package.

A wrapped name can be bound in several places: its defining module, every
module that imported it by name (``from .regulator import check_conditions``)
and, for methods, each class that defines it.  ``Tracer.install`` replaces
every such binding it finds in the loaded ``frgelab`` modules and then checks
that no binding of an original function is left, so no call escapes a span.

Each span records its name, start, end and parent.  A span's self time is
its duration minus the durations of its direct children; the calls are
nested and single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "bench.iteration"

# (module, attribute or Class.method, span name)
TARGETS = [
    ("functionals", "tilted_moments", "functionals.tilted_moments"),
    ("functionals", "log_normalization", "functionals.log_normalization"),
    ("functionals", "W", "functionals.W"),
    ("functionals", "mean_field", "functionals.mean_field"),
    ("functionals", "connected_cov", "functionals.connected_cov"),
    ("functionals", "invert_mean_field", "functionals.invert_mean_field"),
    ("functionals", "gamma", "functionals.gamma"),
    ("functionals", "gamma_bar", "functionals.gamma_bar"),
    ("functionals", "gamma_gradient", "functionals.gamma_gradient"),
    ("functionals", "gamma_hessian", "functionals.gamma_hessian"),
    ("functionals", "dk_log_normalization", "functionals.dk_log_normalization"),
    ("model", "ModelSpec.interaction_batch", "model.interaction_batch"),
    ("model", "ModelSpec.interaction", "model.interaction"),
    ("model", "covariance", "model.covariance"),
    ("model", "classical_asymptote", "model.classical_asymptote"),
    ("measure", "build_measure", "measure.build_measure"),
    ("regulator", "check_conditions", "regulator.check_conditions"),
    ("flow", "integrate", "flow.integrate"),
    ("flow", "rhs_grid", "flow.rhs_grid"),
    ("flow", "rhs_vertex", "flow.rhs_vertex"),
    ("flow", "exact_grid_values", "flow.exact_grid_values"),
    ("flow", "classical_grid_values", "flow.classical_grid_values"),
    ("flow", "initial_condition", "flow.initial_condition"),
    ("convex", "conjugate", "convex.conjugate"),
    ("convex", "uniform_distance", "convex.uniform_distance"),
    ("convex", "aw_distance", "convex.aw_distance"),
    ("convex", "convergence_suite", "convex.convergence_suite"),
    ("cli", "main", "cli.main"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "write_manifest", "cli.write_manifest"),
    ("cli", "atomic_write", "cli.atomic_write"),
]
# value/dk of every Regulator subclass share one span name each
REGULATOR_METHODS = ("value", "dk")


def _subcommand(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    words = [a for a in (argv or sys.argv[1:]) if not a.startswith("-")]
    return f"cli.main.{words[0] if words else 'none'}"


def _after_invert(counts, args, result):
    counts["functionals.newton_iters"] += result.iterations


def _after_integrate(counts, args, result):
    counts["flow.steps"] += result.stats["steps"]
    counts["flow.nfev"] += result.stats["nfev"]


def _after_interaction_batch(counts, args, result):
    counts["model.interaction_batch.rows"] += result.size


def _after_atomic_write(counts, args, result):
    counts["cli.bytes_written"] += len(args[1].encode())


AFTER = {
    "functionals.invert_mean_field": _after_invert,
    "flow.integrate": _after_integrate,
    "model.interaction_batch": _after_interaction_batch,
    "cli.atomic_write": _after_atomic_write,
}
NAME_OF = {"cli.main": _subcommand}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, package):
        self.package = package
        self._patches = []  # (owner, attribute, original)
        self.names = []
        self._name_ids = {}
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget the spans and totals of the previous iteration."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self.calls = Counter()
        self.pair_calls = Counter()  # (parent name, child name) -> calls
        self.raised = Counter()  # (name, exception class name) -> count
        self.counts = Counter()
        self._stack = []  # [span index, name, start, child time]

    def _open(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        self._stack.append([index, name, start, 0.0])

    def _close(self) -> float:
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[name] += duration - child
        self.wall_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            self.pair_calls[(parent[1], name)] += 1
        return duration

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span; return (result, span seconds)."""
        self._open(ROOT)
        try:
            result = fn(*args)
        finally:
            duration = self._close()
        return result, duration

    def wrap(self, name: str, fn):
        after = AFTER.get(name)
        name_of = NAME_OF.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer.counts, args, result)
            except BaseException as exc:
                tracer.raised[(tracer._stack[-1][1], type(exc).__name__)] += 1
                raise
            finally:
                tracer._close()
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package.__name__ or n.startswith(prefix))]

    def _regulator_classes(self):
        base = sys.modules[self.package.__name__ + ".regulator"].Regulator
        found, todo = [base], [base]
        while todo:
            for sub in todo.pop().__subclasses__():
                if sub not in found:
                    found.append(sub)
                    todo.append(sub)
        return found

    def _originals(self):
        """(owner, attribute, original function, span name) for every target."""
        out = []
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"{self.package.__name__}.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                out.append((owner, method, owner.__dict__[method], span))
            else:
                out.append((module, attr, getattr(module, attr), span))
        for cls in self._regulator_classes():
            for method in REGULATOR_METHODS:
                if method in cls.__dict__:
                    out.append((cls, method, cls.__dict__[method], f"regulator.{method}"))
        return out

    def install(self) -> None:
        """Wrap every binding of every target in the loaded package modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, original, span in self._originals():
            wrappers.setdefault(id(original), (original, self.wrap(span, original)))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)][1])
        # by-name imports: any other module attribute bound to an original
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        left = self.unwrapped_bindings({id(o): o for o, _ in wrappers.values()})
        if left:
            self.uninstall()
            raise RuntimeError(f"bindings left unwrapped: {left}")

    def unwrapped_bindings(self, originals: dict) -> list:
        """Names in package modules and classes still bound to an original."""
        left = []
        for module in self._modules():
            for attr, value in vars(module).items():
                owners = [(f"{module.__name__}.{attr}", value)]
                if isinstance(value, type) and value.__module__ == module.__name__:
                    owners += [(f"{module.__name__}.{attr}.{a}", v)
                               for a, v in vars(value).items()]
                left += [n for n, v in owners
                         if id(v) in originals and originals[id(v)] is v]
        return left

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> list:
        """[name, start, end, parent index] for every span of the iteration."""
        return [[self.names[n], s, e, p] for n, s, e, p in zip(
            self.span_name, self.span_start, self.span_end, self.span_parent)]

    def layer_metrics(self, oracle_nodes: int) -> dict:
        """Per-layer metrics of the recorded iteration (see catalog.PER_LAYER)."""
        out = {}
        for name, seconds in self.self_s.items():
            layer = "bench" if name == ROOT else name.split(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + seconds
            out[f"{name}.self_s"] = seconds
            out[f"{name}.wall_s"] = self.wall_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        kernels = self.calls["functionals.tilted_moments"]
        inversions = self.calls["functionals.invert_mean_field"]
        steps = self.counts["flow.steps"]
        out["functionals.inversions_per_node"] = (
            inversions / oracle_nodes if oracle_nodes else 0.0)
        out["functionals.kernel_calls_per_inversion"] = (
            self.pair_calls[("functionals.invert_mean_field",
                             "functionals.tilted_moments")] / inversions
            if inversions else 0.0)
        out["model.recentre_passes_per_kernel"] = (
            self.pair_calls[("functionals.tilted_moments",
                             "model.interaction_batch")] / kernels
            if kernels else 0.0)
        out["flow.nfev_per_step"] = self.counts["flow.nfev"] / steps if steps else 0.0
        out["flow.rhs_poisoned"] = sum(
            n for (name, exc), n in self.raised.items()
            if exc == "ConvexityLoss" and name in ("flow.rhs_grid", "flow.rhs_vertex"))
        return out
