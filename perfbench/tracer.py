"""Per-layer tracing of the stringnet library, installed from outside `src/`.

Each stringnet module is one layer.  `install` wraps every function a module
defines, and every method of the classes it defines, in a timing shim, and
rebinds every reference to the original in every stringnet module, so calls
made through `from .category import compose` are seen as well.  A layer's
self time is the time its spans cover minus the time of the spans they open.

A few functions carry a hook that records a machine-independent count (cells
of each morphism built, layers of each diagram evaluated, distinct `jmath`
arguments, ...) or the inclusive time of one phase (argument parsing, JSON
rendering, modular-data loading, the Frobenius axiom proofs).

Run as a script, it executes one CLI invocation under tracing:

    PYTHONPATH=src python3 perfbench/tracer.py <stringnet cli arguments>

The CLI's stdout passes through unchanged; the trace totals go to stderr as
one line that starts with TRACE_MARKER.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

TRACE_MARKER = "PERFBENCH_TRACE "

# Keys whose outermost inclusive time is recorded, besides the layer self times.
INCLUSIVE_KEYS = (
    "frobenius.FrobeniusAlgebraData.__post_init__",
    "modular.load_modular_data",
    "cli._build_parser",
    "cli._Parser.parse_args",
    "cli._emit",
    "cli._render",
)

# Zero tests and the dim accessor stay unwrapped: the dense loops call them
# tens of millions of times, each call costs less than a shim, and their time
# belongs to the caller whose loop makes them.
UNWRAPPED_KEYS = frozenset(
    {
        "cyclotomic.CycNum.__bool__",
        "cyclotomic.CycNum.is_zero",
        "category.GradedObject.dim",
    }
)


class Tracer:
    """Call counts, per-layer self time and hook counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[float] = []  # child time under each open span
        self.layer_self: dict[str, list[float]] = {}
        self.calls: dict[str, list[int]] = {}
        self.inclusive: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.jmath_args: set = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, layer: str, key: str, fn, pre=None, post=None):
        """A shim around fn that records a span of `layer` on every call."""
        clock, stack = self.clock, self.stack
        lay = self.layer_self.setdefault(layer, [0.0])
        calls = self.calls.setdefault(key, [0])
        incl = self.inclusive.setdefault(key, [0.0]) if key in INCLUSIVE_KEYS else None
        open_depth = [0]

        if pre is None and post is None and incl is None:

            def shim(*args, **kwargs):
                calls[0] += 1
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    lay[0] += dur - stack.pop()
                    if stack:
                        stack[-1] += dur

        else:

            def shim(*args, **kwargs):
                calls[0] += 1
                if pre is not None:
                    pre(self, args, kwargs)
                open_depth[0] += 1
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    lay[0] += dur - stack.pop()
                    if stack:
                        stack[-1] += dur
                    open_depth[0] -= 1
                    if incl is not None and open_depth[0] == 0:
                        incl[0] += dur
                if post is not None:
                    post(self, args, result)
                return result

        functools.update_wrapper(shim, fn)
        return shim

    def totals(self) -> dict:
        return {
            "self_s": {k: v[0] for k, v in self.layer_self.items()},
            "calls": {k: v[0] for k, v in self.calls.items() if v[0]},
            "inclusive_s": {k: v[0] for k, v in self.inclusive.items()},
            "counters": dict(self.counters),
        }


def _count_cells(tracer: Tracer, nonzero, args, result) -> None:
    m = args[0]
    cells = len(m.target.grades) * len(m.source.grades)
    tracer.count("cells_built", cells)
    tracer.count("cells_nonzero", sum(1 for row in m.matrix for a in row if nonzero(a)))
    tracer.counters["largest_cells"] = max(tracer.counters.get("largest_cells", 0), cells)


def _count_layers(tracer: Tracer, args, kwargs) -> None:
    tracer.count("layers_evaluated", len(args[0].layers))


def _record_jmath(tracer: Tracer, args, kwargs) -> None:
    tracer.jmath_args.add(tuple((x.r, x.grades) for x in args))
    tracer.counters["jmath_distinct"] = len(tracer.jmath_args)


def _count_rank_cells(tracer: Tracer, degree, args, kwargs) -> None:
    rows = args[0]
    if rows and rows[0]:
        d = degree(rows[0][0].order)
        tracer.count("rank_cells", len(rows) * d * len(rows[0]) * d)


def _count_enumerated(tracer: Tracer, args, kwargs) -> None:
    complex_, r = args[0], args[1]
    tracer.count("assignments_checked", r ** len(complex_.edges))


def _count_checked(tracer: Tracer, args, kwargs) -> None:
    tracer.count("assignments_checked")


def _wrap_class(tracer: Tracer, layer: str, cls, hooks: dict) -> None:
    for attr, val in list(vars(cls).items()):
        key = f"{layer}.{cls.__name__}.{attr}"
        if key in UNWRAPPED_KEYS:
            continue
        pre, post = hooks.get(key, (None, None))
        if inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(layer, key, val, pre, post))
        elif isinstance(val, (classmethod, staticmethod)):
            setattr(cls, attr, type(val)(tracer.wrap(layer, key, val.__func__)))
        elif isinstance(val, property) and val.fget is not None:
            setattr(
                cls,
                attr,
                property(tracer.wrap(layer, key, val.fget), val.fset, val.fdel, val.__doc__),
            )


def install(tracer: Tracer):
    """Wrap every stringnet module in place; returns the wrapped cli module."""
    import stringnet
    from stringnet.cyclotomic import CycNum, degree

    modules = [
        importlib.import_module(f"stringnet.{info.name}")
        for info in pkgutil.iter_modules(stringnet.__path__)
    ]
    nonzero = CycNum.__bool__  # unwrapped, so counting cells adds no calls
    hooks = {
        "category.GradedMorphism.__init__": (
            None,
            lambda t, a, r: _count_cells(t, nonzero, a, r),
        ),
        "diagrams.evaluate": (_count_layers, None),
        "coends.jmath": (_record_jmath, None),
        "linalg.rank_cyc": (lambda t, a, k: _count_rank_cells(t, degree, a, k), None),
        "rspin.enumerate_admissible": (_count_enumerated, None),
        "rspin.is_admissible": (_count_checked, None),
    }
    wrapped: dict = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj, hooks)
            elif callable(obj):  # plain functions and lru_cache wrappers
                key = f"{layer}.{name}"
                pre, post = hooks.get(key, (None, None))
                wrapped[id(obj)] = tracer.wrap(layer, key, obj, pre, post)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            shim = wrapped.get(id(obj))
            if shim is not None:
                setattr(mod, name, shim)
    cli = importlib.import_module("stringnet.cli")
    # parse_args is inherited from argparse, so _wrap_class does not see it.
    cli._Parser.parse_args = tracer.wrap(
        "cli", "cli._Parser.parse_args", argparse.ArgumentParser.parse_args
    )
    return cli


def main(argv: list[str]) -> int:
    tracer = Tracer()
    cli = install(tracer)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.totals(), sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
