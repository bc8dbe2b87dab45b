"""Span tracing of donorsim's layers from outside the package.

The tracer replaces each public function of a layer module by a wrapper at
every module attribute that holds it (the defining module, the modules that
imported it by name, and the package namespace), so calls are traced no
matter how callers look the function up.  Each wrapped call records a span
(name, start, end, parent span, op id); spans stay in memory until ``dump``.
``remove`` puts every original function back.

Spans are stamped with the process CPU clock, like every time the benchmark
reports.  Self time of a span is its duration minus the durations of its
child spans, i.e. the time spent in the function itself or in untraced
helpers it calls.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from collections import defaultdict

# Layer modules, in the package's own names.  `validate` is a client of these,
# not a layer, so its functions are not wrapped.
LAYERS = ("params", "spin_model", "propagator", "_kernels", "gates", "analysis", "cli")
# Metric prefix per layer: metric names must start with a letter or digit.
PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}
# Modules whose attributes may hold a layer function.
MODULES = ("donorsim",) + tuple(f"donorsim.{m}" for m in LAYERS + ("validate",))
KERNELS = ("su2_lab_product", "donor4_strang_product")

NAME, START, END, PARENT, OP, ATTR, ERROR = range(7)


def _layer_functions():
    """(layer, name, function) for each public function a layer module defines."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"donorsim.{layer}")
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                out.append((layer, attr, fn))
    return out


def _driven_pairs(schedule) -> int:
    """Kernel calls per refinement level of a lab-frame execute_schedule."""
    if schedule.frame != "lab":
        return 0
    driven = sum(1 for seg in schedule.segments if seg.duration > 0.0 and seg.rf_on)
    return driven * schedule.system.num_donors


def _timed_segments(schedule) -> int:
    """Kernel calls per refinement level of frozen_nucleus_check."""
    return sum(1 for seg in schedule.segments if seg.duration > 0.0)


# Calls whose span records a count derived from one argument.
ANNOTATE = {
    "kernels.su2_lab_product": ("n", int),
    "kernels.donor4_strang_product": ("n", int),
    "propagator.execute_schedule": ("schedule", _driven_pairs),
    "analysis.frozen_nucleus_check": ("schedule", _timed_segments),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.op_id = -1

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, attr, fn in _layer_functions():
            name = f"{PREFIX[layer]}.{attr}"
            annotate = None
            if name in ANNOTATE:
                arg, reduce = ANNOTATE[name]
                sig = inspect.signature(fn)
                annotate = (lambda a, k, sig=sig, arg=arg, reduce=reduce:
                            reduce(sig.bind(*a, **k).arguments[arg]))
            self.names.append(name)
            wrapper = self._wrap(name, fn, annotate)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def _wrap(self, name, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attr = annotate(args, kwargs) if annotate else None
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, attr, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    # -- results ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as CSV: index, name, start/end (CPU ns), parent, op id."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "op"])
            for idx, rec in enumerate(self.spans):
                out.writerow([idx, rec[NAME], rec[START], rec[END], rec[PARENT], rec[OP]])

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child_ns = [0] * len(spans)
        children = defaultdict(list)
        for idx, rec in enumerate(spans):
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
                children[rec[PARENT]].append(idx)
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        steps = defaultdict(int)
        infeasible = 0
        for idx, rec in enumerate(spans):
            name = rec[NAME]
            calls[name] += 1
            self_ns[name] += rec[END] - rec[START] - child_ns[idx]
            if name == "gates.synthesize" and rec[ERROR] == "InfeasibleDetuningError":
                infeasible += 1
            if name.split(".")[-1] in KERNELS:
                steps[name] += rec[ATTR]

        m: dict[str, float] = {}
        for name in sorted(calls):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_ns[name] / 1e9
        for layer in LAYERS:
            pre = PREFIX[layer] + "."
            m[f"{pre}self_s"] = sum(v for k, v in self_ns.items() if k.startswith(pre)) / 1e9
        for kernel in KERNELS:
            name = f"kernels.{kernel}"
            m[f"{name}.steps"] = steps[name]
            m[f"{name}.ns_per_step"] = self_ns[name] / steps[name] if steps[name] else 0.0
        m["gates.infeasible"] = infeasible
        m["propagator.schedule_io.self_s"] = (self_ns["propagator.schedule_to_text"]
                                              + self_ns["propagator.schedule_from_text"]) / 1e9
        for loop, kernel, key in (
            ("propagator.execute_schedule", "kernels.su2_lab_product", "propagator.lab"),
            ("analysis.frozen_nucleus_check", "kernels.donor4_strang_product",
             "analysis.frozen_nucleus_check"),
        ):
            refinements, useful, total = _refinement_stats(spans, children, loop, kernel)
            m[f"{key}.refinements"] = refinements
            m[f"{key}.useful_step_frac"] = useful / total if total else 0.0
        m["bench.spans"] = len(spans)
        return m


def _refinement_stats(spans, children, loop: str, kernel: str):
    """Step-halvings and accepted/total kernel steps of an adaptive loop.

    Each pass of the loop calls the kernel once per driven (segment, donor)
    pair, recorded as the loop span's attribute; the last pass is accepted.
    """
    refinements = useful = total = 0
    for idx, rec in enumerate(spans):
        per_level = rec[ATTR]
        if rec[NAME] != loop or not per_level:
            continue
        ns = [spans[c][ATTR] for c in children[idx] if spans[c][NAME] == kernel]
        if not ns:
            continue
        refinements += len(ns) // per_level - 1
        useful += sum(ns[-per_level:])
        total += sum(ns)
    return refinements, useful, total
