"""The names the benchmark finds in the package still exist.

perfbench's tracer wraps each public function of a layer module and reports
per-layer metrics named `<layer>.<function>.<stat>`; a metric whose function
is gone, renamed or memo-wrapped makes its `--trace 1` run raise KeyError.
perfbench/workloads.py calls layer functions as attributes of the modules
and imports names from donorsim.params; a name gone from either fails the
benchmark run.  These tests read BENCHMARK.json and perfbench/workloads.py
and check both contracts without running the benchmark.
"""

import ast
import importlib
import inspect
import json
import pathlib

import pytest

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOADS = BENCHMARK.parent / "perfbench" / "workloads.py"

# the per-function statistics the tracer reports
_STATS = ("calls", "self_s", "steps", "ns_per_step")
# the tracer's metric prefix of a layer module, where the two differ
_MODULE = {"kernels": "_kernels"}
# a metric the tracer sums over other functions
_SUMS = {("propagator", "schedule_io"): ("schedule_to_text", "schedule_from_text")}
# the argument each annotated span reads its count from
_ANNOTATED = {
    ("propagator", "execute_schedule"): "schedule",
    ("analysis", "frozen_nucleus_check"): "schedule",
    ("kernels", "su2_lab_product"): "n",
    ("kernels", "donor4_strang_product"): "n",
}


def _traced_functions() -> set[tuple[str, str]]:
    """(layer, function) of every per-function per_layer metric."""
    out = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in _STATS:
            layer, name = parts[:2]
            out.update((layer, fn) for fn in _SUMS.get((layer, name), (name,)))
    return out


TRACED = sorted(_traced_functions())


def test_benchmark_names_traced_functions():
    assert ("spin_model", "frame_rotation") in TRACED
    assert set(_ANNOTATED) <= set(TRACED)
    assert ("propagator", "schedule_to_text") in TRACED


@pytest.mark.parametrize("layer,name", TRACED)
def test_traced_function_is_a_plain_public_function(layer, name):
    module = importlib.import_module(f"donorsim.{_MODULE.get(layer, layer)}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(fn), f"{module.__name__}.{name} is not a plain function"
    assert fn.__module__ == module.__name__
    arg = _ANNOTATED.get((layer, name))
    if arg is not None:
        assert arg in inspect.signature(fn).parameters


# the modules perfbench/workloads.py imports from donorsim and reaches into by attribute
_WORKLOAD_LAYERS = ("gates", "propagator", "analysis", "spin_model", "cli")


def _workload_names() -> list[tuple[str, str]]:
    """(module, name) of every layer attribute and donorsim.params import of
    perfbench/workloads.py."""
    out = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in _WORKLOAD_LAYERS):
            out.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "donorsim.params":
            out.update(("params", alias.name) for alias in node.names)
    return sorted(out)


WORKLOAD_NAMES = _workload_names()


def test_workload_names_are_found():
    assert {module for module, _ in WORKLOAD_NAMES} == {*_WORKLOAD_LAYERS, "params"}


@pytest.mark.parametrize("module,name", WORKLOAD_NAMES)
def test_workload_name_exists(module, name):
    assert hasattr(importlib.import_module(f"donorsim.{module}"), name), \
        f"perfbench/workloads.py uses donorsim.{module}.{name}, which does not exist"
