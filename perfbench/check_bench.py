"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/check_bench.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# A seed used nowhere while the benchmark was written or tuned.
UNSEEN_SEED = 982451653


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT, seconds: float = 1.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}


@pytest.mark.parametrize("workload", ["compile", "session"])
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(workload, 3, trace=1))
    second = _result(_run(workload, 3, trace=1))
    assert first["correct"] and second["correct"]
    counts = _counts(first["metrics"])
    assert any(counts.values())
    assert counts == _counts(second["metrics"])


def test_lab_verify_counts_repeat_exactly():
    def traced_counts():
        wl = workloads.LabVerifyWorkload(3)
        tracer = Tracer()
        tracer.install()
        try:
            outcomes = [wl.op(i).run() for i in (0, 1)]  # oracle H, random lab set
        finally:
            tracer.remove()
        assert not any(o.failures for o in outcomes)
        return {k: v for k, v in tracer.metrics().items()
                if k.endswith((".calls", ".steps", ".refinements"))}

    first = traced_counts()
    assert first["kernels.su2_lab_product.steps"] > 0
    assert first["kernels.donor4_strang_product.steps"] > 0
    assert first == traced_counts()


def test_tracing_leaves_compile_results_bitwise_identical():
    wl = workloads.CompileWorkload(4)
    ops = range(2 * 36)  # every catalog entry and every random kind at both sizes
    plain = [wl.op(i).run() for i in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [wl.op(i).run() for i in ops]
    finally:
        tracer.remove()
    assert tracer.spans
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert not any(o.failures for o in plain)


@pytest.mark.parametrize("workload", ["compile", "session", "lab_verify"])
def test_unseen_seed_passes_every_check(workload):
    result = _result(_run(workload, UNSEEN_SEED, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_donorsim_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("compile", 1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
