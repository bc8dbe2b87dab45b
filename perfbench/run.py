"""donorsim benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run from the root of a donorsim checkout; the package is imported from
./src.  The workload runs in this process on one thread (BLAS and OpenMP are
pinned to one thread before numpy loads) as a closed loop: each operation
starts when the previous one has finished.  With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run.  The metric names and units are
the ones listed in BENCHMARK.json.  Times are in reference seconds (see
reference.py and perfbench/README.md).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# setup_s is the median of this many cold starts: this process plus
# SETUP_SAMPLES - 1 fresh interpreters.
SETUP_SAMPLES = 5
MAX_LISTED_FAILURES = 50
# Op times are CPU time of this process (the workload is one CPU-bound
# thread), converted to reference seconds (see reference.py).  CPU time leaves
# out the time the hypervisor gives to other guests; the reference blocks,
# which take REF_SHARE of the op CPU time, correct for the rest.
CLOCK = time.process_time
REF_SHARE = 0.05
SETUP_REF_SAMPLES = 5
P99_MIN_OPS = 1000


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("compile", "session", "lab_verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one cold start and exit")
    return ap.parse_args(argv)


def _run_op(op):
    """Run one op; an exception is a failure of that op, not of the benchmark."""
    from workloads import Outcome

    try:
        return op.run()
    except Exception as exc:  # noqa: BLE001 - every op failure is reported
        return Outcome((f"{op.label}: {type(exc).__name__}: {exc}",), b"")


def cold_start(workload: str, seed: int, workdir: str):
    """Import donorsim, build the workload's inputs and run its first op.

    Returns the CPU seconds this took, the workload and op 0's outcome.
    """
    t0 = CLOCK()
    import workloads

    wl = workloads.make_workload(workload, seed, workdir)
    outcome = _run_op(wl.op(0))
    return CLOCK() - t0, wl, outcome


def _setup_sample(wl, cpu_s: float) -> float:
    """One cold start in reference seconds, scaled by samples run right after it."""
    from reference import Reference

    ref = Reference(wl.reference_parts)
    for _ in range(SETUP_REF_SAMPLES):
        ref.sample()
    return cpu_s * ref.scale()


def _probe_setup(args) -> list[float]:
    """Cold starts of fresh interpreters running this file with --setup-probe."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failures"]:
            raise RuntimeError(f"setup probe op failed: {result['failures']}")
        samples.append(result["setup_s"])
    return samples


def _run_ops(wl, ref, done, tracer=None):
    """Run ops 0, 1, ... until done(ops run so far, wall seconds) is true.

    After each op, reference samples run until they have taken REF_SHARE of
    the op CPU time so far, so the machine's speed is sampled throughout.
    Returns (label, CPU seconds, outcome) per op.
    """
    results = []
    op_cpu = 0.0
    wall_start = time.perf_counter()
    while True:
        i = len(results)
        op = wl.op(i)
        if tracer is not None:
            tracer.op_id = i
        t0 = CLOCK()
        outcome = _run_op(op)
        cpu = CLOCK() - t0
        results.append((op.label, cpu, outcome))
        op_cpu += cpu
        while ref.spent < REF_SHARE * op_cpu:
            ref.sample()
        if done(i + 1, time.perf_counter() - wall_start):
            return results


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
    }


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _report(defs, values: dict, attempted: int, failures: list) -> None:
    for reasons in failures[:MAX_LISTED_FAILURES]:
        print("FAILED " + "; ".join(reasons))
    if len(failures) > MAX_LISTED_FAILURES:
        print(f"FAILED ... {len(failures) - MAX_LISTED_FAILURES} more")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def _end_to_end(args, spec, wl, setup_s: float, first) -> None:
    from reference import Reference

    samples = [_setup_sample(wl, setup_s)] + _probe_setup(args)
    ref = Reference(wl.reference_parts)
    wall = time.perf_counter()
    results = _run_ops(wl, ref, lambda n, elapsed: (elapsed >= args.seconds
                                                      and n % wl.stop_every == 0))
    wall = time.perf_counter() - wall
    scale = ref.scale()
    latencies = sorted(cpu * scale for _, cpu, _ in results)
    failures = [o.failures for _, _, o in results if o.failures]
    if first.failures:
        failures.insert(0, first.failures)
    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Nearest-rank p99, only where at least ten ops lie beyond it.
    p99_ms = (latencies[math.ceil(0.99 * len(latencies)) - 1] * 1e3
              if len(latencies) >= P99_MIN_OPS else None)
    by_label = defaultdict(list)
    for label, cpu, _ in results:
        by_label[label].append(cpu * scale)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "ops": len(results),
        "wall_s": wall, "op_cpu_s": sum(cpu for _, cpu, _ in results),
        "reference_scale": scale, "setup_samples_s": samples, "latency_p99_ms": p99_ms,
        "median_ms_by_op": {label: round(statistics.median(v) * 1e3, 3)
                            for label, v in sorted(by_label.items())}}))
    _report(spec["end_to_end"], values, len(results) + 1, failures)


def _per_layer(args, spec, wl, first) -> None:
    from reference import Reference
    from tracer import Tracer

    def one_pass(tracer=None):
        ref = Reference(wl.reference_parts)
        results = _run_ops(wl, ref, lambda n, _: n == wl.trace_ops, tracer)
        return [o for _, _, o in results], sum(cpu for _, cpu, _ in results) * ref.scale()

    plain, plain_s = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = one_pass(tracer)
    finally:
        tracer.remove()
    failures = [first.failures] if first.failures else []
    for i, (a, b) in enumerate(zip(plain, traced)):
        failures += [o.failures for o in (a, b) if o.failures]
        if a.digest != b.digest:
            failures.append((f"op {i} ({wl.op(i).label}): traced result differs "
                             "from untraced",))
    values = tracer.metrics()
    values["cli.bytes_out"] = sum(o.bytes_out for o in traced)
    values["bench.untraced_ops_per_s"] = len(plain) / plain_s
    values["bench.traced_ops_per_s"] = len(traced) / traced_s
    values["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.dump(spans_path)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": len(traced),
                      "spans_file": os.path.relpath(spans_path, ROOT)}))
    _report(spec["per_layer"], values, 2 * len(traced) + 1, failures)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "donorsim", "__init__.py")):
        print(f"donorsim sources not found under {SRC}; run from a donorsim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        setup_s, wl, first = cold_start(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": _setup_sample(wl, setup_s),
                              "failures": list(first.failures)}))
            return 0
        spec = _benchmark_spec()
        print(json.dumps({"environment": _environment()}))
        if args.trace:
            _per_layer(args, spec, wl, first)
        else:
            _end_to_end(args, spec, wl, setup_s, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
