"""Print each memo table's traffic over the first OPS ops of a benchmark workload.

    python benchmarks/memo_traffic.py compile 3 3000
    python benchmarks/memo_traffic.py lab_verify 3 1400
    python benchmarks/memo_traffic.py session 3 3000

Builds the workload of `perfbench/workloads.py` (read, not changed) for the
seed, empties every memo table (`_memo.clear()`), runs ops 0 to OPS-1 in
order and prints one line per table of `_memo.TABLES`, in its order:

    <table> <hits> <misses> <hit rate %> <entries held>

then the number of ops that reported a failure.  A table no op reached
prints `-` as its hit rate.  session writes its outputs in a temporary
directory that is removed at the end.  The package is imported from this
checkout's `src`.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from donorsim import _memo  # noqa: E402
from workloads import make_workload  # noqa: E402


def traffic(workload: str, seed: int, ops: int, workdir: str) -> tuple[dict, int]:
    """(_memo.stats() after ops ops from cleared tables, ops with a failure)."""
    wl = make_workload(workload, seed, workdir)
    _memo.clear()
    failed = sum(bool(wl.op(i).run().failures) for i in range(ops))
    return _memo.stats(), failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("workload", choices=("compile", "session", "lab_verify"))
    parser.add_argument("seed", type=int)
    parser.add_argument("ops", type=int)
    args = parser.parse_args(argv)
    if args.ops < 0:
        parser.error("ops must be non-negative")
    with tempfile.TemporaryDirectory() as workdir:
        stats, failed = traffic(args.workload, args.seed, args.ops, workdir)
    width = max(map(len, stats))
    for name, s in stats.items():
        calls = s["hits"] + s["misses"]
        rate = f"{100.0 * s['hits'] / calls:.1f}" if calls else "-"
        print(f"{name:<{width}} {s['hits']:>7} {s['misses']:>7} {rate:>6} {s['currsize']:>4}")
    print(f"failed ops: {failed} of {args.ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
