"""Digest every result of the benchmark's compile op stream, one line per op.

    python benchmarks/compile_digest.py 1 301 302 --ops 700

For each seed, builds the `compile` workload from `perfbench/workloads.py`
(read, not changed), runs its first N ops in order and prints

    <seed> <index> <failures> <digest> <label>

where the digest is the op's own: the executed unitary with its gate and
spectator fidelities.  The package is imported from this checkout's `src`,
so running the script in two checkouts and diffing the results shows whether
they synthesize and execute the same bits.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import CompileWorkload  # noqa: E402


def compile_digests(seed: int, ops: int):
    """Yield (index, failure count, digest hex, label) for each compile op."""
    workload = CompileWorkload(seed)
    for idx in range(ops):
        op = workload.op(idx)
        outcome = op.run()
        yield idx, len(outcome.failures), outcome.digest.hex(), op.label


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--ops", type=int, default=700,
                        help="ops per seed, in the workload's order (default 700)")
    args = parser.parse_args(argv)
    if args.ops < 0:
        parser.error("--ops must be non-negative")
    for seed in args.seeds:
        for idx, failures, digest, label in compile_digests(seed, args.ops):
            print(f"{seed} {idx:04d} {failures} {digest} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
