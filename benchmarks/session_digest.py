"""Digest every output of the benchmark's CLI session, one line per command.

    python benchmarks/session_digest.py 1 3 7 11 301 302 303 2024

For each seed, builds the `session` workload's command list from
`perfbench/workloads.py` (read, not changed), runs every command once through
`donorsim.cli.main` in a fresh temporary directory and prints

    <seed> <index> <exit code> <sha256 of its outputs> <label>

where the outputs are the `--out` file followed by the `--trace` CSV, if the
command writes one.  The package is imported from this checkout's `src`, so
running the script in two checkouts and diffing the results shows whether
they write the same bytes.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from donorsim import cli  # noqa: E402
from workloads import SessionWorkload  # noqa: E402


def session_digests(seed: int):
    """Yield (index, exit code, sha256 hex, label) for each session command."""
    with tempfile.TemporaryDirectory() as workdir:
        for idx, (label, argv, outputs) in enumerate(SessionWorkload(seed, workdir).commands):
            code = cli.main(list(argv))
            h = hashlib.sha256()
            for path in outputs:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            yield idx, code, h.hexdigest(), label


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python benchmarks/session_digest.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for seed in (int(s) for s in argv):
        for idx, code, digest, label in session_digests(seed):
            print(f"{seed} {idx:02d} {code} {digest} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
