"""Check that `benchmarks/digest.py all` prints the same bytes here and at a git revision.

    python benchmarks/agree.py          # against HEAD
    python benchmarks/agree.py HEAD~1

Unpacks `git archive REF` (REF defaults to HEAD) into a temporary directory
and runs `digest.py all` there and in this checkout, both processes at once
and each with PYTHONDONTWRITEBYTECODE=1, so neither leaves bytecode behind.
Exits 0 when the two outputs are byte-identical.  Otherwise prints, for REF
and then for this checkout, the first line where they differ under its
`== <mode> <seeds>` header, and exits 1; a digest run that fails prints its
exit code and stderr instead.  A REF that git cannot archive exits 2.  The
outputs and the unpacked tree live in the temporary directory, which is
removed at the end, so nothing is written inside the repository.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def first_difference(a: bytes, b: bytes):
    """(header, line of a, line of b) at the first line where a and b differ;
    a line past the end of its output reads as `<end of output>`."""
    header = b""
    for line_a, line_b in itertools.zip_longest(a.splitlines(), b.splitlines(),
                                                fillvalue=b"<end of output>"):
        if line_a != line_b:
            return header, line_a, line_b
        if line_a.startswith(b"== "):
            header = line_a
    return header, b"<same lines>", b"<same lines>"   # only the line endings differ


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="git revision (default HEAD)")
    ref = parser.parse_args(argv).ref
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref], capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="agree-") as tmp:
        tree = os.path.join(tmp, "ref")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        runs = []
        for i, (name, root) in enumerate(((ref, tree), ("this checkout", ROOT))):
            out, err = (os.path.join(tmp, f"{i}.{ext}") for ext in ("out", "err"))
            digest = [sys.executable, os.path.join(root, "benchmarks", "digest.py"), "all"]
            with open(out, "wb") as out_file, open(err, "wb") as err_file:
                proc = subprocess.Popen(digest, cwd=tmp, env=env, stdout=out_file, stderr=err_file)
            runs.append((name, proc, out, err))
        codes = [proc.wait() for _, proc, _, _ in runs]
        outputs = []
        for (name, _, out, err), code in zip(runs, codes):
            if code:
                print(f"{name}: digest.py all exited {code}")
                with open(err, "rb") as f:
                    sys.stdout.write(f.read().decode(errors="replace"))
                return 1
            with open(out, "rb") as f:
                outputs.append(f.read())
    if outputs[0] == outputs[1]:
        print(f"digest.py all is byte-identical at {ref} and in this checkout "
              f"({len(outputs[0])} bytes)")
        return 0
    header, line_ref, line_here = first_difference(*outputs)
    for name, line in ((ref, line_ref), ("this checkout", line_here)):
        print(f"{name}:\n  {header.decode()}\n  {line.decode(errors='replace')}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
