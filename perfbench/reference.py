"""A fixed reference computation that measures how fast the machine runs now.

On a shared virtual machine, the CPU time of the same work moves by tens of
percent from one minute to the next, because other guests share the physical
cores and caches.  The benchmark therefore runs this block between ops and
reports its times in reference seconds:

    reference seconds = CPU seconds * nominal / (mean CPU seconds of a block)

where nominal is the block's CPU time on the machine the benchmark was tuned
on.

The block is benchmark code on numpy alone, so a change to donorsim cannot
change its work.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of each part of a block on the machine the benchmark was tuned
# on (2-vCPU Xeon at 2.0 GHz, numpy 2.4, Python 3.11), so reference seconds
# stay close to CPU seconds there.
NOMINAL_S = {"dense": 0.0016, "vector": 0.03, "text": 0.0004}

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I = np.eye(2, dtype=complex)


class Reference:
    """Accumulates reference samples; ``scale`` converts CPU to reference seconds.

    A block runs the named parts: ``dense`` (small dense linear algebra wrapped
    in Python calls, like rotating-frame assembly and propagation), ``vector``
    (long vectorized array arithmetic, like lab-frame stepping) and ``text``
    (interpreter work on strings and dicts, like the CLI).  Each workload
    names the parts that resemble its own work, because different kinds of
    work slow down by different amounts when the machine is shared.

    A sample is a burst of BURST blocks of which the first, run on caches the
    workload left cold, is not counted, so the measured speed does not depend
    on how often the workload yields to the reference.
    """

    BURST = 4

    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._h = h + h.conj().T
        self._angles = rng.uniform(0.0, 2.0 * np.pi, size=1 << 16)
        self._parts = [getattr(self, f"_{part}") for part in parts]
        self._nominal = sum(NOMINAL_S[part] for part in parts)
        self.blocks = 0          # blocks counted
        self.seconds = 0.0       # CPU seconds of the counted blocks
        self.spent = 0.0         # CPU seconds of all blocks run

    def sample(self) -> None:
        for k in range(self.BURST):
            t0 = time.process_time()
            for part in self._parts:
                part()
            dt = time.process_time() - t0
            self.spent += dt
            if k:
                self.blocks += 1
                self.seconds += dt

    def scale(self) -> float:
        """Factor from CPU seconds to reference seconds over the samples so far."""
        return self._nominal * self.blocks / self.seconds

    def _dense(self) -> None:
        for _ in range(4):
            total = np.zeros((8, 8), dtype=complex)
            for site in range(3):
                op = np.array([[1.0 + 0.0j]])
                for s in range(3):
                    op = np.kron(op, _X if s == site else _I)
                total += op
            w, v = np.linalg.eigh(self._h + total)
            (v * np.exp(-1j * w)) @ v.conj().T

    def _vector(self) -> None:
        m = np.empty((self._angles.size, 2, 2), dtype=complex)
        m[:, 0, 0] = np.cos(self._angles)
        m[:, 1, 1] = m[:, 0, 0]
        m[:, 0, 1] = -1j * np.sin(self._angles)
        m[:, 1, 0] = m[:, 0, 1]
        while m.shape[0] > 1:
            m = np.matmul(m[1::2], m[0::2])

    def _text(self) -> None:
        counts: dict[str, int] = {}
        for i in range(200):
            key = f"{i % 13:03d}:{i * 0.5:.12g}"
            counts[key[:3]] = counts.get(key[:3], 0) + len(key)
        ",".join(f"{k}={v}" for k, v in sorted(counts.items()))
