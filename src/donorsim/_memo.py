"""The one registry of donorsim's process-wide memo tables.

Global control reuses a few pulses across many gates, so synthesis (each gate
entry of `gates._layout` also keeps the gate's grade once `compile_gate` asks
for it), the rotating-frame eigensystems and propagators, every execution
result (the rotating-frame and converged lab-frame unitaries and the
frozen-nucleus checks, each keyed on the schedule, which compares by its
controls), the oracle's Strang powers, the frame map R(t), the lab twins of
verified schedules, the rendered outputs of each `donorsim table`, `gate`,
`sweep` and `schedule dump` request (`cli._rendered`: the exit code and the
texts, keyed on the request and the run config, never on an output path;
only the rendering of `schedule load` is done on every call), the parsed
schedule texts (`propagator._parsed`, keyed on the text and the device), the
gate and spectator fidelities (`analysis._gate_fidelity` and
`_spectator_fidelity`) and a few small constants are memoized for the whole
process: sixteen tables.
Population traces are not kept: the CLI keeps the CSV text of each trace it
writes, in `cli._rendered`.  The twin table (`analysis._lab_twin`) is the one
whose key holds annotations, the labels and the declared target's identity,
besides the schedule: its entry is itself a schedule that carries them, and
schedules that differ only there are equal keys of every other table.  No
table stores an exception, so a rejected input raises again on every call.
Every such table is declared here with `table`, so each is a bounded LRU table
of SIZE entries, `TABLES` lists them all (each with its `cache_info()`),
`stats()` reads their counters and `clear()` empties them at once: a cold
start for tests and benchmarks.

Arrays enter and leave tables only here: `array_key` keys an array on its
dtype, shape and C-order bytes, `key_array` rebuilds it read-only, and
`read_only` freezes every array a table keeps.  So only a bit-identical array
is answered from an entry (-0.0 and 0.0 differ), and no entry holds the
caller's array.  Bounds keep entries small: a grading pair larger than
16x16, a `gate --trace` request of more than 1000 samples, a `sweep` of more
than 360 grid points, a `schedule dump` of more than 400 segments and a
schedule text of more than 5000 characters are computed without being kept,
each decided before anything is rendered or parsed.  So a grading entry
holds at most 8 KB (a full table about 1 MB), and a `cli._rendered` entry at
most about 141 KB: a 1000-sample 3-donor trace's CSV text under its config
header, against about 130 KB for the largest kept sweep (JSON, every field
swept) and 133 KB for the largest kept dump.  A full `cli._rendered` table
holds at most about 18 MB.  A `propagator._parsed` entry, the text and its
schedule, holds at most about 122 KB (5000 characters of the shortest
segment lines with exchange pairs), and a 10-segment CNOT file's about 10 KB.

This module imports nothing from donorsim, so any module may use it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["SIZE", "TABLES", "table", "stats", "clear", "array_key", "key_array", "read_only"]

# Entries per table: the bound and the LRU policy live here, not at each memo.
SIZE = 128

TABLES: list = []


def table(fn):
    """fn memoized in a SIZE-entry LRU table that `clear()` empties."""
    memo = functools.lru_cache(maxsize=SIZE)(fn)
    TABLES.append(memo)
    return memo


def stats() -> dict[str, dict[str, int]]:
    """{qualname: {hits, misses, currsize, maxsize}} of every table."""
    return {memo.__qualname__: memo.cache_info()._asdict() for memo in TABLES}


def clear() -> None:
    """Empty every table (their hit and miss counts restart at zero)."""
    for memo in TABLES:
        memo.cache_clear()


def array_key(a: np.ndarray) -> tuple:
    """(dtype, shape, C-order bytes) of an array: a table's key for it.  The
    key holds no reference to the array, so changing the array later cannot
    make an entry stale."""
    return a.dtype.str, a.shape, a.tobytes()


def key_array(key: tuple) -> np.ndarray:
    """The read-only C-order array an array_key was taken of."""
    dtype, shape, data = key
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def read_only(a: np.ndarray) -> np.ndarray:
    """a, frozen in place: every array a table keeps is returned this way."""
    a.flags.writeable = False
    return a
