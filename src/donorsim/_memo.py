"""The one registry of donorsim's process-wide memo tables.

Global control reuses a few pulses across many gates, so synthesis, each
compiled gate's grade, the rotating-frame eigensystems and propagators, every
execution result (the rotating-frame and converged lab-frame unitaries, the
frozen-nucleus checks and the population traces, each keyed on the schedule,
which compares by its controls), the oracle's Strang powers, the frame map
R(t), the lab twins of verified schedules, the rendered text of each
`donorsim table` request (`cli._table_text`, keyed on the table and the run
config), the gate and spectator fidelities (`analysis._gate_fidelity` and
`_spectator_fidelity`) and a few small constants are memoized for the whole
process: seventeen tables.  The twin table (`analysis._lab_twin`) is the one
whose key holds annotations, the labels and the declared target's identity,
besides the schedule: its entry is itself a schedule that carries them, and
schedules that differ only there are equal keys of every other table.  No
table stores an exception, so a rejected input raises again on every call.
Every such table is declared here with `table`, so each is a bounded LRU table
of SIZE entries, `TABLES` lists them all (each with its `cache_info()`),
`stats()` reads their counters and `clear()` empties them at once: a cold
start for tests and benchmarks.

The grading tables key on each array's dtype, shape and C-order bytes (and
the spectator's on the targets, with their types, and the system), so only
a bit-identical input is answered from an entry, and no entry holds the
caller's array.  An entry keeps at most two 16x16 complex arrays' bytes,
8 KB, so a full grading table holds about 1 MB; in the benchmark workloads
an entry is at most 2 KB.

The largest entries are traces: a 1000-sample trace of a 2-donor CNOT holds
32 KB of populations and 75 KB of CSV text once written, one of 3 donors
64 KB and 141 KB, so a full `_trace` table of those holds about 27 MB.

This module imports nothing from donorsim, so any module may use it.
"""

from __future__ import annotations

import functools

__all__ = ["SIZE", "TABLES", "table", "stats", "clear"]

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
