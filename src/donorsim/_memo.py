"""The one registry of donorsim's process-wide memo tables.

Global control reuses a few pulses across many gates, so synthesis, grading,
the rotating-frame eigensystems and propagators, every execution result (the
rotating-frame and converged lab-frame unitaries and the frozen-nucleus
checks, each keyed on the schedule, which compares by its controls), the
oracle's Strang powers and a few small constants are memoized for the whole
process.  No table stores an exception, so a rejected input raises again on
every call.  Every such table is declared here with `table`, so each is a
bounded LRU table of SIZE entries, `TABLES` lists them all (each with its
`cache_info()`), and `clear()` empties them at once: a cold start for tests
and benchmarks.

This module imports nothing from donorsim, so any module may use it.
"""

from __future__ import annotations

import functools

__all__ = ["SIZE", "TABLES", "table", "clear"]

# Entries per table: the bound and the LRU policy live here, not at each memo.
SIZE = 128

TABLES: list = []


def table(fn):
    """fn memoized in a SIZE-entry LRU table that `clear()` empties."""
    memo = functools.lru_cache(maxsize=SIZE)(fn)
    TABLES.append(memo)
    return memo


def clear() -> None:
    """Empty every table (their hit and miss counts restart at zero)."""
    for memo in TABLES:
        memo.cache_clear()
