"""Independent solves on a thread pool with results in item order, and
sums in item order.

HiGHS releases the interpreter lock while it solves, so independent MILPs
overlap on threads.  Results always come back in the order of the items,
so the thread count never changes an outcome.

A floating-point sum's last bits depend on the order of its additions.
NumPy's ``sum`` and ``@`` add in blocks whose shape follows the length and
layout of the operands, so every sum whose bits reach a result or an
artifact goes through :func:`ordered_sum`, which adds one term at a time.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers(workers: int | None, tasks: int) -> int:
    """``workers``, or when it is None one per usable core and at most one per task."""
    if workers is not None:
        return workers
    return max(1, min(_usable_cores(), tasks))


@contextmanager
def in_order(fn, items, threads: int):
    """Yield an iterator over ``fn(item)`` for each item, in item order.

    With ``threads`` >= 1 every item goes at once to a pool of that many
    threads, and the calling thread is free for other work until it reads a
    result.  With 0 each call runs on the calling thread when its result is
    read, so a reader that stops early leaves the rest uncalled.  Leaving
    the block cancels the calls not yet started and waits for the running
    ones: no call outlives it, and results left unread are dropped.
    """
    if threads < 1:
        yield (fn(item) for item in items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            yield (future.result() for future in futures)
        finally:
            for future in futures:
                future.cancel()


def map_in_order(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on ``workers`` threads when above 1."""
    with in_order(fn, items, workers if workers > 1 else 0) as results:
        return list(results)


def ordered_sum(terms, start: float = 0.0, axis: int = 0):
    """``start + t0 + t1 + ...`` over ``terms`` along ``axis``, added one
    term at a time from the left: a float for 1-D terms, else an array."""
    terms = np.moveaxis(np.asarray(terms, dtype=float), axis, 0)
    lead = np.full((1, *terms.shape[1:]), start, dtype=float)
    total = np.add.accumulate(np.concatenate([lead, terms]), axis=0)[-1]
    return float(total) if total.ndim == 0 else total
