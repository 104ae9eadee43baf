"""Independent solves on a thread pool with results in item order, and
sums in item order.

HiGHS releases the interpreter lock while it solves, so independent MILPs
overlap on threads.  A map runs one worker per usable core, at most one per
item, and the calling thread is one of them; the cores a process may use
are its CPU affinity, so ``taskset -c 0`` runs every map on one worker.
glibc keeps the memory HiGHS frees resident in the malloc arena of the
thread that used it, so each thread at work adds an arena's high-water mark
to the peak RSS.  Results come back in item order, so the worker count
never changes an outcome.

A floating-point sum's last bits depend on the order of its additions.
NumPy's ``sum`` and ``@`` add in blocks whose shape follows the length and
layout of the operands, and builtin ``sum`` of floats is compensated from
CPython 3.12 on, so every float total whose bits reach a result or an
artifact goes through :func:`ordered_sum`, which adds one term at a time.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_order(fn, items) -> list:
    """``[fn(item) for item in items]``, one call at once per usable core and
    at most one per item: the calling thread runs ``items[0]``, then each
    later item not yet started by the pool of the other threads.  The first
    error in item order is raised, the calls not started are cancelled, and
    none outlives the return."""
    items = list(items)
    threads = min(_usable_cores(), len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    pool = ThreadPoolExecutor(max_workers=threads - 1)
    try:
        pooled = [pool.submit(fn, item) for item in items[1:]]
        outcomes = []
        for item, future in zip(items, [None, *pooled]):
            if future is None or future.cancel():
                future = Future()  # run here; an error is raised in item order below
                try:
                    future.set_result(fn(item))
                except BaseException as exc:
                    future.set_exception(exc)
            outcomes.append(future)
            if future.done() and future.exception() is not None:
                # no later item can hold the first error: start none of them
                pool.shutdown(wait=False, cancel_futures=True)
                break
        return [future.result() for future in outcomes]
    finally:
        pool.shutdown(cancel_futures=True)


def ordered_sum(terms, start: float = 0.0, axis: int = 0):
    """``start + t0 + t1 + ...`` over ``terms`` along ``axis``, added one
    term at a time from the left: a float for 1-D terms, else an array."""
    terms = np.moveaxis(np.asarray(terms, dtype=float), axis, 0)
    lead = np.full((1, *terms.shape[1:]), start, dtype=float)
    total = np.add.accumulate(np.concatenate([lead, terms]), axis=0)[-1]
    return float(total) if total.ndim == 0 else total
