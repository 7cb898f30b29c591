"""Deterministic worker-pool map.

Nothing in the package calls :func:`pmap`: every check runs serially.
The module stays only because the benchmark harness under ``perfbench/``
imports it by name and traces ``parallel.pmap``; it goes once the
harness no longer does.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence

__all__ = ["pmap"]

_MIN_PARALLEL_ITEMS = 4


def pmap(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Map ``fn`` over ``items``, preserving order.

    Runs serially for ``workers <= 1`` (or tiny inputs); otherwise uses a
    fork-based process pool.  ``fn`` must be a module-level function and
    items must be picklable.
    """
    items = list(items)
    if workers <= 1 or len(items) < _MIN_PARALLEL_ITEMS:
        return [fn(x) for x in items]
    import multiprocessing as mp

    ctx = mp.get_context("fork") if os.name == "posix" else mp.get_context()
    with ctx.Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers)))
