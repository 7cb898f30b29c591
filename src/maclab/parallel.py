"""Order-preserving map, kept by name only.

Nothing in the package calls :func:`pmap`: every check runs serially in
one process.  The module stays only because the benchmark harness under
``perfbench/`` imports it by name and traces ``parallel.pmap``; it goes
once the harness no longer does.
"""

from __future__ import annotations

from typing import Callable, Iterable

__all__ = ["pmap"]


def pmap(fn: Callable, items: Iterable, workers: int = 1) -> list:
    """``[fn(x) for x in items]``, in order.  ``workers`` is ignored: the
    map always runs serially in this process."""
    return [fn(x) for x in items]
