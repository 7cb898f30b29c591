"""Every module-level memo table of the package, with its cap.

Each table is declared by :func:`cached` and lives as long as the
process.  A table that holds ``cap`` entries empties itself before its
next store, so a long-lived process stays bounded.
"""

from __future__ import annotations

import functools

tables: list = []   # every Table, in declaration order


class Table(dict):
    """A memo dict with a cap that counts hits and misses."""

    def __init__(self, name: str, cap: int):
        super().__init__()
        self.name, self.cap = name, cap
        self.hits = self.misses = 0
        tables.append(self)

    def store(self, key, value):
        if len(self) >= self.cap:
            self.clear()
        self[key] = value
        return value


def cached(cap: int):
    """Memoise a function of hashable positional arguments, whose values
    are never None, in a Table kept as ``.table`` on the wrapper."""
    def decorate(fn):
        table = Table(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}", cap)

        @functools.wraps(fn)
        def wrapper(*args):
            value = table.get(args)
            if value is None:
                table.misses += 1
                return table.store(args, fn(*args))
            table.hits += 1
            return value

        wrapper.table = table
        return wrapper
    return decorate


def clear_all() -> None:
    """Empty every table, as in a fresh process."""
    for table in tables:
        table.clear()
