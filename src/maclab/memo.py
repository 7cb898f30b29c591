"""Every module-level memo table of the package, with its scope and cap.

A table of scope ``"check"`` is emptied by :func:`maclab.checks.run_check`
when a check ends; one of scope ``"process"`` is reused across checks.  A
table that holds ``cap`` entries empties itself before its next store, so
a long-lived process stays bounded.
"""

from __future__ import annotations

import functools

tables: list = []   # every Table, in declaration order


class Table(dict):
    """A memo dict with a scope and a cap that counts hits and misses."""

    def __init__(self, name: str, scope: str, cap: int):
        super().__init__()
        self.name, self.scope, self.cap = name, scope, cap
        self.hits = self.misses = 0
        tables.append(self)

    def lookup(self, key):
        """The value under ``key``, or None; stored values are never None."""
        value = self.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key, value):
        if len(self) >= self.cap:
            self.clear()
        self[key] = value
        return value


def cached(scope: str, cap: int):
    """Memoise a function of hashable positional arguments in a Table,
    kept as ``.table`` on the wrapper."""
    def decorate(fn):
        table = Table(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}", scope, cap)

        @functools.wraps(fn)
        def wrapper(*args):
            value = table.get(args)   # lookup, inlined on this hot path
            if value is None:
                table.misses += 1
                return table.store(args, fn(*args))
            table.hits += 1
            return value

        wrapper.table = table
        return wrapper
    return decorate


def clear(scope: str) -> None:
    """Empty every table of ``scope``."""
    if scope not in ("check", "process"):
        raise ValueError(f"unknown memo scope {scope!r}")
    for table in tables:
        if table.scope == scope:
            table.clear()


def clear_all() -> None:
    """Empty every table, as in a fresh process."""
    for table in tables:
        table.clear()
