"""Span tracing of maclab's layers from outside the package.

:class:`Tracer` wraps the public callables listed in :data:`LAYERS` and
rebinds each wrapper in every ``maclab.*`` namespace that holds the
original object, so calls made inside the package are traced too.  Each
call records a span (name, start, end, parent span) in memory; calls and
self time (duration minus the time covered by child spans) are summed as
the spans close.  :meth:`Tracer.remove` puts every original back.

Counts made in forked pool workers stay in the workers and are lost, so
every figure is parent-side only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import multiprocessing.pool
import sys
import time
from array import array

from workloads import CASE_LABELS

# layer -> callables wrapped with a span; "Class.method" names a method
LAYERS = {
    "algebra": [
        "FactoredRational.__init__", "FactoredRational.__mul__", "FactoredRational.__add__",
        "FactoredRational.to_laurent", "LaurentPolynomial.__mul__", "LaurentPolynomial.__add__",
        "LaurentPolynomial.divide_exact", "rational_eq",
    ],
    "series": ["expand_split", "expand_sum", "QTSeries.__mul__"],
    "qcalc": ["pochhammer"],
    "tableaux": ["enumerate_pol_lambda", "theta_by_degree"],
    "macdonald": ["macdonald_P", "macdonald_P_oracle", "psi_T", "apply_D1N"],
    "baker": ["c_N_closed", "c_N_recursive", "c_N_closed_alt", "specialize_f_to_P"],
    "laumon": ["C_theta", "J_series", "verify_local_limit"],
    "euler": ["H_limit", "euler_char_series", "h_series", "macdonald_in_z"],
    "parallel": ["pmap"],
    "cache": ["ResultCache.get", "ResultCache.put"],
}

# memo tables, read only for their size
MEMOS = [("macdonald", "_P_memo"), ("macdonald", "_action_memo"),
         ("euler", "_c_cache"), ("euler", "_mz_memo")]

# hit ratio = (calls - growth of the memo) / calls
MEMO_HIT_RATIOS = {"macdonald.macdonald_P": ("macdonald", "_P_memo"),
                   "euler.macdonald_in_z": ("euler", "_mz_memo")}


def span_names() -> list:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in span_names():
        if span == "parallel.pmap":
            out += [("parallel.pmap.calls", "count"), ("parallel.pmap.items", "count"),
                    ("parallel.pmap.pooled_calls", "count"), ("parallel.pmap.wait_s", "s")]
            continue
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if span == "series.expand_sum":
            out += [("series.expand_sum.factor_occurrences", "count"),
                    ("series.expand_sum.distinct_factor_pairs", "count")]
        if span in MEMO_HIT_RATIOS:
            out.append((f"{span}.hit_ratio", "ratio"))
    out += [("cache.get.hit_ratio", "ratio"), ("cache.put.bytes", "bytes")]
    out += [(f"{module}.{table}.size", "count") for module, table in MEMOS]
    out += [(f"checks.{label}.wall_s", "s") for label in CASE_LABELS]
    out.append(("trace_overhead", "ratio"))
    return out


def memo_sizes() -> dict:
    """Current size of each memo table; a table that is gone is left out."""
    out = {}
    for module, table in MEMOS:
        try:
            memo = getattr(importlib.import_module(f"maclab.{module}"), table, None)
        except ImportError:
            continue
        if memo is not None:
            out[f"{module}.{table}"] = len(memo)
    return out


def _factor_key(poly, mult):
    return tuple(sorted(poly.terms.items())), mult


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.missing = []
        # spans, one entry per call, in call order
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []   # indices of open spans
        self._child = []   # time covered by the children of each open span
        self._patches = []  # (owner, attribute, original)
        self.pmap_items = 0
        self.pmap_pooled = 0
        self.pmap_wait_s = 0.0
        self.factor_occurrences = 0
        self.distinct_factor_pairs = 0
        self.cache_hits = 0
        self.put_bytes = 0
        self._pools = 0
        self._memo0 = {}

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        import maclab.cli  # noqa: F401  (loads every maclab module)

        modules = [m for name, m in sys.modules.items()
                   if (name == "maclab" or name.startswith("maclab.")) and m is not None]
        hooks = {"parallel.pmap": self._pmap_hook, "series.expand_sum": self._expand_sum_hook,
                 "cache.ResultCache.get": self._get_hook, "cache.ResultCache.put": self._put_hook}
        for nid, span in enumerate(self.names):
            layer, _, attr = span.partition(".")
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(f"maclab.{layer}")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span)
                continue
            wrapper = self._wrap(nid, original, hooks.get(span))
            if path:  # a method: the class object is shared by every importer
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        pool_init = multiprocessing.pool.Pool.__init__

        @functools.wraps(pool_init)
        def counting_init(pool, *args, **kwargs):
            self._pools += 1
            return pool_init(pool, *args, **kwargs)

        self._patch(multiprocessing.pool.Pool, "__init__", counting_init)
        self._memo0 = memo_sizes()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, nid, fn, hook):
        clock = time.perf_counter
        stack, child = self._stack, self._child
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            post = None
            if hook is not None:
                h0 = clock()
                args, kwargs, post = hook(args, kwargs)
                if child:  # hook time belongs to no span
                    child[-1] += clock() - h0
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - child.pop()
                calls[nid] += 1
                span_start[idx] = t0
                span_end[idx] = t1
                if child:
                    child[-1] += dur
            if post is not None:
                h0 = clock()
                post(result, dur)
                if child:
                    child[-1] += clock() - h0
            return result

        return wrapper

    # -- hooks: extra counts taken outside the span ---------------------

    def _pmap_hook(self, args, kwargs):
        if len(args) > 1:
            items = list(args[1])
            args = (args[0], items) + tuple(args[2:])
        else:
            items = kwargs["items"] = list(kwargs["items"])
        self.pmap_items += len(items)
        pools = self._pools

        def post(_result, dur):
            if self._pools != pools:
                self.pmap_pooled += 1
                self.pmap_wait_s += dur

        return args, kwargs, post

    def _expand_sum_hook(self, args, kwargs):
        if args:
            terms = list(args[0])
            args = (terms,) + tuple(args[1:])
        else:
            terms = kwargs["terms"] = list(kwargs["terms"])
        pairs = set()
        for fr in terms:
            self.factor_occurrences += len(fr.factors)
            pairs.update(_factor_key(p, m) for p, m in fr.factors)
        self.distinct_factor_pairs += len(pairs)
        return args, kwargs, None

    def _get_hook(self, args, kwargs):
        def post(result, _dur):
            if result is not None:
                self.cache_hits += 1

        return args, kwargs, post

    def _put_hook(self, args, kwargs):
        payload = args[3] if len(args) > 3 else kwargs["payload"]
        self.put_bytes += len(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
        return args, kwargs, None

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures measured so far (without checks.* and
        trace_overhead, which the runner adds); a metric whose callable or
        memo table is gone is left out."""
        out = {}
        index = {span: nid for nid, span in enumerate(self.names)}
        for span, nid in index.items():
            if span in self.missing:
                continue
            out[f"{span}.calls"] = self.calls[nid]
            if span == "parallel.pmap":
                out["parallel.pmap.items"] = self.pmap_items
                out["parallel.pmap.pooled_calls"] = self.pmap_pooled
                out["parallel.pmap.wait_s"] = self.pmap_wait_s
                continue
            out[f"{span}.self_s"] = self.self_s[nid]
            if span == "series.expand_sum":
                out["series.expand_sum.factor_occurrences"] = self.factor_occurrences
                out["series.expand_sum.distinct_factor_pairs"] = self.distinct_factor_pairs
        sizes = memo_sizes()
        for span, (module, table) in MEMO_HIT_RATIOS.items():
            key = f"{module}.{table}"
            if span in self.missing or key not in sizes:
                continue
            calls = self.calls[index[span]]
            growth = sizes[key] - self._memo0.get(key, 0)
            out[f"{span}.hit_ratio"] = (calls - growth) / calls if calls else 0.0
        if "cache.ResultCache.get" not in self.missing:
            gets = self.calls[index["cache.ResultCache.get"]]
            out["cache.get.hit_ratio"] = self.cache_hits / gets if gets else 0.0
        if "cache.ResultCache.put" not in self.missing:
            out["cache.put.bytes"] = self.put_bytes
        out.update({f"{key}.size": size for key, size in sizes.items()})
        return out

    def write_spans(self, path) -> int:
        """Write every span as gzipped JSON; returns the span count."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(self.span_start)
