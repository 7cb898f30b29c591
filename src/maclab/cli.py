"""Command-line front end.

Subcommands mirror the library layers:

  maclab macdonald --n N --lambda 2,1            m-expansion of P
  maclab baker --n N --truncation D [--specialize 2,1]
  maclab laumon j --n N --degree D               localization series
  maclab laumon limit --n N --order M            stable infinite product
  maclab laumon verify shir|junichi|ansum ...
  maclab global h --n N --weight 1,0 --order M [--alpha-max A]
  maclab global verify cordiff|hp|chibq ...
  maclab verify <check> ...                      any registered check

Exit status is 0 iff every requested check PASSED; a series whose
stabilization schedule does not settle prints a one-line error to stderr,
is not cached, and exits 1.  An out-of-range argument (a partition, a
``--weight`` length, an ``--alpha-max`` below 2, an ``--n`` below 1, a negative
``--order``, ``--degree`` or ``--truncation``) or a check flag that the named
check does not take prints a one-line error to stderr and exits 2 before
anything is computed or cached.  So does an argument that argparse
refuses: an unknown or missing flag, or an abbreviation such as
``--max-e`` for ``--max-entry`` (a flag must be spelt in full).
Everything runs serially in one process.
Reports printed to stdout are canonical (timing goes to stderr), so
outputs are byte-identical across reruns and cache states.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .cache import ResultCache
from . import checks
from .laumon import NotStabilized
from .tableaux import Partition

__all__ = ["main"]


def _int_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _add_common(p):
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $MACLAB_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true")


class _ParseError(Exception):
    """An argument that the parser refuses, as its one-line message."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses abbreviated flags, as do its
    subparsers (``add_subparsers`` builds them with the parent's class).
    With abbreviations, a ``--n`` given to a command that has none would
    read as ``--no-cache``.  A refused argument raises :class:`_ParseError`
    instead of printing the usage and exiting, so that :func:`main`
    reports it as it reports an out-of-range one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _ParseError(f"{self.prog}: error: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it."""
    ap = _Parser(
        prog="maclab",
        description="Exact verification of Macdonald-polynomial and "
                    "localization-series identities (type A).")
    ap.add_argument("--version", action="version", version=f"maclab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("macdonald", help="Macdonald polynomial in the m-basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_int_list, required=True,
                   metavar="a,b,c")
    p.add_argument("--oracle", action="store_true",
                   help="use the eigen-solve construction instead of the tableau sum")
    _add_common(p)

    p = sub.add_parser("baker", help="spectral series / its specialization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--truncation", type=int, required=True)
    p.add_argument("--specialize", type=_int_list, default=None, metavar="a,b,c")
    _add_common(p)

    p = sub.add_parser("laumon", help="localization series commands")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pj = lsub.add_parser("j", help="series of fixed-point characters")
    pj.add_argument("--n", type=int, required=True)
    pj.add_argument("--degree", type=int, required=True)
    _add_common(pj)
    pl = lsub.add_parser("limit", help="stable character as infinite product")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--order", type=int, required=True)
    _add_common(pl)
    pv = lsub.add_parser("verify", help="identity checks on the local side")
    pv.add_argument("check", choices=("shir", "junichi", "ansum", "substitution",
                                      "dai-ichi"))
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--degree", type=int, default=None)
    pv.add_argument("--order", type=int, default=None)
    pv.add_argument("--truncation", type=int, default=None)
    pv.add_argument("--rank", type=int, default=None)
    _add_common(pv)

    p = sub.add_parser("global", help="global character commands")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    ph = gsub.add_parser("h", help="stable twisted character")
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--weight", type=_int_list, required=True, metavar="l1,l2")
    ph.add_argument("--order", type=int, required=True)
    ph.add_argument("--alpha-max", type=int, default=4,
                    help="schedule length for the stabilization run")
    _add_common(ph)
    pg = gsub.add_parser("verify", help="identity checks on the global side")
    pg.add_argument("check", choices=("cordiff", "hp", "chibq", "vanishing",
                                      "h0", "weyl"))
    pg.add_argument("--max-n", type=int, default=None)
    pg.add_argument("--order", type=int, default=None)
    pg.add_argument("--max-weight-sum", type=int, default=None)
    _add_common(pg)

    p = sub.add_parser("verify", help="run any registered check by name")
    p.add_argument("check", choices=checks.check_names() + list(checks.ALIASES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--max-entry", type=int, default=None)
    p.add_argument("--max-weight-sum", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("checks", help="list registered checks")
    return ap


def _emit_series(series, args, op: str, params: dict, cache: ResultCache) -> int:
    payload = cache.get(op, params)
    if payload is None:
        payload = series().to_json_obj()
        cache.put(op, params, payload)
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(_pretty_series(payload))
    return 0


def _pretty_series(obj: dict) -> str:
    lines = []
    if "m_expansion" in obj:
        for item in obj["m_expansion"]:
            num = _pretty_poly(item["coef"]["num"])
            den = _pretty_poly(item["coef"]["den"])
            c = num if den == "1" else f"({num})/({den})"
            lines.append(f"m{item['partition']}: {c}")
        return "\n".join(lines) if lines else "0"
    if "coefficients" in obj:
        grading = obj.get("grading")
        for item in obj["coefficients"]:
            if "value" in item and "terms" in item.get("value", {}):
                val = _pretty_poly(item["value"])
            else:
                num = _pretty_poly(item["value"]["num"])
                den = _pretty_poly(item["value"]["den"])
                val = num if den == "1" else f"({num})/({den})"
            tag = f"{grading[0]}^{item['deg'][0]} {grading[1]}^{item['deg'][1]}" \
                if grading else f"x^{item['deg']}"
            lines.append(f"{tag}: {val}")
        return "\n".join(lines) if lines else "0"
    return json.dumps(obj, indent=1, sort_keys=True)


def _pretty_poly(obj: dict) -> str:
    parts = []
    for t in obj["terms"]:
        mono = "*".join(f"{v}^{e}" if e != 1 else v
                        for v, e in zip(obj["vars"], t["exp"]) if e)
        coef = t["coef"]
        parts.append(f"{coef}*{mono}" if mono else coef)
    return " + ".join(parts) if parts else "0"


def _check_params(args) -> dict:
    """The check parameters given on the command line."""
    return {key: getattr(args, key) for key in ("n", "max_n", "max_size", "max_entry",
                                                "max_weight_sum", "degree", "order",
                                                "truncation", "rank")
            if getattr(args, key, None) is not None}


def _run_named_check(name: str, args) -> int:
    report = checks.run_check(name, **_check_params(args))
    # stdout stays canonical (byte-identical across reruns); timing to stderr
    print(report.canonical_json() if args.output == "json" else report.text())
    if report.wall_time is not None:
        print(f"# wall time {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def _argument_error(args) -> str | None:
    """Why an argument is out of range: a count or bound below its least
    value in the table below, a partition argument that is not a partition
    with at most N parts, a ``--weight`` without N-1 entries or a check
    flag that the named check does not take; None when all are in
    range."""
    for flag, least in (("n", 1), ("alpha_max", 2), ("max_n", 1), ("rank", 1),
                        ("order", 0), ("degree", 0), ("truncation", 0), ("max_size", 0),
                        ("max_entry", 0), ("max_weight_sum", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            return f"argument --{flag.replace('_', '-')}: {value}, must be at least {least}"
    for flag, lam in (("--lambda", getattr(args, "lam", None)),
                      ("--specialize", getattr(args, "specialize", None))):
        try:
            if lam is not None and len(Partition(lam)) > args.n:
                return f"argument {flag}: {len(Partition(lam))} parts, more than --n {args.n}"
        except ValueError as exc:
            return f"argument {flag}: {exc}"
    weight = getattr(args, "weight", None)
    if weight is not None and len(weight) != args.n - 1:
        return f"argument --weight: {len(weight)} entries, --n {args.n} needs {args.n - 1}"
    if getattr(args, "check", None) is not None:
        taken = checks.check_parameters(args.check)
        for key in _check_params(args):
            if key not in taken:
                return f"argument --{key.replace('_', '-')}: not a parameter of check {args.check}"
    return None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _ParseError as exc:
        print(exc, file=sys.stderr)
        return 2
    error = _argument_error(args)
    if error is not None:
        print(f"maclab {args.command}: error: {error}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except NotStabilized as exc:
        print(f"maclab: not stabilized: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "checks":
        for name in checks.check_names():
            print(f"{name:16s} {checks.CHECKS[name][1]}")
        return 0

    cache = ResultCache(getattr(args, "cache_dir", None),
                        enabled=not getattr(args, "no_cache", False))

    if args.command == "macdonald":
        from .macdonald import macdonald_P, macdonald_P_oracle

        fn = macdonald_P_oracle if args.oracle else macdonald_P
        op = "macdonald-oracle" if args.oracle else "macdonald"
        params = {"n": args.n, "lambda": list(args.lam)}
        return _emit_series(lambda: fn(args.lam, args.n), args, op, params, cache)

    if args.command == "baker":
        from .baker import f_N_series, specialize_f_to_P

        if args.specialize is not None:
            params = {"n": args.n, "lambda": list(args.specialize)}
            return _emit_series(lambda: specialize_f_to_P(args.specialize, args.n),
                                args, "baker-specialize", params, cache)
        params = {"n": args.n, "truncation": args.truncation}
        return _emit_series(lambda: f_N_series(args.n, args.truncation),
                            args, "baker-series", params, cache)

    if args.command == "laumon":
        if args.subcommand == "j":
            from .laumon import J_series

            params = {"n": args.n, "degree": args.degree}
            return _emit_series(lambda: J_series(args.n, args.degree),
                                args, "laumon-j", params, cache)
        if args.subcommand == "limit":
            from .laumon import J_infinity

            params = {"n": args.n, "order": args.order}
            return _emit_series(lambda: J_infinity(args.n, args.order),
                                args, "laumon-limit", params, cache)
        # the local checks that take a rank run at n = 2 unless given one
        if args.n is None and "n" in checks.check_parameters(args.check):
            args.n = 2
        return _run_named_check(args.check, args)

    if args.command == "global":
        if args.subcommand == "h":
            from .euler import GLWeight, H_limit

            weight = GLWeight(args.weight)
            schedule = [(k,) * (args.n - 1) for k in range(1, args.alpha_max + 1)]
            params = {"n": args.n, "weight": list(args.weight), "order": args.order,
                      "alpha_max": args.alpha_max}
            return _emit_series(
                lambda: H_limit(weight, args.order, schedule=schedule),
                args, "global-h", params, cache)
        return _run_named_check(args.check, args)

    if args.command == "verify":
        return _run_named_check(args.check, args)

    raise SystemExit(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
