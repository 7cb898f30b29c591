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
is not cached, and exits 1.  Everything runs serially in one process.
Reports printed to stdout are canonical (timing goes to stderr), so
outputs are byte-identical across reruns and cache states.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .cache import ResultCache
from .checks import check_names, run_check
from .laumon import NotStabilized

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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    pv.add_argument("--n", type=int, default=2)
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
    p.add_argument("check", choices=check_names() + ["difference-equation", "limit"])
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


def _run_named_check(name: str, args) -> int:
    params = {}
    for key in ("n", "max_n", "max_size", "max_entry", "max_weight_sum",
                "degree", "order", "truncation", "rank"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    report = run_check(name, **params)
    # stdout stays canonical (byte-identical across reruns); timing to stderr
    print(report.canonical_json() if args.output == "json" else report.text())
    if report.wall_time is not None:
        print(f"# wall time {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except NotStabilized as exc:
        print(f"maclab: not stabilized: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "checks":
        from .checks import CHECKS
        for name in check_names():
            print(f"{name:16s} {CHECKS[name][1]}")
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
        from .baker import BAContext, f_N_series, specialize_f_to_P

        ctx = BAContext(args.n, args.truncation)
        if args.specialize is not None:
            params = {"n": args.n, "lambda": list(args.specialize)}
            return _emit_series(lambda: specialize_f_to_P(args.specialize, ctx),
                                args, "baker-specialize", params, cache)
        params = {"n": args.n, "truncation": args.truncation}
        return _emit_series(lambda: f_N_series(ctx), args, "baker-series", params, cache)

    if args.command == "laumon":
        if args.subcommand == "j":
            from .laumon import J_series, LaumonContext

            ctx = LaumonContext(args.n, degree=args.degree)
            params = {"n": args.n, "degree": args.degree}
            return _emit_series(lambda: J_series(ctx), args, "laumon-j", params, cache)
        if args.subcommand == "limit":
            from .laumon import J_infinity

            params = {"n": args.n, "order": args.order}
            return _emit_series(lambda: J_infinity(args.n, args.order),
                                args, "laumon-limit", params, cache)
        return _run_named_check(args.check, args)

    if args.command == "global":
        if args.subcommand == "h":
            from .euler import GLWeight, H_limit

            weight = GLWeight(args.weight)
            if weight.n != args.n:
                raise SystemExit("--weight must have N-1 entries")
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
