"""Named verification checks with pinned default parameter ranges.

Each check runs a mathematical identity at desk scale and returns a
:class:`~maclab.reports.VerificationReport`.  The same registry backs the
CLI (``maclab verify <name>``) and the acceptance test suite.

Every identity is decided by exact equality over Q, and only that can
mark a check PASSED.  Checks run serially in the calling process.
"""

from __future__ import annotations

import itertools
import time

from .algebra import FactoredRational, LaurentPolynomial, rational_eq
from .baker import (
    BAContext,
    ba_vars,
    c_N_closed,
    c_N_closed_alt,
    c_N_recursive,
    specialize_f_to_P,
    verify_eigen_equation,
)
from .euler import (
    GLWeight,
    H0_closed,
    H_limit,
    W_poly,
    F_poly,
    chi_bQ_closed,
    chi_bQ_localization,
    h_series,
    verify_cor_diff,
    weyl_invariance_check,
)
from .laumon import (
    LaumonContext,
    an_summation_check,
    substitution_check,
    verify_difference_equation,
    verify_local_limit,
    _series_diff,
)
from .macdonald import (
    apply_D1N,
    eigenvalue,
    mac_vars,
    macdonald_P,
    macdonald_P_oracle,
    pieri_L,
)
from .reports import Status, VerificationReport
from .series import expand
from .tableaux import ThetaMatrix, partitions_upto

__all__ = ["CHECKS", "run_check", "check_names"]


def _status(ok: bool) -> str:
    return Status.PASSED if ok else Status.FAILED


def check_tableau_oracle(params):
    max_size = params.get("max_size", 5)
    max_n = params.get("max_n", 4)
    witnesses = []
    for n in range(1, max_n + 1):
        for lam in partitions_upto(max_size, n):
            P = macdonald_P(lam, n)
            O = macdonald_P_oracle(lam, n)
            keys = set(P.mcoeffs) | set(O.mcoeffs)
            for mu in sorted(keys):
                if not rational_eq(P.coefficient(mu), O.coefficient(mu)):
                    witnesses.append({
                        "lambda": list(lam), "n": n, "mu": list(mu),
                        "tableau": P.coefficient(mu).canonical_str(),
                        "oracle": O.coefficient(mu).canonical_str(),
                    })
    return _status(not witnesses), witnesses


def check_eigen(params):
    max_size = params.get("max_size", 5)
    max_n = params.get("max_n", 4)
    witnesses = []
    for n in range(1, max_n + 1):
        vars = mac_vars(n)
        for lam in partitions_upto(max_size, n):
            P = macdonald_P(lam, n)
            poly, _den = P.clear_denominators()
            image = apply_D1N(poly, n)
            ev = eigenvalue(lam, n).transform(vars, {})
            if image != ev * poly:
                witnesses.append({"lambda": list(lam), "n": n})
    return _status(not witnesses), witnesses


def _printed_c2(vars) -> FactoredRational:
    # the rank-2 coefficient at theta_12 = 1, as printed:
    # (s z2/z1;q)_1/(q z2/z1;q)_1 * (s;q)_1/(q;q)_1 * (q/s)
    one = LaurentPolynomial.one(vars)

    def mono(**kw):
        e = [0] * len(vars)
        for k, v in kw.items():
            e[vars.index(k)] = v
        return LaurentPolynomial.monomial(vars, e)

    return FactoredRational(vars, 1, None, [
        (one - mono(s=1, z2=1, z1=-1), 1), (one - mono(q=1, z2=1, z1=-1), -1),
        (one - mono(s=1), 1), (one - mono(q=1), -1),
    ]) * FactoredRational.monomial(vars, [1, -1] + [0] * (len(vars) - 2))


def _printed_c3(vars, t12, t13, t23) -> FactoredRational:
    """The rank-3 coefficient spelled out as eight Pochhammer ratios.

    The sixth ratio carries z2/z1 (the orientation forced by the
    recursion; the spelled-out source display shows it inverted, which
    contradicts the recursion and every downstream identity).
    """
    from .qcalc import pochhammer

    def mono(qp=0, sp=0, **kw):
        e = [0] * len(vars)
        e[0], e[1] = qp, sp
        for k, v in kw.items():
            e[vars.index(k)] += v
        return FactoredRational.monomial(vars, e)

    def poch(base, ln):
        return pochhammer(base, ln)

    out = FactoredRational.one(vars)
    out = out * poch(mono(t13 - t23, 1, z2=1, z1=-1), t12) / poch(mono(t13 - t23 + 1, 0, z2=1, z1=-1), t12)
    out = out * poch(mono(-t12 + 1, -1), t12) / poch(mono(-t12, 0), t12)
    out = out * poch(mono(0, 1, z2=1, z1=-1), t13) / poch(mono(1, 0, z2=1, z1=-1), t13)
    out = out * poch(mono(-t13 + 1, -1), t13) / poch(mono(-t13, 0), t13)
    out = out * poch(mono(0, 1, z3=1, z1=-1), t13) / poch(mono(1, 0, z3=1, z1=-1), t13)
    out = out * poch(mono(-t23 + 1, -1, z2=1, z1=-1), t13) / poch(mono(-t23, 0, z2=1, z1=-1), t13)
    out = out * poch(mono(0, 1, z3=1, z2=-1), t23) / poch(mono(1, 0, z3=1, z2=-1), t23)
    out = out * poch(mono(-t23 + 1, -1), t23) / poch(mono(-t23, 0), t23)
    return out


def check_cn(params):
    max_entry = params.get("max_entry", 2)
    max_n = params.get("max_n", 4)
    witnesses = []
    for n in range(2, max_n + 1):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for vals in itertools.product(range(max_entry + 1), repeat=len(pairs)):
            th = ThetaMatrix(n, dict(zip(pairs, vals)))
            closed = c_N_closed(th, n)
            if not rational_eq(closed, c_N_recursive(th, n)):
                witnesses.append({"n": n, "theta": list(vals), "forms": "closed vs recursive"})
            if not rational_eq(closed, c_N_closed_alt(th, n)):
                witnesses.append({"n": n, "theta": list(vals), "forms": "closed vs rewritten"})
    # printed rank-2 and rank-3 examples
    v2 = ba_vars(2)
    th2 = ThetaMatrix(2, {(1, 2): 1})
    if not rational_eq(c_N_closed(th2, 2), _printed_c2(v2)):
        witnesses.append({"n": 2, "forms": "printed c2"})
    v3 = ba_vars(3)
    for t12, t13, t23 in itertools.product(range(max_entry + 1), repeat=3):
        th3 = ThetaMatrix(3, {(1, 2): t12, (1, 3): t13, (2, 3): t23})
        if not rational_eq(c_N_closed(th3, 3), _printed_c3(v3, t12, t13, t23)):
            witnesses.append({"n": 3, "theta": [t12, t13, t23], "forms": "printed c3"})
    return _status(not witnesses), witnesses


def check_termination(params):
    max_size = params.get("max_size", 4)
    max_n = params.get("max_n", 3)
    witnesses = []
    for n in range(1, max_n + 1):
        for lam in partitions_upto(max_size, n):
            ctx = BAContext(n, 1)
            try:
                S = specialize_f_to_P(lam, ctx)
            except ArithmeticError as exc:
                witnesses.append({"lambda": list(lam), "n": n, "error": str(exc)})
                continue
            P = macdonald_P(lam, n)
            if not S.equals(P):
                witnesses.append({"lambda": list(lam), "n": n, "error": "specialization != P"})
    return _status(not witnesses), witnesses


def check_dai_ichi(params):
    n = params.get("n", 2)
    trunc = params.get("truncation", 2)
    rep = verify_eigen_equation(BAContext(n, trunc))
    witnesses = [
        {"degree": list(k), "residual": v["witness"]}
        for k, v in rep.items() if isinstance(k, tuple) and not v["zero"]
    ]
    return _status(rep["all_zero"]), witnesses


def check_shir(params):
    n = params.get("n", 2)
    degree = params.get("degree", 3)
    rep = verify_difference_equation(LaumonContext(n, degree=degree))
    witnesses = [
        {"degree": list(k), "residual": v["witness"]}
        for k, v in rep.items() if isinstance(k, tuple) and not v["zero"]
    ]
    return _status(rep["all_zero"]), witnesses


def check_substitution(params):
    n = params.get("n", 2)
    degree = params.get("degree", 3)
    rep = substitution_check(LaumonContext(n, degree=degree))
    witnesses = [{"theta": list(k)} for k, v in rep.items() if isinstance(k, tuple) and not v]
    return _status(rep["all_match"]), witnesses


def check_junichi(params):
    n = params.get("n", 2)
    order = params.get("order", 2)
    rep = verify_local_limit(n, order)
    if rep["passed"]:
        return Status.PASSED, []
    status = Status.NOT_STABILIZED if not rep["stabilized"] else Status.FAILED
    return status, rep.get("witness", [{"error": "mismatch"}])


def check_ansum(params):
    rank = params.get("rank", 1)
    order = params.get("order", 2)
    rep = an_summation_check(rank, order)
    if rep["passed"]:
        return Status.PASSED, []
    return Status.FAILED, rep.get("witness", [{"error": "identity fails"}])


def check_h0(params):
    max_n = params.get("max_n", 4)
    t_order = params.get("t_order", 8)
    h_order = params.get("order", 2)
    limit_n = params.get("limit_n", 3)
    witnesses = []
    for n in range(2, max_n + 1):
        W = W_poly(n)
        F = F_poly(n, t_order)
        WF = [sum(W[i] * F[k - i] for i in range(min(len(W), k + 1)))
              for k in range(t_order + 1)]
        h0 = expand(H0_closed(n), t_order)
        h0v = []
        for b in range(t_order + 1):
            p = h0.coeffs.get((0, b))
            h0v.append(p.constant_coef() if p is not None else 0)
        if WF != h0v:
            witnesses.append({"n": n, "WF": WF, "H0": h0v})
    for n in range(2, limit_n + 1):
        w = GLWeight((0,) * (n - 1))
        H = H_limit(w, h_order)
        if H != expand(H0_closed(n), h_order):
            witnesses.append({"n": n, "error": "stable series != closed H0"})
    return _status(not witnesses), witnesses


def _dominant_weights(n, max_sum):
    ranges = [range(0, max_sum + 1)] * (n - 1)
    for lv in itertools.product(*ranges):
        if sum(lv) <= max_sum:
            yield lv


def check_hp(params):
    max_n = params.get("max_n", 3)
    order = params.get("order", 2)
    max_sum = params.get("max_weight_sum", 2)
    witnesses = []
    for n in range(2, max_n + 1):
        for lv in _dominant_weights(n, max_sum):
            w = GLWeight(lv)
            H = H_limit(w, order)
            S = h_series(w, order)
            if H != S:
                witnesses.append({"n": n, "weight": list(lv),
                                  "diff": _series_diff(H, S)[:3]})
    return _status(not witnesses), witnesses


def check_cordiff(params):
    max_n = params.get("max_n", 3)
    max_sum = params.get("max_weight_sum", 2)
    witnesses = []
    for n in range(2, max_n + 1):
        for lv in _dominant_weights(n, max_sum):
            rep = verify_cor_diff(GLWeight(lv))
            if not rep["passed"]:
                witnesses.append({"n": n, "weight": list(lv)})
    return _status(not witnesses), witnesses


def check_vanishing(params):
    max_n = params.get("max_n", 3)
    order = params.get("order", 2)
    witnesses = []
    for n in range(2, max_n + 1):
        for lv in itertools.product(*([(-1, 0, 1)] * (n - 1))):
            if min(lv) != -1:
                continue
            H = H_limit(GLWeight(lv), order)
            if not H.is_zero():
                witnesses.append({"n": n, "weight": list(lv),
                                  "series": H.canonical_str()})
    return _status(not witnesses), witnesses


def check_chibq(params):
    max_n = params.get("max_n", 3)
    order = params.get("order", 2)
    witnesses = []
    for n in range(2, max_n + 1):
        weights = [(0,) * (n - 1), (1,) + (0,) * (n - 2)]
        for lv in weights:
            w = GLWeight(lv)
            a = chi_bQ_closed(w, order)
            b = chi_bQ_localization(w, order)
            if a != b:
                witnesses.append({"n": n, "weight": list(lv),
                                  "diff": _series_diff(a, b)[:3]})
    return _status(not witnesses), witnesses


def check_weyl(params):
    n = params.get("n", 2)
    alpha = tuple(params.get("alpha", (1,) * (n - 1)))
    weight = GLWeight(tuple(params.get("weight", (0,) * (n - 1))))
    rep = weyl_invariance_check(alpha, weight)
    return _status(rep["passed"]), [] if rep["passed"] else [rep]


def check_pieri(params):
    """Exact Pieri identity on the weight-indexed Macdonald family."""
    from .euler import glob_vars, macdonald_in_z, _zsum
    max_n = params.get("max_n", 3)
    max_sum = params.get("max_weight_sum", 2)
    witnesses = []
    for n in range(2, max_n + 1):
        vars = glob_vars(n)
        for lv in _dominant_weights(n, max_sum):
            w = GLWeight(lv)
            lhs = FactoredRational.zero(vars)
            for r in range(1, n + 1):
                sh = w.shifted(r)
                if not sh.is_dominant():
                    continue
                L = pieri_L(lv, r, n).transform(vars, {})
                lhs = lhs + L * macdonald_in_z(sh)
            rhs = _zsum(n) * macdonald_in_z(w)
            if not rational_eq(lhs, rhs):
                witnesses.append({"n": n, "weight": list(lv)})
    return _status(not witnesses), witnesses


CHECKS = {
    "tableau-oracle": (check_tableau_oracle, "tableau sum vs eigen-solve oracle"),
    "eigen": (check_eigen, "difference-operator eigen identity for P"),
    "cn": (check_cn, "series coefficients: recursion vs closed forms vs printed examples"),
    "termination": (check_termination, "specialized series terminates onto P"),
    "dai-ichi": (check_dai_ichi, "eigen equation for the spectral series"),
    "shir": (check_shir, "difference equation for the localization series"),
    "substitution": (check_substitution, "coefficient dictionary J <-> f under s=qt"),
    "junichi": (check_junichi, "stabilization to the infinite product"),
    "ansum": (check_ansum, "root-lattice summation identity"),
    "h0": (check_h0, "untwisted stable character: closed form and counting series"),
    "hp": (check_hp, "stable character equals prefactor times Macdonald polynomial"),
    "cordiff": (check_cordiff, "weight-shift eigen identity on the closed family"),
    "vanishing": (check_vanishing, "stable character vanishes for nondominant twists"),
    "chibq": (check_chibq, "arc-space closed formula vs truncated localization"),
    "weyl": (check_weyl, "Weyl invariance of the fixed-degree character"),
    "pieri": (check_pieri, "Pieri identity for the weight-indexed family"),
}

ALIASES = {
    "difference-equation": "shir",
    "limit": "junichi",
}


def check_names() -> list:
    return sorted(CHECKS)


def run_check(name: str, workers: int = 1, **params) -> VerificationReport:
    """Run the check ``name`` on ``params`` and report its verdict.

    ``workers`` is accepted and ignored: every check runs serially.  The
    benchmark harness (``perfbench/child.py``) and the determinism
    criterion in ``tests/test_acceptance.py`` still pass it.  It is never
    part of the report's parameters, which carry the constant
    ``equality_mode`` "exact" so that canonical bytes stay as they were.
    """
    name = ALIASES.get(name, name)
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(check_names())}")
    fn, _desc = CHECKS[name]
    t0 = time.monotonic()
    status, witnesses = fn(params)
    return VerificationReport(
        check=name,
        parameters={**params, "equality_mode": "exact"},
        status=status,
        witnesses=witnesses,
        wall_time=time.monotonic() - t0,
    )
