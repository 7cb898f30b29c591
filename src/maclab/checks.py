"""Named verification checks with pinned default parameter ranges.

Each check runs a mathematical identity at desk scale and returns a
:class:`~maclab.reports.VerificationReport`.  The same registry backs the
CLI (``maclab verify <name>``) and the acceptance test suite.

Each check is a function of keyword-only parameters whose defaults, in
its signature, are its pinned ranges; :func:`run_check` passes it the
parameters it is given, so one that the check does not take raises
``TypeError``.

Every identity is decided by exact equality over Q, and only that can
mark a check PASSED.  Checks run serially in the calling process.
"""

from __future__ import annotations

import itertools
import time

from .algebra import rational_eq, sum_is_zero
from .baker import (
    ba_vars,
    specialize_each,
    verify_eigen_equation,
    _closed_alt_ledger,
    _closed_ledger,
    _recursive_ledger,
    _theta_entries_upto,
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
    an_summation_check,
    substitution_check,
    verify_difference_equation,
    verify_local_limit,
    _series_diff,
)
from .macdonald import (
    eigen_residual,
    eigenvalue,
    macdonald_P,
    macdonald_P_oracle,
    pieri_L,
    satisfies_oracle,
)
from .qcalc import Ledger
from .reports import Status, VerificationReport
from .series import expand
from .tableaux import ThetaMatrix, partitions_upto

__all__ = ["CHECKS", "run_check", "check_names", "check_parameters"]


def _status(ok: bool) -> str:
    return Status.PASSED if ok else Status.FAILED


def check_tableau_oracle(*, max_size=5, max_n=4):
    """The tableau sum P_lambda satisfies the oracle's triangular system
    (:func:`~maclab.macdonald.satisfies_oracle`) for |lambda| <= max_size,
    N <= max_n.  Only where it does not is the oracle solved, to name the
    coefficients that differ."""
    witnesses = []
    for n in range(1, max_n + 1):
        for lam in partitions_upto(max_size, n):
            P = macdonald_P(lam, n)
            if satisfies_oracle(P, lam):
                continue
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


def check_eigen(*, max_size=5, max_n=4):
    """D P_lambda == ev_lambda * P_lambda for |lambda| <= max_size,
    N <= max_n, decided on the bialternant form of the operator from
    P's m-expansion (:func:`~maclab.macdonald.eigen_residual`).  That
    form of D shares no operator code with the product form from which
    the oracle of ``tableau-oracle`` reads its operator images, so the
    two checks test each other."""
    witnesses = []
    for n in range(1, max_n + 1):
        for lam in partitions_upto(max_size, n):
            if eigen_residual(macdonald_P(lam, n), eigenvalue(lam, n)):
                witnesses.append({"lambda": list(lam), "n": n})
    return _status(not witnesses), witnesses


def _printed_c2(vars) -> Ledger:
    # the rank-2 coefficient at theta_12 = 1, as printed:
    # (s z2/z1;q)_1/(q z2/z1;q)_1 * (s;q)_1/(q;q)_1 * (q/s)
    led = Ledger(vars, 1, (1, -1) + (0,) * (len(vars) - 2))
    led.zratio(1, 0, 1, 2, 1)
    led.zratio(1, 1, 0, 2, 1, mult=-1)
    led.zratio(1, 0, 1)
    led.zratio(1, 1, 0, mult=-1)
    return led


def _printed_c3(vars, t12, t13, t23) -> Ledger:
    """The rank-3 coefficient spelled out as eight Pochhammer ratios,
    one ``zratio`` row per symbol of the display: (q^a s^b z_num/z_den; q)_n
    is ``zratio(n, a, b, num, den)``.

    The sixth ratio carries z2/z1 (the orientation forced by the
    recursion; the spelled-out source display shows it inverted, which
    contradicts the recursion and every downstream identity).
    """
    led = Ledger(vars)
    led.zratio(t12, t13 - t23, 1, 2, 1)
    led.zratio(t12, t13 - t23 + 1, 0, 2, 1, mult=-1)
    led.zratio(t12, -t12 + 1, -1)
    led.zratio(t12, -t12, 0, mult=-1)
    led.zratio(t13, 0, 1, 2, 1)
    led.zratio(t13, 1, 0, 2, 1, mult=-1)
    led.zratio(t13, -t13 + 1, -1)
    led.zratio(t13, -t13, 0, mult=-1)
    led.zratio(t13, 0, 1, 3, 1)
    led.zratio(t13, 1, 0, 3, 1, mult=-1)
    led.zratio(t13, -t23 + 1, -1, 2, 1)
    led.zratio(t13, -t23, 0, 2, 1, mult=-1)
    led.zratio(t23, 0, 1, 3, 2)
    led.zratio(t23, 1, 0, 3, 2, mult=-1)
    led.zratio(t23, -t23 + 1, -1)
    led.zratio(t23, -t23, 0, mult=-1)
    return led


def check_cn(*, max_entry=2, max_n=4):
    """The c_N forms and the printed examples, compared as ledgers."""
    witnesses, rank3 = [], {}
    for n in range(2, max_n + 1):
        for th in _theta_entries_upto(n, max_entry):
            closed, where = _closed_ledger(th, n), th.entry_list()
            if n == 3:
                rank3[where] = closed
            if closed != _recursive_ledger(th, n):
                witnesses.append({"n": n, "theta": list(where), "forms": "closed vs recursive"})
            if closed != _closed_alt_ledger(th, n):
                witnesses.append({"n": n, "theta": list(where), "forms": "closed vs rewritten"})
    # printed rank-2 and rank-3 examples
    if _closed_ledger(ThetaMatrix(2, {(1, 2): 1}), 2) != _printed_c2(ba_vars(2)):
        witnesses.append({"n": 2, "forms": "printed c2"})
    for th in _theta_entries_upto(3, max_entry):
        ts = th.entry_list()
        closed = rank3[ts] if ts in rank3 else _closed_ledger(th, 3)
        if closed != _printed_c3(ba_vars(3), *ts):
            witnesses.append({"n": 3, "theta": list(ts), "forms": "printed c3"})
    return _status(not witnesses), witnesses


def check_termination(*, max_size=4, max_n=3):
    witnesses = []
    for n in range(1, max_n + 1):
        lams = partitions_upto(max_size, n)
        for lam, S in zip(lams, specialize_each(lams, n)):
            if isinstance(S, ArithmeticError):
                witnesses.append({"lambda": list(lam), "n": n, "error": str(S)})
            elif not S.equals(macdonald_P(lam, n)):
                witnesses.append({"lambda": list(lam), "n": n, "error": "specialization != P"})
    return _status(not witnesses), witnesses


def _residual_witnesses(residual):
    """One witness per x-degree of a nonzero operator residual, in
    degree order, and the verdict."""
    witnesses = [{"degree": list(k), "residual": residual.coeffs[k].canonical_str()}
                 for k in sorted(residual.coeffs)]
    return _status(not witnesses), witnesses


def check_dai_ichi(*, n=2, truncation=2):
    return _residual_witnesses(verify_eigen_equation(n, truncation))


def check_shir(*, n=2, degree=3):
    return _residual_witnesses(verify_difference_equation(n, degree))


def check_substitution(*, n=2, degree=3):
    witnesses = [{"theta": list(k)} for k in substitution_check(n, degree)]
    return _status(not witnesses), witnesses


def check_junichi(*, n=2, order=2):
    stabilized, diff = verify_local_limit(n, order)
    if not stabilized:
        return Status.NOT_STABILIZED, diff
    return _status(not diff), diff


def check_ansum(*, rank=1, order=2):
    diff = an_summation_check(rank, order)
    return _status(not diff), diff


def check_h0(*, max_n=4, t_order=8, order=2, limit_n=3):
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
        H = H_limit(w, order)
        if H != expand(H0_closed(n), order):
            witnesses.append({"n": n, "error": "stable series != closed H0"})
    return _status(not witnesses), witnesses


def _dominant_weights(n, max_sum):
    ranges = [range(0, max_sum + 1)] * (n - 1)
    for lv in itertools.product(*ranges):
        if sum(lv) <= max_sum:
            yield lv


def check_hp(*, max_n=3, order=2, max_weight_sum=2):
    witnesses = []
    for n in range(2, max_n + 1):
        for lv in _dominant_weights(n, max_weight_sum):
            w = GLWeight(lv)
            H = H_limit(w, order)
            S = h_series(w, order)
            if H != S:
                witnesses.append({"n": n, "weight": list(lv),
                                  "diff": _series_diff(H, S)[:3]})
    return _status(not witnesses), witnesses


def check_cordiff(*, max_n=3, max_weight_sum=2):
    witnesses = []
    for n in range(2, max_n + 1):
        for lv in _dominant_weights(n, max_weight_sum):
            if not verify_cor_diff(GLWeight(lv)):
                witnesses.append({"n": n, "weight": list(lv)})
    return _status(not witnesses), witnesses


def check_vanishing(*, max_n=3, order=2):
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


def check_chibq(*, max_n=3, order=2):
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


def check_weyl(*, n=2, alpha=None, weight=None):
    """Weyl invariance at ``alpha`` and ``weight``, by default the
    all-ones degree and the zero weight of rank n."""
    alpha = (1,) * (n - 1) if alpha is None else tuple(alpha)
    weight = GLWeight((0,) * (n - 1) if weight is None else weight, n)
    if weyl_invariance_check(alpha, weight):
        return Status.PASSED, []
    return Status.FAILED, [{"alpha": list(alpha), "weight": list(weight.lvec), "passed": False}]


def check_pieri(*, max_n=3, max_weight_sum=2):
    """Exact Pieri identity on the weight-indexed Macdonald family."""
    from .euler import glob_vars, macdonald_in_z, _zsum
    witnesses = []
    for n in range(2, max_n + 1):
        vars = glob_vars(n)
        for lv in _dominant_weights(n, max_weight_sum):
            w = GLWeight(lv)
            terms = []
            for r in range(1, n + 1):
                sh = w.shifted(r)
                if sh.is_dominant():
                    terms.append(pieri_L(lv, r, n, vars) * macdonald_in_z(sh))
            terms.append(-(_zsum(n) * macdonald_in_z(w)))
            if not sum_is_zero(terms):
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


def _check(name: str):
    """The registered name of ``name`` (or of its alias) and its check."""
    name = ALIASES.get(name, name)
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(check_names())}")
    return name, CHECKS[name][0]


def check_parameters(name: str) -> tuple:
    """The keyword parameters the check ``name`` (or its alias) takes."""
    return tuple(_check(name)[1].__kwdefaults__)


def run_check(name: str, workers: int = 1, **params) -> VerificationReport:
    """Run the check ``name`` on ``params`` and report its verdict.

    ``params`` are the check's keyword parameters; one it does not take
    raises ``TypeError``, and one not given takes its default.  The
    report's parameters are exactly those given, plus the constant
    ``equality_mode`` "exact", so that canonical bytes stay as they were.

    ``workers`` is accepted and ignored: every check runs serially.  The
    benchmark harness (``perfbench/child.py``) still passes it.

    The memo tables (:mod:`~maclab.memo`) stay warm for the next check.
    """
    name, fn = _check(name)
    t0 = time.monotonic()
    status, witnesses = fn(**params)
    return VerificationReport(
        check=name,
        parameters={**params, "equality_mode": "exact"},
        status=status,
        witnesses=witnesses,
        wall_time=time.monotonic() - t0,
    )
