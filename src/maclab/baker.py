"""Formal eigenfunction series with generic spectral parameters.

The series lives in the N-1 ratio variables u_i = y_{i+1}/y_i; the
monomial attached to a theta matrix is prod (y_j/y_i)^{theta_ij}, whose
u-degree vector coincides with the x-degree vector used by the
localization series.  Coefficients c_N(theta) are rational in (q, s, z)
and are computed both by the defining recursion and by the closed double
product, which are checked against each other.

Specializing z_i = s^{N-i} q^{lambda_i} kills every coefficient outside
the shape-lambda polytope and turns the series into the Macdonald
polynomial P_lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .algebra import FactoredRational, LaurentPolynomial, rational_eq
from .macdonald import SymmetricPolynomial
from .parallel import pmap
from .qcalc import pochhammer_zratio
from .series import XSeries
from .tableaux import (
    Partition,
    ThetaMatrix,
    enumerate_pol_lambda,
    strip_sizes,
    theta_upto_degree,
)

__all__ = [
    "BAContext",
    "ba_vars",
    "c_N_recursive",
    "c_N_closed",
    "c_N_closed_alt",
    "f_N_series",
    "specialize_f_to_P",
    "verify_eigen_equation",
    "TerminationFailure",
    "ResidualNonzero",
]


class TerminationFailure(ArithmeticError):
    """A coefficient outside the shape polytope survived specialization."""


class ResidualNonzero(ArithmeticError):
    pass


@cache
def ba_vars(n: int) -> tuple:
    """The context (q, s, z_1 .. z_N), one shared tuple per rank:
    cache entries keyed on it then hold no copies of their own."""
    return ("q", "s") + tuple(f"z{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class BAContext:
    """Rank, truncation order for the ratio variables, worker count."""

    n: int
    truncation: int
    workers: int = 1
    vars: tuple = field(init=False)

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        object.__setattr__(self, "vars", ba_vars(self.n))


def _mono(vars, **powers) -> FactoredRational:
    e = [0] * len(vars)
    for name, p in powers.items():
        e[vars.index(name)] += p
    return FactoredRational.monomial(vars, e)


def c_N_recursive(theta: ThetaMatrix, n: int) -> FactoredRational:
    """Coefficient c_N(theta; z; q, s) by the defining recursion: the
    rank-(N-1) value at q-shifted z times a product of four Pochhammer
    ratios over 1 <= i <= j <= N-1 controlled by the last column."""
    vars = ba_vars(n)
    return _c_rec(theta, theta.n, vars)


def _c_rec(theta: ThetaMatrix, m: int, vars) -> FactoredRational:
    if m == 1:
        return FactoredRational.one(vars)
    sub = _c_rec(theta.submatrix(m - 1), m - 1, vars)
    # z_i -> q^{-theta_{i,m}} z_i for i < m
    for i in range(1, m):
        sh = theta[(i, m)]
        if sh:
            e = [0] * len(vars)
            e[0] = -sh
            e[vars.index(f"z{i}")] = 1
            sub = sub.substitute(f"z{i}", 1, e)
    out = sub
    for i in range(1, m):
        for j in range(i, m):
            ln = theta[(i, m)]
            if not ln:
                continue
            tjm = theta[(j, m)]
            out = out * pochhammer_zratio(vars, ln, 0, 1, j + 1, i)       # (s z_{j+1}/z_i; q)
            out = out / pochhammer_zratio(vars, ln, 1, 0, j + 1, i)       # (q z_{j+1}/z_i; q)
            out = out * pochhammer_zratio(vars, ln, 1 - tjm, -1, j, i)    # (q^{1-theta_{j,m}} z_j / s z_i; q)
            out = out / pochhammer_zratio(vars, ln, -tjm, 0, j, i)        # (q^{-theta_{j,m}} z_j/z_i; q)
    return out


def c_N_closed(theta: ThetaMatrix, n: int) -> FactoredRational:
    """Closed form of c_N(theta): the double product over 2 <= k <= N and
    1 <= i <= j <= k-1 with exponents shifted by the tail sums
    sum_{a>k} (theta_{ia} - theta_{j+1,a}) and sum_{a>k} (theta_{ia} - theta_{ja})."""
    vars = ba_vars(n)
    nn = theta.n
    out = FactoredRational.one(vars)
    for k in range(2, nn + 1):
        for i in range(1, k):
            for j in range(i, k):
                ln = theta[(i, k)]
                if not ln:
                    continue
                e1 = sum(theta[(i, a)] - (theta[(j + 1, a)] if j + 1 < a else 0)
                         for a in range(k + 1, nn + 1))
                e2 = sum(theta[(i, a)] - (theta[(j, a)] if j < a else 0)
                         for a in range(k + 1, nn + 1))
                out = out * pochhammer_zratio(vars, ln, e1, 1, j + 1, i)
                out = out / pochhammer_zratio(vars, ln, e1 + 1, 0, j + 1, i)
                out = out * pochhammer_zratio(vars, ln, -theta[(j, k)] + e2 + 1, -1, j, i)
                out = out / pochhammer_zratio(vars, ln, -theta[(j, k)] + e2, 0, j, i)
    return out


def c_N_closed_alt(theta: ThetaMatrix, n: int) -> FactoredRational:
    """The rewritten closed form carrying the explicit (q/s)^theta
    monomials; must agree with :func:`c_N_closed` (both are kept as a
    guard against a silent transcription error in either display)."""
    vars = ba_vars(n)
    nn = theta.n
    out = FactoredRational.one(vars)
    for i in range(1, nn + 1):
        for j in range(i + 1, nn + 1):
            ln = theta[(i, j)]
            if not ln:
                continue
            a_sum = sum(theta[(i, a)] - (theta[(j, a)] if j < a else 0)
                        for a in range(j + 1, nn + 1))
            out = out * _mono(vars, q=ln, s=-ln)
            out = out * pochhammer_zratio(vars, ln, 0, 1)                 # (s; q)
            out = out / pochhammer_zratio(vars, ln, 1, 0)                 # (q; q)
            out = out * pochhammer_zratio(vars, ln, a_sum, 1, j, i)       # (q^A s z_j/z_i; q)
            out = out / pochhammer_zratio(vars, ln, a_sum + 1, 0, j, i)   # (q^{1+A} z_j/z_i; q)
    for k in range(3, nn + 1):
        for l in range(1, k):
            for m in range(l + 1, k):
                ln = theta[(l, k)]
                if not ln:
                    continue
                b_sum = sum(theta[(l, b)] - theta[(m, b)] for b in range(k + 1, nn + 1))
                out = out * _mono(vars, q=ln, s=-ln)
                out = out * pochhammer_zratio(vars, ln, b_sum, 1, m, l)
                out = out / pochhammer_zratio(vars, ln, b_sum + 1, 0, m, l)
                out = out * pochhammer_zratio(vars, ln, -ln + theta[(m, k)] - b_sum, 1, l, m)
                out = out / pochhammer_zratio(vars, ln, 1 - ln + theta[(m, k)] - b_sum, 0, l, m)
    return out


def _closed_job(args):
    th, n = args
    return c_N_closed(th, n)


def f_N_series(ctx: BAContext) -> XSeries:
    """The ratio-variable part of the eigenfunction series: the
    coefficient of u^alpha is the sum of c_N(theta) over theta matrices
    of u-degree alpha, up to total degree ctx.truncation."""
    n = ctx.n
    thetas = theta_upto_degree(n, ctx.truncation)
    values = pmap(_closed_job, [(th, n) for th in thetas], ctx.workers)
    out = XSeries(n - 1, ctx.vars, ctx.truncation)
    for th, v in zip(thetas, values):
        k = th.degree_vector()
        cur = out.coeffs.get(k)
        s = v if cur is None else cur + v
        if s.is_zero():
            out.coeffs.pop(k, None)
        else:
            out.coeffs[k] = s
    return out


def _z_specialization(lam, n: int) -> dict:
    """Mapping z_i -> s^{N-i} q^{lambda_i} over (q, s)."""
    lam = Partition(lam)
    full = list(lam) + [0] * (n - len(lam))
    vars = ba_vars(n)
    mapping = {}
    for i in range(1, n + 1):
        e = [0] * len(vars)
        e[0] = full[i - 1]
        e[1] = n - i
        mapping[f"z{i}"] = (1, tuple(e))
    return mapping


def specialize_f_to_P(lam, ctx: BAContext, margin: int = 2) -> SymmetricPolynomial:
    """Specialize z_i = s^{N-i} q^{lambda_i}.

    Checks termination: every c_N(theta) with theta outside the
    shape-lambda polytope (entries scanned up to lambda_1 + margin) must
    vanish, and the surviving finite sum is returned as a symmetric
    polynomial in the m-basis (it equals P_lambda)."""
    lam = Partition(lam)
    n = ctx.n
    vars = ctx.vars
    mapping = _z_specialization(lam, n)
    pol = set(th.entry_list() for th in enumerate_pol_lambda(lam, n))
    bound = (lam[0] if lam else 0) + margin
    for th in _theta_entries_upto(n, bound):
        if th.entry_list() in pol:
            continue  # specialised and summed below
        if not c_N_closed(th, n).transform(vars, mapping).is_zero():
            raise TerminationFailure(
                f"coefficient at theta={dict(th.entries)} survives specialization")
    coeffs: dict = {}
    for th in enumerate_pol_lambda(lam, n):
        spec = c_N_closed(th, n).transform(vars, mapping)
        # the surviving coefficient is a function of (q, s) only
        qs_spec = _drop_z(spec, n)
        w = strip_sizes(th, lam)
        if list(w) != sorted(w, reverse=True):
            continue
        mu = Partition(w)
        coeffs[mu] = coeffs[mu] + qs_spec if mu in coeffs else qs_spec
    return SymmetricPolynomial(n, coeffs)


def _drop_z(fr: FactoredRational, n: int) -> FactoredRational:
    qs = ("q", "s")
    return fr.transform(qs, {f"z{i}": (1, (0, 0)) for i in range(1, n + 1)})


def _theta_entries_upto(n: int, bound: int):
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]

    def rec(idx, acc):
        if idx == len(pairs):
            yield ThetaMatrix(n, {p: v for p, v in zip(pairs, acc) if v})
            return
        for v in range(bound + 1):
            acc.append(v)
            yield from rec(idx + 1, acc)
            acc.pop()

    yield from rec(0, [])


def _shift_coef(k: tuple, i: int, vars) -> FactoredRational:
    """q-power picked up by the u-monomial u^k under y_i -> q y_i."""
    power = 0
    if i >= 2:
        power += k[i - 2]   # u_{i-1} -> q u_{i-1}
    if i <= len(k):
        power -= k[i - 1]   # u_i -> q^{-1} u_i
    e = [0] * len(vars)
    e[0] = power
    return FactoredRational.monomial(vars, e)


def _operator_coefficient(i: int, n: int, trunc: int, vars) -> XSeries:
    """prod_{j<i} (1 - s w)/(1 - w) * prod_{j>i} (s - v)/(1 - v) expanded
    in the ratio variables, with w = u_j...u_{i-1}, v = u_i...u_{j-1}."""
    out = XSeries.one(n - 1, vars, trunc)
    s_mono = FactoredRational.monomial(vars, (0, 1) + (0,) * (len(vars) - 2))
    one = FactoredRational.one(vars)
    for j in range(1, i):
        mono = tuple(1 if j <= k + 1 <= i - 1 else 0 for k in range(n - 1))
        out = out * XSeries.binomial(n - 1, vars, trunc, s_mono, mono)
        out = out * XSeries.geometric(n - 1, vars, trunc, one, mono)
    for j in range(i + 1, n + 1):
        mono = tuple(1 if i <= k + 1 <= j - 1 else 0 for k in range(n - 1))
        out = out * XSeries.binomial(n - 1, vars, trunc, s_mono.inverse(), mono).scale(s_mono)
        out = out * XSeries.geometric(n - 1, vars, trunc, one, mono)
    return out


def verify_eigen_equation(ctx: BAContext, strict: bool = False) -> dict:
    """Order-by-order check that the difference operator acts on the
    eigenfunction series by multiplication with z_1 + ... + z_N.

    The operator is conjugated by the monomial prefactor, on which
    T_{q,y_i} acts by the scalar s^{i-N} z_i; its rational coefficients
    are expanded as geometric series in the ratio variables.  Returns a
    dict with per-degree residual status; under ``strict`` a surviving
    residual raises :class:`ResidualNonzero` with its multi-index.
    """
    n, trunc = ctx.n, ctx.truncation
    vars = ctx.vars
    g = f_N_series(ctx)
    total = XSeries(n - 1, vars, trunc)
    for i in range(1, n + 1):
        shifted = g.map_coeffs(lambda k, c, i=i: c * _shift_coef(k, i, vars))
        coeff = _operator_coefficient(i, n, trunc, vars)
        e = [0] * len(vars)
        e[1] = i - n
        e[vars.index(f"z{i}")] = 1
        scale = FactoredRational.monomial(vars, e)
        total = total + (coeff * shifted).scale(scale)
    zsum = LaurentPolynomial.zero(vars)
    for i in range(1, n + 1):
        e = [0] * len(vars)
        e[vars.index(f"z{i}")] = 1
        zsum = zsum + LaurentPolynomial.monomial(vars, e)
    residual = total - g.scale(FactoredRational.from_poly(zsum))
    report = {}
    for alpha in sorted(set(list(residual.coeffs) + [(0,) * (n - 1)])):
        c = residual.coeffs.get(alpha)
        ok = c is None or c.is_zero() or rational_eq(c, FactoredRational.zero(vars))
        if not ok and strict:
            raise ResidualNonzero(f"residual at ratio-degree {alpha}: {c.canonical_str()}")
        report[alpha] = {"zero": bool(ok),
                         "witness": None if ok else c.canonical_str()}
    report["all_zero"] = all(v["zero"] for k, v in report.items() if isinstance(k, tuple))
    return report
