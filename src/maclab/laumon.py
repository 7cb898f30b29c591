"""Fixed-point localization series for based quasi-flag spaces.

The generating series J(q,t,z,x) = sum_theta C_theta prod (x_i...x_{j-1})^{theta_ij}
collects the graded characters of differential forms; C_theta is an
explicit product of finite q-Pochhammer ratios.  This module verifies

* the q-difference equation for J in the conjugated form with explicit
  spectral coefficients z_i,
* the per-theta dictionary between C_theta and the eigenfunction
  coefficients c_N under s = q t and x -> t^{-1} x^{-1},
* stabilization of the fixed-degree characters to an explicit infinite
  product, including the underlying root-lattice summation identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product as iproduct

from .algebra import FactoredRational, LaurentPolynomial, rational_eq
from .baker import ResidualNonzero, c_N_closed
from .qcalc import pochhammer, pochhammer_inf, pochhammer_zratio
from .series import QTSeries, XSeries, expand_sum
from .tableaux import ThetaMatrix, theta_by_degree, theta_upto_degree

__all__ = [
    "LaumonContext",
    "lau_vars",
    "C_theta",
    "J_series",
    "verify_difference_equation",
    "substitution_check",
    "J_infinity",
    "local_character",
    "verify_local_limit",
    "an_summation_check",
    "NotStabilized",
    "IdentityFails",
    "SubstitutionMismatch",
]


class NotStabilized(ArithmeticError):
    """The last two points of a stabilization schedule disagree."""


class IdentityFails(ArithmeticError):
    """A stable series differs from the closed form it should equal."""


class SubstitutionMismatch(ArithmeticError):
    """The per-theta coefficient dictionary between the two series fails."""


@cache
def lau_vars(n: int) -> tuple:
    """The context (q, t, z_1 .. z_N), one shared tuple per rank:
    cache entries keyed on it then hold no copies of their own."""
    return ("q", "t") + tuple(f"z{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class LaumonContext:
    n: int
    degree: int = 0       # max total x-degree
    order: int = 0        # max total (q,t)-degree
    vars: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vars", lau_vars(self.n))


def C_theta(theta: ThetaMatrix, n: int) -> FactoredRational:
    """Tangent-character coefficient of the fixed point indexed by theta:

        prod_{i<j} (qt;q)_th (q^{1+S} t z_j/z_i;q)_th
                 / (q;q)_th (q^{1+S} z_j/z_i;q)_th
      * prod_{k>=3} prod_{l<m<k} (q^{1+B} t z_m/z_l;q)_th (q^{1-th_lk+th_mk-B} t z_l/z_m;q)_th
                 / (q^{1+B} z_m/z_l;q)_th (q^{1-th_lk+th_mk-B} z_l/z_m;q)_th

    with S = sum_{a>j} (theta_ia - theta_ja), B = sum_{b>k} (theta_lb - theta_mb).
    """
    vars = lau_vars(n)
    nn = theta.n
    out = FactoredRational.one(vars)
    for i in range(1, nn + 1):
        for j in range(i + 1, nn + 1):
            ln = theta[(i, j)]
            if not ln:
                continue
            s_sum = sum(theta[(i, a)] - (theta[(j, a)] if j < a else 0)
                        for a in range(j + 1, nn + 1))
            out = out * pochhammer_zratio(vars, ln, 1, 1)
            out = out / pochhammer_zratio(vars, ln, 1, 0)
            out = out * pochhammer_zratio(vars, ln, 1 + s_sum, 1, j, i)
            out = out / pochhammer_zratio(vars, ln, 1 + s_sum, 0, j, i)
    for k in range(3, nn + 1):
        for l in range(1, k):
            for m in range(l + 1, k):
                ln = theta[(l, k)]
                if not ln:
                    continue
                b_sum = sum(theta[(l, b)] - theta[(m, b)] for b in range(k + 1, nn + 1))
                out = out * pochhammer_zratio(vars, ln, 1 + b_sum, 1, m, l)
                out = out / pochhammer_zratio(vars, ln, 1 + b_sum, 0, m, l)
                out = out * pochhammer_zratio(vars, ln, 1 - ln + theta[(m, k)] - b_sum, 1, l, m)
                out = out / pochhammer_zratio(vars, ln, 1 - ln + theta[(m, k)] - b_sum, 0, l, m)
    return out


def J_series(ctx: LaumonContext) -> XSeries:
    """J truncated at total x-degree ctx.degree; the coefficient of
    x^alpha is the degree-alpha character (a rational function)."""
    n = ctx.n
    thetas = theta_upto_degree(n, ctx.degree)
    out = XSeries(n - 1, ctx.vars, ctx.degree)
    for th in thetas:
        v = C_theta(th, n)
        k = th.degree_vector()
        cur = out.coeffs.get(k)
        s = v if cur is None else cur + v
        if s.is_zero():
            out.coeffs.pop(k, None)
        else:
            out.coeffs[k] = s
    return out


def _sd_coefficient(i: int, n: int, trunc: int, vars) -> XSeries:
    """Rational coefficient of the i-th term of the conjugated difference
    operator, expanded geometrically:

        prod_{j<i} (1 - q t^{i-j+1} x_j..x_{i-1}) / (1 - t^{i-j} x_j..x_{i-1})
      * prod_{k>i} (1 - q^{-1} t^{k-i-1} x_i..x_{k-1}) / (1 - t^{k-i} x_i..x_{k-1})

    This is the form obtained by conjugating the rank-N Macdonald
    operator through s = q t, x_i -> t^{-1} x_i^{-1}; the residual check
    certifies it (the analogous printed display carries the q-factors on
    the opposite products and does not annihilate the series).
    """
    out = XSeries.one(n - 1, vars, trunc)

    def qt_mono(qe, te):
        e = [0] * len(vars)
        e[0], e[1] = qe, te
        return FactoredRational.monomial(vars, e)

    for j in range(1, i):
        mono = tuple(1 if j <= k + 1 <= i - 1 else 0 for k in range(n - 1))
        out = out * XSeries.binomial(n - 1, vars, trunc, qt_mono(1, i - j + 1), mono)
        out = out * XSeries.geometric(n - 1, vars, trunc, qt_mono(0, i - j), mono)
    for k in range(i + 1, n + 1):
        mono = tuple(1 if i <= m + 1 <= k - 1 else 0 for m in range(n - 1))
        out = out * XSeries.binomial(n - 1, vars, trunc, qt_mono(-1, k - i - 1), mono)
        out = out * XSeries.geometric(n - 1, vars, trunc, qt_mono(0, k - i), mono)
    return out


def verify_difference_equation(ctx: LaumonContext, strict: bool = False) -> dict:
    """Residual of (sum_i z_i A_i(x) T_{i,q^{-1}} - sum_i z_i) on J,
    checked coefficient-by-coefficient up to x-degree ctx.degree.

    T_{i,q^{-1}} substitutes x_{i-1} -> q x_{i-1}, x_i -> q^{-1} x_i.
    """
    n, trunc = ctx.n, ctx.degree
    vars = ctx.vars
    J = J_series(ctx)
    total = XSeries(n - 1, vars, trunc)
    for i in range(1, n + 1):

        def tshift(k, c, i=i):
            power = 0
            if i >= 2:
                power += k[i - 2]
            if i <= n - 1:
                power -= k[i - 1]
            e = [0] * len(vars)
            e[0] = power
            return c * FactoredRational.monomial(vars, e)

        shifted = J.map_coeffs(tshift)
        coeff = _sd_coefficient(i, n, trunc, vars)
        e = [0] * len(vars)
        e[vars.index(f"z{i}")] = 1
        total = total + (coeff * shifted).scale(FactoredRational.monomial(vars, e))
    zsum = LaurentPolynomial.zero(vars)
    for i in range(1, n + 1):
        e = [0] * len(vars)
        e[vars.index(f"z{i}")] = 1
        zsum = zsum + LaurentPolynomial.monomial(vars, e)
    residual = total - J.scale(FactoredRational.from_poly(zsum))
    report = {}
    for alpha in sorted(set(list(residual.coeffs) + [(0,) * (n - 1)])):
        c = residual.coeffs.get(alpha)
        ok = c is None or c.is_zero() or rational_eq(c, FactoredRational.zero(vars))
        if not ok and strict:
            raise ResidualNonzero(f"residual at x-degree {alpha}: {c.canonical_str()}")
        report[alpha] = {"zero": bool(ok), "witness": None if ok else c.canonical_str()}
    report["all_zero"] = all(v["zero"] for k, v in report.items() if isinstance(k, tuple))
    return report


def substitution_check(ctx: LaumonContext, strict: bool = False) -> dict:
    """Per-theta dictionary between the localization coefficients and the
    eigenfunction coefficients: with s = q t and x_i -> t^{-1} x_i^{-1},

        c_N(theta; z; q, s=qt)  ==  t^{-deg(theta)} C_theta(q, t, z)

    where deg is the total x-degree sum (j-i) theta_ij.
    """
    n = ctx.n
    vars = ctx.vars
    s_to_qt = {"s": (1, (1, 1) + (0,) * n)}
    results = {}
    for th in theta_upto_degree(n, ctx.degree):
        lhs = c_N_closed(th, n).transform(vars, s_to_qt)
        e = [0] * len(vars)
        e[1] = -th.total_degree()
        rhs = C_theta(th, n) * FactoredRational.monomial(vars, e)
        ok = rational_eq(lhs, rhs)
        if not ok and strict:
            raise SubstitutionMismatch(f"dictionary fails at theta = {th.entry_list()}")
        results[th.entry_list()] = bool(ok)
    results["all_match"] = all(v for k, v in results.items() if isinstance(k, tuple))
    return results


def J_infinity(n: int, order: int) -> QTSeries:
    """The stable character as an explicit product:

        prod_{i<j} (qt z_j/z_i;q)_inf / (q z_j/z_i;q)_inf
      * ((qt;q)_inf / (q;q)_inf)^{N-1}
      * prod_{i=1}^{N-2} ((q t^{i+1};q)_inf / (t^i;q)_inf)^{N-i-1}

    expanded to total (q,t)-degree ``order``.
    """
    vars = lau_vars(n)

    def mono(qe, te, znum=None, zden=None):
        e = [0] * len(vars)
        e[0], e[1] = qe, te
        if znum is not None:
            e[vars.index(f"z{znum}")] += 1
        if zden is not None:
            e[vars.index(f"z{zden}")] -= 1
        return FactoredRational.monomial(vars, e)

    out = QTSeries.one(("q", "t"), vars[2:], order)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * pochhammer_inf(mono(1, 1, j, i), order)
            out = out * pochhammer_inf(mono(1, 0, j, i), order).inverse()
    base = pochhammer_inf(mono(1, 1), order) * pochhammer_inf(mono(1, 0), order).inverse()
    for _ in range(n - 1):
        out = out * base
    for i in range(1, n - 1):
        f = pochhammer_inf(mono(1, i + 1), order) * pochhammer_inf(mono(0, i), order).inverse()
        for _ in range(n - i - 1):
            out = out * f
    return out.truncate(order)


def local_character(n: int, alpha, order: int) -> QTSeries:
    """(q,t)-expansion of the degree-alpha character sum_theta C_theta.

    Individual fixed-point terms can carry z-denominators with no (q,t)
    content; they cancel in the sum, which is certified by exact division
    (see :func:`maclab.series.expand_sum`)."""
    return expand_sum([C_theta(th, n) for th in theta_by_degree(n, alpha)], order)


def verify_local_limit(n: int, order: int, schedule=None,
                       strict: bool = False) -> dict:
    """Stabilization of the fixed-degree characters along an increasing
    schedule in the far sector l_1 >> l_2 >> ... >> 0, and agreement of
    the stable values with the infinite product.  Only the last two
    schedule points are evaluated: the stability test reads no other."""
    if schedule is None:
        schedule = default_schedule(n)
    series = [local_character(n, a, order) for a in schedule[-2:]]
    stabilized = len(series) >= 2 and series[0] == series[1]
    limit = J_infinity(n, order)
    matches = series[-1] == limit
    report = {
        "schedule": [list(a) for a in schedule],
        "stabilized": bool(stabilized),
        "matches_product": bool(matches),
        "passed": bool(stabilized and matches),
    }
    if not stabilized:
        report["witness"] = _series_diff(series[0], series[1]) if len(series) >= 2 else "short schedule"
        if strict:
            raise NotStabilized(f"last two schedule points disagree: {report['witness']}")
    elif not matches:
        report["witness"] = _series_diff(series[-1], limit)
        if strict:
            raise IdentityFails(f"stable series differs from the product: {report['witness']}")
    return report


def default_schedule(n: int, steps: int = 4) -> list:
    """Increasing degrees deep in the stabilization sector: the k-th point
    is (2^{N-2} k, ..., 2k, k)."""
    out = []
    for k in range(1, steps + 1):
        out.append(tuple(k * 2 ** (n - 1 - i) for i in range(1, n)))
    return out


def _series_diff(a: QTSeries, b: QTSeries) -> list:
    keys = sorted(set(a.coeffs) | set(b.coeffs))
    out = []
    for k in keys:
        pa, pb = a.coeffs.get(k), b.coeffs.get(k)
        if pa != pb:
            out.append({
                "deg": list(k),
                "left": pa.canonical_str() if pa else "0",
                "right": pb.canonical_str() if pb else "0",
            })
    return out


# -- root-lattice summation identity ------------------------------------------


def an_summation_check(rank: int, order: int, radius: int | None = None,
                       strict: bool = False) -> dict:
    """Numerical check, to the given (q,t)-order, of the type-A lattice
    summation identity

        sum_{chi in Q} prod_{roots a} (q^{1+<a,chi>} t z^a; q)_inf
                                    / (q^{1+<a,chi>} z^a; q)_inf
          = ((q;q)_inf / (qt;q)_inf)^rank * prod_{i=1}^{rank} (q t^{i+1};q)_inf / (t^i;q)_inf

    The lattice sum is truncated by the t-valuation of its terms
    (the chi-term valuation grows like sum_{a>0} <a,chi>_+), and the
    truncation is validated by doubling the radius.
    """
    m = rank + 1
    vars = ("q", "t") + tuple(f"z{i}" for i in range(1, m + 1))
    if radius is None:
        radius = order

    def term(chi) -> FactoredRational:
        out = FactoredRational.one(vars)
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                c = chi[i] - chi[j]
                e_num = [0] * len(vars)
                e_num[0] = 1 + c
                e_num[1] = 1
                e_num[2 + i] += 1
                e_num[2 + j] -= 1
                e_den = list(e_num)
                e_den[1] = 0
                k_num = max(0, order + 1 - (2 + c))
                k_den = max(0, order + 1 - (1 + c))
                out = out * pochhammer(FactoredRational.monomial(vars, e_num), k_num)
                out = out / pochhammer(FactoredRational.monomial(vars, e_den), k_den)
        return out

    def lattice_points(rad):
        pts = []
        for vals in iproduct(range(-rad, rad + 1), repeat=m - 1):
            chi = list(vals) + [-sum(vals)]
            spread = sum(max(chi[i] - chi[j], 0) for i in range(m) for j in range(m) if i != j)
            if spread <= rad * 2:
                pts.append(tuple(chi))
        return pts

    def lattice_sum(rad) -> QTSeries:
        terms = []
        for chi in lattice_points(rad):
            t = term(chi)
            if t.valuation_lb(("q", "t")) <= order:
                terms.append(t)
        return expand_sum(terms, order)

    lhs = lattice_sum(radius)
    lhs2 = lattice_sum(2 * radius)
    doubled_stable = lhs == lhs2

    def mono(qe, te):
        e = [0] * len(vars)
        e[0], e[1] = qe, te
        return FactoredRational.monomial(vars, e)

    rhs = QTSeries.one(("q", "t"), vars[2:], order)
    f = pochhammer_inf(mono(1, 0), order) * pochhammer_inf(mono(1, 1), order).inverse()
    for _ in range(rank):
        rhs = rhs * f
    for i in range(1, rank + 1):
        g = pochhammer_inf(mono(1, i + 1), order) * pochhammer_inf(mono(0, i), order).inverse()
        rhs = rhs * g
    rhs = rhs.truncate(order)
    matches = lhs2 == rhs
    report = {
        "rank": rank,
        "order": order,
        "radius_stable": bool(doubled_stable),
        "matches": bool(matches),
        "passed": bool(doubled_stable and matches),
    }
    if not report["passed"]:
        report["witness"] = _series_diff(lhs2, rhs)
        if strict:
            raise IdentityFails(f"lattice sum differs: {report['witness']}")
    return report
