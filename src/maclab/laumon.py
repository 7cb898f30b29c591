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

Each verifier returns what its check decides on: the residual series of
the difference equation, the theta at which the dictionary fails, and
the coefficient differences (:func:`_series_diff`) of a stabilization or
summation identity, empty when it holds.  :mod:`maclab.checks` turns
them into witnesses.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iproduct

from .algebra import FactoredRational
from .baker import _closed_ledger, operator_coefficient, operator_residual, theta_series
from .qcalc import Ledger
from .series import QTSeries, XSeries, expand, expand_sum
from .tableaux import ThetaMatrix, theta_by_degree, theta_upto_degree

__all__ = [
    "lau_vars",
    "C_ledger",
    "C_theta",
    "J_series",
    "verify_difference_equation",
    "substitution_check",
    "J_infinity",
    "local_character",
    "verify_local_limit",
    "an_summation_check",
    "NotStabilized",
]


class NotStabilized(ArithmeticError):
    """The last two points of a stabilization schedule disagree."""


@cache
def lau_vars(n: int) -> tuple:
    """The context (q, t, z_1 .. z_N), one shared tuple per rank:
    cache entries keyed on it then hold no copies of their own."""
    return ("q", "t") + tuple(f"z{i}" for i in range(1, n + 1))


def C_ledger(theta: ThetaMatrix, n: int) -> Ledger:
    """Tangent-character coefficient of the fixed point indexed by theta,
    as the :class:`~maclab.qcalc.Ledger` of its Pochhammer symbols over
    :func:`lau_vars`:

        prod_{i<j} (qt;q)_th (q^{1+S} t z_j/z_i;q)_th
                 / (q;q)_th (q^{1+S} z_j/z_i;q)_th
      * prod_{k>=3} prod_{l<m<k} (q^{1+B} t z_m/z_l;q)_th (q^{1-th_lk+th_mk-B} t z_l/z_m;q)_th
                 / (q^{1+B} z_m/z_l;q)_th (q^{1-th_lk+th_mk-B} z_l/z_m;q)_th

    with S = sum_{a>j} (theta_ia - theta_ja), B = sum_{b>k} (theta_lb - theta_mb).
    """
    led = Ledger(lau_vars(n))
    nn = theta.n
    for i in range(1, nn + 1):
        for j in range(i + 1, nn + 1):
            ln = theta[(i, j)]
            if not ln:
                continue
            s_sum = sum(theta[(i, a)] - theta[(j, a)] for a in range(j + 1, nn + 1))
            led.zratio(ln, 1, 1)
            led.zratio(ln, 1, 0, mult=-1)
            led.zratio(ln, 1 + s_sum, 1, j, i)
            led.zratio(ln, 1 + s_sum, 0, j, i, -1)
    for k in range(3, nn + 1):
        for l in range(1, k):
            for m in range(l + 1, k):
                ln = theta[(l, k)]
                if not ln:
                    continue
                b_sum = sum(theta[(l, b)] - theta[(m, b)] for b in range(k + 1, nn + 1))
                led.zratio(ln, 1 + b_sum, 1, m, l)
                led.zratio(ln, 1 + b_sum, 0, m, l, -1)
                led.zratio(ln, 1 - ln + theta[(m, k)] - b_sum, 1, l, m)
                led.zratio(ln, 1 - ln + theta[(m, k)] - b_sum, 0, l, m, -1)
    return led


def C_theta(theta: ThetaMatrix, n: int) -> FactoredRational:
    """The value of :func:`C_ledger`: C_theta as a factored rational."""
    return C_ledger(theta, n).value()


def J_series(n: int, degree: int) -> XSeries:
    """The rank-n J truncated at total x-degree ``degree``; the
    coefficient of x^alpha is the degree-alpha character (a rational
    function)."""
    return theta_series(C_theta, n, lau_vars(n), degree)


def verify_difference_equation(n: int, degree: int) -> XSeries:
    """The residual of (sum_i z_i A_i(x) T_{i,q^{-1}} - sum_i z_i) on the
    rank-n J up to x-degree ``degree``, zero iff the q-difference
    equation holds.

    T_{i,q^{-1}} substitutes x_{i-1} -> q x_{i-1}, x_i -> q^{-1} x_i, and
    the coefficients are (:func:`~maclab.baker.operator_coefficient`)

        A_i = prod_{j<i} (1 - q t^{i-j+1} x_j..x_{i-1}) / (1 - t^{i-j} x_j..x_{i-1})
            * prod_{k>i} (1 - q^{-1} t^{k-i-1} x_i..x_{k-1}) / (1 - t^{k-i} x_i..x_{k-1}),

    the form obtained by conjugating the rank-N Macdonald operator
    through s = q t, x_i -> t^{-1} x_i^{-1}; the residual certifies it
    (the analogous printed display carries the q-factors on the opposite
    products and does not annihilate the series).
    """
    vars = lau_vars(n)
    one = FactoredRational.one(vars)

    def qt(qe, te):
        return FactoredRational.monomial(vars, (qe, te) + (0,) * n)

    def coefficient(i):
        return operator_coefficient(
            i, n, degree, vars,
            lambda j: (one, qt(1, i - j + 1), qt(0, i - j)) if j < i
            else (one, qt(-1, j - i - 1), qt(0, j - i)))

    return operator_residual(J_series(n, degree), coefficient, lambda i: 0)


def substitution_check(n: int, degree: int) -> list:
    """Per-theta dictionary between the localization coefficients and the
    eigenfunction coefficients: with s = q t and x_i -> t^{-1} x_i^{-1},

        c_N(theta; z; q, s=qt)  ==  t^{-deg(theta)} C_theta(q, t, z)

    where deg is the total x-degree sum (j-i) theta_ij, decided on the
    ledgers of both sides.  Returns the entry lists of the rank-n theta
    up to x-degree ``degree`` at which it fails, in
    :func:`~maclab.tableaux.theta_upto_degree` order.
    """
    vars = lau_vars(n)
    eye = [tuple(int(a == b) for a in range(n + 2)) for b in range(2, n + 2)]
    weights = [(1, 1) + (0,) * n, (0, 1) + (0,) * n] + eye   # s -> qt
    images: dict = {}
    failures = []
    for th in theta_upto_degree(n, degree):
        lhs = _closed_ledger(th, n).image(vars, weights, images)
        rhs = C_ledger(th, n)
        rhs.unit[1] -= th.total_degree()
        if lhs != rhs:
            failures.append(th.entry_list())
    return failures


def _root_ledger(n: int, order: int) -> Ledger:
    """The ledger over :func:`lau_vars` of

        prod_{i<j} (qt z_j/z_i;q)_inf / (q z_j/z_i;q)_inf * ((qt;q)_inf / (q;q)_inf)^{N-1}

    each (x;q)_inf cut to its factors of total (q,t)-degree <= order."""
    led = Ledger(lau_vars(n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            led.inf(order, 1, 1, j, i)
            led.inf(order, 1, 0, j, i, -1)
    led.inf(order, 1, 1, mult=n - 1)
    led.inf(order, 1, 0, mult=1 - n)
    return led


def J_infinity(n: int, order: int) -> QTSeries:
    """The stable character as an explicit product:

        prod_{i<j} (qt z_j/z_i;q)_inf / (q z_j/z_i;q)_inf
      * ((qt;q)_inf / (q;q)_inf)^{N-1}
      * prod_{i=1}^{N-2} ((q t^{i+1};q)_inf / (t^i;q)_inf)^{N-i-1}

    expanded to total (q,t)-degree ``order``.
    """
    led = _root_ledger(n, order)
    for i in range(1, n - 1):
        led.inf(order, 1, i + 1, mult=n - i - 1)
        led.inf(order, 0, i, mult=i + 1 - n)
    return expand(led.value(), order)


def local_character(n: int, alpha, order: int) -> QTSeries:
    """(q,t)-expansion of the degree-alpha character sum_theta C_theta.

    Individual fixed-point terms can carry z-denominators with no (q,t)
    content; they cancel in the sum, which is certified by exact division
    (see :func:`maclab.series.expand_sum`)."""
    return expand_sum([C_theta(th, n) for th in theta_by_degree(n, alpha)], order)


def verify_local_limit(n: int, order: int, schedule=None) -> tuple:
    """Stabilization of the fixed-degree characters along an increasing
    schedule in the far sector l_1 >> l_2 >> ... >> 0, and agreement of
    the stable values with the infinite product.  Only the last two
    schedule points are evaluated: the stability test reads no other.

    Returns ``(stabilized, diff)``: whether the last two points agree,
    and the :func:`_series_diff` of those two points if they do not,
    else of the last point against :func:`J_infinity`.  Raises
    ``ValueError`` on a schedule of fewer than two points."""
    if schedule is None:
        schedule = default_schedule(n)
    if len(schedule) < 2:
        raise ValueError("a stabilization schedule needs at least two points")
    before, last = (local_character(n, a, order) for a in schedule[-2:])
    if before != last:
        return False, _series_diff(before, last)
    return True, _series_diff(last, J_infinity(n, order))


def default_schedule(n: int) -> list:
    """Increasing degrees deep in the stabilization sector: the k-th point
    is (2^{N-2} k, ..., 2k, k), k = 1..4."""
    return [tuple(k * 2 ** (n - 1 - i) for i in range(1, n)) for k in range(1, 5)]


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


def _lattice_term(vars: tuple, chi: tuple, order: int) -> FactoredRational:
    """The chi-term of the lattice sum of :func:`an_summation_check` over
    vars = (q, t, z_1 .. z_m), each (x;q)_inf cut where its factors pass
    the order."""
    m = len(chi)
    led = Ledger(vars)
    for i in range(m):
        for j in range(m):
            if i != j:
                c = chi[i] - chi[j]
                led.zratio(max(0, order - 1 - c), 1 + c, 1, i + 1, j + 1)
                led.zratio(max(0, order - c), 1 + c, 0, i + 1, j + 1, mult=-1)
    return led.value()


def _lattice_product(vars: tuple, rank: int, order: int) -> QTSeries:
    """The right side of :func:`an_summation_check` over vars = (q, t,
    z_1 .. z_{rank+1}), expanded to the order."""
    led = Ledger(vars)
    led.inf(order, 1, 0, mult=rank)
    led.inf(order, 1, 1, mult=-rank)
    for i in range(1, rank + 1):
        led.inf(order, 1, i + 1)
        led.inf(order, 0, i, mult=-1)
    return expand(led.value(), order)


def _lattice_points(m: int, rad: int) -> list:
    """The points chi of the A_{m-1} root lattice, sum(chi) = 0, with
    sum_{i != j} max(chi_i - chi_j, 0) <= 2 rad."""
    pts = []
    for vals in iproduct(range(-rad, rad + 1), repeat=m - 1):
        chi = list(vals) + [-sum(vals)]
        spread = sum(max(chi[i] - chi[j], 0) for i in range(m) for j in range(m) if i != j)
        if spread <= rad * 2:
            pts.append(tuple(chi))
    return pts


def an_summation_check(rank: int, order: int, radius: int | None = None) -> list:
    """Numerical check, to the given (q,t)-order, of the type-A lattice
    summation identity

        sum_{chi in Q} prod_{roots a} (q^{1+<a,chi>} t z^a; q)_inf
                                    / (q^{1+<a,chi>} z^a; q)_inf
          = ((q;q)_inf / (qt;q)_inf)^rank * prod_{i=1}^{rank} (q t^{i+1};q)_inf / (t^i;q)_inf

    The lattice sum is truncated by the t-valuation of its terms
    (the chi-term valuation grows like sum_{a>0} <a,chi>_+), and the
    truncation is validated by doubling the radius.  Returns the
    :func:`_series_diff` of the sums at the radius and at twice it if
    they differ, else of the doubled sum against the product: empty iff
    the identity holds.
    """
    m = rank + 1
    vars = ("q", "t") + tuple(f"z{i}" for i in range(1, m + 1))
    if radius is None:
        radius = order

    def lattice_sum(rad) -> QTSeries:
        terms = []
        for chi in _lattice_points(m, rad):
            t = _lattice_term(vars, chi, order)
            if t.valuation_lb(("q", "t")) <= order:
                terms.append(t)
        return expand_sum(terms, order)

    lhs, lhs2 = lattice_sum(radius), lattice_sum(2 * radius)
    if lhs != lhs2:
        return _series_diff(lhs, lhs2)
    return _series_diff(lhs2, _lattice_product(vars, rank, order))
