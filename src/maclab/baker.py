"""Formal eigenfunction series with generic spectral parameters.

The series lives in the N-1 ratio variables u_i = y_{i+1}/y_i; the
monomial attached to a theta matrix is prod (y_j/y_i)^{theta_ij}, whose
u-degree vector coincides with the x-degree vector used by the
localization series.  Coefficients c_N(theta) are rational in (q, s, z)
and are computed both by the defining recursion and by two closed double
products.  Each form fills a :class:`~maclab.qcalc.Ledger`
(``_recursive_ledger``, ``_closed_ledger``, ``_closed_alt_ledger``), and
the forms are checked against each other as ledgers, whose equality is
that of their values.

Specializing z_i = s^{N-i} q^{lambda_i} kills every coefficient outside
the shape-lambda polytope and turns the series into the Macdonald
polynomial P_lambda.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .algebra import FactoredRational, LaurentPolynomial
from .macdonald import QS, SymmetricPolynomial
from .qcalc import Ledger
from .series import XSeries
from .tableaux import (
    Partition,
    ThetaMatrix,
    enumerate_pol_lambda,
    strip_sizes,
    theta_upto_degree,
)

__all__ = [
    "ba_vars",
    "c_N_recursive",
    "c_N_closed",
    "c_N_closed_alt",
    "f_N_series",
    "specialize_f_to_P",
    "specialize_each",
    "verify_eigen_equation",
    "TerminationFailure",
]


class TerminationFailure(ArithmeticError):
    """A coefficient outside the shape polytope survived specialization."""


@cache
def ba_vars(n: int) -> tuple:
    """The context (q, s, z_1 .. z_N), one shared tuple per rank:
    cache entries keyed on it then hold no copies of their own."""
    return ("q", "s") + tuple(f"z{i}" for i in range(1, n + 1))


def c_N_recursive(theta: ThetaMatrix, n: int) -> FactoredRational:
    """c_N(theta; z; q, s) by the defining recursion (:func:`_recursive_ledger`)."""
    return _recursive_ledger(theta, n).value()


def _recursive_ledger(theta: ThetaMatrix, n: int) -> Ledger:
    """The ledger of c_N(theta) by the recursion, rank by rank: the
    rank-(m-1) ledger at q-shifted z times a product of four Pochhammer
    ratios over 1 <= i <= j <= m-1 controlled by column m."""
    vars = ba_vars(n)
    eye = [tuple(int(a == b) for a in range(len(vars))) for b in range(len(vars))]
    led = Ledger(vars)
    for m in range(2, theta.n + 1):
        # z_i -> q^{-theta_{i,m}} z_i for i < m: the q-exponent of x^e
        # gains -sum_i theta_{i,m} e_{z_i}, the others are kept
        col = tuple(-theta[(i, m)] for i in range(1, m))
        if any(col):
            led = led.image(vars, [(1, 0) + col + (0,) * (n - m + 1)] + eye[1:], {})
        for i in range(1, m):
            for j in range(i, m):
                ln = theta[(i, m)]
                if not ln:
                    continue
                tjm = theta[(j, m)]
                led.zratio(ln, 0, 1, j + 1, i)           # (s z_{j+1}/z_i; q)
                led.zratio(ln, 1, 0, j + 1, i, -1)       # (q z_{j+1}/z_i; q)
                led.zratio(ln, 1 - tjm, -1, j, i)        # (q^{1-theta_{j,m}} z_j / s z_i; q)
                led.zratio(ln, -tjm, 0, j, i, -1)        # (q^{-theta_{j,m}} z_j/z_i; q)
    return led


def c_N_closed(theta: ThetaMatrix, n: int) -> FactoredRational:
    """Closed form of c_N(theta): the double product over 2 <= k <= N and
    1 <= i <= j <= k-1 with exponents shifted by the tail sums
    sum_{a>k} (theta_{ia} - theta_{j+1,a}) and sum_{a>k} (theta_{ia} - theta_{ja})."""
    return _closed_ledger(theta, n).value()


def _closed_ledger(theta: ThetaMatrix, n: int) -> Ledger:
    led = Ledger(ba_vars(n))
    nn = theta.n
    for k in range(2, nn + 1):
        for i in range(1, k):
            for j in range(i, k):
                ln = theta[(i, k)]
                if not ln:
                    continue
                e1 = sum(theta[(i, a)] - theta[(j + 1, a)] for a in range(k + 1, nn + 1))
                e2 = sum(theta[(i, a)] - theta[(j, a)] for a in range(k + 1, nn + 1))
                led.zratio(ln, e1, 1, j + 1, i)
                led.zratio(ln, e1 + 1, 0, j + 1, i, -1)
                led.zratio(ln, -theta[(j, k)] + e2 + 1, -1, j, i)
                led.zratio(ln, -theta[(j, k)] + e2, 0, j, i, -1)
    return led


def c_N_closed_alt(theta: ThetaMatrix, n: int) -> FactoredRational:
    """The value of :func:`_closed_alt_ledger`."""
    return _closed_alt_ledger(theta, n).value()


def _closed_alt_ledger(theta: ThetaMatrix, n: int) -> Ledger:
    """The rewritten closed form carrying the explicit (q/s)^theta
    monomials; must agree with :func:`_closed_ledger` (both are kept as
    a guard against a silent transcription error in either display)."""
    led = Ledger(ba_vars(n))
    nn = theta.n
    for i in range(1, nn + 1):
        for j in range(i + 1, nn + 1):
            ln = theta[(i, j)]
            if not ln:
                continue
            a_sum = sum(theta[(i, a)] - theta[(j, a)] for a in range(j + 1, nn + 1))
            led.unit[0] += ln                           # (q/s)^theta
            led.unit[1] -= ln
            led.zratio(ln, 0, 1)                        # (s; q)
            led.zratio(ln, 1, 0, mult=-1)               # (q; q)
            led.zratio(ln, a_sum, 1, j, i)              # (q^A s z_j/z_i; q)
            led.zratio(ln, a_sum + 1, 0, j, i, -1)      # (q^{1+A} z_j/z_i; q)
    for k in range(3, nn + 1):
        for l in range(1, k):
            for m in range(l + 1, k):
                ln = theta[(l, k)]
                if not ln:
                    continue
                b_sum = sum(theta[(l, b)] - theta[(m, b)] for b in range(k + 1, nn + 1))
                led.unit[0] += ln
                led.unit[1] -= ln
                led.zratio(ln, b_sum, 1, m, l)
                led.zratio(ln, b_sum + 1, 0, m, l, -1)
                led.zratio(ln, -ln + theta[(m, k)] - b_sum, 1, l, m)
                led.zratio(ln, 1 - ln + theta[(m, k)] - b_sum, 0, l, m, -1)
    return led


def f_N_series(n: int, truncation: int) -> XSeries:
    """The ratio-variable part of the rank-n eigenfunction series: the
    coefficient of u^alpha is the sum of c_N(theta) over theta matrices
    of u-degree alpha, up to total degree ``truncation``, which must be
    nonnegative."""
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return theta_series(c_N_closed, n, ba_vars(n), truncation)


def theta_series(coef, n: int, vars: tuple, trunc: int) -> XSeries:
    """sum of coef(theta, n) x^{degree vector of theta} over the theta
    matrices of total x-degree <= trunc, in N - 1 ratio variables."""
    out = XSeries(n - 1, vars, trunc)
    for th in theta_upto_degree(n, trunc):
        v = coef(th, n)
        k = th.degree_vector()
        cur = out.coeffs.get(k)
        s = v if cur is None else cur + v
        if s.is_zero():
            out.coeffs.pop(k, None)
        else:
            out.coeffs[k] = s
    return out


def specialize_f_to_P(lam, n: int, margin: int = 2) -> SymmetricPolynomial:
    """Specialize the rank-n series at z_i = s^{N-i} q^{lambda_i}: the
    one-partition case of :func:`specialize_each`, raising the error
    that stopped it."""
    (out,) = specialize_each([lam], n, margin)
    if isinstance(out, ArithmeticError):
        raise out
    return out


def specialize_each(lams, n: int, margin: int = 2) -> list:
    """Specialize the rank-n series at z_i = s^{N-i} q^{lambda_i} for each
    lambda in ``lams``, in one scan of the theta grid up to the largest
    bound.  Every c_N(theta) with theta outside the shape-lambda polytope
    and entries up to lambda_1 + margin must vanish; the polytope's
    values sum to P_lambda in the m-basis.  Each c_N(theta) is built once
    as a :class:`~maclab.qcalc.Ledger` and mapped into (q, s) for every
    lambda whose bound covers theta, in that lambda's scan order; only
    the polytope's images become values.  Returns per lambda the
    polynomial, or the error that stopped it: the first one outside the
    polytope, else the first one inside.  The errors taken are those
    raised on purpose: the ``ZeroDivisionError`` of a denominator that
    vanishes under the map and the :class:`TerminationFailure` of a
    surviving coefficient; any other propagates."""
    scans = [_Scan(Partition(lam), n, margin) for lam in lams]
    for th in _theta_entries_upto(n, max((scan.bound for scan in scans), default=-1)):
        top, led, where = max(th.entries.values(), default=0), None, th.entry_list()
        for scan in scans:
            if scan.error is None and top <= scan.bound:
                try:
                    if led is None:
                        led = _closed_ledger(th, n)
                    scan.take(th, where, led)
                except (ZeroDivisionError, TerminationFailure) as exc:
                    scan.fail(where, exc)
    return [scan.error or scan.inside_error or scan.total() for scan in scans]


class _Scan:
    """One partition's part of :func:`specialize_each`.  The polytope is
    enumerated in the scan's lexicographic order, so ``inside`` holds its
    values in polytope order.  ``weights`` maps exponents over (q, s, z)
    to (q, s) under z_i -> s^{N-i} q^{lambda_i}, and ``images`` is the
    scan's table of binomial images."""

    def __init__(self, lam: tuple, n: int, margin: int):
        self.lam, self.n = lam, n
        full = list(lam) + [0] * n
        self.weights = ((1, 0) + tuple(full[:n]), (0, 1) + tuple(range(n - 1, -1, -1)))
        self.images: dict = {}
        self.bound = (lam[0] if lam else 0) + margin
        self.pol = {th.entry_list() for th in enumerate_pol_lambda(lam, n)}
        self.inside = []
        self.error = self.inside_error = None

    def take(self, th: ThetaMatrix, where: tuple, led: Ledger) -> None:
        spec = led.image(QS, self.weights, self.images)
        if where in self.pol:
            self.inside.append((th, spec.value()))
        elif spec.coef:
            raise TerminationFailure(
                f"coefficient at theta={dict(th.entries)} survives specialization")

    def fail(self, where: tuple, exc: ArithmeticError) -> None:
        if where not in self.pol:
            self.error = exc
        elif self.inside_error is None:
            self.inside_error = exc

    def total(self) -> SymmetricPolynomial:
        coeffs: dict = {}
        for th, v in self.inside:
            w = strip_sizes(th, self.lam)
            if list(w) == sorted(w, reverse=True):
                mu = Partition(w)
                coeffs[mu] = coeffs[mu] + v if mu in coeffs else v
        return SymmetricPolynomial(self.n, coeffs)


def _theta_entries_upto(n: int, bound: int):
    """Every theta with entries 0..bound, in lexicographic order of the
    row-major entry list."""
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    for vals in product(range(bound + 1), repeat=len(pairs)):
        yield ThetaMatrix(n, dict(zip(pairs, vals)))


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


def operator_coefficient(i: int, n: int, trunc: int, vars, ratio) -> XSeries:
    """The rational coefficient of the i-th term of a conjugated
    difference operator, expanded geometrically in the ratio variables:

        prod_{j != i} c_j (1 - a_j x_j) / (1 - b_j x_j),   (c_j, a_j, b_j) = ratio(j),

    with x_j = u_j...u_{i-1} for j < i and x_j = u_i...u_{j-1} for j > i,
    multiplied in one series at a time in increasing j."""
    out = XSeries.one(n - 1, vars, trunc)
    for j in [*range(1, i), *range(i + 1, n + 1)]:
        lo, hi = min(i, j), max(i, j)
        mono = tuple(int(lo <= k < hi) for k in range(1, n))
        c, a, b = ratio(j)
        out = out * XSeries.binomial(n - 1, vars, trunc, a, mono).scale(c)
        out = out * XSeries.geometric(n - 1, vars, trunc, b, mono)
    return out


def verify_eigen_equation(n: int, truncation: int) -> XSeries:
    """The residual of the difference operator on the rank-n
    eigenfunction series against multiplication by z_1 + ... + z_N, zero
    iff the eigen equation holds up to ``truncation`` (nonnegative, as
    for :func:`f_N_series`).

    The operator is conjugated by the monomial prefactor, on which
    T_{q,y_i} acts by the scalar s^{i-N} z_i; its i-th coefficient is
    prod_{j<i} (1 - s w)/(1 - w) * prod_{j>i} (s - v)/(1 - v) with
    w = u_j...u_{i-1}, v = u_i...u_{j-1} (:func:`operator_coefficient`).
    """
    vars = ba_vars(n)
    one = FactoredRational.one(vars)
    s = FactoredRational.monomial(vars, (0, 1) + (0,) * n)
    s_inv = s.inverse()

    def coefficient(i):
        return operator_coefficient(i, n, truncation, vars,
                                    lambda j: (one, s, one) if j < i else (s, s_inv, one))

    return operator_residual(f_N_series(n, truncation), coefficient, lambda i: i - n)


def operator_residual(g: XSeries, coefficient, twist) -> XSeries:
    """The residual sum_i v^{twist(i)} z_i A_i(x) T_i g - (z_1 + ... + z_N) g,
    with v the second base variable, A_i = coefficient(i) and T_i the
    shift x_{i-1} -> q x_{i-1}, x_i -> q^{-1} x_i.  A series stores no
    zero coefficient, so the residual is zero iff it has no terms."""
    n, vars = g.n + 1, g.base_vars
    total = XSeries(n - 1, vars, g.trunc)
    zsum = LaurentPolynomial.zero(vars)
    for i in range(1, n + 1):
        shifted = g.map_coeffs(lambda k, c, i=i: c * _shift_coef(k, i, vars))
        e = [0] * len(vars)
        e[1] = twist(i)
        e[vars.index(f"z{i}")] = 1
        total = total + (coefficient(i) * shifted).scale(FactoredRational.monomial(vars, e))
        zsum = zsum + LaurentPolynomial.var(vars, f"z{i}")
    return total - g.scale(FactoredRational.from_poly(zsum))
