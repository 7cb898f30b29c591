"""Truncated formal series: bigraded (q,t)-series and multivariate x-series.

Both kinds of series share one arithmetic (:class:`_Series`): ``coeffs``
maps exponent tuples of total degree at most ``trunc`` to nonzero
coefficients, ``trunc`` records the total degree up to which the stored
data is exact, and two series combine only in the same context.  A sum
is exact up to the least truncation, and a product up to
min(a.trunc + val(b), b.trunc + val(a)), val the lowest total degree
stored.  The two kinds differ in their context, their coefficients and
their output formats:

* :class:`QTSeries` is a series in the two distinguished variables ``q``
  and ``t`` whose coefficients are Laurent polynomials in the remaining
  variables ``coeff_vars``; negative exponents are permitted (they
  arise from q-inverted characters).  It prints as ``q^a*t^b * [...]``
  terms and its JSON names the grading and the coefficient variables.
* :class:`XSeries` is a series in ``n`` auxiliary ratio variables whose
  coefficients are :class:`~maclab.algebra.FactoredRational` values over
  the context ``base_vars``; coefficients stay factored and are never
  expanded eagerly.  It prints as ``x^[...] * [...]`` terms and its JSON
  names the number of variables.

:func:`expand` turns a factored rational with unit denominator (in the
(q,t)-grading) into a :class:`QTSeries`; :func:`expand_split` additionally
tolerates purely-z denominator factors, returning them unexpanded as a
rational multiplier over the coefficient variables.

A split series is a finite sum of such pairs ``(rest, series)``, one per
pole part ``rest``; every summed series is one.  A pole part and the
coefficients of its series live in the same ring, the Laurent
polynomials in the coefficient variables, so the series layer adds,
multiplies and divides them as they are and substitutes no monomial.
:func:`split_sum` adds the pairs of each pole part, :func:`split_expand`
expands a sum of factored rationals into one, and two split series
multiply pairwise (:func:`split_mul`).  :func:`certify_sum` certifies that the poles of a
split series cancel in its total, which :func:`expand_sum` expands, and
:func:`certify_weyl_sum` certifies the total over the Weyl group S_N of
the coefficient variables' permutations from the w = id pairs, in one
antisymmetrisation pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from operator import add, attrgetter, sub
from typing import Callable, Mapping, Sequence

from .algebra import (
    Coef,
    DenominatorNotUnit,
    FactoredRational,
    LaurentPolynomial,
    _norm_coef,
)

__all__ = ["QTSeries", "XSeries", "expand", "expand_split", "expand_sum", "split_expand",
           "split_mul", "split_sum", "certify_sum", "certify_weyl_sum",
           "InsufficientTruncation", "NonPolynomialCoefficient", "NonRootPole"]

QT = ("q", "t")   # the grading of every QTSeries


class _Series:
    """The truncated-series arithmetic of :class:`QTSeries` and
    :class:`XSeries`.

    ``coeffs`` maps exponent tuples of total degree <= ``trunc`` to
    nonzero coefficients; ``_context`` is the tuple two series must
    share to be added or multiplied.
    """

    __slots__ = ("_context", "trunc", "coeffs")

    def __init__(self, context: Sequence, trunc: int, coeffs: Mapping | None = None):
        self._context = tuple(context)
        self.trunc = trunc
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if not v.is_zero() and sum(k) <= trunc:
                    self.coeffs[tuple(k)] = v

    def _like(self, trunc: int, coeffs: dict):
        """A series of this context holding ``coeffs`` as they are: the
        caller keeps them nonzero and within ``trunc``."""
        out = object.__new__(type(self))
        out._context = self._context
        out.trunc = trunc
        out.coeffs = coeffs
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_total(self) -> int:
        return min(map(sum, self.coeffs), default=0)

    def _check(self, other):
        if type(other) is not type(self) or other._context != self._context:
            raise ValueError("series contexts differ")

    def __add__(self, other):
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        coeffs = {k: v for k, v in self.coeffs.items() if sum(k) <= trunc}
        for k, v in other.coeffs.items():
            if sum(k) > trunc:
                continue
            cur = coeffs.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                coeffs.pop(k, None)
            else:
                coeffs[k] = s
        return self._like(trunc, coeffs)

    def __neg__(self):
        return self._like(self.trunc, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product, exact up to the degree that the truncations and
        valuations of both factors allow."""
        self._check(other)
        trunc = min(self.trunc + other.min_total(), other.trunc + self.min_total())
        right = [(k, sum(k), v) for k, v in other.coeffs.items()]
        acc: dict = {}
        for k1, v1 in self.coeffs.items():
            room = trunc - sum(k1)
            for k2, d2, v2 in right:
                if d2 > room:
                    continue
                k = tuple(map(add, k1, k2))
                prod = v1 * v2
                if k in acc:
                    acc[k] = acc[k] + prod
                else:
                    acc[k] = prod
        return self._like(trunc, {k: v for k, v in acc.items() if not v.is_zero()})

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical_str()}; trunc={self.trunc})"


class QTSeries(_Series):
    """Total-degree-truncated series in the two graded variables ``QT``:
    ``QTSeries(coeff_vars, trunc, coeffs)``.

    ``coeffs`` maps integer pairs (a, b) with a + b <= trunc to nonzero
    Laurent polynomials over ``coeff_vars``, the context.  Two series
    are ``==`` when their contexts and coefficients are, whatever their
    truncations.
    """

    __slots__ = ()

    coeff_vars = property(attrgetter("_context"))

    __mul__ = _Series.__mul__   # perfbench's tracer wraps it in this class's own namespace

    @classmethod
    def one(cls, coeff_vars, trunc) -> "QTSeries":
        s = cls(coeff_vars, trunc)
        if trunc >= 0:
            s.coeffs[(0, 0)] = LaurentPolynomial.one(coeff_vars)
        return s

    def is_one(self) -> bool:
        c0 = self.coeffs.get((0, 0))
        return len(self.coeffs) == 1 and c0 is not None and c0.is_one()

    def scale(self, c: Coef) -> "QTSeries":
        return self._like(self.trunc, {k: p.scale(c) for k, p in self.coeffs.items()} if c else {})

    def shift(self, da: int, db: int) -> "QTSeries":
        """Multiply by q^da * t^db (adjusting the accuracy bound)."""
        return self._like(self.trunc + da + db,
                          {(a + da, b + db): p for (a, b), p in self.coeffs.items()})

    def shift_coeffs(self, exps: Sequence[int]) -> "QTSeries":
        """Multiply every coefficient by the coeff-vars monomial ``exps``."""
        return self._like(self.trunc, {k: p.shift(exps) for k, p in self.coeffs.items()})

    def truncate(self, trunc: int) -> "QTSeries":
        trunc = min(trunc, self.trunc)
        return self._like(trunc, {k: p for k, p in self.coeffs.items() if k[0] + k[1] <= trunc})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QTSeries)
            and self._context == other._context
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self._context, len(self.coeffs)))

    def canonical_str(self) -> str:
        qa, qb = QT
        parts = [
            f"{qa}^{a}*{qb}^{b} * [{p.canonical_str()}]"
            for (a, b), p in self.sorted_items()
        ]
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "grading": list(QT),
            "coeff_vars": list(self.coeff_vars),
            "truncation": self.trunc,
            "coefficients": [
                {"deg": list(k), "value": p.to_json_obj()} for k, p in self.sorted_items()
            ],
        }


def _poly_to_qtseries(p: LaurentPolynomial, trunc: int) -> QTSeries:
    """Spread a polynomial over the (q,t)-grading, dropping terms beyond trunc."""
    vars = p.vars
    iq, it = vars.index("q"), vars.index("t")
    rest_idx = [i for i in range(len(vars)) if i not in (iq, it)]
    coeff_vars = tuple(vars[i] for i in rest_idx)
    # (a, b, z) determines e, so every z-exponent lands in its group once
    groups: dict = {}
    for e, c in p.terms.items():
        a, b = e[iq], e[it]
        if a + b > trunc:
            continue
        g = groups.get((a, b))
        if g is None:
            g = groups[(a, b)] = {}
        g[tuple(e[i] for i in rest_idx)] = c
    out = QTSeries(coeff_vars, trunc)
    out.coeffs = {k: LaurentPolynomial._from_terms(coeff_vars, g) for k, g in groups.items()}
    return out


def _classify(p: LaurentPolynomial, iq: int, it: int, coeff_vars: tuple) -> tuple:
    """``(pure, lead)`` of a canonical factor for the (q,t)-grading:
    ``pure`` is the factor over ``coeff_vars`` when it has no
    (q,t)-content (None otherwise), and ``lead = (coef, exps)`` its
    unique term of minimal (q,t)-degree (None when that is not unique).
    A canonical factor has least exponent 0 in q and in t, so (q,t)-degree
    0 in every term means no q and no t at all."""
    degs = {e: e[iq] + e[it] for e in p.terms}
    dmin = min(degs.values())
    minimal = [e for e, d in degs.items() if d == dmin]
    lead = (p.terms[minimal[0]], minimal[0]) if len(minimal) == 1 else None
    if max(degs.values()):
        return None, lead
    z_idx = [i for i in range(len(p.vars)) if i not in (iq, it)]
    return LaurentPolynomial._from_terms(
        coeff_vars, {tuple([e[i] for i in z_idx]): c for e, c in p.terms.items()}), lead


def _factor_series(memo: dict, key: tuple, p: LaurentPolynomial, m: int, lead,
                   rel: int, coeff_vars: tuple) -> QTSeries:
    """The factor ``p`` to the power ``m`` as a series exact up to total
    degree ``rel``: a polynomial power for ``m > 0``, and for ``m < 0``
    the geometric series of 1/(1 + tail/lead) to the power ``-m`` (the
    leading monomial is taken out by the caller).  Memoised on
    ``(key, m, rel)``."""
    mkey = (key, m, rel)
    out = memo.get(mkey)
    if out is not None:
        return out
    unit = 1 if m > 0 else -1
    if m != unit:
        base = _factor_series(memo, key, p, unit, lead, rel, coeff_vars)
        out = base
        for _ in range(abs(m) - 1):
            out = (out * base).truncate(rel)
    elif m > 0:
        out = _poly_to_qtseries(p, rel)
    else:
        # 1/(lead + tail) = lead^-1 * 1/(1 + tail/lead)
        c0, e0 = lead
        tail = LaurentPolynomial._from_terms(
            p.vars, {e: c for e, c in p.terms.items() if e != e0})
        h = tail.shift(tuple(-x for x in e0)).scale(_norm_coef(Fraction(1) / c0))
        neg_h = -_poly_to_qtseries(h, rel)
        out = QTSeries.one(coeff_vars, rel)
        pw = out
        for _ in range(rel):
            pw = (pw * neg_h).truncate(rel)
            if pw.is_zero():
                break
            out = out + pw
    memo[mkey] = out
    return out


def expand_split(fr: FactoredRational, trunc: int, _memo: dict | None = None):
    """Expand ``fr`` as a truncated (q,t)-series, splitting off the part
    that cannot be expanded.

    Returns ``(rest, series)`` with ``fr == rest * series``:

    * ``rest`` is a factored rational over the coefficient variables
      (unit 1), the denominator factors of ``fr`` that have no
      (q,t)-content;
    * ``series`` is exact up to total (q,t)-degree ``trunc``.

    Raises :class:`DenominatorNotUnit` for denominator factors whose
    (q,t)-minimal part is neither a monomial nor purely coefficient-side.

    ``_memo`` lets :func:`split_expand` share factor classifications and
    factor series between the terms of one sum; it maps a canonical
    factor key to :func:`_classify`'s result, which projects each such
    factor to the coefficient variables once, and ``(key, mult, rel)`` to
    :func:`_factor_series`'s.
    """
    vars = fr.vars
    coeff_vars = _coeff_vars(vars)
    if fr.is_zero():
        return FactoredRational.one(coeff_vars), QTSeries(coeff_vars, trunc)
    memo = {} if _memo is None else _memo
    iq, it = vars.index("q"), vars.index("t")
    z_idx = [i for i in range(len(vars)) if i not in (iq, it)]

    unit_coef = fr.coef
    shift_q, shift_t = fr.exps[iq], fr.exps[it]
    unit_zexp = [fr.exps[i] for i in z_idx]
    rest_factors = []
    # (key, poly, mult, lead), in the fixed order: numerator factors, then
    # denominator factors, each sorted by key (this order keeps the
    # partial products small)
    num_factors = []
    den_factors = []
    for key, (p, m) in sorted(fr._fmap.items()):
        info = memo.get(key)
        if info is None:
            info = memo[key] = _classify(p, iq, it, coeff_vars)
        pure, lead = info
        if m > 0:
            num_factors.append((key, p, m, None))
        elif pure is not None:
            rest_factors.append((pure, m))
        elif lead is None:
            raise DenominatorNotUnit(
                f"denominator factor has non-monomial minimal part: {p.canonical_str()}")
        else:
            den_factors.append((key, p, m, lead))
            c0, e0 = lead
            unit_coef = _norm_coef(unit_coef * _norm_coef(Fraction(1) / c0) ** -m)
            shift_q += m * e0[iq]
            shift_t += m * e0[it]
            for j, i in enumerate(z_idx):
                unit_zexp[j] += m * e0[i]
    # relative order: the unit part, with inverted leading monomials, is
    # a (q,t)-shift of total degree shift_q + shift_t
    rel = trunc - shift_q - shift_t

    series = None
    if rel >= 0:  # below that every series is empty
        for key, p, m, lead in num_factors + den_factors:
            f = _factor_series(memo, key, p, m, lead, rel, coeff_vars)
            if f.is_one():
                continue
            if series is None:
                series = f
            else:
                series = (series * f).truncate(rel)
    if series is None:
        series = QTSeries.one(coeff_vars, rel)

    series = series.scale(unit_coef).shift(shift_q, shift_t).truncate(trunc)
    if any(unit_zexp):
        series = series.shift_coeffs(unit_zexp)
    return FactoredRational(coeff_vars, 1, None, rest_factors), series


def expand(fr: FactoredRational, trunc: int) -> QTSeries:
    """(q,t)-expansion of a factored rational, exact up to total degree
    ``trunc``.  Every denominator factor must be a unit for the grading."""
    rest, series = expand_split(fr, trunc)
    if rest.factors:
        raise DenominatorNotUnit(
            "denominator factor with zero (q,t)-degree: "
            + rest.canonical_str()
        )
    return series


def _coeff_vars(vars: Sequence[str]) -> tuple:
    return tuple(v for v in vars if v not in QT)


class NonPolynomialCoefficient(ArithmeticError):
    """A coefficient of a summed expansion failed to be a Laurent
    polynomial: the poles of the individual terms did not cancel."""


class InsufficientTruncation(ArithmeticError):
    """A product of truncated series is not exact up to the order asked
    for: a factor was expanded to too low a degree for the valuation of
    the other."""


def _pole_key(rest: FactoredRational) -> tuple:
    """The pole part of an :func:`expand_split` ``rest`` as a hashable key."""
    return tuple(sorted((k, m) for k, (_p, m) in rest._fmap.items()))


def split_sum(pairs) -> tuple:
    """Add the ``(rest, series)`` pairs of a split series that share a
    pole part.

    A split series is a finite sum of ``rest * series`` with ``rest`` a
    purely coefficient-side denominator (see :func:`expand_split`); it is
    given as a sequence of such pairs.  The result has one pair per pole
    part, the first ``rest`` of that part and a new series with the least
    truncation of its inputs: their coefficient terms are added in place
    per (q,t)-degree, and the given series are never mutated.
    """
    parts: dict = {}   # pole key -> [rest, trunc, coeff_vars, {(a, b): terms}]
    for rest, ser in pairs:
        pole = _pole_key(rest)
        part = parts.get(pole)
        if part is None:
            parts[pole] = [rest, ser.trunc, ser.coeff_vars,
                           {k: dict(p.terms) for k, p in ser.coeffs.items()}]
            continue
        part[1] = min(part[1], ser.trunc)
        acc = part[3]
        for key, poly in ser.coeffs.items():
            terms = acc.get(key)
            if terms is None:
                acc[key] = dict(poly.terms)
                continue
            get = terms.get
            for e, c in poly.terms.items():
                c = get(e, 0) + c
                if c:
                    terms[e] = _norm_coef(c)
                else:
                    del terms[e]
    out = []
    for rest, trunc, coeff_vars, acc in parts.values():
        ser = QTSeries(coeff_vars, trunc)
        ser.coeffs = {k: LaurentPolynomial._from_terms(coeff_vars, t)
                      for k, t in acc.items() if t and k[0] + k[1] <= trunc}
        out.append((rest, ser))
    return tuple(out)


def split_expand(terms, trunc: int) -> tuple:
    """``sum(terms)`` as a split series in q and t exact up to total
    degree ``trunc``: the :func:`expand_split` pairs of the terms, added
    per pole part.  Each distinct factor power is expanded once per call."""
    memo: dict = {}
    return split_sum(expand_split(fr, trunc, _memo=memo) for fr in terms)


def _valuation(s: QTSeries) -> int:
    """Lowest total degree of ``s``; an empty series is zero up to its
    truncation, so its valuation exceeds it."""
    return s.min_total() if s.coeffs else s.trunc + 1


def split_mul(a, b, order: int) -> list:
    """The product of two split series, exact up to total degree
    ``order``: (r1, s1) * (r2, s2) = (r1 r2, s1 s2) over every pair.

    Each factor is cut to the degrees the product reads below the order,
    so every product series has truncation ``order``.  Pairs whose
    valuations add up beyond the order contribute nothing and are left
    out.  Raises :class:`InsufficientTruncation` when a product is not
    exact up to the order.
    """
    out = []
    for r1, s1 in a:
        v1 = _valuation(s1)
        for r2, s2 in b:
            v2 = _valuation(s2)
            exact = min(s1.trunc + v2, s2.trunc + v1)
            if exact < order:
                raise InsufficientTruncation(
                    f"product exact up to degree {exact}, not {order}")
            if v1 + v2 <= order:
                out.append((r1 * r2, s1.truncate(order - v2) * s2.truncate(order - v1)))
    return out


def certify_sum(split, vars: Sequence[str], trunc: int) -> QTSeries:
    """The total of the split series ``split``, certified to be a Laurent
    polynomial in the coefficient variables at each (q,t)-degree.

    Each pair's coefficient is lifted to a factored rational over its
    pole part, the lifts of one degree are added, and the sum is divided
    out exactly.  ``vars`` is the context of the summed terms, and the
    pole parts and coefficients are over its coefficient variables;
    every series must be exact up to total degree ``trunc`` and hold no
    coefficient beyond it.  Raises :class:`NonPolynomialCoefficient` when
    the poles do not cancel.
    """
    out = QTSeries(_coeff_vars(vars), trunc)
    acc: dict = {}
    for rest, ser in split:
        for key, poly in ser.coeffs.items():
            contrib = rest * FactoredRational.from_poly(poly)
            acc[key] = acc[key] + contrib if key in acc else contrib
    for key, fr in sorted(acc.items()):
        if fr.is_zero():
            continue
        try:
            out.coeffs[key] = fr.to_laurent()
        except ArithmeticError as exc:
            raise NonPolynomialCoefficient(
                f"coefficient at (q,t)-degree {key} is not polynomial: "
                f"{fr.canonical_str()}") from exc
    return out


def certify_weyl_sum(split, vars: Sequence[str], trunc: int) -> QTSeries:
    """The certified Weyl-group sum over the SL(N) torus coordinates
    z_1 .. z_{N-1}, z_N = (z_1 ... z_{N-1})^-1: per (q,t)-degree, the
    sum over W = S_N of the images sigma_w (z_i -> z_{w(i)}) of the
    total of the split series ``split``, certified with no image built.
    One pass over the terms gives that sum as A / V^m, A a sum of
    alternants and V the Vandermonde product (:func:`_alternant_sum`);
    A is divided exactly by each z_i - z_j of V, m times.  Raises :class:`NonPolynomialCoefficient` when the poles
    do not cancel and :class:`NonRootPole` when a pole part is not a
    product of root binomials."""
    coeff_vars = _coeff_vars(vars)
    out = QTSeries(coeff_vars, trunc)
    parts: dict = {}
    for rest, ser in split:
        for key, poly in ser.coeffs.items():
            parts.setdefault(key, []).append((rest, poly.terms))
    binomials = _sl_weyl(coeff_vars)[3]
    poles: dict = {}
    products: dict = {}
    for key, group in sorted(parts.items()):
        poly, m = _alternant_sum(group, coeff_vars, poles, products)
        if poly.is_zero():
            continue   # certified with no division
        try:
            for _ in range(m):
                for binomial in binomials:
                    poly = poly.divide_exact(binomial)
        except ArithmeticError as exc:
            raise NonPolynomialCoefficient(
                f"coefficient at (q,t)-degree {key} of the Weyl-group sum is not "
                f"polynomial: its alternants are not divisible by the Vandermonde "
                f"product to the power {m}") from exc
        out.coeffs[key] = poly
    return out


class NonRootPole(ValueError):
    """A pole part of a Weyl-group sum is not a product of root binomials
    z_i - z_j (up to a unit) in the denominator, so no power of the
    Vandermonde product clears it."""


@cache
def _sl_weyl(coeff_vars: tuple) -> tuple:
    """The SL(N) data of a Weyl-group sum over the torus coordinates
    ``coeff_vars`` = (z_1 .. z_{N-1}), z_N = (z_1 ... z_{N-1})^-1:

    * ``slots``: the exponent vectors of z_1 .. z_N;
    * ``roots``: each vector slots[i] - slots[j] (i != j) mapped to (i, j);
    * ``pairs``: the positive roots (i, j), i < j, in order;
    * ``binomials``: z_i - z_j for each positive root, in the same order;
    * ``perms``: every w in S_N as (w(0) .. w(N-1), sign of w)."""
    n = len(coeff_vars) + 1
    slots = [tuple(int(i == k) for k in range(n - 1)) for i in range(n - 1)]
    slots.append((-1,) * (n - 1))
    roots = {tuple(map(sub, slots[i], slots[j])): (i, j)
             for i in range(n) for j in range(n) if i != j}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    binomials = [LaurentPolynomial(coeff_vars, {slots[i]: 1, slots[j]: -1}) for i, j in pairs]
    perms = [(w, (-1) ** sum(w[i] > w[j] for i, j in pairs)) for w in permutations(range(n))]
    return slots, roots, pairs, binomials, perms


def _root_poles(rest: FactoredRational, coeff_vars: tuple) -> tuple:
    """The pole part ``rest`` of an :func:`expand_split` pair (unit 1,
    over ``coeff_vars``) as ``(coef, shift, mult)``: rest is
    coef z^shift / prod_{i<j} (z_i - z_j)^mult[k] over the positive roots
    (i, j), k their index, in the SL coordinates ``coeff_vars``.  Raises
    :class:`NonRootPole` unless every factor is a root binomial
    u z^k (z_i - z_j) in the denominator."""
    slots, roots, pairs, _binomials, _perms = _sl_weyl(coeff_vars)
    coef = 1
    shift = [0] * len(coeff_vars)
    mult = [0] * len(pairs)
    for p, k in rest._fmap.values():
        root = None
        if k < 0 and len(p.terms) == 2:
            (z1, c1), (z2, c2) = p.terms.items()
            root = roots.get(tuple(map(sub, z1, z2))) if c1 + c2 == 0 else None
        if root is None:
            raise NonRootPole(
                f"pole factor ({p.canonical_str()})^{k} is not a root binomial in the denominator")
        # p = c1 z^(z1 - slot_i) (z_i - z_j), and z_i - z_j = -(z_j - z_i)
        i, j = root
        u = c1 if i < j else -c1
        coef = _norm_coef(coef * _norm_coef(Fraction(1) / u) ** -k)
        shift = [s + k * (a - b) for s, a, b in zip(shift, z1, slots[i])]
        mult[pairs.index((min(i, j), max(i, j)))] -= k
    return coef, tuple(shift), tuple(mult)


def _root_product(exps: tuple, coeff_vars: tuple, products: dict) -> LaurentPolynomial:
    """prod_{i<j} (z_i - z_j)^exps[k] over the positive roots, memoised in
    ``products`` on ``exps``."""
    out = products.get(exps)
    if out is None:
        out = LaurentPolynomial.one(coeff_vars)
        for binomial, e in zip(_sl_weyl(coeff_vars)[3], exps):
            if e:
                out = out * binomial ** e
        products[exps] = out
    return out


def _alternant_sum(group: list, coeff_vars: tuple, poles: dict, products: dict) -> tuple:
    """``(A, m)`` with A / V^m the sum over W of the images sigma_w of
    the sum of rest * poly over the ``(rest, poly terms)`` pairs of
    ``group``, V = prod_{i<j} (z_i - z_j) over ``coeff_vars`` (SL
    coordinates, see :func:`certify_weyl_sum`) and A a sum of alternants.

    sigma_w(V) = sign(w) V.  For an odd m at least the largest pole
    multiplicity and D = V^m, the sum is N / D with N = sum poly * (D /
    rest), and sum_w sigma_w(N / D) = (sum_w sign(w) sigma_w(N)) / D.
    N is built over the least common multiple L of the pole parts
    (:func:`_root_poles`, kept in ``poles`` per pole part), as
    (sum poly * (L / rest)) * (D / L); the root products come from
    ``products``.  For a monomial z^e, read as the GL exponent (e, 0),
    sum_w sign(w) sigma_w(z^e) is sign(pi) a_mu, where mu sorts e into
    decreasing order by pi and a_mu is the alternant
    sum_w sign(w) z^{w mu}, or 0 when e repeats an entry (Macdonald,
    Symmetric Functions and Hall Polynomials, ch. I §3).  One pass over
    the terms of N gives every alternant's coefficient."""
    _slots, _roots, pairs, _binomials, perms = _sl_weyl(coeff_vars)
    n = len(coeff_vars) + 1
    infos = []
    for rest, _t in group:
        key = _pole_key(rest)
        info = poles.get(key)
        if info is None:
            info = poles[key] = _root_poles(rest, coeff_vars)
        infos.append(info)
    lcm = tuple(map(max, zip(*(mult for _c, _s, mult in infos))))
    m = max(lcm, default=1) | 1
    acc: dict = {}
    get = acc.get
    for (coef, shift, mult), (_rest, t) in zip(infos, group):
        cof = _root_product(tuple(map(sub, lcm, mult)), coeff_vars, products)
        cof_items = cof.shift(shift).scale(coef).terms.items()
        for e1, c1 in t.items():
            for e2, c2 in cof_items:
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    top = _root_product(tuple(m - x for x in lcm), coeff_vars, products)
    num = LaurentPolynomial._from_terms(coeff_vars, acc) * top
    alt: dict = {}
    for e, c in num.terms.items():
        full = e + (0,)
        sign = 1
        for i, j in pairs:
            a, b = full[i], full[j]
            if a == b:
                break
            if a < b:
                sign = -sign
        else:
            mu = sorted(full, reverse=True)
            low = mu[-1]
            mu = tuple(x - low for x in mu)
            alt[mu] = alt.get(mu, 0) + sign * c
    terms: dict = {}
    for mu, c in alt.items():
        if not c:
            continue
        c = _norm_coef(c)
        for w, sign in perms:
            img = [0] * n
            for i, x in enumerate(mu):
                img[w[i]] = x
            low = img[-1]
            terms[tuple(x - low for x in img[:-1])] = c if sign > 0 else -c
    return LaurentPolynomial._from_terms(coeff_vars, terms), m


def expand_sum(terms, trunc: int) -> QTSeries:
    """Expand the finite sum ``sum(terms)`` as a (q,t)-series.

    Individual terms may carry purely coefficient-side poles (for
    instance Weyl denominators 1 - z_i/z_j); those parts are kept as
    exact rational multipliers per coefficient and must cancel in the
    total, which :func:`certify_sum` certifies by exact division.  The
    terms of a localization sum share a small set of factors, so each
    distinct factor power is expanded once per call
    (:func:`split_expand`).
    """
    terms = [fr for fr in terms if not fr.is_zero()]
    if not terms:
        raise ValueError("empty sum")
    return certify_sum(split_expand(terms, trunc), terms[0].vars, trunc)


class XSeries(_Series):
    """Truncated series in ``n`` ratio variables with factored-rational
    coefficients over the base variable context ``base_vars``: its
    context is the pair ``(n, base_vars)``."""

    __slots__ = ()

    def __init__(self, n: int, base_vars: Sequence[str], trunc: int,
                 coeffs: Mapping[tuple, FactoredRational] | None = None):
        super().__init__((n, tuple(base_vars)), trunc, coeffs)

    n = property(lambda self: self._context[0])
    base_vars = property(lambda self: self._context[1])

    @classmethod
    def one(cls, n, base_vars, trunc) -> "XSeries":
        s = cls(n, base_vars, trunc)
        if trunc >= 0:
            s.coeffs[(0,) * n] = FactoredRational.one(base_vars)
        return s

    def scale(self, c: FactoredRational) -> "XSeries":
        return self._like(self.trunc, {} if c.is_zero() else
                          {k: v * c for k, v in self.coeffs.items()})

    def map_coeffs(self, fn: Callable[[tuple, FactoredRational], FactoredRational]) -> "XSeries":
        return self._like(self.trunc, {k: w for k, v in self.coeffs.items()
                                       if not (w := fn(k, v)).is_zero()})

    @classmethod
    def geometric(cls, n, base_vars, trunc, coef: FactoredRational, mono: Sequence[int]) -> "XSeries":
        """1 / (1 - coef * x^mono) as a truncated series (mono != 0)."""
        mono = tuple(mono)
        step = sum(mono)
        if step <= 0:
            raise ValueError("geometric expansion needs a positive-degree monomial")
        out = cls(n, base_vars, trunc)
        k = (0,) * n
        v = FactoredRational.one(base_vars)
        d = 0
        while d <= trunc:
            out.coeffs[k] = v
            k = tuple(x + y for x, y in zip(k, mono))
            v = v * coef
            d += step
        return out

    @classmethod
    def binomial(cls, n, base_vars, trunc, coef: FactoredRational, mono: Sequence[int]) -> "XSeries":
        """1 - coef * x^mono as a (finite) series."""
        out = cls(n, base_vars, trunc)
        out.coeffs[(0,) * n] = FactoredRational.one(base_vars)
        if sum(mono) <= trunc and not coef.is_zero():
            out.coeffs[tuple(mono)] = -coef
        return out

    def canonical_str(self) -> str:
        parts = [f"x^{list(k)} * [{v.canonical_str()}]" for k, v in self.sorted_items()]
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "nvars": self.n,
            "truncation": self.trunc,
            "coefficients": [
                {"deg": list(k), "value": v.to_json_obj()} for k, v in self.sorted_items()
            ],
        }
