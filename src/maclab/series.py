"""Truncated formal series: bigraded (q,t)-series and multivariate x-series.

:class:`QTSeries` is a series in two distinguished variables (``q`` and
``t``, or ``q`` and the Macdonald parameter), truncated by total degree,
whose coefficients are Laurent polynomials in the remaining variables.
Negative exponents are permitted (they arise from q-inverted characters);
the ``trunc`` attribute records the total degree up to which the stored
data is exact.

:class:`XSeries` is a truncated series in auxiliary ratio variables whose
coefficients are :class:`~maclab.algebra.FactoredRational` values over the
base context; coefficients stay factored and are never expanded eagerly.

:func:`expand` turns a factored rational with unit denominator (in the
(q,t)-grading) into a :class:`QTSeries`; :func:`expand_split` additionally
tolerates purely-z denominator factors, returning them unexpanded as a
rational multiplier.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import (
    Coef,
    DenominatorNotUnit,
    FactoredRational,
    LaurentPolynomial,
    _norm_coef,
)

__all__ = ["QTSeries", "XSeries", "expand", "expand_split"]


class QTSeries:
    """Total-degree-truncated series in two graded variables.

    ``coeffs`` maps integer pairs (a, b) with a + b <= trunc to nonzero
    Laurent polynomials over ``coeff_vars``.
    """

    __slots__ = ("qt", "coeff_vars", "trunc", "coeffs")

    def __init__(self, qt: Sequence[str], coeff_vars: Sequence[str], trunc: int,
                 coeffs: Mapping[tuple, LaurentPolynomial] | None = None):
        self.qt = tuple(qt)
        self.coeff_vars = tuple(coeff_vars)
        self.trunc = trunc
        self.coeffs = {}
        if coeffs:
            for k, p in coeffs.items():
                if not p.is_zero() and k[0] + k[1] <= trunc:
                    self.coeffs[tuple(k)] = p

    @classmethod
    def one(cls, qt, coeff_vars, trunc) -> "QTSeries":
        s = cls(qt, coeff_vars, trunc)
        if trunc >= 0:
            s.coeffs[(0, 0)] = LaurentPolynomial.one(coeff_vars)
        return s

    @classmethod
    def zero(cls, qt, coeff_vars, trunc) -> "QTSeries":
        return cls(qt, coeff_vars, trunc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        c0 = self.coeffs.get((0, 0))
        return len(self.coeffs) == 1 and c0 is not None and c0.is_one()

    def min_total(self) -> int:
        return min((a + b for a, b in self.coeffs), default=0)

    def _check(self, other: "QTSeries"):
        if self.qt != other.qt or self.coeff_vars != other.coeff_vars:
            raise ValueError("series contexts differ")

    def __add__(self, other: "QTSeries") -> "QTSeries":
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out = QTSeries(self.qt, self.coeff_vars, trunc)
        for k, p in self.coeffs.items():
            if k[0] + k[1] <= trunc:
                out.coeffs[k] = p
        for k, p in other.coeffs.items():
            if k[0] + k[1] > trunc:
                continue
            s = out.coeffs.get(k)
            s = p if s is None else s + p
            if s.is_zero():
                out.coeffs.pop(k, None)
            else:
                out.coeffs[k] = s
        return out

    def __neg__(self) -> "QTSeries":
        out = QTSeries(self.qt, self.coeff_vars, self.trunc)
        out.coeffs = {k: -p for k, p in self.coeffs.items()}
        return out

    def __sub__(self, other: "QTSeries") -> "QTSeries":
        return self + (-other)

    def __mul__(self, other: "QTSeries") -> "QTSeries":
        self._check(other)
        trunc = min(self.trunc + other.min_total(), other.trunc + self.min_total())
        out = QTSeries(self.qt, self.coeff_vars, trunc)
        acc: dict = {}
        for (a1, b1), p1 in self.coeffs.items():
            for (a2, b2), p2 in other.coeffs.items():
                a, b = a1 + a2, b1 + b2
                if a + b > trunc:
                    continue
                prod = p1 * p2
                k = (a, b)
                if k in acc:
                    acc[k] = acc[k] + prod
                else:
                    acc[k] = prod
        out.coeffs = {k: p for k, p in acc.items() if not p.is_zero()}
        return out

    def scale(self, c: Coef) -> "QTSeries":
        out = QTSeries(self.qt, self.coeff_vars, self.trunc)
        if c:
            out.coeffs = {k: p.scale(c) for k, p in self.coeffs.items()}
        return out

    def shift(self, da: int, db: int) -> "QTSeries":
        """Multiply by q^da * t^db (adjusting the accuracy bound)."""
        out = QTSeries(self.qt, self.coeff_vars, self.trunc + da + db)
        out.coeffs = {(a + da, b + db): p for (a, b), p in self.coeffs.items()}
        return out

    def shift_coeffs(self, exps: Sequence[int]) -> "QTSeries":
        """Multiply every coefficient by the coeff-vars monomial ``exps``."""
        out = QTSeries(self.qt, self.coeff_vars, self.trunc)
        out.coeffs = {k: p.shift(exps) for k, p in self.coeffs.items()}
        return out

    def truncate(self, trunc: int) -> "QTSeries":
        trunc = min(trunc, self.trunc)
        out = QTSeries(self.qt, self.coeff_vars, trunc)
        out.coeffs = {k: p for k, p in self.coeffs.items() if k[0] + k[1] <= trunc}
        return out

    def inverse(self) -> "QTSeries":
        """Series inverse; the (0,0) coefficient must be the constant 1."""
        c0 = self.coeffs.get((0, 0))
        if self.min_total() < 0 or c0 is None or not c0.is_one():
            raise DenominatorNotUnit("series inverse needs constant term 1")
        h = QTSeries(self.qt, self.coeff_vars, self.trunc)
        h.coeffs = {k: p for k, p in self.coeffs.items() if k != (0, 0)}
        acc = QTSeries.one(self.qt, self.coeff_vars, self.trunc)
        pw = QTSeries.one(self.qt, self.coeff_vars, self.trunc)
        for _ in range(self.trunc):
            pw = pw * (-h)
            pw.trunc = self.trunc
            if pw.is_zero():
                break
            acc = acc + pw
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QTSeries)
            and self.qt == other.qt
            and self.coeff_vars == other.coeff_vars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):  # pragma: no cover
        return hash((self.qt, self.coeff_vars, self.trunc, len(self.coeffs)))

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))

    def canonical_str(self) -> str:
        qa, qb = self.qt
        parts = [
            f"{qa}^{a}*{qb}^{b} * [{p.canonical_str()}]"
            for (a, b), p in self.sorted_items()
        ]
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "grading": list(self.qt),
            "coeff_vars": list(self.coeff_vars),
            "truncation": self.trunc,
            "coefficients": [
                {"deg": list(k), "value": p.to_json_obj()} for k, p in self.sorted_items()
            ],
        }

    def __repr__(self):
        return f"QTSeries({self.canonical_str()}; trunc={self.trunc})"


def _poly_to_qtseries(p: LaurentPolynomial, qt: Sequence[str], trunc: int) -> QTSeries:
    """Spread a polynomial over the (q,t)-grading, dropping terms beyond trunc."""
    vars = p.vars
    iq, it = vars.index(qt[0]), vars.index(qt[1])
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
    out = QTSeries(qt, coeff_vars, trunc)
    out.coeffs = {k: LaurentPolynomial._from_terms(coeff_vars, g) for k, g in groups.items()}
    return out


def _classify(p: LaurentPolynomial, iq: int, it: int) -> tuple:
    """``(pure, lead)`` of a canonical factor for the (q,t)-grading:
    ``pure`` when it has no (q,t)-content, and ``lead = (coef, exps)``
    its unique term of minimal (q,t)-degree (None when that is not
    unique)."""
    degs = {e: e[iq] + e[it] for e in p.terms}
    dmin = min(degs.values())
    minimal = [e for e, d in degs.items() if d == dmin]
    lead = (p.terms[minimal[0]], minimal[0]) if len(minimal) == 1 else None
    return max(degs.values()) == 0, lead


def _factor_series(memo: dict, key: tuple, p: LaurentPolynomial, m: int, lead,
                   rel: int, qt: Sequence[str], coeff_vars: tuple) -> QTSeries:
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
        base = _factor_series(memo, key, p, unit, lead, rel, qt, coeff_vars)
        out = base
        for _ in range(abs(m) - 1):
            out = out * base
            out.trunc = rel
    elif m > 0:
        out = _poly_to_qtseries(p, qt, rel)
    else:
        # 1/(lead + tail) = lead^-1 * 1/(1 + tail/lead)
        c0, e0 = lead
        tail = LaurentPolynomial._from_terms(
            p.vars, {e: c for e, c in p.terms.items() if e != e0})
        h = tail.shift(tuple(-x for x in e0)).scale(_norm_coef(Fraction(1) / c0))
        neg_h = -_poly_to_qtseries(h, qt, rel)
        out = QTSeries.one(qt, coeff_vars, rel)
        pw = out
        for _ in range(rel):
            pw = pw * neg_h
            pw.trunc = rel
            if pw.is_zero():
                break
            out = out + pw
    memo[mkey] = out
    return out


def expand_split(fr: FactoredRational, trunc: int, qt: Sequence[str] = ("q", "t"),
                 _memo: dict | None = None):
    """Expand ``fr`` as a truncated (q,t)-series, splitting off the part
    that cannot be expanded.

    Returns ``(rest, series)`` with ``fr == rest * series``:

    * ``rest`` is a factored rational whose factors are purely in the
      coefficient variables and appear only in the denominator (unit 1);
    * ``series`` is exact up to total (q,t)-degree ``trunc``.

    Raises :class:`DenominatorNotUnit` for denominator factors whose
    (q,t)-minimal part is neither a monomial nor purely coefficient-side.

    ``_memo`` lets :func:`expand_sum` share factor classifications and
    factor series between the terms of one sum; it maps a canonical
    factor key to :func:`_classify`'s result and ``(key, mult, rel)`` to
    :func:`_factor_series`'s.
    """
    vars = fr.vars
    coeff_vars = _coeff_vars(vars, qt)
    if fr.is_zero():
        return FactoredRational.one(vars), QTSeries(qt, coeff_vars, trunc)
    memo = {} if _memo is None else _memo
    iq, it = vars.index(qt[0]), vars.index(qt[1])
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
            info = memo[key] = _classify(p, iq, it)
        pure, lead = info
        if m > 0:
            num_factors.append((key, p, m, None))
        elif pure:
            rest_factors.append((p, m))
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
            f = _factor_series(memo, key, p, m, lead, rel, qt, coeff_vars)
            if f.is_one():
                continue
            if series is None:
                series = f
            else:
                series = series * f
                series.trunc = rel
    if series is None:
        series = QTSeries.one(qt, coeff_vars, rel)

    series = series.scale(unit_coef)
    series = series.shift(shift_q, shift_t)
    series.trunc = trunc
    series.coeffs = {k2: v for k2, v in series.coeffs.items() if k2[0] + k2[1] <= trunc}
    if any(unit_zexp):
        series = series.shift_coeffs(unit_zexp)
    rest = FactoredRational(vars, 1, None, rest_factors)
    return rest, series


def expand(fr: FactoredRational, trunc: int, qt: Sequence[str] = ("q", "t")) -> QTSeries:
    """(q,t)-expansion of a factored rational, exact up to total degree
    ``trunc``.  Every denominator factor must be a unit for the grading."""
    rest, series = expand_split(fr, trunc, qt)
    if rest.factors:
        raise DenominatorNotUnit(
            "denominator factor with zero (q,t)-degree: "
            + rest.canonical_str()
        )
    return series


def _coeff_vars(vars: Sequence[str], qt: Sequence[str]) -> tuple:
    return tuple(v for v in vars if v not in qt)


class NonPolynomialCoefficient(ArithmeticError):
    """A coefficient of a summed expansion failed to be a Laurent
    polynomial: the poles of the individual terms did not cancel."""


def expand_sum(terms, trunc: int, qt: Sequence[str] = ("q", "t"),
               images: Sequence[Mapping[str, tuple]] = ({},)) -> QTSeries:
    """Expand the finite sum ``sum_sigma sigma(sum(terms))`` as a
    (q,t)-series, sigma running over ``images``.

    Each image is a :meth:`FactoredRational.transform` mapping of the
    coefficient variables only (for a localization sum, sigma_w: z_i ->
    z_{w(i)} for every Weyl element w); the default is the identity
    alone, which sums ``terms`` as given.  Such a map commutes with the
    (q,t)-expansion, so only ``terms`` are expanded.

    Individual terms may carry purely coefficient-side poles (for
    instance Weyl denominators 1 - z_i/z_j); those parts are kept as
    exact rational multipliers per coefficient and must cancel in the
    total over all images, which is certified by exact division at the
    end.

    The terms of a localization sum share a small set of factors, so each
    distinct factor power is expanded once per call (see
    :func:`expand_split`).  The fold first adds the coefficient
    polynomials of all terms with the same (q,t)-degree and the same pole
    part, then lifts each such group once to a factored rational over its
    poles and adds the groups.  Every image of that per-degree sum is
    then added before the certification.
    """
    terms = [fr for fr in terms if not fr.is_zero()]
    if not terms:
        raise ValueError("empty sum")
    if not images or any(v in sigma for sigma in images for v in qt):
        raise ValueError("images must be maps of the coefficient variables")
    vars = terms[0].vars
    coeff_vars = _coeff_vars(vars, qt)
    memo: dict = {}
    groups: dict = {}   # ((a, b), pole key) -> (rest, coefficient terms)
    for fr in terms:
        rest, ser = expand_split(fr, trunc, qt, _memo=memo)
        pole = tuple(sorted((k, m) for k, (_p, m) in rest._fmap.items()))
        for key, poly in ser.coeffs.items():
            g = groups.get((key, pole))
            if g is None:
                groups[(key, pole)] = (rest, dict(poly.terms))
                continue
            acc_terms = g[1]
            get = acc_terms.get
            for e, c in poly.terms.items():
                s = get(e, 0) + c
                if s:
                    acc_terms[e] = _norm_coef(s)
                else:
                    del acc_terms[e]
    acc: dict = {}
    for (key, _pole), (rest, t) in groups.items():
        if not t:
            continue
        poly = LaurentPolynomial._from_terms(coeff_vars, t).transform(vars, {})
        contrib = rest * FactoredRational.from_poly(poly)
        acc[key] = acc[key] + contrib if key in acc else contrib
    out = QTSeries(qt, coeff_vars, trunc)
    drop = {v: (1, (0,) * len(coeff_vars)) for v in qt}
    qt_idx = [vars.index(v) for v in qt]
    for key, fold in sorted(acc.items()):
        fr = None
        for sigma in images:
            img = fold.transform(vars, sigma) if sigma else fold
            fr = img if fr is None else fr + img
        if fr.is_zero():
            continue
        try:
            poly = fr.to_laurent()
        except ArithmeticError as exc:
            raise NonPolynomialCoefficient(
                f"coefficient at (q,t)-degree {key} is not polynomial: "
                f"{fr.canonical_str()}") from exc
        if poly.is_zero():
            continue
        if any(e[i] for e in poly.terms for i in qt_idx):
            raise NonPolynomialCoefficient(
                f"coefficient at {key} still involves the graded variables")
        out.coeffs[key] = poly.transform(coeff_vars, drop)
    return out


class XSeries:
    """Truncated series in ``n`` ratio variables with factored-rational
    coefficients over the base variable context."""

    __slots__ = ("n", "base_vars", "trunc", "coeffs")

    def __init__(self, n: int, base_vars: Sequence[str], trunc: int,
                 coeffs: Mapping[tuple, FactoredRational] | None = None):
        self.n = n
        self.base_vars = tuple(base_vars)
        self.trunc = trunc
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if not v.is_zero() and sum(k) <= trunc:
                    self.coeffs[tuple(k)] = v

    @classmethod
    def one(cls, n, base_vars, trunc) -> "XSeries":
        s = cls(n, base_vars, trunc)
        if trunc >= 0:
            s.coeffs[(0,) * n] = FactoredRational.one(base_vars)
        return s

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "XSeries"):
        if self.n != other.n or self.base_vars != other.base_vars:
            raise ValueError("series contexts differ")

    def __add__(self, other: "XSeries") -> "XSeries":
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out = XSeries(self.n, self.base_vars, trunc)
        for k, v in self.coeffs.items():
            if sum(k) <= trunc:
                out.coeffs[k] = v
        for k, v in other.coeffs.items():
            if sum(k) > trunc:
                continue
            cur = out.coeffs.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                out.coeffs.pop(k, None)
            else:
                out.coeffs[k] = s
        return out

    def __neg__(self) -> "XSeries":
        out = XSeries(self.n, self.base_vars, self.trunc)
        out.coeffs = {k: -v for k, v in self.coeffs.items()}
        return out

    def __sub__(self, other: "XSeries") -> "XSeries":
        return self + (-other)

    def __mul__(self, other: "XSeries") -> "XSeries":
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out = XSeries(self.n, self.base_vars, trunc)
        acc: dict = {}
        for k1, v1 in self.coeffs.items():
            d1 = sum(k1)
            for k2, v2 in other.coeffs.items():
                if d1 + sum(k2) > trunc:
                    continue
                k = tuple(x + y for x, y in zip(k1, k2))
                prod = v1 * v2
                if k in acc:
                    acc[k] = acc[k] + prod
                else:
                    acc[k] = prod
        out.coeffs = {k: v for k, v in acc.items() if not v.is_zero()}
        return out

    def scale(self, c: FactoredRational) -> "XSeries":
        out = XSeries(self.n, self.base_vars, self.trunc)
        if not c.is_zero():
            out.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return out

    def map_coeffs(self, fn: Callable[[tuple, FactoredRational], FactoredRational]) -> "XSeries":
        out = XSeries(self.n, self.base_vars, self.trunc)
        for k, v in self.coeffs.items():
            w = fn(k, v)
            if not w.is_zero():
                out.coeffs[k] = w
        return out

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

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

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

    def __repr__(self):
        return f"XSeries({self.canonical_str()}; trunc={self.trunc})"
