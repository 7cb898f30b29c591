"""q-Pochhammer symbols, and products of them kept as binomial ledgers.

Every product of finite symbols (p; q)_n = (1-p)(1-qp)...(1-q^{n-1}p)
that the package builds fills a :class:`Ledger`: integer exponent
vectors of binomials with multiplicities, which a substitution maps
linearly (:meth:`Ledger.image`, also the Weyl and q-inversion images of
C_theta), whose (q,t)-valuation is counted without a value
(:meth:`Ledger.valuation`), and which is converted once to a
:class:`FactoredRational` when the value is needed (:meth:`Ledger.value`).
Two ledgers are ``==`` exactly when their values are equal
(:meth:`Ledger.__eq__`), so an identity between two Pochhammer products
is decided on the ledgers, with no value built.
:meth:`Ledger.zratio` adds a symbol whose base is a monomial of a
context (q, x, z1, z2, ...), its z indices counted from there;
:meth:`Ledger.binomial` adds one binomial over any context, and
:func:`pochhammer` is the ledger of a single symbol.
The infinite symbol (p; q)_inf is only used through its truncated
(q,t)-expansion, where all but finitely many factors are 1 modulo the
truncation order: :meth:`Ledger.inf` adds the others to the ledger, and
a product of such symbols is expanded once.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from . import memo
from .algebra import Coef, FactoredRational, LaurentPolynomial, _poly_sort_key

__all__ = ["Ledger", "pochhammer", "NonConvergent"]


class NonConvergent(ArithmeticError):
    """The infinite product does not converge in the (q,t)-grading."""


def pochhammer(p: FactoredRational | LaurentPolynomial, n: int) -> FactoredRational:
    """Finite q-Pochhammer symbol (p; q)_n as a factored product.

    ``p`` must be a monomial x^e with coefficient 1 (possibly with
    negative exponents) over a context whose first variable is q; the
    symbol is a one-symbol :class:`Ledger`, so factors (1 - q^k p) with
    nonpositive exponents are normalized canonically, e.g. (q^-1; q)_1
    is stored as -q^-1 * (1 - q).
    """
    if n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    if isinstance(p, LaurentPolynomial):
        p = FactoredRational.from_poly(p)
    if not (p.is_monomial() or p.is_zero()):
        raise ValueError("Pochhammer base must be a monomial")
    if p.is_zero():
        return FactoredRational.one(p.vars)
    if p.coef != 1 or p.vars[0] != "q":
        raise ValueError("Pochhammer base must be a coefficient-1 monomial over (q, ...)")
    led = Ledger(p.vars)
    q0, rest = p.exps[0], p.exps[1:]
    for k in range(q0, q0 + n):
        led.binomial((k,) + rest, 1)
    return led.value()


class Ledger:
    """The product coef * x^unit * prod (1 - x^e)^m over a context x,
    filled one Pochhammer symbol at a time.  ``binomials`` maps each e,
    oriented e > 0 in graded-lex order, to its multiplicity m != 0, so
    1 - x^e and 1 - x^-e = -x^-e (1 - x^e) merge and the symbols
    telescope: (x;q)_{m+l} = (x;q)_m (xq^m;q)_l.  A zero binomial makes
    the value zero in a numerator and raises in a denominator, as a zero
    factor does in :class:`FactoredRational`."""

    __slots__ = ("vars", "coef", "unit", "binomials")

    def __init__(self, vars: tuple, coef: Coef = 1, unit: Sequence[int] | None = None):
        self.vars, self.coef = vars, coef
        self.unit = list(unit) if unit is not None else [0] * len(vars)
        self.binomials: dict = {}

    def __eq__(self, other) -> bool:
        """Equality of the values: same ``vars``, and both zero or equal
        ``coef``, ``unit`` and ``binomials``.  This is exact, as the
        Laurent ring over Q is a UFD.  With e = d e0, e0 primitive,
        1 - x^e is up to a sign the product of the cyclotomic factors
        Phi_k(x^e0), k | d, which are irreducible and pairwise not
        associate; the multiplicity of Phi_k(x^e0) in a nonzero value is
        the sum of those of 1 - x^{d e0} over k | d, so Möbius inversion
        recovers every binomial multiplicity, and then the unit and the
        coefficient (Lang, *Algebra*, ch. IV §2 and ch. VI §3)."""
        if not isinstance(other, Ledger):
            return NotImplemented
        if self.vars != other.vars:
            return False
        if not self.coef or not other.coef:
            return not self.coef and not other.coef
        return (self.coef == other.coef and self.unit == other.unit
                and self.binomials == other.binomials)

    __hash__ = None   # ledgers are filled in place

    def zratio(self, n: int, qpow: int = 0, xpow: int = 0, znum: int | None = None,
               zden: int | None = None, mult: int = 1) -> None:
        """Multiply by (q^qpow x^xpow z_znum / z_zden ; q)_n ** mult over
        the context (q, x, z1, z2, ...): z_k sits at index k + 1, so the
        z indices apply only to such contexts."""
        if n < 0:
            raise ValueError("Pochhammer length must be nonnegative")
        rest = [xpow] + [0] * (len(self.vars) - 2)
        if znum is not None:
            rest[znum] += 1
        if zden is not None:
            rest[zden] -= 1
        rest = tuple(rest)
        for k in range(qpow, qpow + n):
            self.binomial((k,) + rest, mult)

    def inf(self, order: int, qpow: int = 0, xpow: int = 0, znum: int | None = None,
            zden: int | None = None, mult: int = 1) -> None:
        """Multiply by (q^qpow x^xpow z_znum / z_zden ; q)_inf ** mult over
        the context (q, x, z1, z2, ...), cut to its factors of (q,
        x)-degree <= order: the others are 1 modulo that order.  Raises
        :class:`NonConvergent` when the base has degree <= 0."""
        deg = qpow + xpow
        if deg <= 0:
            raise NonConvergent(f"(p;q)_infty with qt-degree {deg} base does not converge")
        self.zratio(max(0, order - deg + 1), qpow, xpow, znum, zden, mult)

    def binomial(self, e: tuple, mult: int) -> None:
        """Multiply by (1 - x^e) ** mult."""
        if not mult:
            return
        s = sum(e)
        if s < 0 or not s and e < (0,) * len(e):
            if mult & 1:
                self.coef = -self.coef
            self.unit = [u + mult * x for u, x in zip(self.unit, e)]
            e = tuple([-x for x in e])
        elif not s and not any(e):
            if mult < 0:
                raise ZeroDivisionError("zero polynomial in denominator")
            self.coef = 0
            return
        m = self.binomials.get(e, 0) + mult
        if m:
            self.binomials[e] = m
        else:
            del self.binomials[e]

    def image(self, vars: tuple, weights: Sequence[tuple], images: dict) -> "Ledger":
        """The ledger over ``vars`` of the substitution x^e -> y^f with
        f_t = <e, weights[t]>; ``images`` caches f per binomial.  As in
        :meth:`FactoredRational.transform`, the first factor in key order
        whose image is 1 - 1 decides: a numerator makes the value zero, a
        denominator raises ``ZeroDivisionError``."""
        if not self.coef:
            return Ledger(vars, 0)
        found, collapsed = [], []
        for e in self.binomials:
            f = images.get(e)
            if f is None:
                f = tuple([sum(map(mul, e, w)) for w in weights])
                images[e] = f = f if any(f) else ()
            if f:
                found.append(f)
            else:
                collapsed.append(e)
        if collapsed:
            first = min(collapsed, key=lambda e: _binomial(self.vars, e)[0])
            if self.binomials[first] < 0:
                raise ZeroDivisionError("denominator factor vanished under substitution")
            return Ledger(vars, 0)
        out = Ledger(vars, self.coef, [sum(map(mul, self.unit, w)) for w in weights])
        for f, m in zip(found, self.binomials.values()):
            out.binomial(f, m)
        return out

    def valuation(self, grading: Sequence[int]) -> int:
        """``value().valuation_lb`` counted off the binomials, for the
        grading in which x^e has degree <e, grading>: <unit, grading> plus
        m * min(0, <e, grading>) for each (1 - x^e)^m.  The indicator of
        a set of variables gives ``valuation_lb`` of that set; a -1 on q
        gives it after q -> 1/q."""
        if not self.coef:
            raise ValueError("valuation of zero")
        val = sum(map(mul, self.unit, grading))
        for e, m in self.binomials.items():
            d = sum(map(mul, e, grading))
            if d < 0:
                val += m * d
        return val

    def value(self) -> FactoredRational:
        """The :class:`FactoredRational` that the product of the symbols
        builds, with the same canonical factors and unit."""
        if not self.coef:
            return FactoredRational.zero(self.vars)
        exps, fmap = list(self.unit), {}
        for e, m in self.binomials.items():
            key, poly, low = _binomial(self.vars, e)
            fmap[key] = (poly, m)
            for i, x in low:
                exps[i] += m * x
        return FactoredRational._from_map(self.vars, self.coef, tuple(exps), fmap)


@memo.cached(4096)
def _binomial(vars: tuple, e: tuple) -> tuple:
    """``(key, canonical, low)`` for e > 0: 1 - x^e = x^low * canonical,
    low = min(0, e) as (index, exponent) pairs, canonical = x^-low -
    x^{e - low} with its leading term x^-low, and ``key`` its sort key."""
    low = tuple([min(0, x) for x in e])
    poly = LaurentPolynomial._from_terms(
        vars, {tuple([-x for x in low]): 1, tuple([max(0, x) for x in e]): -1})
    key = _poly_sort_key(poly)
    poly._canon = (1, (0,) * len(vars), poly, key)
    return key, poly, tuple([(i, x) for i, x in enumerate(low) if x])
