"""q-Pochhammer symbols and q-shift substitutions.

The finite symbol (p; q)_n = (1-p)(1-qp)...(1-q^{n-1}p) is kept as a
factored product; the infinite symbol is only ever used through its
truncated (q,t)-expansion, where all but finitely many factors are 1
modulo the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from . import memo
from .algebra import Coef, FactoredRational, LaurentPolynomial
from .series import QTSeries, XSeries, expand

__all__ = ["QShift", "pochhammer", "pochhammer_zratio", "pochhammer_inf", "apply_qshift",
           "UnknownVariable", "NonConvergent"]


class UnknownVariable(ValueError):
    pass


class NonConvergent(ArithmeticError):
    """The infinite product does not converge in the (q,t)-grading."""


@dataclass(frozen=True)
class QShift:
    """Substitution variable -> q^power * variable.

    Composition of shifts in the same variable adds powers; a shift is
    inverted by negating its power.
    """

    variable: str
    power: int

    def compose(self, other: "QShift") -> "QShift":
        if self.variable != other.variable:
            raise ValueError("cannot compose shifts in different variables")
        return QShift(self.variable, self.power + other.power)

    def inverse(self) -> "QShift":
        return QShift(self.variable, -self.power)


def pochhammer(p: FactoredRational | LaurentPolynomial, n: int,
               qvar: str = "q") -> FactoredRational:
    """Finite q-Pochhammer symbol (p; q)_n as a factored product.

    ``p`` must be a monomial (possibly with negative exponents); factors
    (1 - q^k p) with nonpositive exponents are normalized canonically, so
    e.g. (q^-1; q)_1 is stored as -q^-1 * (1 - q).  Results are memoised
    in a process-scoped :mod:`~maclab.memo` table and shared between
    callers, which is safe because factored rationals are immutable.
    """
    if n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    if isinstance(p, LaurentPolynomial):
        p = FactoredRational.from_poly(p)
    if not (p.is_monomial() or p.is_zero()):
        raise ValueError("Pochhammer base must be a monomial")
    if p.is_zero():
        return FactoredRational.one(p.vars)
    return _pochhammer(p.vars, p.coef, p.exps, n, qvar)


@memo.cached("process", 4096)
def _pochhammer(vars: tuple, coef: Coef, exps: tuple, n: int, qvar: str) -> FactoredRational:
    """(p; q)_n for the nonzero monomial p = coef x^exps and n >= 0, as
    the product of the cached (q^k p; q)_1 for k < n: each binomial
    (1 - q^k p) is built once, and symbols that share it share its
    polynomial."""
    iq = vars.index(qvar)
    if n == 1:
        binomial = LaurentPolynomial.one(vars) - LaurentPolynomial.monomial(vars, exps, coef)
        return FactoredRational(vars, 1, None, [(binomial, 1)])
    return FactoredRational.product(vars, [
        _pochhammer(vars, coef, exps[:iq] + (exps[iq] + k,) + exps[iq + 1:], 1, qvar)
        for k in range(n)])


def pochhammer_zratio(vars: Sequence[str], n: int, qpow: int = 0, xpow: int = 0,
                      znum: int | None = None, zden: int | None = None) -> FactoredRational:
    """(q^qpow x^xpow z_znum / z_zden ; q)_n over the context
    (q, x, z1, z2, ...): z_k sits at index k + 1, so no variable name is
    looked up."""
    if n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    e = [0] * len(vars)
    e[0] = qpow
    e[1] = xpow
    if znum is not None:
        e[znum + 1] += 1
    if zden is not None:
        e[zden + 1] -= 1
    return _pochhammer(tuple(vars), 1, tuple(e), n, "q")


def pochhammer_inf(p: FactoredRational | LaurentPolynomial, trunc: int,
                   qt: Sequence[str] = ("q", "t"), qvar: str = "q") -> QTSeries:
    """Truncated (q,t)-expansion of the infinite symbol (p; q)_infty.

    Requires the monomial p to have positive total (q,t)-degree (or be
    zero, in which case the product is 1); each factor (1 - q^k p) with
    k + deg(p) > trunc is 1 modulo the truncation order.
    """
    if isinstance(p, LaurentPolynomial):
        p = FactoredRational.from_poly(p)
    vars = p.vars
    if p.is_zero():
        return QTSeries.one(qt, tuple(v for v in vars if v not in qt), trunc)
    if not p.is_monomial():
        raise ValueError("Pochhammer base must be a monomial")
    deg = sum(p.exps[vars.index(v)] for v in qt)
    if deg <= 0:
        raise NonConvergent(
            f"(p;q)_infty with qt-degree {deg} base does not converge")
    k_max = max(0, trunc - deg + 1)
    finite = pochhammer(p, k_max, qvar=qvar)
    return expand(finite, trunc, qt=qt)


def apply_qshift(obj: Union[LaurentPolynomial, FactoredRational, XSeries],
                 shift: QShift, qvar: str = "q"):
    """Apply the substitution v -> q^power * v exactly, term by term.

    Acts on polynomials and factored rationals over a context containing
    both the shifted variable and ``q``.  For an :class:`XSeries` the
    ratio variables are positional: name them ``x1``, ``x2``, ... and
    each coefficient picks up q^{power * alpha_i}.
    """
    if isinstance(obj, (LaurentPolynomial, FactoredRational)):
        if shift.variable not in obj.vars:
            raise UnknownVariable(shift.variable)
        iq = obj.vars.index(qvar)
        e = [0] * len(obj.vars)
        e[obj.vars.index(shift.variable)] = 1
        e[iq] += shift.power
        return obj.substitute(shift.variable, 1, e)
    if isinstance(obj, XSeries):
        name = shift.variable
        if not (name.startswith("x") and name[1:].isdigit()):
            raise UnknownVariable(name)
        i = int(name[1:])
        if not 1 <= i <= obj.n:
            raise UnknownVariable(name)
        iq = obj.base_vars.index(qvar)

        def twist(k, c, i=i):
            e = [0] * len(obj.base_vars)
            e[iq] = shift.power * k[i - 1]
            return c * FactoredRational.monomial(obj.base_vars, e)

        return obj.map_coeffs(twist)
    raise TypeError(f"cannot q-shift {type(obj).__name__}")
