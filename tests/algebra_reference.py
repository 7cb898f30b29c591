"""The per-term ``Fraction`` product that multiplied polynomials before
``maclab.algebra`` expanded products over the integers, kept as its
reference.

``mul`` is the old ``LaurentPolynomial.__mul__``: every term pair
multiplies exact rational coefficients, and a last pass collapses
denominator-1 ``Fraction``s to ``int``.  ``num_den``, ``to_laurent`` and
``rational_eq`` multiply out factor powers with it, one polynomial
product per factor power, as the old ``FactoredRational`` methods did;
``rational_eq`` cross-multiplies the uncancelled parts and compares the
two expansions as polynomials.  ``sum_is_zero`` folds a list of factored
rationals with ``+`` on their expanded numerator and denominator pairs.

``evaluate`` and ``from_json_obj`` are test-side helpers for
:class:`LaurentPolynomial`, and ``clear_denominators`` writes a
Macdonald polynomial as one y-polynomial over a (q, s) denominator;
they are used only to check the package.
"""

from fractions import Fraction
from operator import add

from maclab.algebra import FactoredRational, LaurentPolynomial
from maclab.macdonald import mac_vars, monomial_symmetric


def _norm(c):
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def mul(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    if p.vars != q.vars:
        raise ValueError("variable contexts differ")
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    t: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = t.get(e, 0) + ca * cb
            if s:
                t[e] = s
            else:
                del t[e]
    return LaurentPolynomial._from_terms(p.vars, {e: _norm(c) for e, c in t.items()})


def power(p: LaurentPolynomial, n: int) -> LaurentPolynomial:
    out = LaurentPolynomial.one(p.vars)
    for _ in range(n):
        out = mul(out, p)
    return out


def _expand(vars, coef, exps, factors) -> LaurentPolynomial:
    out = LaurentPolynomial.monomial(vars, exps, coef)
    for p, m in factors:
        out = mul(out, power(p, m))
    return out


def num_den(x: FactoredRational) -> tuple:
    num = _expand(x.vars, x.coef, x.exps, [(p, m) for p, m in x.factors if m > 0])
    den = _expand(x.vars, 1, (0,) * len(x.vars), [(p, -m) for p, m in x.factors if m < 0])
    return num, den


def to_laurent(x: FactoredRational) -> LaurentPolynomial:
    num, _den = num_den(x)
    for p, m in x.factors:
        for _ in range(-m):
            num = num.divide_exact(p)
    return num


def rational_eq(a: FactoredRational, b: FactoredRational) -> bool:
    if a.vars != b.vars:
        raise ValueError("variable contexts differ")
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    a_f, b_f = a._fmap, b._fmap
    rem_a, rem_b = [], []
    for key in a_f.keys() | b_f.keys():
        p = (a_f.get(key) or b_f.get(key))[0]
        m = a_f.get(key, (None, 0))[1] - b_f.get(key, (None, 0))[1]
        if m > 0:
            rem_a.append((p, m))
        elif m < 0:
            rem_b.append((p, -m))
    return _expand(a.vars, a.coef, a.exps, rem_a) == _expand(b.vars, b.coef, b.exps, rem_b)


def sum_is_zero(terms) -> bool:
    """Whether the terms sum to zero, by the fold
    n/d + n'/d' = (n d' + n' d) / (d d') over their :func:`num_den`."""
    terms = list(terms)
    if any(x.vars != terms[0].vars for x in terms):
        raise ValueError("variable contexts differ")
    if not terms:
        return True
    num = LaurentPolynomial.zero(terms[0].vars)
    den = LaurentPolynomial.one(terms[0].vars)
    for x in terms:
        n, d = num_den(x)
        num, den = mul(num, d) + mul(n, den), mul(den, d)
    return num.is_zero()


def evaluate(p: LaurentPolynomial, point: dict):
    """The exact value of ``p`` at ``point``, a value for each variable."""
    missing = [v for v in p.vars if v not in point]
    if missing:
        raise ValueError(f"no value for variables {missing}")
    acc = 0
    for e, c in p.terms.items():
        for v, k in zip(p.vars, e):
            c = c * Fraction(point[v]) ** k
        acc = acc + c
    return _norm(acc)


def clear_denominators(P):
    """Return (poly, den) with  P == poly / den:  ``poly`` is a Laurent
    polynomial over (q, s, y_1..y_N) and ``den`` one over (q, s)."""
    vars = mac_vars(P.n)
    cleared, den = P.cleared_mcoeffs()
    # distinct partitions give disjoint y-monomials: no term collides
    terms: dict = {}
    for mu, c in cleared.items():
        terms.update((c.transform(vars, {}) * monomial_symmetric(mu, P.n)).terms)
    return LaurentPolynomial._from_terms(vars, terms), den.to_laurent()


def from_json_obj(obj: dict) -> LaurentPolynomial:
    """The polynomial that :meth:`LaurentPolynomial.to_json_obj` wrote."""
    return LaurentPolynomial(obj["vars"], {tuple(t["exp"]): Fraction(t["coef"])
                                           for t in obj["terms"]})
