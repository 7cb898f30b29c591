"""Exact sparse Laurent-polynomial and factored-rational arithmetic.

Everything in this package is built on two value types:

* :class:`LaurentPolynomial` -- a sparse Laurent polynomial over a fixed,
  ordered tuple of variable names, with exact rational coefficients.  No
  floating point anywhere.  Every stored coefficient is nonzero: a plain
  ``int`` where its denominator is 1, a ``fractions.Fraction`` otherwise.

* :class:`FactoredRational` -- a unit monomial times a multiset of
  polynomial factors with integer multiplicities.  Products of binomials
  such as q-Pochhammer symbols stay factored; nothing is ever reduced by
  a multivariate gcd.  Equality of values is decided by cancelling common
  factors and comparing the rest as integers (:func:`rational_eq`).

Every polynomial product is expanded over the integers (:func:`_expand`):
each operand is cleared once by the lcm of its denominators, the term
products run on ``int``s, and each output coefficient is divided once by
the product of those lcms.  :func:`sum_is_zero` decides whether a sum of
factored rationals vanishes without expanding it: the factors common to
all terms are cancelled, the scalars cleared, and the two leading
variables packed into the digits of one integer (Kronecker substitution,
with a digit width proven wide enough), so the products run as ``int``
multiplications over the sparse keys of the remaining variables.
:func:`rational_eq` is the sum of two terms.

Values are immutable after construction and safe to share.  Nothing
writes to a polynomial's ``terms`` once it is built, so a factor's
canonical form (see :func:`_canonical_factor`) is computed once and
cached on the polynomial; factored arithmetic then merges maps of
already-canonical factors instead of normalising them again.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul, sub
from typing import Iterable, Mapping, Sequence, Union

Coef = Union[int, Fraction]

__all__ = [
    "LaurentPolynomial",
    "FactoredRational",
    "rational_eq",
    "sum_is_zero",
    "ExactDivisionError",
    "DenominatorNotUnit",
]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class DenominatorNotUnit(ArithmeticError):
    """Raised when a denominator factor has no invertible leading part
    for the requested series expansion."""


def _norm_coef(c: Coef) -> Coef:
    """Collapse Fractions with denominator 1 to int (fast arithmetic path)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _coef_pow(c: Coef, e: int) -> Coef:
    if e >= 0:
        return _norm_coef(c ** e)
    return _norm_coef(Fraction(c) ** e)


def _cleared(terms: dict) -> tuple:
    """``(int_terms, d)`` with ``terms == int_terms / d`` and ``d`` the lcm
    of the coefficient denominators; all-``int`` terms come back as is."""
    if Fraction not in set(map(type, terms.values())):
        return terms, 1
    d = lcm(*[c.denominator for c in terms.values()])
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two term maps with ``int`` coefficients, as a new map."""
    if len(a) > len(b):
        a, b = b, a
    t: dict = {}
    get = t.get
    b_items = b.items()
    for ea, ca in a.items():
        for eb, cb in b_items:
            e = tuple(map(add, ea, eb))
            s = get(e, 0) + ca * cb
            if s:
                t[e] = s
            else:
                # ca * cb != 0, so a zero sum cancels an existing term
                del t[e]
    return t


def _expand(coef: Coef, exps: tuple, factors: Iterable[tuple]) -> tuple:
    """``coef * x^exps * prod p^m`` over the ``(p, m)`` in ``factors``
    (all ``m > 0``), multiplied out over the integers: ``(terms, d)``
    with ``int`` coefficients, whose value is ``terms / d``."""
    t = {exps: coef.numerator} if coef else {}
    d = coef.denominator
    for p, m in factors:
        pt, pd = _cleared(p.terms)
        for _ in range(m):
            t = _mul_terms(t, pt)
        d *= pd ** m
    return t, d


def _over(vars: tuple, terms: dict, d: int) -> "LaurentPolynomial":
    """The polynomial ``terms / d`` of ``int`` terms, kept as is when d is 1."""
    if d != 1:
        terms = {e: c // d if not c % d else Fraction(c, d) for e, c in terms.items()}
    return LaurentPolynomial._from_terms(vars, terms)


class LaurentPolynomial:
    """Sparse Laurent polynomial over an ordered variable context.

    ``terms`` maps exponent tuples (one integer per context variable,
    negative exponents allowed) to nonzero coefficients.  Binary
    operations require both operands to share the same context.

    A polynomial is immutable: ``terms`` is never written after
    construction.  ``_canon`` caches the polynomial's canonical
    decomposition as a factor, filled by :func:`_canonical_factor` on
    first use.
    """

    __slots__ = ("vars", "terms", "_canon")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Coef] | None = None):
        self.vars = tuple(vars)
        n = len(self.vars)
        t = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if len(e) != n:
                    raise ValueError(f"exponent vector {e} does not fit the context {self.vars}")
                c = _norm_coef(c)
                if c:
                    t[e] = c
        self.terms = t
        self._canon = None

    @classmethod
    def _from_terms(cls, vars: tuple, terms: dict) -> "LaurentPolynomial":
        """Wrap already-normalised terms (tuple keys, nonzero normalised
        coefficients) without copying or checking them."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        p._canon = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "LaurentPolynomial":
        return cls(vars)

    @classmethod
    def const(cls, vars: Sequence[str], c: Coef) -> "LaurentPolynomial":
        return cls.monomial(vars, (0,) * len(vars), c)

    @classmethod
    def one(cls, vars: Sequence[str]) -> "LaurentPolynomial":
        return cls.const(vars, 1)

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], c: Coef = 1) -> "LaurentPolynomial":
        vars, exps = tuple(vars), tuple(exps)
        if len(exps) != len(vars):
            raise ValueError(f"exponent vector {exps} does not fit the context {vars}")
        c = _norm_coef(c)
        return cls._from_terms(vars, {exps: c} if c else {})

    @classmethod
    def var(cls, vars: Sequence[str], name: str, power: int = 1) -> "LaurentPolynomial":
        i = tuple(vars).index(name)
        e = [0] * len(vars)
        e[i] = power
        return cls.monomial(vars, e)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        z = (0,) * len(self.vars)
        return len(self.terms) == 1 and self.terms.get(z) == 1

    def constant_coef(self) -> Coef:
        return self.terms.get((0,) * len(self.vars), 0)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "LaurentPolynomial"):
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError(f"variable contexts differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = _norm_coef(s)
            elif e in t:
                del t[e]
        return LaurentPolynomial._from_terms(self.vars, t)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._from_terms(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        a, da = _cleared(self.terms)
        b, db = _cleared(other.terms)
        return _over(self.vars, _mul_terms(a, b), da * db)

    def scale(self, c: Coef) -> "LaurentPolynomial":
        c = _norm_coef(c)
        t = {e: _norm_coef(v * c) for e, v in self.terms.items()} if c else {}
        return LaurentPolynomial._from_terms(self.vars, t)

    def shift(self, exps: Sequence[int]) -> "LaurentPolynomial":
        """Multiply by the monomial with the given exponent vector."""
        d = tuple(exps)
        return LaurentPolynomial._from_terms(
            self.vars, {tuple(x + y for x, y in zip(e, d)): c for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _over(self.vars, *_expand(1, (0,) * len(self.vars), [(self, n)]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- structure -----------------------------------------------------

    def valuation(self, subset: Iterable[str] | None = None) -> int:
        """Min total degree over the given variables; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        idx = self._subset_idx(subset)
        return min(sum(e[i] for i in idx) for e in self.terms)

    def _subset_idx(self, subset):
        if subset is None:
            return range(len(self.vars))
        return [self.vars.index(v) for v in subset]

    def min_exponents(self) -> tuple:
        """Componentwise minimum exponent vector over all terms."""
        if not self.terms:
            return (0,) * len(self.vars)
        return tuple(map(min, zip(*self.terms)))

    # -- substitution ----------------------------------------------------

    def transform(
        self,
        new_vars: Sequence[str],
        mapping: Mapping[str, tuple],
    ) -> "LaurentPolynomial":
        """Monomial substitution into a (possibly different) context.

        ``mapping[v] = (coef, exps)`` sends variable ``v`` to
        ``coef * new_vars^exps``.  Unmapped variables must exist in the
        new context and map to themselves; when no variable is mapped, the
        call is a re-embedding (:meth:`_reembed`).
        """
        new_vars = tuple(new_vars)
        n_new = len(new_vars)
        if mapping.keys().isdisjoint(self.vars):
            return self._reembed(new_vars)
        images = []
        for i, v in enumerate(self.vars):
            if v in mapping:
                coef, exps = mapping[v]
                images.append((_norm_coef(coef), tuple(exps)))
            else:
                j = new_vars.index(v)
                e = [0] * n_new
                e[j] = 1
                images.append((1, tuple(e)))
        t: dict = {}
        for e, c in self.terms.items():
            exps = [0] * n_new
            coef = c
            for i, ei in enumerate(e):
                if not ei:
                    continue
                ci, mi = images[i]
                if ci != 1:
                    coef = coef * _coef_pow(ci, ei)
                for j, mj in enumerate(mi):
                    if mj:
                        exps[j] += mj * ei
            key = tuple(exps)
            s = t.get(key, 0) + coef
            if s:
                t[key] = _norm_coef(s)
            elif key in t:
                del t[key]
        return LaurentPolynomial._from_terms(new_vars, t)

    def _reembed(self, new_vars: tuple) -> "LaurentPolynomial":
        """:meth:`transform` when every variable maps to itself: each
        target slot picks a source exponent or a padded zero, and distinct
        terms stay distinct."""
        if new_vars == self.vars:
            return self
        pick = [len(self.vars)] * len(new_vars)   # the padded zero
        for i, v in enumerate(self.vars):
            pick[new_vars.index(v)] = i
        zero = (0,)
        if len(pick) == 1:
            (j,) = pick
            return LaurentPolynomial._from_terms(
                new_vars, {((e + zero)[j],): c for e, c in self.terms.items()})
        get = itemgetter(*pick)
        return LaurentPolynomial._from_terms(
            new_vars, {get(e + zero): c for e, c in self.terms.items()})

    # -- division --------------------------------------------------------

    def divide_exact(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division by a binomial c_a x^{e_a} + c_b x^{e_b}, the only
        kind of divisor the package has: the Pochhammer factors 1 - x^e of
        :meth:`FactoredRational.to_laurent` and the Vandermonde factors
        z_i - z_j of :func:`maclab.macdonald._schur_m` and
        :func:`maclab.series.certify_weyl_sum`.  Raises ``ValueError`` for
        a divisor without exactly two terms and :class:`ExactDivisionError`
        on a remainder.

        One upward sweep: the terms are named so that the first nonzero
        component ``i0`` of ``e = e_b - e_a`` is a positive step ``s``.  A
        dividend term at ``k`` (shifted by ``-e_a``) goes into bucket
        ``k[i0] // s``; the cancellation pushes it to ``k + e``, which lies
        in the next bucket, so each bucket is final once the sweep reaches
        it.  Every live term below the top bucket is a quotient term; a
        live term in the top bucket is a remainder.
        """
        self._check(divisor)
        if len(divisor.terms) != 2:
            raise ValueError(f"divisor has {len(divisor.terms)} terms, not 2")
        if self.is_zero():
            return self
        (ea, ca), (eb, cb) = divisor.terms.items()
        e = tuple(map(sub, eb, ea))
        i0 = next(i for i, x in enumerate(e) if x)
        if e[i0] < 0:
            ea, ca, cb = eb, cb, ca
            e = tuple(-x for x in e)
        s = e[i0]
        inv = _norm_coef(Fraction(1) / ca)
        d = _norm_coef(cb * inv)
        a0 = ea[i0]
        lo = (min(k[i0] for k in self.terms) - a0) // s
        hi = (max(k[i0] for k in self.terms) - a0) // s
        buckets: list = [{} for _ in range(hi - lo + 1)]
        shift = any(ea)
        for k, c in self.terms.items():
            if shift:
                k = tuple(map(sub, k, ea))
            if inv != 1:
                c = c * inv
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
            buckets[k[i0] // s - lo][k] = c
        quotient: dict = {}
        for cur, nxt in zip(buckets, buckets[1:]):
            quotient.update(cur)
            get = nxt.get
            for k, w in cur.items():
                k2 = tuple(map(add, k, e))
                v = get(k2, 0) - d * w
                if v:
                    # _norm_coef inlined: most coefficients are ints
                    nxt[k2] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
                else:
                    # d * w != 0, so a zero result cancels an existing term
                    del nxt[k2]
            cur.clear()
        if buckets[-1]:
            raise ExactDivisionError("binomial division leaves a remainder")
        return LaurentPolynomial._from_terms(self.vars, quotient)

    # -- serialization ----------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order of the exponent vector (deterministic)."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)

    def to_json_obj(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": str(c)} for e, c in self.sorted_terms()
            ],
        }

    def __repr__(self):
        return f"LaurentPolynomial({self.canonical_str()})"


def _poly_sort_key(p: LaurentPolynomial) -> tuple:
    """Flat sort key of a polynomial: per term in graded-lex order, its
    total degree, exponents, numerator and denominator.  Within one
    context every term takes the same width, so the flat tuple orders
    polynomials exactly as the per-term tuples would."""
    key: list = []
    for e, c in p.sorted_terms():
        key.append(sum(e))
        key.extend(e)
        if type(c) is Fraction:
            key.append(c.numerator)
            key.append(c.denominator)
        else:
            key.append(c)
            key.append(1)
    return tuple(key)


def _merge_factor(fmap: dict, key: tuple, poly: LaurentPolynomial, mult: int) -> None:
    """Add ``mult`` to the multiplicity of the canonical factor ``key``,
    dropping it when the multiplicity reaches zero."""
    cur = fmap.get(key)
    if cur is None:
        fmap[key] = (poly, mult)
    else:
        m = cur[1] + mult
        if m:
            fmap[key] = (cur[0], m)
        else:
            del fmap[key]


class FactoredRational:
    """A unit monomial times a product of polynomial factors with integer
    multiplicities (negative multiplicities are denominator factors).

    Factors are canonically normalized: the componentwise-minimum
    monomial and the coefficient of the graded-lex smallest term are
    pulled into the unit, so equal factors always merge.  The zero value
    is represented by ``coef == 0``.

    ``_fmap`` maps each canonical factor's sort key to ``(poly, mult)``
    with ``mult != 0``; it is never mutated after construction, so values
    may share it.  ``factors`` is the public view: the ``(poly, mult)``
    pairs sorted by key.  Only the constructor canonicalises; products,
    powers, inverses and scalings merge the maps of their operands.
    """

    __slots__ = ("vars", "coef", "exps", "_fmap")

    def __init__(
        self,
        vars: Sequence[str],
        coef: Coef = 1,
        exps: Sequence[int] | None = None,
        factors: Iterable[tuple] = (),
    ):
        self.vars = vars = tuple(vars)
        coef = _norm_coef(coef)
        exps = tuple(exps) if exps is not None else (0,) * len(vars)
        if len(exps) != len(vars):
            raise ValueError(f"exponent vector {exps} does not fit the context {vars}")
        fmap: dict = {}
        if coef:
            for poly, mult in factors:
                if poly.vars is not vars and poly.vars != vars:
                    raise ValueError(f"factor over {poly.vars} in the context {vars}")
                if mult == 0:
                    continue
                u_c, u_e, canon, key = _canonical_factor(poly)
                if u_c == 0:
                    if mult < 0:
                        raise ZeroDivisionError("zero polynomial in denominator")
                    coef = 0
                    break
                if canon is not poly:
                    coef = _norm_coef(coef * _coef_pow(u_c, mult))
                    if any(u_e):
                        exps = tuple(x + mult * y for x, y in zip(exps, u_e))
                if canon is not None:
                    _merge_factor(fmap, key, canon, mult)
        if not coef:
            coef, exps, fmap = 0, (0,) * len(vars), {}
        self.coef, self.exps, self._fmap = coef, exps, fmap

    @classmethod
    def _from_map(cls, vars: tuple, coef: Coef, exps: tuple, fmap: dict) -> "FactoredRational":
        """Wrap a nonzero normalised unit and a map of canonical factors
        without canonicalising anything."""
        fr = object.__new__(cls)
        fr.vars = vars
        fr.coef = coef
        fr.exps = exps
        fr._fmap = fmap
        return fr

    @property
    def factors(self) -> tuple:
        fmap = self._fmap
        return tuple(fmap[k] for k in sorted(fmap))

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, vars: Sequence[str]) -> "FactoredRational":
        return cls(vars)

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "FactoredRational":
        return cls(vars, 0)

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], c: Coef = 1) -> "FactoredRational":
        return cls(vars, c, exps)

    @classmethod
    def from_poly(cls, p: LaurentPolynomial) -> "FactoredRational":
        return cls(p.vars, 1, None, [(p, 1)])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.coef == 0

    def is_monomial(self) -> bool:
        return not self._fmap and self.coef != 0

    def is_one(self) -> bool:
        return self.coef == 1 and not self._fmap and not any(self.exps)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "FactoredRational"):
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError("variable contexts differ")

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return FactoredRational.zero(self.vars)
        a, b = self._fmap, other._fmap
        if len(a) < len(b):
            a, b = b, a
        fmap = dict(a)
        for key, (p, m) in b.items():
            _merge_factor(fmap, key, p, m)
        return FactoredRational._from_map(self.vars, _norm_coef(self.coef * other.coef),
                                          tuple(map(add, self.exps, other.exps)), fmap)

    def inverse(self) -> "FactoredRational":
        """1 / self: the factor map and the unit negated; zero raises
        ``ZeroDivisionError``."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        return self ** -1

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FactoredRational":
        if self.is_zero():
            if n <= 0:
                raise ZeroDivisionError("0 ** nonpositive")
            return self
        if n == 0:
            return FactoredRational.one(self.vars)
        return FactoredRational._from_map(
            self.vars,
            _coef_pow(self.coef, n),
            tuple(n * x for x in self.exps),
            {k: (p, n * m) for k, (p, m) in self._fmap.items()},
        )

    def __neg__(self) -> "FactoredRational":
        if self.is_zero():
            return self
        return FactoredRational._from_map(self.vars, -self.coef, self.exps, self._fmap)

    def scale(self, c: Coef) -> "FactoredRational":
        if self.is_zero() or c == 0:
            return FactoredRational.zero(self.vars)
        return FactoredRational._from_map(self.vars, _norm_coef(self.coef * c), self.exps, self._fmap)

    def __add__(self, other: "FactoredRational") -> "FactoredRational":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # common denominator by canonical-factor multiset
        a_f, b_f = self._fmap, other._fmap
        den: dict = {}
        for key in a_f.keys() | b_f.keys():
            ma = a_f.get(key, (None, 0))[1]
            mb = b_f.get(key, (None, 0))[1]
            m = max(-ma, -mb, 0)
            if m:
                den[key] = ((a_f.get(key) or b_f.get(key))[0], m)
        # numerators: unit * positive part * (den / own denominator); the
        # unit monomials' common part is pulled out, the rest is summed
        e_min = tuple(map(min, self.exps, other.exps))
        ta, da = _expand(self.coef, tuple(map(sub, self.exps, e_min)),
                         self._numerator_against(den))
        tb, db = _expand(other.coef, tuple(map(sub, other.exps, e_min)),
                         other._numerator_against(den))
        total = _over(self.vars, ta, da) + _over(self.vars, tb, db)
        if total.is_zero():
            return FactoredRational.zero(self.vars)
        u_c, u_e, canon, key = _canonical_factor(total)
        fmap = {k: (p, -m) for k, (p, m) in den.items()}
        if canon is not None:
            _merge_factor(fmap, key, canon, 1)
        return FactoredRational._from_map(
            self.vars, u_c, tuple(x + y for x, y in zip(e_min, u_e)), fmap)

    def _numerator_against(self, den: dict) -> list:
        """The factors ``(p, m > 0)`` of this value's numerator over the
        common denominator ``den``."""
        own = self._fmap
        out = [(p, m) for p, m in own.values() if m > 0]
        for key, (p, m) in den.items():
            extra = m - max(-own.get(key, (None, 0))[1], 0)
            if extra:
                out.append((p, extra))
        return out

    def __sub__(self, other: "FactoredRational") -> "FactoredRational":
        return self + (-other)

    def __eq__(self, other) -> bool:
        """Structural equality of the canonical factored form (not value
        equality; use :func:`rational_eq` for that)."""
        return (
            isinstance(other, FactoredRational)
            and self.vars == other.vars
            and self.coef == other.coef
            and self.exps == other.exps
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash((self.vars, self.coef, self.exps, len(self._fmap)))

    # -- conversions -----------------------------------------------------------

    def num_den(self) -> tuple[LaurentPolynomial, LaurentPolynomial]:
        """Expand into (numerator, denominator); unit goes to the numerator,
        so the numerator may be a Laurent polynomial."""
        factors = self._fmap.values()
        num = _expand(self.coef, self.exps, [(p, m) for p, m in factors if m > 0])
        den = _expand(1, (0,) * len(self.vars), [(p, -m) for p, m in factors if m < 0])
        return _over(self.vars, *num), _over(self.vars, *den)

    def to_laurent(self) -> LaurentPolynomial:
        """Exact conversion to a Laurent polynomial: the numerator divided
        by each denominator factor in turn, which must be a binomial
        (:meth:`LaurentPolynomial.divide_exact`) and divide it exactly."""
        num = _over(self.vars, *_expand(
            self.coef, self.exps, [(p, m) for p, m in self._fmap.values() if m > 0]))
        for p, m in self.factors:
            if m < 0:
                for _ in range(-m):
                    num = num.divide_exact(p)
        return num

    def transform(self, new_vars: Sequence[str], mapping: Mapping[str, tuple]) -> "FactoredRational":
        """Monomial substitution (see :meth:`LaurentPolynomial.transform`).

        A numerator factor may collapse to zero (making the value zero); a
        denominator factor collapsing to zero raises ``ZeroDivisionError``;
        the first collapsing factor in key order decides."""
        new_vars = tuple(new_vars)
        if self.is_zero():
            return FactoredRational.zero(new_vars)
        coef, exps = self.coef, [0] * len(new_vars)
        for v, e in zip(self.vars, self.exps):
            if v not in mapping:
                exps[new_vars.index(v)] += e
            elif e:
                c, image = mapping[v]
                if c != 1:
                    coef = _norm_coef(coef * _coef_pow(c, e))
                exps = [x + e * y for x, y in zip(exps, image)]
        exps = tuple(exps)
        own = self._fmap
        fmap: dict = {}
        for key in sorted(own):
            p, m = own[key]
            u_c, u_e, canon, ckey = _canonical_factor(p.transform(new_vars, mapping))
            if u_c == 0:
                if m < 0:
                    raise ZeroDivisionError("denominator factor vanished under substitution")
                return FactoredRational.zero(new_vars)
            if u_c != 1:
                coef = _norm_coef(coef * _coef_pow(u_c, m))
            if any(u_e):
                exps = tuple(x + m * y for x, y in zip(exps, u_e))
            if canon is not None:
                _merge_factor(fmap, ckey, canon, m)
        return FactoredRational._from_map(new_vars, coef, exps, fmap)

    # -- valuation ---------------------------------------------------------------

    def valuation_lb(self, subset: Sequence[str]) -> int:
        """Lower bound for the total degree in ``subset`` of the leading
        term of the value (exact when every factor's minimum is attained)."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        idx = [self.vars.index(v) for v in subset]
        val = sum(self.exps[i] for i in idx)
        for p, m in self.factors:
            val += m * p.valuation(subset)
        return val

    # -- serialization --------------------------------------------------------------

    def canonical_str(self) -> str:
        if self.is_zero():
            return "0"
        unit = LaurentPolynomial.monomial(self.vars, self.exps, self.coef)
        parts = [unit.canonical_str()]
        for p, m in self.factors:
            parts.append(f"({p.canonical_str()})^{m}")
        return " * ".join(parts)

    def to_json_obj(self) -> dict:
        num, den = self.num_den()
        return {"num": num.to_json_obj(), "den": den.to_json_obj()}

    def __repr__(self):
        return f"FactoredRational({self.canonical_str()})"


def _canonical_factor(p: LaurentPolynomial) -> tuple:
    """Normalize a polynomial factor, once per polynomial.

    Returns ``(unit_coef, unit_exps, canonical, key)`` with
    ``p == unit_coef * x^unit_exps * canonical`` and ``key`` the
    :func:`_poly_sort_key` of ``canonical``; ``canonical`` and ``key``
    are None when p is a monomial (fully absorbed into the unit), and
    ``unit_coef == 0`` when p is zero.  The result is cached in
    ``p._canon``; a canonical polynomial's own entry is
    ``(1, zeros, itself, key)``, and a polynomial that is already
    canonical is its own canonical form.
    """
    cached = p._canon
    if cached is not None:
        return cached
    if p.is_zero():
        cached = (0, (0,) * len(p.vars), None, None)
    elif len(p.terms) == 1:
        (e, c), = p.terms.items()
        cached = (c, e, None, None)
    else:
        mins = p.min_exponents()
        if any(mins):
            shifted = {tuple(map(sub, e, mins)): c for e, c in p.terms.items()}
        else:
            shifted = p.terms
        c0 = shifted[min(shifted, key=lambda e: (sum(e), e))]
        if c0 == -1:
            canon = LaurentPolynomial._from_terms(p.vars, {e: -c for e, c in shifted.items()})
        elif c0 != 1:
            inv = Fraction(1, 1) / c0
            canon = LaurentPolynomial._from_terms(
                p.vars, {e: _norm_coef(c * inv) for e, c in shifted.items()})
        elif shifted is p.terms:
            canon = p
        else:
            canon = LaurentPolynomial._from_terms(p.vars, shifted)
        key = _poly_sort_key(canon)
        if canon is p:
            cached = (1, mins, p, key)
        else:
            canon._canon = (1, (0,) * len(p.vars), canon, key)
            cached = (c0, mins, canon, key)
    p._canon = cached
    return cached


def rational_eq(a: FactoredRational, b: FactoredRational) -> bool:
    """Certified value equality of two factored rationals: whether
    ``a - b`` is zero (:func:`sum_is_zero`)."""
    return sum_is_zero((a, -b))


_ABSENT = (None, 0)


def sum_is_zero(terms: Iterable[FactoredRational]) -> bool:
    """Whether a sum of factored rationals over one context is zero.

    Every term is divided by ``prod p^g``, ``g`` the least multiplicity
    of the canonical factor ``p`` over the terms (0 where a term lacks
    ``p``), so no term keeps a denominator; for two terms this is the
    cancellation of their common factors.  The terms are then shifted by
    the least unit exponent and cleared by the lcm ``L`` of their
    rational scalars, which leaves a sum ``F`` of integer polynomials
    ``s_i x^{u_i} prod p^{r_i}`` with ``F == 0`` iff the sum is zero.

    ``F`` is decided by Kronecker substitution in the two leading
    variables: ``x_1 -> 2^k`` and ``x_2 -> 2^(k (D_1 + 1))``, with
    ``D_j`` the largest ``x_j``-degree of a term and
    ``2^k > B = sum_i |s_i| prod ||p||_1^{r_i}``; the other variables
    stay sparse exponent keys.  Substitution is a ring map, so each term
    is the product of its factors' images.  It is injective on ``F``:
    a coefficient of ``F`` in ``x_1^a x_2^b`` (under one key of the
    other variables) lands on the k-bit digit at ``a + b (D_1 + 1)``,
    distinct for distinct ``(a, b)`` as ``a <= D_1``, and is below
    ``2^k`` in size, since ``B`` bounds every coefficient of ``F``.  In
    a nonzero image the lowest nonzero digit ``c`` gives the image
    ``2^(kj) (c + 2^k m)`` for some integer ``m``, which is not zero
    as ``0 < |c| < 2^k``.  So the image is zero iff ``F`` is, and no
    image exceeds ``k (D_1 + 1)(D_2 + 1)`` bits.
    """
    terms = list(terms)
    for x in terms[1:]:
        terms[0]._check(x)
    terms = [x for x in terms if x.coef]
    if len(terms) < 2:
        return not terms
    fmaps = [x._fmap for x in terms]
    factor: dict = {}
    for f in fmaps:
        for key, (p, _m) in f.items():
            factor.setdefault(key, p)
    least = {key: min(f.get(key, _ABSENT)[1] for f in fmaps) for key in factor}
    polys: dict = {}      # key -> (cleared terms, their denominator)
    rems = []
    for f in fmaps:
        rem = []
        for key, g in least.items():
            r = f.get(key, _ABSENT)[1] - g
            if r:
                rem.append((key, r))
                if key not in polys:
                    polys[key] = _cleared(factor[key].terms)
        rems.append(rem)
    # the integer scalars s_i and the unit shifts u_i
    dens = []
    for x, rem in zip(terms, rems):
        d = x.coef.denominator
        for key, r in rem:
            d *= polys[key][1] ** r
        dens.append(d)
    big_l = lcm(*dens)
    scalars = [x.coef.numerator * (big_l // d) for x, d in zip(terms, dens)]
    low = tuple(map(min, *[x.exps for x in terms]))
    units = [tuple(map(sub, x.exps, low)) for x in terms]
    # the digit width k and the degree bounds D_1, D_2
    npack = min(2, len(low))
    shape = {key: (sum(map(abs, t.values())),) + tuple(max(e[j] for e in t) for j in range(npack))
             for key, (t, _d) in polys.items()}
    bound = 0
    degs = [0] * npack
    for s, u, rem in zip(scalars, units, rems):
        size = abs(s)
        deg = list(u[:npack])
        for key, r in rem:
            norm, *pdeg = shape[key]
            size *= norm ** r
            for j, dj in enumerate(pdeg):
                deg[j] += r * dj
        bound += size
        degs = list(map(max, degs, deg))
    k = bound.bit_length()
    steps = (k, k * (degs[0] + 1))[:npack] if degs else ()
    images: dict = {}
    total: dict = {}
    for s, u, rem in zip(scalars, units, rems):
        t = {u[npack:]: s << sum(map(mul, u, steps))}
        for key, r in rem:
            img = images.get(key)
            if img is None:
                img = images[key] = _kronecker_image(polys[key][0], steps, npack)
            t = _mul_terms(t, _image_pow(img, r))
        for e, c in t.items():
            total[e] = total.get(e, 0) + c
    return not any(total.values())


def _kronecker_image(terms: dict, steps: tuple, npack: int) -> dict:
    """The image of ``int`` terms under ``x_j -> 2^steps[j]`` for the
    leading ``npack`` variables, keyed by the exponents of the rest.
    Distinct terms land on distinct digits (see :func:`sum_is_zero`),
    so no image coefficient is zero."""
    img: dict = {}
    get = img.get
    for e, c in terms.items():
        key = e[npack:]
        img[key] = get(key, 0) + (c << sum(map(mul, e, steps)))
    return img


def _image_pow(img: dict, m: int) -> dict:
    """``img ** m`` for a term map with ``int`` coefficients, ``m > 0``."""
    if len(img) == 1:
        (e, c), = img.items()
        return {tuple(m * x for x in e): c ** m}
    out = img
    for _ in range(m - 1):
        out = _mul_terms(out, img)
    return out
