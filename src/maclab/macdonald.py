"""Macdonald symmetric polynomials for GL(N).

Two independent constructions are provided and test each other:

* :func:`macdonald_P` -- the tableau sum over theta matrices, with
  coefficients psi_T given by products of finite q-Pochhammer ratios;
* :func:`macdonald_P_oracle` -- the triangular eigen-solve for the
  q-difference operator in the monomial basis.

The Macdonald parameter is called ``s`` here (the variable pair is
(q, s)); the geometric modules substitute s -> q*t or s -> t explicitly
where needed.

Conventions: partitions index the polynomials; the m-expansion is
unitriangular with respect to dominance and the operator eigenvalue of
P_lambda is sum_i q^{lambda_i} s^{N-i}.
"""

from __future__ import annotations

from itertools import permutations
from operator import itemgetter
from typing import Sequence

from .algebra import (
    ExactDivisionError,
    FactoredRational,
    LaurentPolynomial,
    _norm_coef,
    rational_eq,
)
from .qcalc import pochhammer
from .tableaux import (
    Partition,
    ThetaMatrix,
    dominates,
    enumerate_pol_lambda,
    strip_sizes,
    theta_to_tableau,
)

__all__ = [
    "mac_vars",
    "SymmetricPolynomial",
    "monomial_symmetric",
    "psi_T",
    "macdonald_P",
    "apply_D1N",
    "macdonald_P_oracle",
    "pieri_L",
    "eigenvalue",
    "DenominatorSurvives",
    "EigenvalueCollision",
]

QS = ("q", "s")


class DenominatorSurvives(ArithmeticError):
    """The difference-operator denominators failed to cancel: the input
    was not symmetric."""


class EigenvalueCollision(ArithmeticError):
    pass


def mac_vars(n: int) -> tuple:
    return QS + tuple(f"y{i}" for i in range(1, n + 1))


def coeff_vars() -> tuple:
    return QS


class SymmetricPolynomial:
    """A symmetric polynomial in y_1..y_N stored by its expansion in the
    monomial basis: partition -> coefficient in Q(q, s)."""

    __slots__ = ("n", "mcoeffs")

    def __init__(self, n: int, mcoeffs=None):
        self.n = n
        self.mcoeffs = {}
        if mcoeffs:
            for mu, c in dict(mcoeffs).items():
                if not c.is_zero():
                    self.mcoeffs[Partition(mu)] = c

    def coefficient(self, mu) -> FactoredRational:
        return self.mcoeffs.get(Partition(mu), FactoredRational.zero(QS))

    def support(self):
        return sorted(self.mcoeffs, key=lambda mu: (sum(mu), mu), reverse=True)

    def equals(self, other: "SymmetricPolynomial") -> bool:
        if self.n != other.n:
            return False
        keys = set(self.mcoeffs) | set(other.mcoeffs)
        return all(rational_eq(self.coefficient(mu), other.coefficient(mu)) for mu in keys)

    def clear_denominators(self):
        """Return (poly, den) with  value == poly / den:  ``poly`` is a
        Laurent polynomial over (q, s, y_1..y_N) and ``den`` one over (q, s)."""
        vars = mac_vars(self.n)
        den_factors: dict = {}
        for c in self.mcoeffs.values():
            for p, m in c.factors:
                if m < 0:
                    key = p.canonical_str()
                    den_factors[key] = (p, max(den_factors.get(key, (p, 0))[1], -m))
        den = LaurentPolynomial.one(QS)
        for p, m in den_factors.values():
            den = den * p ** m
        den_fr = FactoredRational(QS, 1, None, [(p, m) for p, m in den_factors.values()])
        # distinct partitions give disjoint y-monomials: no term collides
        terms: dict = {}
        for mu, c in self.mcoeffs.items():
            cleared = (c * den_fr).to_laurent()
            cq = cleared.transform(vars, {})
            terms.update((cq * monomial_symmetric(mu, self.n)).terms)
        return LaurentPolynomial._from_terms(vars, terms), den

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m_expansion": [
                {"partition": list(mu), "coef": self.mcoeffs[mu].to_json_obj()}
                for mu in self.support()
            ],
        }

    def __repr__(self):
        parts = [f"m{list(mu)}: {c.canonical_str()}" for mu, c in
                 sorted(self.mcoeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)]
        return "SymmetricPolynomial(" + "; ".join(parts) + ")"


def monomial_symmetric(mu, n: int) -> LaurentPolynomial:
    """m_mu(y_1..y_N): the sum of all distinct permutations of y^mu,
    over the context (q, s, y_1..y_N)."""
    mu = Partition(mu)
    if len(mu) > n:
        raise ValueError("partition has more parts than variables")
    base = tuple(mu) + (0,) * (n - len(mu))
    return LaurentPolynomial._from_terms(
        mac_vars(n), dict.fromkeys(((0, 0) + perm for perm in permutations(base)), 1))


def psi_T(theta: ThetaMatrix, lam) -> FactoredRational:
    """Tableau coefficient psi_T(q, s): the reduced product of finite
    Pochhammer ratios over the steps of the chain encoded by theta."""
    lam = Partition(lam)
    n = theta.n
    chain = theta_to_tableau(theta, lam)
    rows = [list(c) + [0] * (n + 1 - len(c)) for c in chain]

    def mono(qe: int, se: int) -> FactoredRational:
        return FactoredRational.monomial(QS, (qe, se))

    out = FactoredRational.one(QS)
    for k in range(1, n + 1):
        cur, prev = rows[k], rows[k - 1]
        for i in range(1, k):
            for j in range(i, k):
                m = theta[(i, k)]
                if m == 0:
                    continue
                num1 = pochhammer(mono(-cur[i - 1] + prev[j - 1] + 1, i - j - 1), m)
                den1 = pochhammer(mono(-cur[i - 1] + prev[j - 1], i - j), m)
                num2 = pochhammer(mono(-cur[i - 1] + cur[j], i - j), m)
                den2 = pochhammer(mono(-cur[i - 1] + cur[j] + 1, i - j - 1), m)
                out = out * num1 * num2 / (den1 * den2)
    return out


_P_memo: dict = {}


def macdonald_P(lam, n: int) -> SymmetricPolynomial:
    """P_lambda by the tableau sum: the m_mu coefficient is the sum of
    psi_T over the theta matrices whose strip-size vector equals mu.

    Values are memoized per (lambda, N)."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    memo_key = (lam, n)
    hit = _P_memo.get(memo_key)
    if hit is not None:
        return hit
    coeffs: dict = {}
    for th in enumerate_pol_lambda(lam, n):
        w = strip_sizes(th, lam)
        if list(w) != sorted(w, reverse=True):
            continue  # only the dominant rearrangement carries the m-coefficient
        mu = Partition(w)
        psi = psi_T(th, lam)
        if mu in coeffs:
            coeffs[mu] = coeffs[mu] + psi
        else:
            coeffs[mu] = psi
    out = SymmetricPolynomial(n, coeffs)
    _P_memo[memo_key] = out
    return out


def eigenvalue(lam, n: int) -> LaurentPolynomial:
    """sum_i q^{lambda_i} s^{N-i} over (q, s)."""
    lam = Partition(lam)
    full = list(lam) + [0] * (n - len(lam))
    out = LaurentPolynomial.zero(QS)
    for i, li in enumerate(full, start=1):
        out = out + LaurentPolynomial.monomial(QS, (li, n - i))
    return out


def apply_D1N(f: LaurentPolynomial, n: int) -> LaurentPolynomial:
    """The q-difference operator sum_i prod_{j != i} (s y_i - y_j)/(y_i - y_j) T_{q, y_i}
    on a symmetric polynomial f over (q, s, y_1..y_N).

    With V = prod_{a<b} (y_a - y_b), summand i of V * D f is the
    transposition (y_1 y_i) of summand 1 with its sign flipped, because f
    is symmetric:

        V * D f = S_1 - sum_{i >= 2} tau_{1i}(S_1),
        S_1 = prod_{j >= 2} (s y_1 - y_j) * prod_{2 <= a < b} (y_a - y_b) * T_{q,y_1} f.

    So one q-shift and one product are built, their N - 1 relabelled
    copies are folded into a single sum, and V is divided out exactly,
    one factor at a time.

    Raises :class:`DenominatorSurvives` naming ``(y1 - yb)`` when f is not
    invariant under y_1 <-> y_b (checked for b = 2..N before any product
    is built), or naming ``(ya - yb)`` when that factor of V leaves a
    remainder."""
    vars = mac_vars(n)
    if f.vars != vars:
        raise ValueError("input not over the Macdonald context")
    terms = f.terms
    swaps = []
    for b in range(2, n + 1):
        idx = list(range(len(vars)))
        idx[2], idx[b + 1] = b + 1, 2   # y1 sits at slot 2, yb at slot b + 1
        swap = itemgetter(*idx)
        if any(terms.get(swap(e)) != c for e, c in terms.items()):
            raise DenominatorSurvives(
                f"input is not symmetric under y1 <-> y{b}, so the "
                f"denominator (y1 - y{b}) does not cancel")
        swaps.append(swap)

    def y(i):
        return LaurentPolynomial.var(vars, f"y{i}")

    shift = [0] * len(vars)
    shift[0] = shift[2] = 1
    tf = f.substitute("y1", 1, shift)   # T_{q,y_1} f
    s_y1 = LaurentPolynomial.var(vars, "s") * y(1)
    factor = LaurentPolynomial.one(vars)
    for j in range(2, n + 1):
        factor = factor * (s_y1 - y(j))
    for a in range(2, n + 1):
        for b in range(a + 1, n + 1):
            factor = factor * (y(a) - y(b))
    s1 = factor * tf
    del tf
    acc = dict(s1.terms)
    get = acc.get
    for swap in swaps:
        for e, c in s1.terms.items():
            k = swap(e)
            v = get(k, 0) - c
            if v:
                acc[k] = _norm_coef(v)
            else:
                # c != 0, so a zero difference cancels an existing term
                del acc[k]
    del s1   # freed before the divisions, which need only the folded sum
    total = LaurentPolynomial._from_terms(vars, acc)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            try:
                total = total.divide_exact(y(a) - y(b))
            except ExactDivisionError as exc:
                raise DenominatorSurvives(
                    f"(y{a} - y{b}) does not divide the operator output; "
                    "input was not symmetric") from exc
    return total


def m_expansion(f: LaurentPolynomial, n: int) -> dict:
    """Expansion of a symmetric y-polynomial in the m-basis: the result
    maps partitions to (q, s) Laurent polynomials (coefficients are read
    off the dominant monomials)."""
    vars = mac_vars(n)
    out: dict = {}
    for e, c in f.terms.items():
        ye = e[2:]
        if any(ye[i] < ye[i + 1] for i in range(n - 1)):
            continue
        mu = Partition(ye)
        cur = out.get(mu)
        mono = LaurentPolynomial.monomial(QS, e[:2], c)
        out[mu] = mono if cur is None else cur + mono
    return {mu: p for mu, p in out.items() if not p.is_zero()}


def macdonald_P_oracle(lam, n: int) -> SymmetricPolynomial:
    """Independent construction of P_lambda: solve the unitriangular
    linear system making the m-expansion an eigenvector of the difference
    operator with eigenvalue sum_i q^{lambda_i} s^{N-i}."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    if not lam:
        return SymmetricPolynomial(n, {(): FactoredRational.one(QS)})
    basis = [mu for mu in _partitions_of(sum(lam), n) if dominates(lam, mu)]
    # dominance-compatible total order, most dominant first
    basis.sort(key=lambda mu: _psums(mu, n), reverse=True)
    action = {mu: _d1n_m_action(mu, n) for mu in basis}
    e_lam = eigenvalue(lam, n)
    u: dict = {lam: FactoredRational.one(QS)}
    for mu in basis:
        if mu == lam:
            continue
        e_mu = action[mu].get(mu, LaurentPolynomial.zero(QS))
        gap = e_lam - e_mu
        if gap.is_zero():
            raise EigenvalueCollision(f"equal symbolic eigenvalues for {lam} and {mu}")
        rhs = FactoredRational.zero(QS)
        for nu in basis:
            if nu == mu or nu not in u:
                continue
            d = action[nu].get(mu)
            if d is not None:
                rhs = rhs + u[nu] * FactoredRational.from_poly(d)
        u[mu] = rhs * FactoredRational(QS, 1, None, [(gap, -1)])
    return SymmetricPolynomial(n, u)


_action_memo: dict = {}


def _d1n_m_action(mu, n: int) -> dict:
    """m-expansion of the operator image of m_mu (memoized)."""
    key = (mu, n)
    hit = _action_memo.get(key)
    if hit is None:
        hit = m_expansion(apply_D1N(monomial_symmetric(mu, n), n), n)
        _action_memo[key] = hit
    return hit


def _psums(mu, n):
    full = list(mu) + [0] * (n - len(mu))
    s = 0
    out = []
    for x in full:
        s += x
        out.append(s)
    return tuple(out)


def _partitions_of(size: int, max_len: int) -> list:
    out: list = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for p in range(min(remaining, max_part), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(size, size, [])
    return out


def pieri_L(lvec: Sequence[int], r: int, n: int) -> FactoredRational:
    """Pieri coefficient L_r for multiplication by z_1 + ... + z_N on the
    weight-indexed Macdonald family, over the context (q, t).

    With upward partial sums S_s = l_r + l_{r+1} + ... + l_s:

        L_r = prod_{s=r}^{N-1}
                (1 - t^{s-r+2} q^{S_s - 1}) (1 - t^{s-r}   q^{S_s})
              / (1 - t^{s-r+1} q^{S_s - 1}) (1 - t^{s-r+1} q^{S_s})

    (empty for r = N, so L_N = 1).  The s = r factor (1 - q^{l_r})
    vanishes exactly when the shifted weight leaves the dominant cone,
    i.e. when the corresponding box cannot be added.

    Validated against the exact identity
    sum_r L_r P_{T_r lvec} = (z_1+...+z_N) P_lvec for N <= 4.
    """
    qt = ("q", "t")
    lvec = list(lvec)
    if len(lvec) != n - 1:
        raise ValueError("weight vector must have length N-1")
    if not 1 <= r <= n:
        raise ValueError("r out of range")
    one = LaurentPolynomial.one(qt)

    def factor(tpow: int, qpow: int) -> LaurentPolynomial:
        return one - LaurentPolynomial.monomial(qt, (qpow, tpow))

    num, den = [], []
    s_up = 0
    for s in range(r, n):
        s_up += lvec[s - 1]
        num.append(factor(s - r + 2, s_up - 1))
        den.append(factor(s - r + 1, s_up - 1))
        num.append(factor(s - r, s_up))
        den.append(factor(s - r + 1, s_up))
    return FactoredRational(qt, 1, None,
                            [(p, 1) for p in num] + [(p, -1) for p in den])
