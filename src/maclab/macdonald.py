"""Macdonald symmetric polynomials for GL(N).

Two independent constructions are provided and test each other:

* :func:`macdonald_P` -- the tableau sum over theta matrices, with
  coefficients psi_T given by products of finite q-Pochhammer ratios;
* :func:`macdonald_P_oracle` -- the triangular eigen-solve for the
  q-difference operator in the monomial basis.

The ``tableau-oracle`` check does not solve the oracle: it verifies the
tableau sum against the oracle's unitriangular rows (:func:`oracle_rows`,
:func:`satisfies_oracle`), which is equality with the oracle's solution.
The solve serves ``maclab macdonald --oracle`` and names the coefficients
of a failing check.

The oracle reads each operator image D m_mu off the product form of the
operator (:func:`_s1`): its alternant coefficients give D m_mu in the
Schur basis, with no division by the Vandermonde.  :func:`apply_D1N`
folds the same product and divides it exactly; it is the reference the
tests hold the oracle's images to.  The eigen identity for P is decided
by :func:`eigen_residual`, on the bialternant form of the operator,
without expanding P in y.

The Macdonald parameter is called ``s`` here (the variable pair is
(q, s)); the geometric modules substitute s -> q*t or s -> t explicitly
where needed.

Conventions: partitions index the polynomials; the m-expansion is
unitriangular with respect to dominance and the operator eigenvalue of
P_lambda is sum_i q^{lambda_i} s^{N-i}.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import add, gt, itemgetter, sub
from typing import Sequence

from . import memo
from .algebra import (
    ExactDivisionError,
    FactoredRational,
    LaurentPolynomial,
    _norm_coef,
    rational_eq,
    sum_is_zero,
)
from .qcalc import Ledger
from .tableaux import (
    Partition,
    ThetaMatrix,
    dominates,
    enumerate_pol_lambda,
    partitions_of,
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
    "eigen_residual",
    "macdonald_P_oracle",
    "oracle_rows",
    "satisfies_oracle",
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

    def cleared_mcoeffs(self):
        """Return (cleared, den) with  coefficient(mu) == cleared[mu] / den:
        ``den`` is the least common multiple of the denominators, kept
        factored, and every ``cleared`` value is a Laurent polynomial over
        (q, s)."""
        den_factors: dict = {}
        for c in self.mcoeffs.values():
            for p, m in c.factors:
                if m < 0:
                    key = p.canonical_str()
                    den_factors[key] = (p, max(den_factors.get(key, (p, 0))[1], -m))
        den = FactoredRational(QS, 1, None, list(den_factors.values()))
        return {mu: (c * den).to_laurent() for mu, c in self.mcoeffs.items()}, den

    def clear_denominators(self):
        """Return (poly, den) with  value == poly / den:  ``poly`` is a
        Laurent polynomial over (q, s, y_1..y_N) and ``den`` one over (q, s)."""
        vars = mac_vars(self.n)
        cleared, den = self.cleared_mcoeffs()
        # distinct partitions give disjoint y-monomials: no term collides
        terms: dict = {}
        for mu, c in cleared.items():
            terms.update((c.transform(vars, {}) * monomial_symmetric(mu, self.n)).terms)
        return LaurentPolynomial._from_terms(vars, terms), den.to_laurent()

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

    led = Ledger(QS)
    for k in range(1, n + 1):
        cur, prev = rows[k], rows[k - 1]
        for i in range(1, k):
            m = theta[(i, k)]
            if not m:
                continue
            for j in range(i, k):
                a, b = -cur[i - 1] + prev[j - 1], -cur[i - 1] + cur[j]
                led.zratio(m, a + 1, i - j - 1)
                led.zratio(m, a, i - j, mult=-1)
                led.zratio(m, b, i - j)
                led.zratio(m, b + 1, i - j - 1, mult=-1)
    return led.value()


def macdonald_P(lam, n: int) -> SymmetricPolynomial:
    """P_lambda by the tableau sum: the m_mu coefficient is the sum of
    psi_T over the theta matrices whose strip-size vector equals mu.

    Values are memoized per (lambda, N) for the whole process."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    return _tableau_sum(lam, n)


@memo.cached(256)
def _tableau_sum(lam: tuple, n: int) -> SymmetricPolynomial:
    """:func:`macdonald_P` of a partition with at most ``n`` parts."""
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
    return SymmetricPolynomial(n, coeffs)


_P_memo = _tableau_sum.table   # the name perfbench's tracer reads


def eigenvalue(lam, n: int) -> LaurentPolynomial:
    """sum_i q^{lambda_i} s^{N-i} over (q, s)."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    full = list(lam) + [0] * (n - len(lam))
    out = LaurentPolynomial.zero(QS)
    for i, li in enumerate(full, start=1):
        out = out + LaurentPolynomial.monomial(QS, (li, n - i))
    return out


def eigen_residual(P: SymmetricPolynomial, ev: LaurentPolynomial) -> dict:
    """The coefficients of V * (D - ev) P at strictly decreasing exponents,
    read off P's m-expansion without expanding P in y.

    With delta = (N-1, ..., 0) and V = a_delta = prod_{a<b} (y_a - y_b),
    the operator D of :func:`apply_D1N` has the bialternant form
    (Macdonald, *Symmetric Functions and Hall Polynomials*, ch. VI §3)

        V * D = sum_{w in S_N} eps(w) y^{w delta} sum_i s^{(w delta)_i} T_{q,y_i},

    so, for P = sum_mu c_mu m_mu and beta running over the distinct
    rearrangements of each mu padded to length N,

        V * (D - ev) P = sum_{mu, beta, w} eps(w) c_mu
                         (sum_i q^{beta_i} s^{(w delta)_i} - ev) y^{beta + w delta}.

    P is symmetric and D commutes with S_N, so this polynomial is
    antisymmetric, hence zero iff its coefficients at strictly decreasing
    exponents are; and V != 0.  The c_mu are taken with their common
    denominator cleared (:meth:`SymmetricPolynomial.cleared_mcoeffs`).

    Returns the nonzero coefficients as ``{k: Laurent polynomial over
    (q, s)}``: empty iff D P == ev * P."""
    if ev.vars != QS:
        raise ValueError("eigenvalue not over (q, s)")
    n = P.n
    # eps(w) is the parity of the ascending pairs of w delta
    stairs = [(wd, -1 if sum(a < b for a, b in combinations(wd, 2)) % 2 else 1)
              for wd in permutations(range(n - 1, -1, -1))]
    cleared, _den = P.cleared_mcoeffs()
    acc: dict = {}   # k -> {(q-exponent, s-exponent): coefficient}
    for mu, c in cleared.items():
        # sum over the (beta, w) with beta + w delta = k of the signed weight
        weights: dict = {}
        base = tuple(mu) + (0,) * (n - len(mu))
        for beta in dict.fromkeys(permutations(base)):
            for wd, sign in stairs:
                k = tuple(map(add, beta, wd))
                if not all(map(gt, k, k[1:])):
                    continue
                wk = weights.setdefault(k, {})
                for e in zip(beta, wd):
                    wk[e] = wk.get(e, 0) + sign
                for e, cv in ev.terms.items():
                    wk[e] = wk.get(e, 0) - sign * cv
        c_items = c.terms.items()
        for k, wk in weights.items():
            ak = acc.setdefault(k, {})
            for (a, b), w in wk.items():
                if not w:
                    continue
                for (ca, cb), cv in c_items:
                    e = (ca + a, cb + b)
                    v = ak.get(e, 0) + w * cv
                    if v:
                        ak[e] = v
                    else:
                        # w * cv != 0, so a zero sum cancels an existing term
                        del ak[e]
    return {k: LaurentPolynomial._from_terms(QS, {e: _norm_coef(v) for e, v in ak.items()})
            for k, ak in acc.items() if ak}


def _s1(f: LaurentPolynomial, n: int) -> LaurentPolynomial:
    """S_1 = prod_{j >= 2} (s y_1 - y_j) * prod_{2 <= a < b} (y_a - y_b) * T_{q,y_1} f,
    the summand of V * D f that the transpositions (y_1 y_i) relabel
    (:func:`apply_D1N`).  T_{q,y_1} is a re-key: each term's y_1 exponent
    is added to its q exponent, and distinct terms stay distinct."""
    vars = f.vars

    def y(i):
        return LaurentPolynomial.var(vars, f"y{i}")

    tf = LaurentPolynomial._from_terms(
        vars, {(e[0] + e[2],) + e[1:]: c for e, c in f.terms.items()})
    s_y1 = LaurentPolynomial.var(vars, "s") * y(1)
    factor = LaurentPolynomial.one(vars)
    for j in range(2, n + 1):
        factor = factor * (s_y1 - y(j))
    for a in range(2, n + 1):
        for b in range(a + 1, n + 1):
            factor = factor * (y(a) - y(b))
    return factor * tf


def apply_D1N(f: LaurentPolynomial, n: int) -> LaurentPolynomial:
    """The q-difference operator sum_i prod_{j != i} (s y_i - y_j)/(y_i - y_j) T_{q, y_i}
    on a symmetric polynomial f over (q, s, y_1..y_N).

    With V = prod_{a<b} (y_a - y_b), summand i of V * D f is the
    transposition (y_1 y_i) of summand 1 with its sign flipped, because f
    is symmetric:

        V * D f = S_1 - sum_{i >= 2} tau_{1i}(S_1)

    with S_1 from :func:`_s1`.  So one product is built, its N - 1
    relabelled copies are folded into a single sum, and V is divided out
    exactly, one factor at a time.  The oracle reads the same fold at
    strictly decreasing exponents only (:func:`_d1n_m_action`), with no
    division.

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

    s1 = _s1(f, n)
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
                total = total.divide_exact(LaurentPolynomial.var(vars, f"y{a}")
                                           - LaurentPolynomial.var(vars, f"y{b}"))
            except ExactDivisionError as exc:
                raise DenominatorSurvives(
                    f"(y{a} - y{b}) does not divide the operator output; "
                    "input was not symmetric") from exc
    return total


def oracle_rows(lam, n: int) -> tuple:
    """The oracle's unitriangular system for P_lambda in the m-basis.

    Returns ``(basis, rows)``: ``basis`` is the partitions of |lambda|
    with at most N parts that lambda dominates, in reverse-lex order
    (dominance-compatible, so lambda comes first), and ``rows`` holds one
    ``(mu, gap_mu, [(nu, d_{nu,mu}), ...])`` for each mu != lambda in
    basis order, stating

        gap_mu * P[mu] == sum over nu before mu of d_{nu,mu} * P[nu],

    with ``gap_mu = e_lambda - d_{mu,mu}`` and ``d_{nu,mu}`` the m_mu
    coefficient of D m_nu (:func:`_d1n_m_action`), both as factored
    rationals over (q, s).  Only the nonzero ``d_{nu,mu}`` are listed.

    Raises :class:`EigenvalueCollision` when a gap is zero."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError("partition has more parts than variables")
    basis = [mu for mu in partitions_of(sum(lam), n) if dominates(lam, mu)]
    if len(basis) < 2:
        return basis, []   # no row, so no operator image is read
    action = {mu: _d1n_m_action(mu, n) for mu in basis}
    e_lam = eigenvalue(lam, n)
    rows = []
    for i, mu in enumerate(basis[1:], start=1):
        gap = e_lam - action[mu].get(mu, LaurentPolynomial.zero(QS))
        if gap.is_zero():
            raise EigenvalueCollision(f"equal symbolic eigenvalues for {lam} and {mu}")
        pairs = [(nu, FactoredRational.from_poly(action[nu][mu]))
                 for nu in basis[:i] if mu in action[nu]]
        rows.append((mu, FactoredRational.from_poly(gap), pairs))
    return basis, rows


def macdonald_P_oracle(lam, n: int) -> SymmetricPolynomial:
    """Independent construction of P_lambda: solve the unitriangular
    linear system (:func:`oracle_rows`) making the m-expansion an
    eigenvector of the difference operator with eigenvalue
    sum_i q^{lambda_i} s^{N-i}."""
    basis, rows = oracle_rows(lam, n)
    u: dict = {basis[0]: FactoredRational.one(QS)}
    for mu, gap, pairs in rows:
        rhs = FactoredRational.zero(QS)
        for nu, d in pairs:
            rhs = rhs + u[nu] * d
        u[mu] = rhs / gap
    return SymmetricPolynomial(n, u)


def satisfies_oracle(P: SymmetricPolynomial, lam) -> bool:
    """Whether P is the oracle's solution P_lambda, decided on the rows of
    its system (:func:`oracle_rows`) without solving it: P[lambda] == 1,
    every m-coefficient of P sits in the basis, and every row holds, each
    decided by one :func:`~maclab.algebra.sum_is_zero`.

    This is the same as ``P.equals(macdonald_P_oracle(lam, P.n))``.  The
    system is unitriangular in basis order: the row of mu fixes P[mu]
    from the P[nu] before it, as its gap is nonzero.  So it has one
    solution O with O[lambda] == 1 and support in the basis, namely the
    oracle's.  If P passes, then P[lambda] == O[lambda], and, by
    induction in basis order, P[nu] == O[nu] for every nu before mu
    gives gap_mu P[mu] == gap_mu O[mu], hence P[mu] == O[mu]; off the
    basis both are zero.  Conversely O passes every row."""
    basis, rows = oracle_rows(lam, P.n)
    coef, zero = P.mcoeffs, FactoredRational.zero(QS)
    if not coef.keys() <= set(basis):
        return False
    if not sum_is_zero((coef.get(basis[0], zero), -FactoredRational.one(QS))):
        return False
    return all(sum_is_zero([coef.get(mu, zero) * gap]
                           + [-(coef.get(nu, zero) * d) for nu, d in pairs])
               for mu, gap, pairs in rows)


@memo.cached(256)
def _d1n_m_action(mu, n: int) -> dict:
    """m-expansion of the operator image of m_mu (memoized), with no
    division by V.

    V * D m_mu = S_1 - sum_{i >= 2} tau_{1i}(S_1) (see :func:`apply_D1N`)
    is antisymmetric, so it is sum_k c_k a_k over the strictly decreasing
    k, with c_k = S_1[k] - sum_{i >= 2} S_1[tau_{1i} k].  By Jacobi's
    bialternant formula a_k / V is the Schur polynomial s_{k - delta}
    (Macdonald, *Symmetric Functions and Hall Polynomials*, ch. I §3), so

        D m_mu = sum_k c_k s_{k - delta},

    and each s_{k - delta} is expanded in the m-basis by :func:`_schur_m`.
    m_mu is symmetric by construction, so the division that checks
    symmetry in :func:`apply_D1N` has nothing to detect here."""
    alt: dict = {}   # strictly decreasing k -> {(q, s) exponent: c_k's coefficient}
    for e, c in _s1(monomial_symmetric(mu, n), n).terms.items():
        ye = e[2:]
        k = tuple(sorted(ye, reverse=True))
        if not all(map(gt, k, k[1:])):
            continue
        # the term sits at ye in S_1 and at tau_{1i} ye in its i-th copy:
        # it reaches k as is, or by the swap of y_1 with the place of k's top
        if ye != k:
            i = ye.index(k[0])
            if ye[0] != k[i] or ye[1:i] != k[1:i] or ye[i + 1:] != k[i + 1:]:
                continue
            c = -c
        ck = alt.setdefault(k, {})
        qs = e[:2]
        ck[qs] = ck.get(qs, 0) + c
    delta = range(n - 1, -1, -1)
    out: dict = {}   # nu -> {(q, s) exponent: coefficient}
    for k, ck in alt.items():
        for nu, kostka in _schur_m(Partition(map(sub, k, delta)), n).items():
            onu = out.setdefault(nu, {})
            for qs, c in ck.items():
                onu[qs] = onu.get(qs, 0) + kostka * c
    polys = {nu: {qs: c for qs, c in t.items() if c} for nu, t in out.items()}
    return {nu: LaurentPolynomial._from_terms(QS, t) for nu, t in polys.items() if t}


@memo.cached(256)
def _schur_m(lam, n: int) -> dict:
    """The m-expansion {nu: Kostka number} of the Schur polynomial
    s_lambda(y_1..y_N): the dominant coefficients of a_{lambda + delta} / V,
    divided exactly over the y-variables alone, with integer
    coefficients (memoized)."""
    ys = mac_vars(n)[2:]
    k = tuple(map(add, lam + (0,) * (n - len(lam)), range(n - 1, -1, -1)))
    # the sign of a rearrangement of the strictly decreasing k is the
    # parity of its ascending pairs
    total = LaurentPolynomial._from_terms(
        ys, {w: -1 if sum(a < b for a, b in combinations(w, 2)) % 2 else 1
             for w in permutations(k)})
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            total = total.divide_exact(LaurentPolynomial.var(ys, f"y{a}")
                                       - LaurentPolynomial.var(ys, f"y{b}"))
    return {Partition(e): c for e, c in total.terms.items()
            if not any(map(gt, e[1:], e))}


_action_memo = _d1n_m_action.table   # the name perfbench's tracer reads


def pieri_L(lvec: Sequence[int], r: int, n: int, vars: tuple = ("q", "t")) -> FactoredRational:
    """Pieri coefficient L_r for multiplication by z_1 + ... + z_N on the
    weight-indexed Macdonald family, over ``vars``: (q, t), or a context
    that starts (q, t), as for :func:`~maclab.euler.frakD_K`.

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
    lvec = list(lvec)
    if len(lvec) != n - 1:
        raise ValueError("weight vector must have length N-1")
    if not 1 <= r <= n:
        raise ValueError("r out of range")
    led = Ledger(vars)
    z = (0,) * (len(vars) - 2)
    s_up = 0
    for s in range(r, n):
        s_up += lvec[s - 1]
        led.binomial((s_up - 1, s - r + 2) + z, 1)
        led.binomial((s_up - 1, s - r + 1) + z, -1)
        led.binomial((s_up, s - r) + z, 1)
        led.binomial((s_up, s - r + 1) + z, -1)
    return led.value()
