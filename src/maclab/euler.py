"""Weyl-sum localization for global quasi-flag spaces and the closed
Macdonald-polynomial form of their stable Euler characteristics.

Everything in this module lives on the SL(N) torus: the last coordinate
is eliminated through z_N = (z_1 ... z_{N-1})^{-1}, so the working
context is (q, t, z_1 .. z_{N-1}).  Weights are given by their
coefficients (l_1 .. l_{N-1}) on the fundamental weights, with
z^{weight} = prod_k z_k^{Lambda_k}, Lambda_k = l_k + ... + l_{N-1}.

The fixed-degree character is the finite localization sum

    sum_{gamma + beta = alpha, w in W}
        z^{w weight} q^{<gamma, weight>}
        J_gamma(q^{-1}, t, wz) J_beta(q, t, wz)
        prod_{i<j} (1 - t w(z_i/z_j)) / (1 - w(z_i/z_j))

whose low-order (q,t)-coefficients stabilize as alpha grows; the stable
series factors as H_0 times explicit Pochhammer ratios times a Macdonald
polynomial.  The partition attached to (l_1..l_{N-1}) is
(l_1+...+l_{N-1}, l_1+...+l_{N-2}, ..., l_1, 0): note the reversal
relative to the usual highest-weight dictionary.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

from . import memo
from .algebra import FactoredRational, LaurentPolynomial, rational_eq, sum_is_zero
from .laumon import C_ledger, NotStabilized, _root_ledger
from .macdonald import macdonald_P
from .qcalc import Ledger
from .series import (
    InsufficientTruncation,
    QTSeries,
    certify_weyl_sum,
    expand,
    split_expand,
    split_mul,
    split_sum,
)
from .tableaux import Partition, ThetaMatrix, theta_by_degree

__all__ = [
    "GLWeight",
    "glob_vars",
    "euler_char_global",
    "euler_char_series",
    "weyl_invariance_check",
    "H_limit",
    "H0_closed",
    "W_poly",
    "F_poly",
    "frakD_K",
    "G_value",
    "h_series",
    "verify_cor_diff",
    "chi_bQ_closed",
    "chi_bQ_localization",
    "NotStabilized",
]


@cache
def glob_vars(n: int) -> tuple:
    """The context (q, t, z_1 .. z_{N-1}), one shared tuple per rank:
    cache entries keyed on it then hold no copies of their own."""
    return ("q", "t") + tuple(f"z{i}" for i in range(1, n))


def _slot_exp(n: int, i: int) -> tuple:
    """Exponent vector of z_i over glob_vars(n); z_N carries the SL
    constraint exponents (-1, ..., -1)."""
    e = [0] * (n + 1)
    if i < n:
        e[1 + i] = 1
    else:
        for k in range(2, n + 1):
            e[k] = -1
    return tuple(e)


def _wslot_exp(n: int, i: int, w) -> tuple:
    """Exponent vector of the i-th localization coordinate under w.

    The fixed-point embedding realizes the torus through the inverse
    coordinates, (wz)_i = z_{w(i)}^{-1}; this sign is what makes both the
    closed product comparison (with the reversed-partition dictionary)
    and the shift-operator identity with eigenvalue z_1 + ... + z_N hold
    simultaneously, and was calibrated against exact low-degree data.
    """
    return tuple(-x for x in _slot_exp(n, w[i - 1]))


class GLWeight:
    """Integer weight of SL(N) in fundamental-weight coordinates.

    Immutable, equal and hashed by ``(lvec, n)``: it keys the
    :func:`macdonald_in_z` table."""

    __slots__ = ("lvec", "n")

    def __init__(self, lvec, n=None):
        lvec = tuple(int(x) for x in lvec)
        n = len(lvec) + 1 if n is None else n
        if n != len(lvec) + 1:
            raise ValueError("weight vector must have length N-1")
        object.__setattr__(self, "lvec", lvec)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("GLWeight is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(other) is GLWeight and self.lvec == other.lvec and self.n == other.n

    def __hash__(self):
        return hash((self.lvec, self.n))

    def __repr__(self) -> str:
        return f"GLWeight(lvec={self.lvec!r}, n={self.n!r})"

    def components(self) -> tuple:
        """GL components Lambda_k = l_k + ... + l_{N-1} (Lambda_N = 0)."""
        out = []
        s = 0
        for x in reversed(self.lvec):
            s += x
            out.append(s)
        out.reverse()
        return tuple(out) + (0,)

    def is_dominant(self) -> bool:
        return all(x >= 0 for x in self.lvec)

    def pairing(self, gamma) -> int:
        """<gamma, weight> with gamma in the simple-coroot basis."""
        return sum(g * l for g, l in zip(gamma, self.lvec))

    def partition(self) -> tuple:
        """Indexing partition (l_1+...+l_{N-1}, ..., l_1+l_2, l_1, 0)."""
        if not self.is_dominant():
            raise ValueError("partition dictionary needs a dominant weight")
        return Partition([sum(self.lvec[: self.n - i]) for i in range(1, self.n)])

    def shifted(self, r: int) -> "GLWeight":
        """The weight-lattice shift T_r: l_{r-1} += 1, l_r -= 1."""
        if not 1 <= r <= self.n:
            raise ValueError("r out of range")
        l = list(self.lvec)
        if r >= 2:
            l[r - 2] += 1
        if r <= self.n - 1:
            l[r - 1] -= 1
        return GLWeight(tuple(l))

    def z_monomial(self, w=None) -> tuple:
        """Exponent vector of z^{w . weight} in the localization
        coordinates (see :func:`_wslot_exp`)."""
        n = self.n
        comps = self.components()
        w = w or tuple(range(1, n + 1))
        e = [0] * (n + 1)
        for k in range(1, n + 1):
            se = _wslot_exp(n, k, w)
            c = comps[k - 1]
            if c:
                e = [a + c * b for a, b in zip(e, se)]
        return tuple(e)


def _weyl_factor(n: int, w) -> FactoredRational:
    """prod_{i<j} (1 - t (wz)_j/(wz)_i) / (1 - (wz)_j/(wz)_i) in the
    localization coordinates.

    The orientation is pinned by requiring the untwisted fixed-degree
    characters to come out as t-polynomials (the opposite choice leaves
    uncancelled poles)."""
    led = Ledger(glob_vars(n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            se = [b - a for a, b in zip(_wslot_exp(n, i, w), _wslot_exp(n, j, w))]
            led.binomial((se[0], se[1] + 1, *se[2:]), 1)
            led.binomial(tuple(se), -1)
    return led.value()


@memo.cached(4096)
def _c_ledger(theta_key, n: int) -> Ledger:
    """:func:`~maclab.laumon.C_ledger` of the theta with entry list
    ``theta_key``, read by both the valuation count of a J-piece and the
    values of the pieces that are expanded.  A stored ledger is never
    mutated."""
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return C_ledger(ThetaMatrix(n, dict(zip(pairs, theta_key))), n)


@memo.cached(4096)
def _C_glob(theta_key, n: int, w, inverted: bool) -> FactoredRational:
    """C_theta with z -> wz (and optionally q -> 1/q) in the SL context:
    its ledger mapped by :meth:`~maclab.qcalc.Ledger.image` and
    converted once.  The factors of the values are the polynomials of
    qcalc._binomial, shared between entries."""
    led = _c_ledger(theta_key, n).image(glob_vars(n), _glob_weights(n, w, inverted), {})
    return led.value()


_c_cache = _C_glob.table   # the name perfbench's tracer reads


def _glob_weights(n: int, w, inverted: bool) -> list:
    """The :meth:`~maclab.qcalc.Ledger.image` weights of z -> wz (and
    q -> 1/q when inverted) from :func:`~maclab.laumon.lau_vars` to the
    SL context: row k holds the exponent of glob_vars(n)[k] in the images
    of q, t, z_1 .. z_N."""
    sign = -1 if inverted else 1
    slots = [_wslot_exp(n, i, w) for i in range(1, n + 1)]
    return [(sign * (k == 0), int(k == 1)) + tuple(e[k] for e in slots) for k in range(n + 1)]


def _weyl_group(n: int) -> list:
    return sorted(permutations(range(1, n + 1)))


def _splittings(alpha) -> list:
    """The pairs (gamma, beta) of degrees with gamma + beta = alpha;
    raises ``ValueError`` on a negative entry, which has none."""
    if any(a < 0 for a in alpha):
        raise ValueError(f"degree {tuple(alpha)} has a negative entry")
    return [(gamma, tuple(a - g for a, g in zip(alpha, gamma)))
            for gamma in product(*(range(a + 1) for a in alpha))]


def _localization_terms(alpha, weight: GLWeight, w) -> list:
    """The flattened localization summands of the Weyl element w for the
    given degree, as factored rationals over the SL context."""
    n = weight.n
    vars = glob_vars(n)
    wf = _weyl_factor(n, w)
    zw = FactoredRational.monomial(vars, weight.z_monomial(w))
    terms = []
    for gamma, beta in _splittings(alpha):
        qpow = weight.pairing(gamma)
        pref = zw * FactoredRational.monomial(vars, [qpow] + [0] * n) * wf
        cbs = [_C_glob(thb.entry_list(), n, w, False) for thb in theta_by_degree(n, beta)]
        for thg in theta_by_degree(n, gamma):
            cg = _C_glob(thg.entry_list(), n, w, True)
            terms.extend(pref * cg * cb for cb in cbs)
    return terms


def euler_char_global(alpha, weight: GLWeight) -> FactoredRational:
    """The fixed-degree global character as one exact rational function
    (a Laurent polynomial in disguise; the Weyl denominators cancel).
    The summands of every Weyl element are built independently."""
    total = FactoredRational.zero(glob_vars(weight.n))
    for w in _weyl_group(weight.n):
        for t in _localization_terms(alpha, weight, w):
            total = total + t
    return total


def _j_values(n: int, degree: tuple, inverted: bool) -> list:
    """C_theta(q^{-1} if inverted else q, t, z) at w = id over the fixed
    points theta of the given degree."""
    ident = tuple(range(1, n + 1))
    return [_C_glob(th.entry_list(), n, ident, inverted) for th in theta_by_degree(n, degree)]


@memo.cached(1024)
def _j_valuation(n: int, degree: tuple, inverted: bool) -> int:
    """A lower bound of the total (q,t)-degree of every term of the J-piece,
    >= max(degree) when inverted: the least valuation of its values,
    counted off their ledgers (:meth:`~maclab.qcalc.Ledger.valuation`)
    without building them.  z -> wz moves no (q,t)-degree."""
    grading = (-1 if inverted else 1, 1) + (0,) * n
    return min(_c_ledger(th.entry_list(), n).valuation(grading)
               for th in theta_by_degree(n, degree))


@memo.cached(1024)
def _j_piece(n: int, degree: tuple, inverted: bool, trunc: int) -> tuple:
    """The degree-``degree`` piece of the J-function at w = id, the sum
    of :func:`_j_values`, as a split series (:func:`split_expand`) exact
    up to total (q,t)-degree ``trunc``.  Its callers cut their products
    by the counted :func:`_j_valuation`, so a term below the count raises
    :class:`InsufficientTruncation` instead of a wrong sum.

    Kept in a bounded cache shared by every weight, schedule point,
    order and check that asks for the same truncation; its series are
    never mutated.  About 60% of the lookups of one check hit: 25 of 40 in
    ``hp`` at n <= 3, weight sum <= 1, and 70 of 112 in ``vanishing``;
    without the cache these checks take 20-35% longer."""
    piece = split_expand(_j_values(n, degree, inverted), trunc)
    count = _j_valuation(n, degree, inverted)
    low = min((s.min_total() for _rest, s in piece if s.coeffs), default=count)
    if low < count:
        raise InsufficientTruncation(
            f"the J-piece of degree {degree} has a term of degree {low} "
            f"below its counted valuation {count}")
    return piece


def _weyl_orbit_sum(pieces, prefactor: FactoredRational, order: int) -> QTSeries:
    """The sum over W of the images sigma_w: z_i -> z_{w(i)} of
    ``prefactor`` times the split series ``pieces``, each series exact up
    to the order minus the prefactor's valuation.  The images commute
    with the expansion, so the summed w = id products go to
    :func:`certify_weyl_sum`, which builds no image."""
    pieces = split_sum(pieces)
    low = min((s.min_total() for _rest, s in pieces if s.coeffs), default=0)
    products = split_mul(pieces, split_expand([prefactor], order - min(0, low)), order)
    return certify_weyl_sum(split_sum(products), prefactor.vars, order)


def euler_char_series(alpha, weight: GLWeight, order: int) -> QTSeries:
    """(q,t)-expansion of the fixed-degree global character to the given
    order; certifies that all Weyl denominators cancel.

    The w = id part of the localization sum is a convolution of
    J-pieces (:func:`_j_piece`):

        z^{weight} prod_{i<j} (1 - t z_j/z_i)/(1 - z_j/z_i)
            * sum_{gamma + beta = alpha} q^{<gamma, weight>} J_gamma(q^{-1}) J_beta(q)

    Each piece is one split series, a sum of (q,t)-series with
    coefficient-side pole parts, so a splitting gamma + beta takes one
    series product per pair of pole parts instead of one expansion per
    pair of fixed points.  The valuation bounds of the two pieces
    (:func:`_j_valuation`) decide how far each must be expanded for the
    product to be exact below the order, and skip the splittings whose
    terms all lie beyond it; :func:`split_mul` checks every product
    against the degree it must reach.  :func:`_weyl_orbit_sum` then
    multiplies the whole convolution by the prefactor z^{weight} times
    the Weyl factor once and certifies the sum over W."""
    n = weight.n
    ident = tuple(range(1, n + 1))
    conv = []
    for gamma, beta in _splittings(alpha):
        qpow = weight.pairing(gamma)
        need = order - qpow
        v_gamma, v_beta = _j_valuation(n, gamma, True), _j_valuation(n, beta, False)
        if v_gamma + v_beta > need:
            continue
        j_gamma = _j_piece(n, gamma, True, need - v_beta)
        j_beta = _j_piece(n, beta, False, need - v_gamma)
        conv.extend((rest, s.shift(qpow, 0)) for rest, s in split_mul(j_gamma, j_beta, need))
    base = FactoredRational.monomial(glob_vars(n), weight.z_monomial(ident)) * _weyl_factor(n, ident)
    return _weyl_orbit_sum(conv, base, order)


def weyl_invariance_check(alpha, weight: GLWeight) -> bool:
    """Exact W-invariance of the fixed-degree character: whether the
    rational function equals its image under each simple transposition
    of the torus coordinates."""
    n = weight.n
    vars = glob_vars(n)
    total = euler_char_global(alpha, weight)
    ok = True
    for k in range(1, n):
        sigma = list(range(1, n + 1))
        sigma[k - 1], sigma[k] = sigma[k], sigma[k - 1]
        mapping = {f"z{i}": _slot_exp(n, sigma[i - 1]) for i in range(1, n)}
        ok = ok and rational_eq(total, total.transform(vars, mapping))
    return ok


def H_limit(weight: GLWeight, order: int, schedule=None) -> QTSeries:
    """Stable (q,t)-expansion of the global characters along an
    increasing degree schedule, (1, .., 1) to (4, .., 4) by default;
    raises :class:`NotStabilized` when the last two points disagree below
    the truncation order, and ``ValueError`` on a schedule of fewer than
    two points.  Only the last two schedule points are evaluated: the
    stability test reads no other."""
    if schedule is None:
        schedule = [(k,) * (weight.n - 1) for k in range(1, 5)]
    if len(schedule) < 2:
        raise ValueError("H_limit needs a degree schedule of at least two points")
    before, last = (euler_char_series(a, weight, order) for a in schedule[-2:])
    if before != last:
        raise NotStabilized(
            f"characters at {schedule[-2]} and {schedule[-1]} disagree below order {order}")
    return last


def H0_closed(n: int) -> FactoredRational:
    """Closed product formula for the stable untwisted character (a
    function of t alone), filled as a binomial ledger."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    led = Ledger(glob_vars(n))
    z = (0,) * (n - 1)
    for m in range(2, n + 1):
        # 1 + t + ... + t^{m-1} = (1 - t^m) / (1 - t)
        led.binomial((0, m) + z, 1)
        led.binomial((0, 1) + z, -1)
    for m in range(2, n):
        led.binomial((0, m) + z, -2 * (n - m))
    led.binomial((0, n) + z, -1)
    led.binomial((0, 1) + z, 2 - n)
    return led.value()


def W_poly(n: int) -> list:
    """Coefficient list of the t-factorial product
    prod_{k=2}^{N} (1 + t + ... + t^{k-1})."""
    coeffs = [1]
    for k in range(2, n + 1):
        new = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                new[i + j] += c
        coeffs = new
    return coeffs


def F_poly(n: int, order: int) -> list:
    """Counting series of unordered collections of positive roots: a
    multiset of nonsimple roots alpha (each weighing height-1) together
    with a multiset of arbitrary positive roots beta (each weighing
    height+1).  Returns coefficients up to the given order."""
    items = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            h = j - i
            if h >= 2:
                items.append(h - 1)
            items.append(h + 1)
    counts = [0] * (order + 1)
    counts[0] = 1
    for wgt in items:
        for k in range(wgt, order + 1):
            counts[k] += counts[k - wgt]
    return counts


def frakD_K(weight: GLWeight, r: int, vars: tuple = ("q", "t")) -> FactoredRational:
    """Shift coefficient K_r of the difference operator acting through
    the lattice shifts T_r, over ``vars``: (q, t), or a context that
    starts (q, t), such as :func:`glob_vars`.

    With upward sums S_s = l_r + ... + l_s and downward sums
    S'_j = l_{r-1} + ... + l_{r-j}:

        K_r = prod_{s=r}^{N-1} (1 - t^{s-r+2} q^{S_s - 1}) / (1 - t^{s-r+1} q^{S_s})
            * prod_{j=1}^{r-1} (1 - t^{j-1} q^{S'_j + 1}) / (1 - t^j q^{S'_j})

    Consistent with the Pieri coefficients through the closed-form
    prefactor: K_r(w) = L_r(w) pref(w) / pref(T_r w).
    """
    n = weight.n
    lvec = weight.lvec
    if not 1 <= r <= n:
        raise ValueError("r out of range")
    led = Ledger(vars)
    z = (0,) * (len(vars) - 2)
    s_up = 0
    for s in range(r, n):
        s_up += lvec[s - 1]
        led.binomial((s_up - 1, s - r + 2) + z, 1)
        led.binomial((s_up, s - r + 1) + z, -1)
    s_dn = 0
    for j in range(1, r):
        s_dn += lvec[r - 1 - j]
        led.binomial((s_dn + 1, j - 1) + z, 1)
        led.binomial((s_dn, j) + z, -1)
    return led.value()


def hp_prefactor(weight: GLWeight, vars: tuple = ("q", "t")) -> FactoredRational:
    """prod_{1<=i<=j<=N-1} (t^{j-i+1}; q)_{l_i+..+l_j} / (t^{j-i} q; q)_{l_i+..+l_j}
    over ``vars``, as in :func:`frakD_K`; requires a dominant weight."""
    if not weight.is_dominant():
        raise ValueError("prefactor requires a dominant weight")
    n = weight.n
    led = Ledger(vars)
    for i in range(1, n):
        for j in range(i, n):
            ln = sum(weight.lvec[i - 1: j])
            led.zratio(ln, 0, j - i + 1)
            led.zratio(ln, 1, j - i, mult=-1)
    return led.value()


@memo.cached(256)
def macdonald_in_z(weight: GLWeight) -> FactoredRational:
    """P_{partition(weight)}(z_1..z_N; q, t) on the SL torus, as a single
    factored rational over glob_vars."""
    n = weight.n
    vars = glob_vars(n)
    P = macdonald_P(weight.partition(), n)
    total = FactoredRational.zero(vars)
    s_to_t = {"s": (0, 1) + (0,) * (n - 1)}
    for nu, c in sorted(P.mcoeffs.items()):
        cc = c.transform(vars, s_to_t)
        base = tuple(nu) + (0,) * (n - len(nu))
        mpoly = LaurentPolynomial.zero(vars)
        for perm in sorted(set(permutations(base))):
            e = [0] * (n + 1)
            for slot, k in enumerate(perm, start=1):
                if k:
                    se = _slot_exp(n, slot)
                    e = [a + k * b for a, b in zip(e, se)]
            mpoly = mpoly + LaurentPolynomial.monomial(vars, tuple(e))
        total = total + cc * FactoredRational.from_poly(mpoly)
    return total


_mz_memo = macdonald_in_z.table   # the name perfbench's tracer reads


def G_value(weight: GLWeight) -> FactoredRational:
    """H0 * prefactor * P as one exact rational over the SL context;
    zero for nondominant weights (the closed-form family)."""
    n = weight.n
    vars = glob_vars(n)
    if not weight.is_dominant():
        return FactoredRational.zero(vars)
    return H0_closed(n) * hp_prefactor(weight, vars) * macdonald_in_z(weight)


def h_series(weight: GLWeight, order: int) -> QTSeries:
    """(q,t)-expansion of the closed form to the given order."""
    return expand(G_value(weight), order)


def _zsum(n: int) -> FactoredRational:
    vars = glob_vars(n)
    out = LaurentPolynomial.zero(vars)
    for i in range(1, n + 1):
        out = out + LaurentPolynomial.monomial(vars, _slot_exp(n, i))
    return FactoredRational.from_poly(out)


def verify_cor_diff(weight: GLWeight) -> bool:
    """Whether the exact eigen identity for the shift operator holds on
    the closed-form family: sum_r K_r(w) G(T_r w) = (z_1 + ... + z_N) G(w)."""
    n = weight.n
    vars = glob_vars(n)
    terms = []
    for r in range(1, n + 1):
        g = G_value(weight.shifted(r))
        if not g.is_zero():
            terms.append(frakD_K(weight, r, vars) * g)
    terms.append(-(_zsum(n) * G_value(weight)))
    return sum_is_zero(terms)


# -- arc-space closed formula ---------------------------------------------------


def chi_bQ_closed(weight: GLWeight, order: int) -> QTSeries:
    """H0 * prefactor * prod_{i=1}^{N-2} ((t^i;q)_inf / (q t^{i+1};q)_inf)^{N-i-1} * P,
    expanded to the given order."""
    n = weight.n
    led = Ledger(glob_vars(n))
    for i in range(1, n - 1):
        led.inf(order, 0, i, mult=n - i - 1)
        led.inf(order, 1, i + 1, mult=i + 1 - n)
    return expand(G_value(weight) * led.value(), order)


def _arc_prefactor(weight: GLWeight, order: int) -> FactoredRational:
    """The w = id prefactor of :func:`chi_bQ_localization`:
    z^weight times the Weyl factor times prod_{i<j} (q t z_j/z_i;q)_inf /
    (q z_j/z_i;q)_inf times ((qt;q)_inf/(q;q)_inf)^{N-1}, each (x;q)_inf
    cut where its factors pass the order: the ledger of
    :func:`~maclab.laumon._root_ledger` mapped to the localization
    coordinates."""
    n = weight.n
    ident = tuple(range(1, n + 1))
    vars = glob_vars(n)
    led = _root_ledger(n, order).image(vars, _glob_weights(n, ident, False), {})
    z_weight = FactoredRational.monomial(vars, weight.z_monomial(ident))
    return _weyl_factor(n, ident) * z_weight * led.value()


def chi_bQ_localization(weight: GLWeight, order: int) -> QTSeries:
    """The same character from torus fixed points on the arc space:

        sum_w z^{w weight} [ sum_d q^{<d, weight>} J_d(q^{-1}, t, wz) ]
            * prod_{i<j} (q t z_{w(j)}/z_{w(i)};q)_inf / (q z_{w(j)}/z_{w(i)};q)_inf
            * ((qt;q)_inf/(q;q)_inf)^{N-1}
            * prod_{i<j} (1 - t w(z_i/z_j))/(1 - w(z_i/z_j))

    over the degree vectors d, J_d the J-piece of degree d
    (:func:`_j_piece`).  The w = id prefactor (every factor but the
    pieces, each (x;q)_inf cut to its factors below the order) is
    built once (:func:`_arc_prefactor`); :func:`_weyl_orbit_sum` multiplies the shifted pieces by
    it and certifies the sum over W.

    Cutoff.  Under q -> q^{-1} the factors of C_theta
    (:func:`maclab.laumon.C_theta`) pair into ratios
    (1 - q^{-c} t x)/(1 - q^{-c} x), x a z-monomial or 1, whose
    ``valuation_lb`` (least total (q,t)-degree of the numerator minus
    that of the denominator) is min(0, 1 - c) - min(0, -c): 1 when
    c >= 1 and 0 when c <= 0.  The entry l = theta_ij contributes
    (qt;q)_l/(q;q)_l, whose l ratios have c = 1 + k >= 1, k < l.
    ``valuation_lb`` adds over the factors of a product and z -> wz moves
    no (q,t)-degree, so valuation_lb(C_theta(q^{-1})) >= size(theta), the
    sum of its entries.  Each d_k = sum_{i <= k < j} theta_ij sums
    entries of theta, so size(theta) >= max(d) >= ceil(|d| / (N-1)); and
    <d, weight> >= 0 for a dominant weight.  Every term of the degree-d
    summand thus has total degree at least max(d) + <d, weight> + v, v
    the prefactor's ``valuation_lb``.  With need = order - v, a d with
    max(d) + <d, weight> > need adds nothing below the order and is
    skipped unbuilt; so is every d with ceil(|d| / (N-1)) > need, and
    the sum runs over the box max(d) <= need alone.  A piece whose
    counted valuation falls below the bound, _j_valuation < max(d),
    raises :class:`InsufficientTruncation`; one whose _j_valuation puts
    it past the order is neither built nor expanded, and the values of
    an expanded piece are checked against the count (:func:`_j_piece`)."""
    n = weight.n
    if not weight.is_dominant():
        raise ValueError("the arc-space sum converges for dominant weights")
    prefactor = _arc_prefactor(weight, order)
    need = order - prefactor.valuation_lb(("q", "t"))
    pieces = []
    for d in product(range(need + 1), repeat=n - 1):
        qpow = weight.pairing(d)
        if max(d) + qpow > need:
            continue
        v_d = _j_valuation(n, d, True)
        if v_d < max(d):
            raise InsufficientTruncation(
                f"the inverted J-piece of degree {d} has valuation below {max(d)}")
        if v_d + qpow <= need:
            pieces.extend((rest, s.shift(qpow, 0)) for rest, s in _j_piece(n, d, True, need - qpow))
    return _weyl_orbit_sum(pieces, prefactor, order)
