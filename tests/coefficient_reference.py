"""Chained references for the Pochhammer-product coefficients and the
termination scan, and the factored forms of the package's other
Pochhammer products as they were before each filled a ledger.

Each builder here forms its value by a chain of binary products and
quotients, one step per Pochhammer ratio, and each symbol is built by
:func:`pochhammer_reference`, one binomial at a time through the
canonicalising constructor, as before the package's builders filled a
:class:`maclab.qcalc.Ledger`; no reference here fills a ledger or calls
:func:`maclab.qcalc.pochhammer`.
``mul`` and ``div`` are binary ``*`` and ``/`` that copy one operand's
factor map and merge the other into it; the package's ``/`` is ``*``
by the inverse, and ``product_reference`` is the reference for both.
``specialize_reference`` and ``termination_witnesses_reference`` scan the theta
grid of each partition separately and specialize each factored value
by :meth:`FactoredRational.transform`, as the package did before
:func:`maclab.baker.specialize_each` scanned each rank's grid once and
mapped ledgers straight into (q, s).  ``weyl_factor_reference``,
``frakD_K_reference`` and ``pieri_L_reference`` pass their binomials to
the constructor; ``hp_prefactor_reference``, ``printed_c2_reference``,
``printed_c3_reference``,
``arc_prefactor_reference`` (the cut prefactor of
``euler.chi_bQ_localization``) and ``lattice_term_reference`` (a term of
``laumon.an_summation_check``) chain their symbols.  The package
versions must give values equal to these under ``==``.
"""
from fractions import Fraction
from operator import add, sub

from maclab import baker
from maclab.algebra import FactoredRational, LaurentPolynomial, _merge_factor, _norm_coef
from maclab.baker import TerminationFailure, ba_vars
from maclab.euler import _wslot_exp, glob_vars
from maclab.laumon import lau_vars
from maclab.macdonald import QS, SymmetricPolynomial, macdonald_P, theta_to_tableau
from maclab.tableaux import (
    Partition, ThetaMatrix, enumerate_pol_lambda, partitions_upto, strip_sizes)


def mul(a, b):
    a._check(b)
    if a.is_zero() or b.is_zero():
        return FactoredRational.zero(a.vars)
    fa, fb = a._fmap, b._fmap
    if len(fa) < len(fb):
        fa, fb = fb, fa
    fmap = dict(fa)
    for key, (p, m) in fb.items():
        _merge_factor(fmap, key, p, m)
    return FactoredRational._from_map(a.vars, _norm_coef(a.coef * b.coef),
                                      tuple(map(add, a.exps, b.exps)), fmap)


def div(a, b):
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    a._check(b)
    if a.is_zero():
        return a
    fmap = dict(a._fmap)
    for key, (p, m) in b._fmap.items():
        _merge_factor(fmap, key, p, -m)
    x, y = a.coef, b.coef
    coef = x // y if type(x) is int and type(y) is int and not x % y else _norm_coef(Fraction(x) / y)
    return FactoredRational._from_map(a.vars, coef, tuple(map(sub, a.exps, b.exps)), fmap)


def pochhammer_reference(p, n):
    """(p; q)_n for a monomial p with any coefficient over a context that
    holds q: one binomial (1 - q^k p) per k < n, each canonicalised by
    the constructor, and nothing cached."""
    if isinstance(p, LaurentPolynomial):
        p = FactoredRational.from_poly(p)
    vars = p.vars
    if p.is_zero():
        return FactoredRational.one(vars)
    iq = vars.index("q")
    one = LaurentPolynomial.one(vars)
    factors = []
    for k in range(n):
        e = tuple(x + (k if i == iq else 0) for i, x in enumerate(p.exps))
        factors.append((one - LaurentPolynomial.monomial(vars, e, p.coef), 1))
    return FactoredRational(vars, 1, None, factors)


def zpoch(vars, n, qpow=0, xpow=0, znum=None, zden=None):
    """(q^qpow x^xpow z_znum / z_zden ; q)_n over the context (q, x, z1,
    z2, ...) by :func:`pochhammer_reference`."""
    e = [0] * len(vars)
    e[0], e[1] = qpow, xpow
    if znum is not None:
        e[znum + 1] += 1
    if zden is not None:
        e[zden + 1] -= 1
    return pochhammer_reference(FactoredRational.monomial(vars, e), n)


def product_reference(vars, num, den=()):
    """prod(num) / prod(den) as a left-to-right chain of ``mul`` and ``div``."""
    out = FactoredRational.one(vars)
    for x in num:
        out = mul(out, x)
    for x in den:
        out = div(out, x)
    return out


def c_N_recursive_reference(theta, n):
    return _c_rec(theta, theta.n, ba_vars(n))


def _c_rec(theta, m, vars):
    if m == 1:
        return FactoredRational.one(vars)
    corner = ThetaMatrix(m - 1, {(i, j): v for (i, j), v in theta.entries.items() if j < m})
    sub = _c_rec(corner, m - 1, vars)
    for i in range(1, m):
        sh = theta[(i, m)]
        if sh:
            e = [0] * len(vars)
            e[0] = -sh
            e[vars.index(f"z{i}")] = 1
            sub = sub.transform(vars, {f"z{i}": (1, tuple(e))})
    out = sub
    for i in range(1, m):
        for j in range(i, m):
            ln = theta[(i, m)]
            if not ln:
                continue
            tjm = theta[(j, m)]
            out = mul(out, zpoch(vars, ln, 0, 1, j + 1, i))
            out = div(out, zpoch(vars, ln, 1, 0, j + 1, i))
            out = mul(out, zpoch(vars, ln, 1 - tjm, -1, j, i))
            out = div(out, zpoch(vars, ln, -tjm, 0, j, i))
    return out


def c_N_closed_reference(theta, n):
    vars = ba_vars(n)
    nn = theta.n
    out = FactoredRational.one(vars)
    for k in range(2, nn + 1):
        for i in range(1, k):
            for j in range(i, k):
                ln = theta[(i, k)]
                if not ln:
                    continue
                e1 = sum(theta[(i, a)] - (theta[(j + 1, a)] if j + 1 < a else 0)
                         for a in range(k + 1, nn + 1))
                e2 = sum(theta[(i, a)] - (theta[(j, a)] if j < a else 0)
                         for a in range(k + 1, nn + 1))
                out = mul(out, zpoch(vars, ln, e1, 1, j + 1, i))
                out = div(out, zpoch(vars, ln, e1 + 1, 0, j + 1, i))
                out = mul(out, zpoch(vars, ln, -theta[(j, k)] + e2 + 1, -1, j, i))
                out = div(out, zpoch(vars, ln, -theta[(j, k)] + e2, 0, j, i))
    return out


def _mono(vars, q, s):
    return FactoredRational.monomial(vars, (q, s) + (0,) * (len(vars) - 2))


def c_N_closed_alt_reference(theta, n):
    vars = ba_vars(n)
    nn = theta.n
    out = FactoredRational.one(vars)
    for i in range(1, nn + 1):
        for j in range(i + 1, nn + 1):
            ln = theta[(i, j)]
            if not ln:
                continue
            a_sum = sum(theta[(i, a)] - (theta[(j, a)] if j < a else 0)
                        for a in range(j + 1, nn + 1))
            out = mul(out, _mono(vars, ln, -ln))
            out = mul(out, zpoch(vars, ln, 0, 1))
            out = div(out, zpoch(vars, ln, 1, 0))
            out = mul(out, zpoch(vars, ln, a_sum, 1, j, i))
            out = div(out, zpoch(vars, ln, a_sum + 1, 0, j, i))
    for k in range(3, nn + 1):
        for l in range(1, k):
            for m in range(l + 1, k):
                ln = theta[(l, k)]
                if not ln:
                    continue
                b_sum = sum(theta[(l, b)] - theta[(m, b)] for b in range(k + 1, nn + 1))
                out = mul(out, _mono(vars, ln, -ln))
                out = mul(out, zpoch(vars, ln, b_sum, 1, m, l))
                out = div(out, zpoch(vars, ln, b_sum + 1, 0, m, l))
                out = mul(out, zpoch(vars, ln, -ln + theta[(m, k)] - b_sum, 1, l, m))
                out = div(out, zpoch(vars, ln, 1 - ln + theta[(m, k)] - b_sum, 0, l, m))
    return out


def C_theta_reference(theta, n):
    vars = lau_vars(n)
    nn = theta.n
    out = FactoredRational.one(vars)
    for i in range(1, nn + 1):
        for j in range(i + 1, nn + 1):
            ln = theta[(i, j)]
            if not ln:
                continue
            s_sum = sum(theta[(i, a)] - (theta[(j, a)] if j < a else 0)
                        for a in range(j + 1, nn + 1))
            out = mul(out, zpoch(vars, ln, 1, 1))
            out = div(out, zpoch(vars, ln, 1, 0))
            out = mul(out, zpoch(vars, ln, 1 + s_sum, 1, j, i))
            out = div(out, zpoch(vars, ln, 1 + s_sum, 0, j, i))
    for k in range(3, nn + 1):
        for l in range(1, k):
            for m in range(l + 1, k):
                ln = theta[(l, k)]
                if not ln:
                    continue
                b_sum = sum(theta[(l, b)] - theta[(m, b)] for b in range(k + 1, nn + 1))
                out = mul(out, zpoch(vars, ln, 1 + b_sum, 1, m, l))
                out = div(out, zpoch(vars, ln, 1 + b_sum, 0, m, l))
                out = mul(out, zpoch(vars, ln, 1 - ln + theta[(m, k)] - b_sum, 1, l, m))
                out = div(out, zpoch(vars, ln, 1 - ln + theta[(m, k)] - b_sum, 0, l, m))
    return out


def psi_T_reference(theta, lam):
    lam = Partition(lam)
    n = theta.n
    chain = theta_to_tableau(theta, lam)
    rows = [list(c) + [0] * (n + 1 - len(c)) for c in chain]

    def mono(qe, se):
        return FactoredRational.monomial(QS, (qe, se))

    out = FactoredRational.one(QS)
    for k in range(1, n + 1):
        cur, prev = rows[k], rows[k - 1]
        for i in range(1, k):
            for j in range(i, k):
                m = theta[(i, k)]
                if m == 0:
                    continue
                num1 = pochhammer_reference(mono(-cur[i - 1] + prev[j - 1] + 1, i - j - 1), m)
                den1 = pochhammer_reference(mono(-cur[i - 1] + prev[j - 1], i - j), m)
                num2 = pochhammer_reference(mono(-cur[i - 1] + cur[j], i - j), m)
                den2 = pochhammer_reference(mono(-cur[i - 1] + cur[j] + 1, i - j - 1), m)
                out = div(mul(mul(out, num1), num2), mul(den1, den2))
    return out


def weyl_factor_reference(n, w):
    """``euler._weyl_factor``: its binomials through the constructor."""
    vars = glob_vars(n)
    one = LaurentPolynomial.one(vars)
    factors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            se = [b - a for a, b in zip(_wslot_exp(n, i, w), _wslot_exp(n, j, w))]
            ratio = LaurentPolynomial.monomial(vars, se)
            tratio = LaurentPolynomial.monomial(vars, [x + (1 if k == 1 else 0)
                                                       for k, x in enumerate(se)])
            factors.append((one - tratio, 1))
            factors.append((one - ratio, -1))
    return FactoredRational(vars, 1, None, factors)


def _qt_binomials(num, den):
    """prod (1 - q^a t^b) over ``num`` / the same over ``den``, (a, b)
    pairs, through the constructor."""
    qt = ("q", "t")
    one = LaurentPolynomial.one(qt)
    return FactoredRational(qt, 1, None,
                            [(one - LaurentPolynomial.monomial(qt, e), 1) for e in num]
                            + [(one - LaurentPolynomial.monomial(qt, e), -1) for e in den])


def frakD_K_reference(weight, r):
    n, lvec = weight.n, weight.lvec
    num, den = [], []
    s_up = 0
    for s in range(r, n):
        s_up += lvec[s - 1]
        num.append((s_up - 1, s - r + 2))
        den.append((s_up, s - r + 1))
    s_dn = 0
    for j in range(1, r):
        s_dn += lvec[r - 1 - j]
        num.append((s_dn + 1, j - 1))
        den.append((s_dn, j))
    return _qt_binomials(num, den)


def pieri_L_reference(lvec, r, n):
    num, den = [], []
    s_up = 0
    for s in range(r, n):
        s_up += lvec[s - 1]
        num.append((s_up - 1, s - r + 2))
        den.append((s_up - 1, s - r + 1))
        num.append((s_up, s - r))
        den.append((s_up, s - r + 1))
    return _qt_binomials(num, den)


def hp_prefactor_reference(weight):
    qt = ("q", "t")
    n = weight.n
    out = FactoredRational.one(qt)
    for i in range(1, n):
        for j in range(i, n):
            ln = sum(weight.lvec[i - 1: j])
            out = mul(out, pochhammer_reference(FactoredRational.monomial(qt, (0, j - i + 1)), ln))
            out = div(out, pochhammer_reference(FactoredRational.monomial(qt, (1, j - i)), ln))
    return out


def printed_c2_reference():
    """``checks._printed_c2`` over ``ba_vars(2)``."""
    vars = ba_vars(2)
    num = [zpoch(vars, 1, 0, 1, 2, 1), zpoch(vars, 1, 0, 1), _mono(vars, 1, -1)]
    den = [zpoch(vars, 1, 1, 0, 2, 1), zpoch(vars, 1, 1, 0)]
    return product_reference(vars, num, den)


def printed_c3_reference(t12, t13, t23):
    """``checks._printed_c3`` over ``ba_vars(3)``: the eight printed
    ratios, chained."""
    vars = ba_vars(3)

    def poch(qp, sp, n, **kw):
        e = [0] * len(vars)
        e[0], e[1] = qp, sp
        for k, v in kw.items():
            e[vars.index(k)] += v
        return pochhammer_reference(FactoredRational.monomial(vars, e), n)

    ratios = [
        (poch(t13 - t23, 1, t12, z2=1, z1=-1), poch(t13 - t23 + 1, 0, t12, z2=1, z1=-1)),
        (poch(-t12 + 1, -1, t12), poch(-t12, 0, t12)),
        (poch(0, 1, t13, z2=1, z1=-1), poch(1, 0, t13, z2=1, z1=-1)),
        (poch(-t13 + 1, -1, t13), poch(-t13, 0, t13)),
        (poch(0, 1, t13, z3=1, z1=-1), poch(1, 0, t13, z3=1, z1=-1)),
        (poch(-t23 + 1, -1, t13, z2=1, z1=-1), poch(-t23, 0, t13, z2=1, z1=-1)),
        (poch(0, 1, t23, z3=1, z2=-1), poch(1, 0, t23, z3=1, z2=-1)),
        (poch(-t23 + 1, -1, t23), poch(-t23, 0, t23)),
    ]
    out = FactoredRational.one(vars)
    for num, den in ratios:
        out = div(mul(out, num), den)
    return out


def arc_prefactor_reference(weight, order):
    """``euler._arc_prefactor``: z^weight times the Weyl factor, then
    each cut (q t z; q)_inf / (q z; q)_inf."""
    n = weight.n
    vars = glob_vars(n)
    ident = tuple(range(1, n + 1))
    out = mul(FactoredRational.monomial(vars, weight.z_monomial(ident)),
              weyl_factor_reference(n, ident))
    roots = [[a - b for a, b in zip(_wslot_exp(n, j, ident), _wslot_exp(n, i, ident))][2:]
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for z in roots + [[0] * (n - 1)] * (n - 1):
        num = pochhammer_reference(FactoredRational.monomial(vars, [1, 1] + z), max(0, order - 1))
        den = pochhammer_reference(FactoredRational.monomial(vars, [1, 0] + z), max(0, order))
        out = div(mul(out, num), den)
    return out


def lattice_term_reference(vars, chi, order):
    """``laumon._lattice_term``, one cut symbol ratio per ordered pair."""
    m = len(chi)
    out = FactoredRational.one(vars)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            c = chi[i] - chi[j]
            e_num = [0] * len(vars)
            e_num[0] = 1 + c
            e_num[1] = 1
            e_num[2 + i] += 1
            e_num[2 + j] -= 1
            e_den = list(e_num)
            e_den[1] = 0
            k_num = max(0, order + 1 - (2 + c))
            k_den = max(0, order + 1 - (1 + c))
            out = mul(out, pochhammer_reference(FactoredRational.monomial(vars, e_num), k_num))
            out = div(out, pochhammer_reference(FactoredRational.monomial(vars, e_den), k_den))
    return out


def z_specialization(lam, n):
    """Mapping z_i -> s^{N-i} q^{lambda_i} over (q, s)."""
    full = list(Partition(lam)) + [0] * n
    return {f"z{i}": (1, (full[i - 1], n - i) + (0,) * n) for i in range(1, n + 1)}


def specialize_reference(lam, n, margin=2):
    """The per-partition scan: every theta outside the polytope with
    entries up to lambda_1 + margin must specialize to zero, then the
    polytope's values are summed.  ``c_N_closed`` is looked up on the
    ``baker`` module, so a test may replace it."""
    lam = Partition(lam)
    vars = ba_vars(n)
    mapping = z_specialization(lam, n)
    pol = set(th.entry_list() for th in enumerate_pol_lambda(lam, n))
    bound = (lam[0] if lam else 0) + margin
    for th in baker._theta_entries_upto(n, bound):
        if th.entry_list() in pol:
            continue
        if not baker.c_N_closed(th, n).transform(vars, mapping).is_zero():
            raise TerminationFailure(
                f"coefficient at theta={dict(th.entries)} survives specialization")
    coeffs = {}
    for th in enumerate_pol_lambda(lam, n):
        spec = baker.c_N_closed(th, n).transform(vars, mapping)
        qs_spec = spec.transform(QS, {f"z{i}": (1, (0, 0)) for i in range(1, n + 1)})
        w = strip_sizes(th, lam)
        if list(w) != sorted(w, reverse=True):
            continue
        mu = Partition(w)
        coeffs[mu] = coeffs[mu] + qs_spec if mu in coeffs else qs_spec
    return SymmetricPolynomial(n, coeffs)


def termination_witnesses_reference(max_size, max_n):
    """The witness list of ``check_termination`` by per-partition scans."""
    witnesses = []
    for n in range(1, max_n + 1):
        for lam in partitions_upto(max_size, n):
            try:
                S = specialize_reference(lam, n)
            except (ZeroDivisionError, TerminationFailure) as exc:
                witnesses.append({"lambda": list(lam), "n": n, "error": str(exc)})
                continue
            if not S.equals(macdonald_P(lam, n)):
                witnesses.append({"lambda": list(lam), "n": n, "error": "specialization != P"})
    return witnesses
