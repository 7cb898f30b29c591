"""Chained references for the Pochhammer-product coefficients and the
termination scan.

Each builder here forms its value by a chain of binary products and
quotients, one step per Pochhammer ratio, as the package did before
:meth:`FactoredRational.product` merged every factor map at once, and
each symbol is a :func:`maclab.qcalc.pochhammer` value (``zpoch``), as
before the package's builders filled a :class:`maclab.qcalc.Ledger`.
``mul`` and ``div`` are the binary ``*`` and ``/`` of that time, which
copied one operand's factor map and merged the other into it; the
package's ``*`` and ``/`` now go through ``product`` themselves.
``specialize_reference`` and ``termination_witnesses_reference`` scan the theta
grid of each partition separately and specialize each factored value
by :meth:`FactoredRational.transform`, as the package did before
:func:`maclab.baker.specialize_each` scanned each rank's grid once and
mapped ledgers straight into (q, s).  The package versions must give
values equal to these under ``==``.
"""
from fractions import Fraction
from operator import add, sub

from maclab import baker
from maclab.algebra import FactoredRational, _merge_factor, _norm_coef
from maclab.baker import TerminationFailure, ba_vars
from maclab.laumon import lau_vars
from maclab.macdonald import QS, SymmetricPolynomial, macdonald_P, theta_to_tableau
from maclab.qcalc import pochhammer
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


def zpoch(vars, n, qpow=0, xpow=0, znum=None, zden=None):
    """(q^qpow x^xpow z_znum / z_zden ; q)_n over the context (q, x, z1,
    z2, ...) by :func:`maclab.qcalc.pochhammer`, one binomial at a time."""
    e = [0] * len(vars)
    e[0], e[1] = qpow, xpow
    if znum is not None:
        e[znum + 1] += 1
    if zden is not None:
        e[zden + 1] -= 1
    return pochhammer(FactoredRational.monomial(vars, e), n)


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
                num1 = pochhammer(mono(-cur[i - 1] + prev[j - 1] + 1, i - j - 1), m)
                den1 = pochhammer(mono(-cur[i - 1] + prev[j - 1], i - j), m)
                num2 = pochhammer(mono(-cur[i - 1] + cur[j], i - j), m)
                den2 = pochhammer(mono(-cur[i - 1] + cur[j] + 1, i - j - 1), m)
                out = div(mul(mul(out, num1), num2), mul(den1, den2))
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
            except ArithmeticError as exc:
                witnesses.append({"lambda": list(lam), "n": n, "error": str(exc)})
                continue
            if not S.equals(macdonald_P(lam, n)):
                witnesses.append({"lambda": list(lam), "n": n, "error": "specialization != P"})
    return witnesses
