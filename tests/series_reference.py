"""The ways into a (q,t)-series that ``maclab.series`` and ``maclab.qcalc``
took before every summed series became a split series and every product
of infinite Pochhammer symbols one ``Ledger``, kept as references:

* ``split_sum_by_add``: the pairs of each pole part added with
  ``QTSeries.__add__``;
* ``fold_split``: the coefficient terms of each (q,t)-degree and pole part
  added into a ``((a, b), pole) -> (rest, terms)`` dict;
* ``pochhammer_inf`` and ``series_inverse``: (p;q)_inf expanded on its own
  and inverted as a series, and the products built from them:
  ``J_infinity``, the right side of ``an_summation_check`` and
  ``chi_bQ_closed``.
"""

from maclab.algebra import DenominatorNotUnit, FactoredRational, LaurentPolynomial, _norm_coef
from maclab.euler import G_value, glob_vars
from maclab.laumon import lau_vars
from maclab.qcalc import NonConvergent, pochhammer
from maclab.series import QTSeries, _pole_key, expand


def split_sum_by_add(pairs) -> tuple:
    """One ``(rest, series)`` pair per pole part, the series added with
    ``+`` (which keeps the least truncation)."""
    parts: dict = {}
    for rest, ser in pairs:
        pole = _pole_key(rest)
        part = parts.get(pole)
        parts[pole] = (rest, ser) if part is None else (part[0], part[1] + ser)
    return tuple(parts.values())


def fold_split(groups: dict, rest: FactoredRational, series: QTSeries) -> None:
    """Add the coefficient polynomials of ``rest * series`` into
    ``groups``, keyed on ((q,t)-degree, pole part) and holding
    ``(rest, coefficient terms)``."""
    pole = _pole_key(rest)
    for key, poly in series.coeffs.items():
        g = groups.get((key, pole))
        if g is None:
            groups[(key, pole)] = (rest, dict(poly.terms))
            continue
        acc_terms = g[1]
        for e, c in poly.terms.items():
            s = acc_terms.get(e, 0) + c
            if s:
                acc_terms[e] = _norm_coef(s)
            else:
                del acc_terms[e]


def series_inverse(s: QTSeries) -> QTSeries:
    """Series inverse; the (0,0) coefficient must be the constant 1."""
    c0 = s.coeffs.get((0, 0))
    if s.min_total() < 0 or c0 is None or not c0.is_one():
        raise DenominatorNotUnit("series inverse needs constant term 1")
    h = QTSeries(s.qt, s.coeff_vars, s.trunc)
    h.coeffs = {k: p for k, p in s.coeffs.items() if k != (0, 0)}
    acc = QTSeries.one(s.qt, s.coeff_vars, s.trunc)
    pw = QTSeries.one(s.qt, s.coeff_vars, s.trunc)
    for _ in range(s.trunc):
        pw = pw * (-h)
        pw.trunc = s.trunc
        if pw.is_zero():
            break
        acc = acc + pw
    return acc


def pochhammer_inf(p: FactoredRational | LaurentPolynomial, trunc: int) -> QTSeries:
    """The (q,t)-expansion of (p; q)_inf over a context that starts
    (q, t), from the factors of total degree <= trunc."""
    if isinstance(p, LaurentPolynomial):
        p = FactoredRational.from_poly(p)
    vars = p.vars
    if vars[:2] != ("q", "t"):
        raise ValueError("Pochhammer base must be over (q, t, ...)")
    if p.is_zero():
        return QTSeries.one(("q", "t"), vars[2:], trunc)
    deg = p.exps[0] + p.exps[1]
    if deg <= 0:
        raise NonConvergent(f"(p;q)_infty with qt-degree {deg} base does not converge")
    return expand(pochhammer(p, max(0, trunc - deg + 1)), trunc)


def _mono(vars, qe, te, znum=None, zden=None):
    e = [0] * len(vars)
    e[0], e[1] = qe, te
    if znum is not None:
        e[vars.index(f"z{znum}")] += 1
    if zden is not None:
        e[vars.index(f"z{zden}")] -= 1
    return FactoredRational.monomial(vars, e)


def _ratio(vars, order, num, den):
    """(num; q)_inf / (den; q)_inf as a product of series."""
    return pochhammer_inf(_mono(vars, *num), order) * series_inverse(
        pochhammer_inf(_mono(vars, *den), order))


def J_infinity(n: int, order: int) -> QTSeries:
    vars = lau_vars(n)
    out = QTSeries.one(("q", "t"), vars[2:], order)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * _ratio(vars, order, (1, 1, j, i), (1, 0, j, i))
    base = _ratio(vars, order, (1, 1), (1, 0))
    for _ in range(n - 1):
        out = out * base
    for i in range(1, n - 1):
        f = _ratio(vars, order, (1, i + 1), (0, i))
        for _ in range(n - i - 1):
            out = out * f
    return out.truncate(order)


def lattice_right_side(rank: int, order: int) -> QTSeries:
    vars = ("q", "t") + tuple(f"z{i}" for i in range(1, rank + 2))
    rhs = QTSeries.one(("q", "t"), vars[2:], order)
    f = _ratio(vars, order, (1, 0), (1, 1))
    for _ in range(rank):
        rhs = rhs * f
    for i in range(1, rank + 1):
        rhs = rhs * _ratio(vars, order, (1, i + 1), (0, i))
    return rhs.truncate(order)


def chi_bQ_closed(weight, order: int) -> QTSeries:
    n = weight.n
    vars = glob_vars(n)
    base = expand(G_value(weight), order)
    for i in range(1, n - 1):
        f = _ratio(vars, order, (0, i), (1, i + 1))
        for _ in range(n - i - 1):
            base = base * f
    return base.truncate(order)
