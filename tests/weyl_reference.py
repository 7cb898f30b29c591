"""The image loop that certified Weyl-group sums before the one-pass
antisymmetriser ``series.certify_weyl_sum``, kept as its reference, and
the per-fixed-point summands of the arc-space sum that
``euler.chi_bQ_localization`` took before it summed J-pieces, and the
valuation of a J-piece read off its built values, which
``euler._j_valuation`` took before it counted it off the ledgers.

For each (q,t)-degree the image loop lifts the coefficients of a split
series to factored rationals, adds them, adds the image of that sum
under every map in ``images`` with ``FactoredRational.__add__``, and
divides the total out exactly.  It takes any set of monomial maps of the
coefficient variables, so it also serves sums over a subgroup.
``plant_uncancelled_pole`` breaks a summed Weyl-group series for the
error-path tests.
"""

from typing import Mapping, Sequence

from maclab.algebra import FactoredRational, LaurentPolynomial
from maclab.euler import (
    GLWeight,
    _C_glob,
    _slot_exp,
    _weyl_group,
    _wslot_exp,
    glob_vars,
)
from maclab.series import (
    NonPolynomialCoefficient,
    QTSeries,
    certify_weyl_sum,
    split_expand,
)
from maclab.tableaux import theta_by_degree, theta_upto_degree
from coefficient_reference import pochhammer_reference, weyl_factor_reference


def built_j_valuation(n: int, degree: tuple, inverted: bool) -> int:
    """The least ``valuation_lb`` over (q, t) of the built values
    C_theta(q^{-1} if inverted else q, t, z) of the J-piece of the given
    degree."""
    ident = tuple(range(1, n + 1))
    return min(_C_glob(th.entry_list(), n, ident, inverted).valuation_lb(("q", "t"))
               for th in theta_by_degree(n, degree))


def weyl_images(n: int) -> list:
    """The maps sigma_w: z_i -> z_{w(i)} over ``glob_vars(n)``, one per
    Weyl element, as ``FactoredRational.transform`` mappings (identity
    slots left out, so w = id maps nothing).  sigma_w carries the w = id
    localization summands to those of w: it sends
    ``euler._wslot_exp(n, i, id)`` to ``euler._wslot_exp(n, i, w)``, hence
    C_theta(wz), z^{w weight} and the Weyl factor of w are the images of
    those of id."""
    return [{f"z{i}": _slot_exp(n, w[i - 1]) for i in range(1, n) if w[i - 1] != i}
            for w in _weyl_group(n)]


def _certify_by_images(split, vars: Sequence[str], trunc: int,
                       images: Sequence[Mapping[str, tuple]] = ({},)) -> QTSeries:
    """``series.certify_sum`` with images, as it was: N! rational
    additions per degree.  The pole parts and coefficients of ``split``
    are over the coefficient variables of ``vars``, and each image over
    ``vars`` is applied there."""
    qt = ("q", "t")
    vars = tuple(vars)
    qt_idx = [vars.index(v) for v in qt]
    z_idx = [i for i in range(len(vars)) if i not in qt_idx]
    if not images or any(v in qt or any(e[i] for i in qt_idx)
                         for sigma in images for v, e in sigma.items()):
        raise ValueError("images must be maps of the coefficient variables")
    coeff_vars = tuple(vars[i] for i in z_idx)
    images = [{v: tuple(e[i] for i in z_idx) for v, e in sigma.items()} for sigma in images]
    acc: dict = {}
    for rest, ser in split:
        for key, poly in ser.coeffs.items():
            contrib = rest * FactoredRational.from_poly(poly)
            acc[key] = acc[key] + contrib if key in acc else contrib
    out = QTSeries(coeff_vars, trunc)
    for key, fold in sorted(acc.items()):
        fr = None
        for sigma in images:
            img = fold.transform(coeff_vars, sigma) if sigma else fold
            fr = img if fr is None else fr + img
        if fr.is_zero():
            continue
        try:
            poly = fr.to_laurent()
        except ArithmeticError as exc:
            raise NonPolynomialCoefficient(
                f"coefficient at (q,t)-degree {key} is not polynomial: "
                f"{fr.canonical_str()}") from exc
        if not poly.is_zero():
            out.coeffs[key] = poly
    return out


def expand_by_images(terms, trunc: int, images) -> QTSeries:
    """``expand_sum(terms, trunc, images=images)`` as it was."""
    terms = [fr for fr in terms if not fr.is_zero()]
    return _certify_by_images(split_expand(terms, trunc), terms[0].vars, trunc, images)


def expand_weyl_sum(terms, trunc: int) -> QTSeries:
    """The Weyl-group sum of the expansions of ``terms`` over the SL
    context: their split series certified by ``certify_weyl_sum``."""
    terms = [fr for fr in terms if not fr.is_zero()]
    return certify_weyl_sum(split_expand(terms, trunc), terms[0].vars, trunc)


def _arc_terms(weight: GLWeight, order: int, w, shell_margin: int) -> list:
    """The summands of the Weyl element w in ``chi_bQ_localization`` as it
    was, one per fixed point theta, that can reach below the order: the
    theta sum is scanned shell by shell in the total degree and stops
    after ``shell_margin`` shells that add nothing, a stop with no proof
    behind it."""
    n = weight.n
    vars = glob_vars(n)

    def poch_trunc(base_exps) -> FactoredRational:
        """(monomial; q)_inf as a finite product capturing everything
        below the truncation order."""
        deg = base_exps[0] + base_exps[1]
        kmax = max(0, order - deg + 1)
        return pochhammer_reference(FactoredRational.monomial(vars, base_exps), kmax)

    wf = weyl_factor_reference(n, w)
    zw = FactoredRational.monomial(vars, weight.z_monomial(w))
    inf_part = FactoredRational.one(vars)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            se = [a - b for a, b in zip(_wslot_exp(n, j, w), _wslot_exp(n, i, w))]
            num = [1 + se[0], 1 + se[1]] + list(se[2:])
            den = [1 + se[0], 0 + se[1]] + list(se[2:])
            inf_part = inf_part * poch_trunc(tuple(num)) / poch_trunc(tuple(den))
    inf_part = inf_part * (poch_trunc((1, 1) + (0,) * (n - 1))
                           / poch_trunc((1, 0) + (0,) * (n - 1))) ** (n - 1)
    base_pref = zw * wf * inf_part
    terms = []
    shell = 0
    exhausted = 0
    while exhausted < shell_margin:
        contributed = False
        for th in theta_upto_degree(n, shell):
            if th.total_degree() != shell:
                continue
            cg = _C_glob(th.entry_list(), n, w, True)
            qpow = weight.pairing(th.degree_vector())
            e = [qpow] + [0] * n
            term = base_pref * cg * FactoredRational.monomial(vars, e)
            if term.valuation_lb(("q", "t")) <= order:
                terms.append(term)
                contributed = True
        shell += 1
        exhausted = 0 if contributed else exhausted + 1
    return terms


def has_double_pole(split) -> bool:
    return any(m < -1 for rest, _ser in split for _p, m in rest.factors)


def plant_uncancelled_pole(split, how):
    """``split`` with its largest coefficient over a double pole broken:
    that coefficient loses the root binomial that its double pole needs
    ("missing"), or gains the constant 1 ("perturbed")."""
    i, key = max(((i, k) for i, (rest, ser) in enumerate(split)
                  if any(m < -1 for _p, m in rest.factors) for k in ser.coeffs),
                 key=lambda ik: len(split[ik[0]][1].coeffs[ik[1]].terms))
    rest, ser = split[i]
    pole = next(p for p, m in rest.factors if m < -1)
    poly = ser.coeffs[key]
    if how == "missing":
        poly = poly.divide_exact(pole)
    else:
        poly = poly + LaurentPolynomial.one(poly.vars)
    broken = QTSeries(ser.coeff_vars, ser.trunc, {**ser.coeffs, key: poly})
    return split[:i] + ((rest, broken),) + split[i + 1:]
