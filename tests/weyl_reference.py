"""The image loop that certified Weyl-group sums before the one-pass
antisymmetriser of ``series.certify_sum(..., weyl=True)``, kept as its
reference.

For each (q,t)-degree it lifts the folded groups to factored rationals,
adds them, adds the image of that sum under every map in ``images`` with
``FactoredRational.__add__``, and divides the total out exactly.  It
takes any set of monomial maps of the coefficient variables, so it also
serves sums over a subgroup.  ``plant_uncancelled_pole`` breaks a folded
Weyl-group sum for the error-path tests.
"""

from typing import Mapping, Sequence

from maclab.algebra import FactoredRational, LaurentPolynomial
from maclab.euler import _slot_exp, _weyl_group
from maclab.series import NonPolynomialCoefficient, QTSeries, expand_split, fold_split


def weyl_images(n: int) -> list:
    """The maps sigma_w: z_i -> z_{w(i)} over ``glob_vars(n)``, one per
    Weyl element, as ``FactoredRational.transform`` mappings (identity
    slots left out, so w = id maps nothing).  sigma_w carries the w = id
    localization summands to those of w: it sends
    ``euler._wslot_exp(n, i, id)`` to ``euler._wslot_exp(n, i, w)``, hence
    C_theta(wz), z^{w weight} and the Weyl factor of w are the images of
    those of id."""
    return [{f"z{i}": (1, _slot_exp(n, w[i - 1])) for i in range(1, n) if w[i - 1] != i}
            for w in _weyl_group(n)]


def _certify_by_images(groups: dict, vars: Sequence[str], trunc: int,
                       qt: Sequence[str] = ("q", "t"),
                       images: Sequence[Mapping[str, tuple]] = ({},)) -> QTSeries:
    """``series.certify_sum`` as it was: N! rational additions per degree."""
    if not images or any(v in sigma for sigma in images for v in qt):
        raise ValueError("images must be maps of the coefficient variables")
    vars = tuple(vars)
    coeff_vars = tuple(v for v in vars if v not in qt)
    acc: dict = {}
    for (key, _pole), (rest, t) in groups.items():
        if not t:
            continue
        poly = LaurentPolynomial._from_terms(coeff_vars, t).transform(vars, {})
        contrib = rest * FactoredRational.from_poly(poly)
        acc[key] = acc[key] + contrib if key in acc else contrib
    out = QTSeries(qt, coeff_vars, trunc)
    drop = {v: (1, (0,) * len(coeff_vars)) for v in qt}
    qt_idx = [vars.index(v) for v in qt]
    for key, fold in sorted(acc.items()):
        fr = None
        for sigma in images:
            img = fold.transform(vars, sigma) if sigma else fold
            fr = img if fr is None else fr + img
        if fr.is_zero():
            continue
        try:
            poly = fr.to_laurent()
        except ArithmeticError as exc:
            raise NonPolynomialCoefficient(
                f"coefficient at (q,t)-degree {key} is not polynomial: "
                f"{fr.canonical_str()}") from exc
        if poly.is_zero():
            continue
        if any(e[i] for e in poly.terms for i in qt_idx):
            raise NonPolynomialCoefficient(
                f"coefficient at {key} still involves the graded variables")
        out.coeffs[key] = poly.transform(coeff_vars, drop)
    return out


def fold(terms, trunc: int, qt: Sequence[str] = ("q", "t")) -> dict:
    """The groups that ``series.expand_sum`` folds ``terms`` into."""
    memo: dict = {}
    groups: dict = {}
    for fr in terms:
        rest, ser = expand_split(fr, trunc, qt, _memo=memo)
        fold_split(groups, rest, ser)
    return groups


def expand_by_images(terms, trunc: int, images, qt: Sequence[str] = ("q", "t")) -> QTSeries:
    """``expand_sum(terms, trunc, images=images)`` as it was."""
    terms = [fr for fr in terms if not fr.is_zero()]
    return _certify_by_images(fold(terms, trunc, qt), terms[0].vars, trunc, qt, images)


def _double_pole_group(groups):
    """The key of the largest folded group with a double pole, and the
    root binomial of that pole as a polynomial in the coefficient
    variables."""
    key = max((k for k, (rest, _t) in groups.items() if any(m < -1 for _p, m in rest.factors)),
              key=lambda k: len(groups[k][1]))
    rest = groups[key][0]
    pole = next(p for p, m in rest.factors if m < -1)
    return key, LaurentPolynomial(pole.vars[2:], {e[2:]: c for e, c in pole.terms.items()})


def plant_uncancelled_pole(groups, how):
    """``groups`` with the largest double-pole group broken: its numerator
    loses the root binomial that its double pole needs ("missing"), or
    gains the constant 1 ("perturbed")."""
    key, root = _double_pole_group(groups)
    rest, t = groups[key]
    if how == "missing":
        t = LaurentPolynomial(root.vars, t).divide_exact(root).terms
    else:
        t = dict(t)
        zero = (0,) * len(root.vars)
        t[zero] = t.get(zero, 0) + 1
    return {**groups, key: (rest, t)}
