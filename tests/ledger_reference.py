"""The ledger layer's fills as they were before ``Ledger.zratio`` oriented
a symbol once and ``Ledger.image`` cached oriented images: every factor
of a symbol, and every image of a map, passed one at a time through the
per-binomial orientation of ``binomial_reference``.  Each function acts
on a :class:`maclab.qcalc.Ledger` in place (or returns a new one, for
the image) and calls none of its methods, so the package's ``coef``,
``unit`` and ``binomials`` must equal these exactly, and so must the
exceptions they raise.
"""

from operator import mul

from maclab.qcalc import Ledger, _binomial


def binomial_reference(led: Ledger, e: tuple, mult: int) -> None:
    """Multiply by (1 - x^e) ** mult, orienting e > 0 in graded-lex order."""
    if not mult:
        return
    s = sum(e)
    if s < 0 or not s and e < (0,) * len(e):
        if mult & 1:
            led.coef = -led.coef
        led.unit = [u + mult * x for u, x in zip(led.unit, e)]
        e = tuple([-x for x in e])
    elif not s and not any(e):
        if mult < 0:
            raise ZeroDivisionError("zero polynomial in denominator")
        led.coef = 0
        return
    m = led.binomials.get(e, 0) + mult
    if m:
        led.binomials[e] = m
    else:
        del led.binomials[e]


def zratio_reference(led: Ledger, n: int, qpow: int = 0, xpow: int = 0,
                     znum=None, zden=None, mult: int = 1) -> None:
    """(q^qpow x^xpow z_znum / z_zden ; q)_n ** mult, one binomial at a time."""
    if n < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    rest = [xpow] + [0] * (len(led.vars) - 2)
    if znum is not None:
        rest[znum] += 1
    if zden is not None:
        rest[zden] -= 1
    rest = tuple(rest)
    for k in range(qpow, qpow + n):
        binomial_reference(led, (k,) + rest, mult)


def image_reference(led: Ledger, vars: tuple, weights, images: dict) -> Ledger:
    """The ledger over ``vars`` of x^e -> y^f, f_t = <e, weights[t]>, with
    ``images`` caching the unoriented f per binomial (``()`` for f = 0)
    and each image added through :func:`binomial_reference`."""
    if not led.coef:
        return Ledger(vars, 0)
    found, collapsed = [], []
    for e in led.binomials:
        f = images.get(e)
        if f is None:
            f = tuple([sum(map(mul, e, w)) for w in weights])
            images[e] = f = f if any(f) else ()
        if f:
            found.append(f)
        else:
            collapsed.append(e)
    if collapsed:
        first = min(collapsed, key=lambda e: _binomial(led.vars, e)[0])
        if led.binomials[first] < 0:
            raise ZeroDivisionError("denominator factor vanished under substitution")
        return Ledger(vars, 0)
    out = Ledger(vars, led.coef, [sum(map(mul, led.unit, w)) for w in weights])
    for f, m in zip(found, led.binomials.values()):
        binomial_reference(out, f, m)
    return out
