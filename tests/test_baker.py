"""Spectral-parameter series: coefficients, termination, eigen equation."""

import itertools

import pytest

from maclab.algebra import FactoredRational, LaurentPolynomial, rational_eq
from maclab.baker import (
    TerminationFailure,
    ba_vars,
    c_N_closed,
    c_N_closed_alt,
    c_N_recursive,
    f_N_series,
    specialize_f_to_P,
    verify_eigen_equation,
)
from maclab import baker
from maclab.checks import run_check
from maclab.macdonald import QS, macdonald_P
from maclab.qcalc import Ledger
from maclab.reports import Status
from maclab.tableaux import ThetaMatrix, enumerate_pol_lambda, partitions_upto
import coefficient_reference as ref


def mono(vars, **kw):
    e = [0] * len(vars)
    for k, v in kw.items():
        e[vars.index(k)] = v
    return LaurentPolynomial.monomial(vars, e)


def test_rank_one_is_one():
    assert c_N_recursive(ThetaMatrix(1), 1).is_one()
    assert c_N_closed(ThetaMatrix(1), 1).is_one()


def test_zero_matrix_is_one():
    for n in (2, 3, 4):
        assert c_N_recursive(ThetaMatrix(n), n).is_one()
        assert c_N_closed(ThetaMatrix(n), n).is_one()


def test_printed_rank_two_coefficient():
    # (s z2/z1;q)_1/(q z2/z1;q)_1 * (s;q)_1/(q;q)_1 * (q/s)
    v = ba_vars(2)
    one = LaurentPolynomial.one(v)
    printed = FactoredRational(v, 1, None, [
        (one - mono(v, s=1, z2=1, z1=-1), 1), (one - mono(v, q=1, z2=1, z1=-1), -1),
        (one - mono(v, s=1), 1), (one - mono(v, q=1), -1),
    ]) * FactoredRational.monomial(v, [1, -1, 0, 0])
    th = ThetaMatrix(2, {(1, 2): 1})
    assert rational_eq(c_N_recursive(th, 2), printed)
    assert rational_eq(c_N_closed(th, 2), printed)
    assert rational_eq(c_N_closed_alt(th, 2), printed)


def test_closed_equals_recursive_small():
    for n in (2, 3):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for vals in itertools.product(range(3), repeat=len(pairs)):
            th = ThetaMatrix(n, dict(zip(pairs, vals)))
            a = c_N_recursive(th, n)
            assert rational_eq(a, c_N_closed(th, n)), (n, vals)
            assert rational_eq(a, c_N_closed_alt(th, n)), (n, vals)


def test_a_negative_truncation_is_rejected():
    with pytest.raises(ValueError):
        f_N_series(2, -1)
    with pytest.raises(ValueError):
        verify_eigen_equation(2, -1)


def test_series_truncation_zero():
    f = f_N_series(3, 0)
    assert list(f.coeffs) == [(0, 0)]
    assert f.coeffs[(0, 0)].is_one()


def test_series_degree_one_coefficients():
    f = f_N_series(2, 1)
    th = ThetaMatrix(2, {(1, 2): 1})
    assert rational_eq(f.coeffs[(1,)], c_N_closed(th, 2))
    # truncation counts total degree in the ratio variables, so the
    # (1,3) unit matrix (ratio-degree 2) enters at truncation 2
    f3 = f_N_series(3, 1)
    assert set(f3.coeffs) == {(0, 0), (1, 0), (0, 1)}
    f3b = f_N_series(3, 2)
    expected_11 = c_N_closed(ThetaMatrix(3, {(1, 3): 1}), 3) \
        + c_N_closed(ThetaMatrix(3, {(1, 2): 1, (2, 3): 1}), 3)
    assert rational_eq(f3b.coeffs[(1, 1)], expected_11)


def test_specialization_terminates_and_matches_P():
    for (lam, n) in [((), 2), ((1,), 2), ((2, 1), 3)]:
        S = specialize_f_to_P(lam, n)
        assert S.equals(macdonald_P(lam, n)), (lam, n)


def test_specialization_support_is_polytope():
    # every theta outside the polytope dies; checked inside the call
    specialize_f_to_P((2, 1), 3, margin=3)


def test_specialization_equals_the_per_partition_scan():
    for n in range(1, 4):
        for lam in partitions_upto(4, n):
            got = specialize_f_to_P(lam, n)
            want = ref.specialize_reference(lam, n)
            assert got.mcoeffs == want.mcoeffs, (lam, n)


def _plant(monkeypatch, planted):
    """Replace the ledger builder behind ``baker.c_N_closed`` and the
    termination scan by the real one except at the (n, entry list) keys
    of ``planted``, whose values it gives instead: the package and the
    per-partition reference both see the planted ledger."""
    real = baker._closed_ledger

    def closed_ledger(th, n):
        value = planted.get((n, th.entry_list()))
        return real(th, n) if value is None else value(real(th, n))

    monkeypatch.setattr(baker, "_closed_ledger", closed_ledger)


def _doubled(led):
    led.coef *= 2
    return led


def _witnesses(max_size, max_n):
    return run_check("termination", max_size=max_size, max_n=max_n).witnesses


def test_a_planted_surviving_theta_gives_the_reference_witnesses(monkeypatch):
    # (2, 0, 1) lies outside every rank-3 polytope but that of (2, 1),
    # where its strip sizes are not dominant; the zero matrix is dominant
    # in every polytope, so doubling its value spoils every sum
    _plant(monkeypatch, {(3, (2, 0, 1)): lambda c: Ledger(ba_vars(3)), (3, (0, 0, 0)): _doubled})
    got = _witnesses(3, 3)
    assert got == ref.termination_witnesses_reference(3, 3)
    survives = "coefficient at theta={(1, 2): 2, (2, 3): 1} survives specialization"
    assert got == [{"lambda": list(lam), "n": 3,
                    "error": "specialization != P" if lam == (2, 1) else survives}
                   for lam in partitions_upto(3, 3)]


def _over_z1_minus_s_q2(c):
    # a denominator z1 - s q^2 = z1 (1 - q^2 s / z1), which vanishes at
    # n = 2 exactly when lambda_1 = 2
    c.unit[2] -= 1
    c.binomial((2, 1, -1, 0), -1)
    return c


def test_an_arithmetic_error_stays_the_witness_of_its_partition(monkeypatch):
    # (1,) lies inside the polytopes of (1,), (2,), (3,) and (2, 1)
    _plant(monkeypatch, {(2, (1,)): _over_z1_minus_s_q2})
    got = _witnesses(3, 2)
    assert got == ref.termination_witnesses_reference(3, 2)
    vanished = "denominator factor vanished under substitution"
    # the other partitions are still checked: (3,) sees a changed sum,
    # and (1,) passes, its strip sizes at (1,) not being dominant
    assert got == [{"lambda": [2], "n": 2, "error": vanished},
                   {"lambda": [3], "n": 2, "error": "specialization != P"},
                   {"lambda": [2, 1], "n": 2, "error": vanished}]


class _RaisesOnSpecialization:
    """A planted ledger whose image raises, and whose value raises under
    the reference's ``transform``, as a denominator that vanishes does."""

    def image(self, *args):
        raise ZeroDivisionError("planted error")

    def value(self):
        return self

    transform = image


def test_the_first_error_inside_the_polytope_is_the_witness(monkeypatch):
    # (1,) and (2,) both lie inside the polytope of (2,) and both fail there
    _plant(monkeypatch, {(2, (1,)): _over_z1_minus_s_q2,
                         (2, (2,)): lambda c: _RaisesOnSpecialization()})
    got = _witnesses(3, 2)
    assert got == ref.termination_witnesses_reference(3, 2)
    errors = {tuple(w["lambda"]): w["error"] for w in got}
    assert errors[(2,)] == "denominator factor vanished under substitution"
    assert errors[(3,)] == "planted error"


def test_an_unrelated_arithmetic_error_propagates(monkeypatch):
    # only a vanishing denominator and a surviving coefficient become
    # witnesses; any other error is a fault of the program and raises
    def overflow(c):
        raise OverflowError("planted overflow")

    _plant(monkeypatch, {(2, (1,)): overflow})
    with pytest.raises(OverflowError, match="planted overflow"):
        _witnesses(3, 2)


def test_a_scan_failure_takes_precedence_over_an_error_inside(monkeypatch):
    # for (2,) and (2, 1) the error inside at (1,) comes first in the
    # scan and the survivor (3,) outside their polytopes after it: the
    # survivor is reported
    _plant(monkeypatch, {(2, (1,)): _over_z1_minus_s_q2, (2, (3,)): lambda c: Ledger(ba_vars(2))})
    got = _witnesses(3, 2)
    assert got == ref.termination_witnesses_reference(3, 2)
    survives = "coefficient at theta={(1, 2): 3} survives specialization"
    assert {tuple(w["lambda"]): w["error"] for w in got} == {
        (1,): survives, (2,): survives, (1, 1): survives, (3,): "specialization != P",
        (2, 1): survives}


# binomials 1 - x^e over (q, s, z1, z2); at n = 2, z1 -> s q^lambda_1 and
# z2 -> q^lambda_2.  LOW = 1 - z2 collapses when lambda_2 = 0 and
# HIGH = 1 - q^2 s / z1 when lambda_1 = 2; LOW comes first in the
# canonical-factor key order
LOW, HIGH = (0, 0, 0, 1), (2, 1, -1, 0)


def _times(num=(), den=()):
    """The real value times the binomials of ``num`` over those of ``den``."""
    def plant(c):
        for es, m in ((num, 1), (den, -1)):
            for e in es:
                c.binomial(e, m)
        return c
    return plant


def _outcome(value):
    if isinstance(value, ArithmeticError):
        return type(value), str(value)
    return value.mcoeffs


def _reference_outcome(lam, n):
    try:
        return _outcome(ref.specialize_reference(lam, n))
    except ArithmeticError as exc:
        return _outcome(exc)


vanished = (ZeroDivisionError, "denominator factor vanished under substitution")


@pytest.mark.parametrize("num, den, expected", [
    ((HIGH,), (), None),               # a numerator collapse is a zero value
    ((), (HIGH,), vanished),           # a denominator collapse raises
    ((LOW,), (), None),
    ((HIGH,), (LOW,), vanished),       # both: the denominator raises,
    ((LOW,), (HIGH,), vanished),       # whichever is first in key order
])
@pytest.mark.parametrize("theta", [(1,), (3,)])
def test_a_collapsing_binomial_keeps_the_meaning_of_the_reference(
        monkeypatch, num, den, expected, theta):
    # (1,) lies inside the polytope of (2,), (3,) is outside it
    _plant(monkeypatch, {(2, theta): _times(num, den)})
    lams = partitions_upto(3, 2)
    got = [_outcome(S) for S in baker.specialize_each(lams, 2)]
    assert got == [_reference_outcome(lam, 2) for lam in lams]
    at_two = got[lams.index((2,))]
    if expected is None:
        assert isinstance(at_two, dict)
    else:
        assert at_two == expected


@pytest.mark.parametrize("max_size, builds", [(3, 223), (4, 351)])
def test_termination_builds_each_coefficient_once(monkeypatch, max_size, builds):
    # rank 3 scans 0..max_size + 2 in each of its three entries, rank 2 in
    # its one, and rank 1 has the empty matrix only
    real = baker._closed_ledger
    calls = []

    def closed_ledger(th, n):
        calls.append((n, th.entry_list()))
        return real(th, n)

    monkeypatch.setattr(baker, "_closed_ledger", closed_ledger)
    assert run_check("termination", max_size=max_size, max_n=3).status == Status.PASSED
    assert len(calls) == len(set(calls)) == builds == 1 + (max_size + 3) + (max_size + 3) ** 3


def _counting(monkeypatch, owner, name, log):
    real = getattr(owner, name)

    def wrapper(self, *args):
        log.append(self.vars)
        return real(self, *args)

    monkeypatch.setattr(owner, name, wrapper)


def test_termination_converts_only_the_polytope_values(monkeypatch):
    # at the benchmark's range no factored value is re-imaged, and a
    # ledger becomes a value only at a theta inside the polytope
    transforms, converted = [], []
    _counting(monkeypatch, FactoredRational, "transform", transforms)
    _counting(monkeypatch, Ledger, "value", converted)
    assert run_check("termination", max_size=3, max_n=3).status == Status.PASSED
    assert transforms == []
    inside = sum(len(enumerate_pol_lambda(lam, n))
                 for n in range(1, 4) for lam in partitions_upto(3, n))
    assert converted == [QS] * inside


def test_cn_substitutes_nothing(monkeypatch):
    # the q-shift of the recursion maps ledgers, not factored values
    assert not hasattr(FactoredRational, "substitute")
    transforms = []
    _counting(monkeypatch, FactoredRational, "transform", transforms)
    assert run_check("cn", max_entry=1, max_n=4).status == Status.PASSED
    assert transforms == []


def test_eigen_equation_residuals_vanish():
    for (n, trunc) in [(2, 2), (2, 3), (3, 1), (3, 2)]:
        residual = verify_eigen_equation(n, trunc)
        assert not residual.coeffs, (n, trunc, residual)
