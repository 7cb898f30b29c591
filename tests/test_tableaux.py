"""Partitions, theta matrices, the shape polytope, and the tableau bijection."""

import pytest

from maclab.tableaux import (
    NotATableau,
    Partition,
    ThetaMatrix,
    dominates,
    enumerate_pol_lambda,
    is_horizontal_strip,
    partitions_upto,
    strip_sizes,
    theta_by_degree,
    theta_to_tableau,
    theta_upto_degree,
)


def count_ssyt(lam, n: int) -> int:
    """Number of column-strict tableaux of shape lambda with entries in
    {1..N}, by direct cell-by-cell backtracking (independent oracle)."""
    lam = Partition(lam)
    if not lam:
        return 1
    rows = len(lam)
    grid = [[0] * lam[r] for r in range(rows)]
    count = 0
    cells = [(r, c) for r in range(rows) for c in range(lam[r])]

    def rec(pos):
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])       # rows weakly increase
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)   # columns strictly increase
        for v in range(lo, n + 1):
            grid[r][c] = v
            rec(pos + 1)
        grid[r][c] = 0

    rec(0)
    return count


def test_partition_normalization():
    assert Partition((3, 1, 0, 0)) == (3, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_horizontal_strip_examples():
    assert is_horizontal_strip((2, 1), (1, 1))
    assert not is_horizontal_strip((2, 2), (1,))
    assert is_horizontal_strip((2, 1), (2, 1))


def test_pol_lambda_examples():
    assert len(enumerate_pol_lambda((), 1)) == 1
    two = enumerate_pol_lambda((2,), 2)
    assert [th[(1, 2)] for th in two] == [0, 1, 2]
    assert len(enumerate_pol_lambda((1,), 3)) == 3


def test_pol_lambda_counts_match_ssyt():
    for n in range(1, 5):
        for lam in partitions_upto(5, n):
            assert len(enumerate_pol_lambda(lam, n)) == count_ssyt(lam, n), (lam, n)


def test_pol_lambda_lex_order():
    thetas = enumerate_pol_lambda((2, 1), 3)
    lists = [th.entry_list() for th in thetas]
    assert lists == sorted(lists)


def tableau_to_theta(chain) -> ThetaMatrix:
    """The inverse of ``theta_to_tableau``: theta_{ij} = lambda^{(j)}_i -
    lambda^{(j-1)}_i, for a chain of horizontal strips."""
    n = len(chain) - 1
    entries = {}
    for j in range(1, n + 1):
        prev = list(chain[j - 1]) + [0] * n
        cur = list(chain[j]) + [0] * n
        if not is_horizontal_strip(Partition([x for x in cur if x > 0]),
                                   Partition([x for x in prev if x > 0])):
            raise NotATableau(f"step {j} is not a horizontal strip")
        for i in range(1, n + 1):
            v = cur[i - 1] - prev[i - 1]
            if v < 0:
                raise NotATableau("chain not increasing")
            if v and i > j:
                raise NotATableau(f"entry below diagonal at ({i},{j})")
            if v and i < j:
                entries[(i, j)] = v
    return ThetaMatrix(n, entries)


def test_bijection_round_trip():
    for n in range(1, 5):
        for lam in partitions_upto(5, n):
            for th in enumerate_pol_lambda(lam, n):
                chain = theta_to_tableau(th, lam)
                assert chain[0] == ()
                assert chain[-1] == lam
                assert tableau_to_theta(chain) == th


def test_theta_to_tableau_rejects_bad_input():
    with pytest.raises(NotATableau):
        theta_to_tableau(ThetaMatrix(2, {(1, 2): 3}), (1,))


def test_strip_sizes_examples():
    assert strip_sizes(ThetaMatrix(2), (2, 1)) == (2, 1)
    assert strip_sizes(ThetaMatrix(2, {(1, 2): 1}), (1,)) == (0, 1)
    for th in enumerate_pol_lambda((2, 1), 3):
        sizes = strip_sizes(th, (2, 1))
        assert sum(sizes) == 3
        assert all(s >= 0 for s in sizes)


def test_strip_sizes_are_tableau_weight():
    lam = (2, 1)
    for th in enumerate_pol_lambda(lam, 3):
        chain = theta_to_tableau(th, lam)
        weights = tuple(sum(chain[j]) - sum(chain[j - 1]) for j in range(1, 4))
        assert weights == strip_sizes(th, lam)


def test_dominance():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert not dominates((2, 1), (2,))  # different sizes never compare


def test_theta_by_degree():
    out = theta_by_degree(3, (1, 1))
    assert [th.entry_list() for th in out] == [(0, 1, 0), (1, 0, 1)]
    assert len(theta_upto_degree(3, 2)) == 7
    for th in theta_upto_degree(3, 2):
        assert th.total_degree() <= 2
