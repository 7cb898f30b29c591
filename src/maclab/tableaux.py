"""Partitions, theta matrices and column-strict tableaux.

A column-strict tableau of shape lambda with entries in {1..N} is encoded
by a strictly upper triangular N x N matrix of nonnegative integers
theta_{ij} (the number of j-entries in row i).  The admissible matrices
for a given shape form the lattice polytope

    0 <= theta_{ij} <= lambda_i - lambda_{i+1} - sum_{k>j} (theta_{ik} - theta_{i+1,k})

and the chain of partitions is recovered by lambda^{(j)}_i = sum_{k<=j} theta_{ik}.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

__all__ = [
    "Partition",
    "ThetaMatrix",
    "NotATableau",
    "is_horizontal_strip",
    "enumerate_pol_lambda",
    "theta_to_tableau",
    "strip_sizes",
    "dominates",
    "partitions_of",
    "partitions_upto",
    "theta_by_degree",
    "theta_upto_degree",
]


class NotATableau(ValueError):
    pass


def Partition(parts: Sequence[int]) -> tuple:
    """Normalize to a weakly decreasing tuple without trailing zeros."""
    p = [int(x) for x in parts]
    while p and p[-1] == 0:
        p.pop()
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"not weakly decreasing: {parts}")
    return tuple(p)


class ThetaMatrix:
    """Strictly upper-triangular matrix of nonnegative integers.

    Entries are stored row-major as a dict {(i, j): value} over 1-based
    indices with i < j <= N; zero entries are omitted.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries=None):
        self.n = n
        self.entries = {}
        if entries:
            for (i, j), v in dict(entries).items():
                if not (1 <= i < j <= n):
                    raise ValueError(f"entry ({i},{j}) outside the strict upper triangle")
                if v < 0:
                    raise ValueError("negative entry")
                if v:
                    self.entries[(i, j)] = int(v)

    def __getitem__(self, ij) -> int:
        return self.entries.get(ij, 0)

    def pairs(self) -> Iterator[tuple]:
        for i in range(1, self.n):
            for j in range(i + 1, self.n + 1):
                yield (i, j)

    def entry_list(self) -> tuple:
        """Row-major tuple (theta_12, theta_13, ..., theta_{N-1,N})."""
        return tuple(self[ij] for ij in self.pairs())

    def degree_vector(self) -> tuple:
        """x-degree vector d with d_k = sum of theta_{ij} over i <= k < j."""
        d = [0] * (self.n - 1)
        for (i, j), v in self.entries.items():
            for k in range(i, j):
                d[k - 1] += v
        return tuple(d)

    def total_degree(self) -> int:
        return sum((j - i) * v for (i, j), v in self.entries.items())

    def __eq__(self, other):
        return isinstance(other, ThetaMatrix) and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash((self.n, frozenset(self.entries.items())))

    def __repr__(self):
        return f"ThetaMatrix(n={self.n}, {dict(sorted(self.entries.items()))})"


def is_horizontal_strip(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """True iff mu is contained in lam and lam/mu has at most one box per
    column, i.e. lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..."""
    lam = Partition(lam)
    mu = Partition(mu)
    if len(mu) > len(lam):
        return False
    for i in range(len(lam)):
        m = mu[i] if i < len(mu) else 0
        if m > lam[i]:
            return False
        if i + 1 < len(lam) and m < lam[i + 1]:
            return False
    return True


def enumerate_pol_lambda(lam: Sequence[int], n: int) -> list:
    """All theta matrices of the shape-lambda polytope, in lexicographic
    order of the row-major entry list."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError("partition longer than the rank")
    full = list(lam) + [0] * (n - len(lam))
    results = []

    # fill rows bottom-up, each row right-to-left, so every bound is known
    cells = [(i, j) for i in range(n - 1, 0, -1) for j in range(n, i, -1)]

    theta = {}

    def bound(i, j):
        b = full[i - 1] - full[i]
        for k in range(j + 1, n + 1):
            b -= theta.get((i, k), 0) - theta.get((i + 1, k), 0)
        return b

    def rec(pos):
        if pos == len(cells):
            results.append(ThetaMatrix(n, dict(theta)))
            return
        i, j = cells[pos]
        b = bound(i, j)
        for v in range(0, max(b, -1) + 1):
            if v:
                theta[(i, j)] = v
            rec(pos + 1)
            theta.pop((i, j), None)

    rec(0)
    results.sort(key=lambda th: th.entry_list())
    return results


def theta_to_tableau(theta: ThetaMatrix, lam: Sequence[int]) -> list:
    """Chain of partitions empty = lambda^(0) <= ... <= lambda^(N) = lambda
    encoded by theta, via lambda^{(j)}_i = sum_{k<=j} theta_{ik}.

    The diagonal entries theta_{ii} = lambda_i - sum_{b>i} theta_{ib} are
    implied by the shape; raises :class:`NotATableau` if one of them is
    negative or some successive difference is not a horizontal strip.
    """
    lam = Partition(lam)
    n = theta.n
    full = list(lam) + [0] * (n - len(lam))
    diag = {}
    for i in range(1, n + 1):
        d = full[i - 1] - sum(theta[(i, b)] for b in range(i + 1, n + 1))
        if d < 0:
            raise NotATableau(f"implied diagonal entry theta_{i}{i} = {d} < 0")
        diag[i] = d

    def entry(i, k):
        if i < k:
            return theta[(i, k)]
        if i == k:
            return diag[i]
        return 0

    chain = []
    for j in range(0, n + 1):
        row = [sum(entry(i, k) for k in range(1, j + 1)) for i in range(1, n + 1)]
        if any(row[a] < row[a + 1] for a in range(n - 1)):
            raise NotATableau(f"intermediate row {row} is not a partition")
        chain.append(Partition([x for x in row if x > 0]))
    for j in range(1, n + 1):
        if not is_horizontal_strip(chain[j], chain[j - 1]):
            raise NotATableau(f"step {j} is not a horizontal strip")
    if chain[-1] != lam:
        raise NotATableau("chain does not end at the given shape")
    return chain


def strip_sizes(theta: ThetaMatrix, lam: Sequence[int]) -> tuple:
    """Sizes of the successive horizontal strips: the tableau weight.

    |strip_i| = lambda_i + sum_{a<i} theta_{ai} - sum_{b>i} theta_{ib}.
    """
    lam = Partition(lam)
    n = theta.n
    full = list(lam) + [0] * (n - len(lam))
    out = []
    for i in range(1, n + 1):
        s = full[i - 1]
        s += sum(theta[(a, i)] for a in range(1, i))
        s -= sum(theta[(i, b)] for b in range(i + 1, n + 1))
        out.append(s)
    return tuple(out)


def dominates(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Dominance order on partitions of equal size: every partial sum of
    lam is >= the corresponding partial sum of mu."""
    lam, mu = Partition(lam), Partition(mu)
    if sum(lam) != sum(mu):
        return False
    sa = sb = 0
    for i in range(max(len(lam), len(mu))):
        sa += lam[i] if i < len(lam) else 0
        sb += mu[i] if i < len(mu) else 0
        if sa < sb:
            return False
    return True


def partitions_of(size: int, max_len: int) -> list:
    """All partitions of ``size`` with at most ``max_len`` parts, in
    reverse-lex order."""
    out: list = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for p in range(min(remaining, max_part), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(size, size, [])
    return out


def partitions_upto(max_size: int, max_len: int) -> list:
    """All partitions with |lambda| <= max_size and at most max_len parts,
    ordered by (size, reverse-lex)."""
    return [mu for size in range(max_size + 1) for mu in partitions_of(size, max_len)]


def theta_by_degree(n: int, alpha: Sequence[int]) -> list:
    """All theta in M^(N) whose x-degree vector equals alpha, in
    increasing order of their entry lists: the depth-first fill tries
    the entries in the order of ``pairs``, each from 0 upwards."""
    alpha = tuple(alpha)
    if len(alpha) != n - 1:
        raise ValueError("alpha must have length N-1")
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    results: list = []
    vals: list = []

    def rec(idx, rem):
        if idx == len(pairs):
            if all(r == 0 for r in rem):
                results.append(ThetaMatrix(n, {p: v for p, v in zip(pairs, vals) if v}))
            return
        i, j = pairs[idx]
        cap = min(rem[k] for k in range(i - 1, j - 1))
        for v in range(cap + 1):
            vals.append(v)
            new_rem = tuple(r - v if i - 1 <= k < j - 1 else r for k, r in enumerate(rem))
            rec(idx + 1, new_rem)
            vals.pop()

    rec(0, alpha)
    return results


def theta_upto_degree(n: int, max_degree: int) -> list:
    """All theta in M^(N) with total x-degree <= max_degree, ordered by
    (degree vector, entries)."""
    out = []
    for alpha in product(range(max_degree + 1), repeat=n - 1):
        if sum(alpha) <= max_degree:
            out.extend(theta_by_degree(n, alpha))
    out.sort(key=lambda th: (th.total_degree(), th.degree_vector(), th.entry_list()))
    return out
