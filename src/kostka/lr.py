"""Littlewood-Richardson coefficients and the wide counterexample family.

c(lambda, mu; nu) counts skew semistandard tableaux of shape nu/lambda
and content mu whose reading word (right to left, top to bottom) is a
ballot sequence.  The counter lists the skew cells once in reading
order, with their right and upper neighbours, and fills them by one
backtracking search, so the ballot and content conditions prune as it
goes; it is exact and meant for small shapes (|nu| capped).

The family :func:`counterexample_family` produces, for each k >= 2, a
primitive triple at rank r = 3k-1 with nu_1 = k(k-1) growing
quadratically in r, showing that no analogue of the width bound (first
part bounded by rank) can hold for the triple semigroup: from k = 4 on,
nu_1 > r.  :func:`verify_counterexample` checks the built triple's rank
and nu_1 against its own row of the closed-form growth table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import config
from .errors import (
    AssertionFailure,
    InvalidTriple,
    RankCapExceeded,
    ShapeError,
    SizeCapExceeded,
)
from .partitions import Partition, _non_integer, as_partition, pad, size


@dataclass(frozen=True)
class LrTriple:
    lam: Partition
    mu: Partition
    nu: Partition
    rank: int

    def __post_init__(self) -> None:
        lam = as_partition(self.lam)
        mu = as_partition(self.mu)
        nu = as_partition(self.nu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        if _non_integer(self.rank):
            raise InvalidTriple(f"non-integer rank {self.rank!r}")
        if self.rank < 0 or max(len(lam), len(mu), len(nu)) > self.rank:
            raise InvalidTriple(
                f"lengths {len(lam)}, {len(mu)}, {len(nu)} exceed rank {self.rank}"
            )


def lr_coefficient(triple: LrTriple) -> int:
    """The coefficient c(lambda, mu; nu), counted tableau by tableau.

    Raises :class:`ShapeError` when lambda is not contained in nu and
    :class:`SizeCapExceeded` when |nu| > ``config.LR_BOX_CAP``; returns
    0 when the sizes cannot match.
    """
    lam, mu, nu = triple.lam, triple.mu, triple.nu
    if size(nu) > config.LR_BOX_CAP:
        raise SizeCapExceeded(f"|nu| = {size(nu)} exceeds cap {config.LR_BOX_CAP}")
    lam_padded = pad(lam, len(nu)) if len(lam) <= len(nu) else None
    if lam_padded is None or any(l > n for l, n in zip(lam_padded, nu)):
        raise ShapeError(f"lambda {lam} is not contained in nu {nu}")
    if size(lam) + size(mu) != size(nu):
        return 0
    # skew cells in reading order: top row first, right to left, so the
    # skew cells to the right of and above a cell are filled before it
    cells = [
        (i, j)
        for i, outer in enumerate(nu)
        for j in range(outer - 1, lam_padded[i] - 1, -1)
    ]
    position = {cell: p for p, cell in enumerate(cells)}
    right = [position.get((i, j + 1)) for i, j in cells]
    above = [position.get((i - 1, j)) for i, j in cells]
    value = [0] * len(cells)
    # counts[0] outnumbers every letter, so the ballot test never binds for 1
    counts = [len(cells)] + [0] * len(mu)

    def fill(p: int) -> int:
        if p == len(cells):
            return 1
        # columns strictly increase down, rows weakly increase rightwards
        low = 0 if above[p] is None else value[above[p]]
        high = len(mu) if right[p] is None else value[right[p]]
        total = 0
        for v in range(low + 1, high + 1):
            # content bound, and ballot: prefix counts stay weakly decreasing
            if counts[v] < mu[v - 1] and counts[v] < counts[v - 1]:
                value[p] = v
                counts[v] += 1
                total += fill(p + 1)
                counts[v] -= 1
        return total

    return fill(0)


def counterexample_family(k: int) -> LrTriple:
    """The rank-(3k-1) triple with lambda = (k^(k-1), (k-1)^k),
    mu = three copies each of j(k-1) for j = k-1..1, and
    nu = ((k(k-1))^2, mu).  Raises :class:`InvalidTriple` when k is not
    an integer or k < 2 and :class:`RankCapExceeded` when
    k > ``config.FAMILY_CAP``."""
    _family_cap(k)
    if k < 2:
        raise InvalidTriple(f"family needs k >= 2, got {k}")
    rank = 3 * k - 1
    lam = (k,) * (k - 1) + (k - 1,) * k
    mu = tuple(j * (k - 1) for j in range(k - 1, 0, -1) for _ in range(3))
    nu = (k * (k - 1),) * 2 + mu
    triple = LrTriple(lam=lam, mu=mu, nu=nu, rank=rank)
    if size(triple.lam) != 2 * k * (k - 1):
        raise AssertionFailure(f"|lambda| wrong for k={k}")
    if 2 * size(triple.mu) != 3 * k * (k - 1) ** 2:
        raise AssertionFailure(f"|mu| wrong for k={k}")
    if size(triple.lam) + size(triple.mu) != size(triple.nu):
        raise AssertionFailure(f"size identity fails for k={k}")
    if len(triple.nu) != rank:
        raise AssertionFailure(f"nu should have exactly rank parts for k={k}")
    if math.gcd(*triple.lam, *triple.mu, *triple.nu) != 1:
        raise AssertionFailure(f"family triple not primitive for k={k}")
    return triple


def _family_cap(k: int) -> None:
    if _non_integer(k):
        raise InvalidTriple(f"non-integer k {k!r}")
    if k > config.FAMILY_CAP:
        raise RankCapExceeded(f"k = {k} exceeds cap {config.FAMILY_CAP}")


@dataclass(frozen=True)
class GrowthRow:
    k: int
    rank: int
    nu1: int
    exceeds_rank: bool


def _growth_row(k: int) -> GrowthRow:
    """Row k of the growth table; nu_1 > rank from k = 4 on, since
    k(k - 1) > 3k - 1 iff k^2 - 4k + 1 > 0."""
    rank = 3 * k - 1
    nu1 = k * (k - 1)
    return GrowthRow(k=k, rank=rank, nu1=nu1, exceeds_rank=nu1 > rank)


def growth_table(k_max: int) -> tuple[GrowthRow, ...]:
    """nu_1 = ((r+1)/3)((r+1)/3 - 1) versus r, for k = 2..k_max.
    Raises :class:`InvalidTriple` when k_max is not an integer and
    :class:`RankCapExceeded` when k_max > ``config.FAMILY_CAP``."""
    _family_cap(k_max)
    return tuple(map(_growth_row, range(2, k_max + 1)))


@dataclass(frozen=True)
class CounterexampleReport:
    k: int
    rank: int
    triple: LrTriple
    nu1: int
    exceeds_rank: bool
    coefficient: int | None  # None when |nu| is beyond the counting cap


def verify_counterexample(k: int) -> CounterexampleReport:
    """Build the family triple, check its rank and nu_1 against its
    growth row, and (within the counting cap) confirm the coefficient is
    positive."""
    triple = counterexample_family(k)
    row = _growth_row(k)
    if (triple.rank, triple.nu[0]) != (row.rank, row.nu1):
        raise AssertionFailure(f"family triple for k={k} disagrees with its growth row")
    try:
        coefficient = lr_coefficient(triple)
    except SizeCapExceeded:
        coefficient = None
    else:
        if coefficient < 1:
            raise AssertionFailure(f"family coefficient vanished for k={k}")
    return CounterexampleReport(
        k=k,
        rank=row.rank,
        triple=triple,
        nu1=row.nu1,
        exceeds_rank=row.exceeds_rank,
        coefficient=coefficient,
    )
