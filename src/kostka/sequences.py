"""Generalized Catalan sequences and common-column reducibility.

A generalized Catalan sequence has nonzero integer entries, zero total,
and nonnegative prefix sums.  It is *reducible* when some proper
nonempty sublist is again Catalan with a Catalan complementary sublist.

A cone pair maps to the sequence x_j = mu'_j - lambda'_j (one entry per
column of lambda); dominance makes the prefixes nonnegative.  Choosing
a set of positions where both the sublist and its complement are
Catalan is the same as splitting both diagrams along common columns,
which is a strictly stronger form of reducibility.

The *cost* of a sequence is the sum over sign runs of each run's
largest absolute entry; whenever cost < width (= length), a sublist
witness exists.  :func:`kim_theorem_check` verifies that implication on
concrete data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .errors import InvalidSequence, LengthCapExceeded, NotAWitness
from .partitions import (
    KostkaPair,
    conjugate,
    pad,
)
from .subsets import sweep_proper_subsets


@dataclass(frozen=True)
class CatalanSeq:
    """Nonzero entries, zero sum, nonnegative prefix sums."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(v) for v in self.entries)
        object.__setattr__(self, "entries", entries)
        acc = 0
        for i, v in enumerate(entries, start=1):
            if v == 0:
                raise InvalidSequence(f"zero entry at position {i}")
            if abs(v) > config.INT_CAP:
                raise InvalidSequence(f"entry at position {i} exceeds 64-bit range")
            acc += v
            if acc < 0:
                raise InvalidSequence(f"prefix sum {acc} < 0 after position {i}")
        if acc != 0:
            raise InvalidSequence(f"total {acc} != 0")

    @property
    def width(self) -> int:
        return len(self.entries)


def runs(x: CatalanSeq) -> tuple[tuple[int, ...], ...]:
    """Maximal constant-sign runs, in order."""
    return tuple(
        tuple(group) for _, group in itertools.groupby(x.entries, key=lambda v: v > 0)
    )


def cost(x: CatalanSeq) -> int:
    """Sum over sign runs of the largest absolute entry in the run."""
    return sum(max(abs(v) for v in run) for run in runs(x))


def catalan_reducible(x: CatalanSeq) -> tuple[int, ...] | None:
    """Positions (1-based, sorted) of a proper nonempty sublist that is
    Catalan with Catalan complement, smallest in index-tuple order, or
    None.  Raises :class:`LengthCapExceeded` beyond
    ``config.LENGTH_CAP`` entries."""
    t = x.width
    if t > config.LENGTH_CAP:
        raise LengthCapExceeded(f"length {t} exceeds cap {config.LENGTH_CAP}")
    arr = np.asarray(x.entries, dtype=np.int64)
    full = arr.cumsum()

    def predicate(bits: np.ndarray) -> np.ndarray:
        chosen = (bits.astype(np.int64) * arr[None, :]).cumsum(axis=1)
        rest = full[None, :] - chosen
        return (
            (chosen >= 0).all(axis=1)
            & (chosen[:, -1] == 0)
            & (rest >= 0).all(axis=1)
        )

    return sweep_proper_subsets(t, predicate, t)


def pair_to_sequence(pair: KostkaPair) -> tuple[int, ...]:
    """Column-difference sequence mu'_j - lambda'_j for j = 1..lambda_1.
    Entries may be zero; total is zero and prefixes are nonnegative."""
    w = pair.width
    lam_conj = pad(conjugate(pair.lam), w)
    mu_conj = pad(conjugate(pair.mu), w)
    return tuple(m - l for m, l in zip(mu_conj, lam_conj))


@dataclass(frozen=True)
class CommonSplit:
    """A decomposition of a pair along common diagram columns."""

    columns: tuple[int, ...]
    selected: KostkaPair
    complement: KostkaPair


def common_split(
    pair: KostkaPair, columns: Sequence[int]
) -> tuple[KostkaPair, KostkaPair]:
    """Split both diagrams along the given column positions.  The halves
    take the selected columns of lambda *and* of mu; raises
    :class:`NotAWitness` when either half leaves the cone."""
    w = pair.width
    sel = sorted(set(int(j) for j in columns))
    if not sel or len(sel) == w or any(j < 1 or j > w for j in sel):
        raise NotAWitness(f"columns {columns} are not a proper nonempty subset")
    lam_conj = pad(conjugate(pair.lam), w)
    mu_conj = pad(conjugate(pair.mu), w)
    halves: list[KostkaPair] = []
    for index_set in (sel, sorted(set(range(1, w + 1)) - set(sel))):
        lam_cols = sorted((lam_conj[j - 1] for j in index_set), reverse=True)
        mu_cols = sorted((mu_conj[j - 1] for j in index_set), reverse=True)
        try:
            halves.append(
                KostkaPair(conjugate(lam_cols), conjugate(mu_cols), pair.rank)
            )
        except Exception as exc:
            raise NotAWitness(
                f"columns {index_set} do not give a cone pair: {exc}"
            ) from exc
    return halves[0], halves[1]


def commonly_reducible(pair: KostkaPair) -> CommonSplit | None:
    """A common-column decomposition of the pair, or None.

    A zero entry of the column-difference sequence (a column of equal
    height in both diagrams) splits off on its own; otherwise the
    sequence has no zeros and the sublist sweep decides.
    """
    w = pair.width
    if w > config.LENGTH_CAP:
        raise LengthCapExceeded(f"width {w} exceeds cap {config.LENGTH_CAP}")
    if w <= 1:
        return None
    x = pair_to_sequence(pair)
    for j, v in enumerate(x, start=1):
        if v == 0:
            selected, complement = common_split(pair, (j,))
            return CommonSplit(columns=(j,), selected=selected, complement=complement)
    witness = catalan_reducible(CatalanSeq(x))
    if witness is None:
        return None
    selected, complement = common_split(pair, witness)
    return CommonSplit(columns=witness, selected=selected, complement=complement)


@dataclass(frozen=True)
class KimReport:
    cost: int
    width: int
    hypothesis: bool  # cost < width, i.e. the theorem promises a witness
    witness: tuple[int, ...] | None


def kim_theorem_check(x: CatalanSeq) -> KimReport:
    """Checks on concrete data that cost < width implies a sublist
    witness; the implication is tested, never assumed.  Raises
    :class:`AssertionFailure` on a violation, and
    :class:`LengthCapExceeded` beyond ``config.LENGTH_CAP`` entries (the
    cap of the sweep it runs)."""
    from .errors import AssertionFailure

    if x.width > config.LENGTH_CAP:
        raise LengthCapExceeded(f"length {x.width} exceeds cap {config.LENGTH_CAP}")
    c, t = cost(x), x.width
    if c >= t:
        return KimReport(cost=c, width=t, hypothesis=False, witness=None)
    witness = catalan_reducible(x)
    if witness is None:
        raise AssertionFailure(
            f"cost {c} < width {t} but no sublist witness exists for {x.entries}"
        )
    return KimReport(cost=c, width=t, hypothesis=True, witness=witness)
