"""Generalized Catalan sequences and their sublist reducibility.

A generalized Catalan sequence has nonzero integer entries, zero total,
and nonnegative prefix sums.  It is *reducible* when some proper
nonempty sublist is again Catalan with a Catalan complementary sublist.

The sublist search is a dynamic program over (position, running sum of
the sublist), exact in Python integers: its tables grow with the sizes
of the prefix sums and at most as 2^t, and ``config.STATE_CAP`` bounds
them before any is built (see :func:`catalan_reducible`).

The *cost* of a sequence is the sum over sign runs of each run's
largest absolute entry; whenever cost < width (= length), a sublist
witness exists.  :func:`kim_theorem_check` verifies that implication on
concrete data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import config
from .errors import AssertionFailure, InvalidSequence, LengthCapExceeded
from .partitions import _non_integer


@dataclass(frozen=True)
class CatalanSeq:
    """Nonzero entries, zero sum, nonnegative prefix sums."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        acc = 0
        for i, v in enumerate(entries, start=1):
            if _non_integer(v):
                raise InvalidSequence(f"non-integer entry {v!r} at position {i}")
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
    None.

    A sublist with running sum a_j after position j works iff
    0 <= a_j <= P_j at every j (P_j is the sequence's own prefix sum,
    P_j - a_j the complement's) and a_t = 0.  One backward table holds,
    per position j, the states 2 a_j + c (c: the complement is nonempty
    so far) that still complete to a witness.  A state at j is minus a
    subset sum of the later entries, so the tables hold at most
    2 * sum_j min(P_j + 1, 2^(t - j)) states; beyond ``config.STATE_CAP``
    the call raises :class:`LengthCapExceeded` before building any.  A
    greedy walk then reads off the smallest tuple: it stops as soon as
    the chosen positions complete with every later position in the
    complement (a tuple sorts before its extensions), and otherwise
    takes the smallest next position that still completes."""
    entries = x.entries
    t = len(entries)
    prefix = list(itertools.accumulate(entries))
    bound = 2 * sum(
        p + 1 if p.bit_length() <= t - j else 1 << (t - j)  # min(P_j + 1, 2^(t - j))
        for j, p in enumerate(prefix, start=1)
    )
    if bound > config.STATE_CAP:
        raise LengthCapExceeded(f"state bound {bound} exceeds cap {config.STATE_CAP}")
    # feasible[j]: states after position j; position 0 is never looked up
    feasible: list[set[int]] = [set()] * t + [{1}]
    for j in range(t - 1, 0, -1):
        after, top, step = feasible[j + 1], 2 * prefix[j - 1] + 1, 2 * entries[j]
        skip = {s for n in after if n & 1 and n <= top for s in (n - 1, n)}
        feasible[j] = skip | {n - step for n in after if 0 <= n - step <= top}
    chosen: list[int] = []
    state = last = 0
    while True:
        # the first position that completes comes no later than the next
        # position of any completion, so every position it skips may be
        # skipped; none completes only before the first pick
        for k in range(last + 1, t + 1):
            state_k = (state | (k > last + 1)) + 2 * entries[k - 1]
            if state_k in feasible[k]:
                break
        else:
            return None
        chosen.append(k)
        state, last = state_k, k
        if state >> 1 == 0 and (state & 1 or last < t):
            return tuple(chosen)


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
    :class:`LengthCapExceeded` where :func:`catalan_reducible` refuses
    the sequence."""
    c, t = cost(x), x.width
    if c >= t:
        return KimReport(cost=c, width=t, hypothesis=False, witness=None)
    witness = catalan_reducible(x)
    if witness is None:
        raise AssertionFailure(
            f"cost {c} < width {t} but no sublist witness exists for {x.entries}"
        )
    return KimReport(cost=c, width=t, hypothesis=True, witness=witness)
