"""Integer partitions, dominance order, and Kostka numbers.

A partition is a trimmed, weakly decreasing tuple of positive integers;
the empty tuple is the zero partition.  Every public function accepts
any integer sequence and checks it once, through :func:`as_partition`,
where it enters (the library's own pairs skip only its type census,
through :func:`_certified`, see below); the private kernels
:func:`_dominated` and :func:`_conjugate` and the shapes that
:func:`kostka_count` peels work on tuples that are already partitions
and are not checked again.
:func:`_dominated`, the dominance test of every :class:`KostkaPair`,
takes the running gaps of the prefix sums in one pass of builtins that
run in C, with no Python-level walk.  :func:`as_partition` checks a
sequence of plain ``int`` parts with a few builtins that run in C and
walks it part by part only when that check fails, to name the
offending part exactly as the walk always has.

Nothing here enumerates partitions: the cone points of a box are
listed, one size at a time as arrays, by :mod:`kostka.cone`.

Kostka numbers are counted exactly, in integers.  K(lambda, mu) does
not depend on the order of mu's parts, so :func:`kostka_count` peels
the parts of mu greater than 1 first, largest first, one horizontal
strip at a time, and leaves each remaining shape nu to the parts equal
to 1: those fill it with standard tableaux, f^nu of them by the hook
length formula, an exact quotient of integers.  The two tables it reads
depend on a shape alone and are built once per process: the shapes
left by peeling an m-box strip from a shape (:func:`_strips`, at most
2048 (shape, m) keys) and f^nu (:func:`_standard_count`, at most 1024
shapes), each in a ``functools.lru_cache`` of tuples and integers,
which are immutable.

The central object is :class:`KostkaPair`: a pair (lambda, mu) of equal
size with mu dominated by lambda, carried together with an explicit
ambient rank r (number of coordinates of each side).  These are exactly
the lattice points of the Kostka cone in 2r coordinates, and exactly
the pairs with K(lambda, mu) > 0.  Its constructor is written for
outside input and takes a census of the part types.  The pairs the
library computes itself (halves of a decomposition or a column split,
subset-sum reduction and proof pairs, basis elements and ray points),
whose parts are ints it made, are built by :func:`_certified` instead:
it skips only that census and runs every cone check of the
constructor, and refuses, through the constructor, exactly what the
constructor refuses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, product
from operator import sub
from typing import Iterable, Sequence

from . import config
from .errors import InvalidPair, InvalidPartition, SizeCapExceeded

Partition = tuple[int, ...]

_INT_ONLY = frozenset({int})


def _non_integer(v) -> bool:
    """Anything that is not an ``int``, or is a ``bool``: what every
    constructor of the package refuses as a number."""
    return not isinstance(v, int) or isinstance(v, bool)


def as_partition(seq: Sequence[int] | Iterable[int]) -> Partition:
    """Validate and normalize to a trimmed partition tuple.

    Trailing zeros are removed; anything not weakly decreasing and
    nonnegative raises :class:`InvalidPartition`.

    Parts of type ``int`` are checked by builtins that run in C: one
    type census, one comparison against the sorted parts, and the two
    ends against 0 and ``config.INT_CAP``.  Any other sequence (one
    holding a ``bool``, a numpy integer, an ``int`` subclass or a bad
    part) is walked part by part, which accepts ``int`` subclasses and
    names the first offending part.
    """
    parts = tuple(seq)
    if {*map(type, parts)} <= _INT_ONLY:
        trimmed = _trimmed(parts)
        if trimmed is not None:
            return trimmed
    for p in parts:
        if _non_integer(p):
            raise InvalidPartition(f"non-integer part {p!r}")
        if p < 0:
            raise InvalidPartition(f"negative part {p}")
        if p > config.INT_CAP:
            raise InvalidPartition(f"part {p} exceeds 64-bit range")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise InvalidPartition(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _trimmed(parts: tuple) -> Partition | None:
    """``parts`` less its trailing zeros if it is weakly decreasing, its
    last part >= 0 and its first at most ``config.INT_CAP``, else None:
    :func:`as_partition`'s checks but the type census, by builtins that
    run in C."""
    if parts and not (
        parts[-1] >= 0
        and parts[0] <= config.INT_CAP
        and list(parts) == sorted(parts, reverse=True)
    ):
        return None
    if not parts or parts[-1]:
        return parts
    # decreasing and nonnegative, so the zeros are the trailing parts
    return parts[: len(parts) - parts.count(0)]


def size(p: Sequence[int]) -> int:
    return sum(p)


def pad(p: Sequence[int], length: int) -> Partition:
    """Right-pad with zeros to the given length (must be >= len(p))."""
    if length < len(p):
        raise InvalidPartition(f"cannot pad length-{len(p)} partition to {length}")
    return tuple(p) + (0,) * (length - len(p))


def conjugate(p: Sequence[int]) -> Partition:
    """Transpose of the Young diagram: lambda'_j = #{i : lambda_i >= j}."""
    return _conjugate(as_partition(p))


def _conjugate(q: Sequence[int]) -> Partition:
    """:func:`conjugate` of a sequence that is already a partition.

    Counts the parts of each length, then takes suffix sums of the
    counts: O(len(lambda) + lambda_1)."""
    if not q:
        return ()
    counts = [0] * (q[0] + 1)
    for part in q:
        counts[part] += 1
    return tuple(accumulate(counts[:0:-1]))[::-1]


def _dominated(pa: Partition, pb: Partition) -> bool:
    """Every prefix sum of ``pa`` is >= the matching prefix sum of
    ``pb``; both must already be partitions.

    One C-level pass: the running gaps over the shorter length must stay
    >= 0.  Past it, the gaps rise if ``pa`` is the longer (its parts are
    positive) and fall to sum(pa) - sum(pb) if ``pb`` is."""
    return min(accumulate(map(sub, pa, pb)), default=0) >= 0 and (
        len(pa) >= len(pb) or sum(pa) >= sum(pb)
    )


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Dominance order with equal totals: every prefix sum of ``a`` is >=
    the corresponding prefix sum of ``b``.  Unequal totals compare False
    rather than raising."""
    pa, pb = as_partition(a), as_partition(b)
    return size(pa) == size(pb) and _dominated(pa, pb)


def in_kostka_cone(lam: Sequence[int], mu: Sequence[int], rank: int) -> bool:
    """Whether (lambda, mu) is a lattice point of the rank-``rank`` cone:
    both sides have at most ``rank`` parts, equal size, and lambda
    dominates mu."""
    pl, pm = as_partition(lam), as_partition(mu)
    return (
        max(len(pl), len(pm)) <= rank
        and size(pl) == size(pm)
        and _dominated(pl, pm)
    )


def _cone_check(lam: Partition, mu: Partition, rank: int) -> None:
    """Refuse, with :class:`InvalidPair`, two partitions that are not a
    cone point at ``rank``: at most ``rank`` parts a side, equal sizes
    and lambda dominating mu.  The last check of every
    :class:`KostkaPair`, whichever way it is built."""
    if not (max(len(lam), len(mu)) <= rank and sum(lam) == sum(mu) and _dominated(lam, mu)):
        raise InvalidPair(f"({lam}, {mu}) is not in the Kostka cone at rank {rank}")


@dataclass(frozen=True)
class KostkaPair:
    """A lattice point (lambda, mu) of the Kostka cone at a fixed rank.

    ``rank`` defaults to the smallest admissible value, max(len(lambda),
    len(mu)).  Construction fails with :class:`InvalidPair` unless the
    pair lies in the cone, so a KostkaPair is a certified point.
    """

    lam: Partition
    mu: Partition
    rank: int | None = None

    def __post_init__(self) -> None:
        lam = as_partition(self.lam)
        mu = as_partition(self.mu)
        rank = self.rank
        if rank is None:
            rank = max(len(lam), len(mu))
        elif type(rank) is not int and _non_integer(rank):
            raise InvalidPair(f"non-integer rank {rank!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rank", rank)
        _cone_check(lam, mu, rank)

    @property
    def n(self) -> int:
        """Number of boxes on each side."""
        return size(self.lam)

    @property
    def width(self) -> int:
        """lambda_1, the number of columns of the canonical matrix."""
        return self.lam[0] if self.lam else 0

    def padded(self) -> tuple[Partition, Partition]:
        return pad(self.lam, self.rank), pad(self.mu, self.rank)

    def key(self) -> tuple[Partition, Partition]:
        return (self.lam, self.mu)

    def __str__(self) -> str:
        # the sides are validated partitions already
        return f"({_joined(self.lam)} | {_joined(self.mu)}; r={self.rank})"


def _certified(lam: Sequence[int], mu: Sequence[int], rank: int) -> KostkaPair:
    """The :class:`KostkaPair` (lambda, mu) at ``rank``, for parts that
    are ints the library computed and an int rank.

    Every check of the constructor runs but its type census: each side
    weakly decreasing with its last part >= 0 (trailing zeros are
    trimmed) and its first at most ``config.INT_CAP``, then
    :func:`_cone_check`.  Each field is set once.  A side that fails is
    handed to the constructor, which refuses it with its own exception
    and message, and :func:`_cone_check` is the constructor's own."""
    pl, pm = _trimmed(tuple(lam)), _trimmed(tuple(mu))
    if pl is None or pm is None:
        return KostkaPair(lam, mu, rank)
    _cone_check(pl, pm, rank)
    pair = object.__new__(KostkaPair)
    fields = pair.__dict__
    fields["lam"], fields["mu"], fields["rank"] = pl, pm, rank
    return pair


def kostka_positive(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """K(lambda, mu) > 0, decided by dominance alone (no enumeration)."""
    return dominates(lam, mu)


def kostka_count(lam: Sequence[int], mu: Sequence[int]) -> int:
    """The Kostka number K(lambda, mu): semistandard tableaux of shape
    lambda and content mu.

    K(lambda, mu) does not depend on the order of mu's parts (the
    Bender-Knuth involutions permute contents), so the letters are
    taken with mu in ascending order, and the parts > 1 come off first,
    largest first.  A tableau is a chain of shapes, one horizontal strip
    per letter, and the loop carries every shape left so far with its
    number of ways: peeling m boxes from a shape leaves the shapes
    listed by :func:`_strips`, and each must fit in the rows of the
    letters still to come.  Each shape nu left when only parts 1 remain
    is filled by standard tableaux, f^nu of them by the hook length
    formula (:func:`_standard_count`), so the count is exact integer
    arithmetic throughout.  Both tables depend on a shape alone and are
    kept per process in bounded LRU caches, since the shapes recur from
    pair to pair.  Mismatched totals give 0.  Raises
    :class:`SizeCapExceeded` when |lambda| > ``config.BOX_CAP``.
    """
    pl, pm = as_partition(lam), as_partition(mu)
    boxes = size(pl)
    if boxes > config.BOX_CAP:
        raise SizeCapExceeded(f"|lambda| = {boxes} exceeds cap {config.BOX_CAP}")
    if boxes != size(pm):
        return 0
    ways = {pl: 1}
    for i, m in enumerate(pm):
        if m == 1:
            break
        rows = len(pm) - 1 - i
        peeled: dict[Partition, int] = {}
        for shape, count in ways.items():
            for prev in _strips(shape, m):
                if len(prev) <= rows:
                    peeled[prev] = peeled.get(prev, 0) + count
        ways = peeled
    return sum(count * _standard_count(shape) for shape, count in ways.items())


@functools.lru_cache(maxsize=2048)
def _strips(shape: Partition, m: int) -> tuple[Partition, ...]:
    """The shapes prev left by peeling an m-box horizontal strip from a
    nonempty shape that is already a partition: shape_{i+1} <= prev_i <=
    shape_i, |prev| = |shape| - m, so the last part is fixed by the
    others, in ``itertools.product`` order."""
    left = sum(shape) - m
    last = shape[-1]
    heads = map(range, shape[1:], [part + 1 for part in shape[:-1]])
    found = []
    for head in product(*heads):
        tail = left - sum(head)
        if 0 <= tail <= last:
            # every head part is >= last >= 1, so only the tail can be 0
            found.append(head + (tail,) if tail else head)
    return tuple(found)


@functools.lru_cache(maxsize=1024)
def _standard_count(shape: Partition) -> int:
    """f^shape, the standard tableaux of a shape that is already a
    partition, by the hook length formula: |shape|! over the product of
    the hook lengths, a quotient that is always exact."""
    cols = _conjugate(shape)
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= part - j + cols[j] - i - 1
    return math.factorial(sum(shape)) // hooks


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; "0" and "" denote the empty one."""
    body = text.strip()
    if body in ("", "0", "()"):
        return ()
    try:
        parts = [int(tok) for tok in body.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidPartition(f"cannot parse partition from {text!r}") from exc
    return as_partition(parts)


def format_partition(p: Sequence[int]) -> str:
    return _joined(as_partition(p))


def _joined(parts: Partition) -> str:
    return ",".join(map(str, parts)) or "0"
