"""Subset sum reduced to pair irreducibility.

An instance (a_1, ..., a_d; b) with positive values, b <= A = sum(a),
maps to the pair

    lambda = conjugate(A+1, a_1, ..., a_d),   mu = conjugate(2A-b+1, b)

at rank 2A - b + 1.  The pair is always in the cone, and it decomposes
exactly when some subset of the values sums to b: a witnessing subset S
yields the summand (conjugate of {a_i : i in S}, (1^b)), with the
complement absorbing the tall first column.  The ambient dimension is
linear in A, so the map is a polynomial reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, ge

from . import config
from .errors import AssertionFailure, InvalidInstance
from .partitions import KostkaPair, Partition, _certified, _conjugate, _non_integer, size
from .cone import _split_cap, decompose


@dataclass(frozen=True)
class SubsetSumInstance:
    """Positive values and a positive target no larger than their sum
    (larger targets are trivially 'no' and rejected up front).  The sum
    of the values is taken once, as ``total``."""

    values: tuple[int, ...]
    target: int
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise InvalidInstance("need at least one value")
        if any(map(_non_integer, values)):
            raise InvalidInstance(f"values must be integers: {values}")
        if _non_integer(self.target):
            raise InvalidInstance(f"target must be an integer: {self.target!r}")
        if any(v <= 0 for v in values):
            raise InvalidInstance(f"values must be positive: {values}")
        if self.target <= 0:
            raise InvalidInstance(f"target must be positive: {self.target}")
        total = sum(values)
        object.__setattr__(self, "total", total)
        if self.target > total:
            raise InvalidInstance(f"target {self.target} exceeds the total {total}")
        # the reduction pair's box count, 2A + 1, must fit int64
        if 2 * total + 1 > config.INT_CAP:
            raise InvalidInstance(f"total {total} exceeds 64-bit range")

    def sorted_desc(self) -> "SubsetSumInstance":
        """The instance with its values in decreasing order: itself when
        they already are.  A permutation of the values keeps every
        property the constructor checks, and the total, so the sorted
        copy does not run ``__post_init__`` again: its fields are set
        once, the total taken from this instance."""
        values = self.values
        if all(map(ge, values, values[1:])):
            return self
        copy = object.__new__(SubsetSumInstance)
        fields = copy.__dict__
        fields["values"] = tuple(sorted(values, reverse=True))
        fields["target"], fields["total"] = self.target, self.total
        return copy


def subset_sum_oracle(inst: SubsetSumInstance) -> tuple[int, ...] | None:
    """First (in sorted-index-tuple order) subset of positions summing to
    the target, or None.  One backward table of bitsets: bit s of
    ``reach[i]`` is set when some subset of the values from position i
    on sums to s.  Each position is then taken when the remainder it
    leaves is still reachable from the later values, so the witness is
    the lexicographically smallest, and none is taken when the target
    is out of reach.  Refuses, as
    :func:`decompose` does, an instance whose reduction pair of 2A + 1
    boxes is past ``config.SPLIT_CAP``: the two searches it compares
    admit the same instances."""
    _split_cap(2 * inst.total + 1)
    values, remaining = inst.values, inst.target
    reach = [1] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        reach[i] = reach[i + 1] | reach[i + 1] << values[i]
    picked: list[int] = []
    for i, v in enumerate(values):
        if v <= remaining and reach[i + 1] >> (remaining - v) & 1:
            picked.append(i + 1)
            remaining -= v
    return None if remaining else tuple(picked)


def reduce_to_kostka(inst: SubsetSumInstance) -> KostkaPair:
    """The reduction pair; values are sorted decreasingly first, and the
    resulting pair always lies in the cone.  Its parts are computed
    here, so it is built by :func:`~kostka.partitions._certified`,
    which runs every cone check but the type census."""
    canonical = inst.sorted_desc()
    total, target = canonical.total, canonical.target
    rank = 2 * total - target + 1
    lam = _conjugate((total + 1,) + canonical.values)
    # the conjugate of (rank, target)
    mu = (2,) * target + (1,) * (rank - target)
    return _certified(lam, mu, rank)


def proof_decomposition(
    inst: SubsetSumInstance, subset: tuple[int, ...], whole: KostkaPair
) -> tuple[KostkaPair, KostkaPair]:
    """The explicit decomposition induced by a yes-witness ``subset``
    (1-based positions into the decreasingly sorted values): the subset
    columns with mu-part (1^target), and everything else with mu-part
    (1^rank).  Both halves are built by
    :func:`~kostka.partitions._certified`, so each is checked to be a
    cone point at the rank, and they are checked to add back to
    ``whole``, the reduction pair of ``inst``, on each side.
    :func:`reduction_equivalence_check` runs the same step
    (:func:`_proof_halves`) with the halves its search has just
    certified, so that each distinct pair is certified once."""
    return _proof_halves(inst.sorted_desc(), subset, whole, ())


def _proof_halves(
    canonical: SubsetSumInstance,
    subset: tuple[int, ...],
    whole: KostkaPair,
    certified: tuple[KostkaPair, ...],
) -> tuple[KostkaPair, KostkaPair]:
    """:func:`proof_decomposition` of the sorted instance ``canonical``.
    A half with the lambda, mu and rank of a pair in ``certified``,
    pairs the caller has built by :func:`~kostka.partitions._certified`,
    is that pair; any other half is built by ``_certified``.  The
    add-back check runs on the halves returned either way."""
    total, target = canonical.total, canonical.target
    rank = 2 * total - target + 1
    picked = set(subset)
    # both lists keep the decreasing order of the values
    chosen: list[int] = []
    rest = [total + 1]
    for i, v in enumerate(canonical.values, 1):
        (chosen if i in picked else rest).append(v)
    if sum(chosen) != target:
        raise AssertionFailure(f"subset {subset} sums to {sum(chosen)}, not {target}")
    known = {(half.lam, half.mu): half for half in certified if half.rank == rank}
    halves = []
    for lam, mu in ((_conjugate(chosen), (1,) * target), (_conjugate(rest), (1,) * rank)):
        half = known.get((lam, mu))
        halves.append(_certified(lam, mu, rank) if half is None else half)
    selected, complement = halves
    for side in ("lam", "mu"):
        if _added(getattr(selected, side), getattr(complement, side)) != getattr(whole, side):
            raise AssertionFailure(f"proof decomposition does not add back on {side}")
    return selected, complement


def _added(p: Partition, q: Partition) -> Partition:
    """The sum of two partitions, coordinate by coordinate: a partition,
    since the longer one's last part is positive, so it equals a third
    partition iff the two agree padded to any common length."""
    if len(p) < len(q):
        p, q = q, p
    return tuple(map(add, p, q)) + p[len(q) :]


@dataclass(frozen=True)
class EquivalenceReport:
    instance: SubsetSumInstance
    pair: KostkaPair
    subset: tuple[int, ...] | None
    decomposition: tuple[KostkaPair, KostkaPair] | None
    coordinates: int


def reduction_equivalence_check(inst: SubsetSumInstance) -> EquivalenceReport:
    """Run both sides and insist they agree: the bitset subset-sum
    oracle on one hand, pair irreducibility of the reduction on the
    other.  Disagreement raises :class:`AssertionFailure`.  Both share
    ``config.SPLIT_CAP``, tested on the 2A + 1 boxes of the reduction
    pair before the pair is built, so an oversized instance is refused
    before anything of its size is allocated.

    Each distinct pair is certified once: a yes-instance's proof halves
    are built by :func:`_proof_halves`, handed the halves ``decompose``
    has just certified, so a proof half with the same lambda, mu and
    rank as one of them is reported as that pair, and only the others
    go through :func:`~kostka.partitions._certified`.  The add-back
    check runs on the reported halves either way."""
    _split_cap(2 * inst.total + 1)
    canonical = inst.sorted_desc()
    pair = reduce_to_kostka(canonical)
    found = decompose(pair)
    witness = subset_sum_oracle(canonical)
    if (witness is None) != (found is None):
        raise AssertionFailure(
            f"oracle says {witness}, decomposition search says {found} for {inst}"
        )
    decomposition = _proof_halves(canonical, witness, pair, found) if witness else None
    if size(pair.lam) != 2 * canonical.total + 1:
        raise AssertionFailure("reduction pair has the wrong box count")
    return EquivalenceReport(
        instance=canonical,
        pair=pair,
        subset=witness,
        decomposition=decomposition,
        coordinates=2 * pair.rank,
    )
