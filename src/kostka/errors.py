"""Exception hierarchy for the kostka package.

Everything raised deliberately by this package derives from
:class:`KostkaError`, so callers can catch one type.  Input problems
(bad partitions, malformed instances) and resource guards (size caps)
derive from :class:`RefusedInput`, which the CLI maps to exit 2; any
other :class:`KostkaError` is a failed internal check, exit 3.
"""

from __future__ import annotations


class KostkaError(Exception):
    """Base class for all errors raised by this package."""


class RefusedInput(KostkaError):
    """The input is malformed, or beyond a cap: refused before or
    instead of an answer, not a failed check."""


class InvalidPartition(RefusedInput):
    """A sequence is not a weakly decreasing tuple of nonnegative integers."""


class InvalidPair(RefusedInput):
    """A (lambda, mu, rank) triple is not a point of the Kostka cone."""


class InvalidSequence(RefusedInput):
    """Entries violate the generalized Catalan conditions."""


class InvalidInstance(RefusedInput):
    """A subset-sum instance violates its invariants."""


class InvalidTriple(RefusedInput):
    """A Littlewood-Richardson triple violates its invariants."""


class ShapeError(RefusedInput):
    """The inner shape of a skew diagram is not contained in the outer one."""


class SizeCapExceeded(RefusedInput):
    """An enumeration was refused because the box count exceeds the cap."""


class WidthCapExceeded(RefusedInput):
    """A column-subset sweep or a printed fixing chain was refused: too
    many columns."""


class RankCapExceeded(RefusedInput):
    """A Hilbert basis, a ray list or an LR family member (rank 3k - 1)
    was refused: rank above the supported cap."""


class LengthCapExceeded(RefusedInput):
    """A sublist search of a sequence was refused: its state bound, which
    grows with the length and the prefix sums, exceeds the cap."""


class MalformedStarMatrix(KostkaError):
    """A difference matrix violates the column/row structure the graph needs."""


class NotAWitness(RefusedInput):
    """A proposed column subset does not certify reducibility."""


class InconsistentExtremalityTests(KostkaError):
    """The classification test and the rank test disagree about a ray."""


class AssertionFailure(KostkaError):
    """A checked mathematical assertion failed on concrete data."""
