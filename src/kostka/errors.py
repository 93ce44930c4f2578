"""Exception hierarchy for the kostka package.

Everything raised deliberately by this package derives from
:class:`KostkaError`, so callers can catch one type.  Input problems
(bad partitions, malformed instances) and resource guards (size caps)
get distinct subclasses because the CLI maps them to different exit
codes.
"""

from __future__ import annotations


class KostkaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPartition(KostkaError):
    """A sequence is not a weakly decreasing tuple of nonnegative integers."""


class InvalidPair(KostkaError):
    """A (lambda, mu, rank) triple is not a point of the Kostka cone."""


class InvalidSequence(KostkaError):
    """Entries violate the generalized Catalan conditions."""


class InvalidInstance(KostkaError):
    """A subset-sum instance violates its invariants."""


class InvalidTriple(KostkaError):
    """A Littlewood-Richardson triple violates its invariants."""


class ShapeError(KostkaError):
    """The inner shape of a skew diagram is not contained in the outer one."""


class SizeCapExceeded(KostkaError):
    """An enumeration was refused because the box count exceeds the cap."""


class WidthCapExceeded(KostkaError):
    """A column-subset sweep or a printed fixing chain was refused: too
    many columns."""


class RankCapExceeded(KostkaError):
    """A Hilbert basis, a ray list or an LR family member (rank 3k - 1)
    was refused: rank above the supported cap."""


class LengthCapExceeded(KostkaError):
    """A sublist search of a sequence was refused: its state bound, which
    grows with the length and the prefix sums, exceeds the cap."""


class MalformedStarMatrix(KostkaError):
    """A difference matrix violates the column/row structure the graph needs."""


class NotAWitness(KostkaError):
    """A proposed column subset does not certify reducibility."""


class InconsistentExtremalityTests(KostkaError):
    """The classification test and the rank test disagree about a ray."""


class AssertionFailure(KostkaError):
    """A checked mathematical assertion failed on concrete data."""
