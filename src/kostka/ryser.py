"""Canonical 0/1 matrices, their difference matrices, and column splits.

For a pair (lambda, mu) in the Kostka cone, the Gale-Ryser class
GR(mu, lambda') of 0/1 matrices with row sums mu and column sums
lambda' is nonempty, and Ryser's column-fixing procedure selects one
canonical representative A(lambda, mu).  The procedure starts from the
flush-left matrix with row sums mu and, for s = lambda_1 down to 1,
moves the rightmost 1 of selected rows into column s; rows are selected
by largest current sum, ties broken southmost.  The row sums then stay
weakly decreasing down the rows, so the procedure keeps only the
conjugate of the current prefix shape, and a column that takes the k
largest sums takes at most two runs of rows: the top rows, whose sums
exceed the k-th largest, and the southmost rows of the run equal to
it.  A column costs a bisection and at most two list edits instead of
a sort of all rows.  The procedure runs once per pair and records each
column as its runs of 1s and 0s: :func:`ryser_canonical` builds the
matrix from that record and keeps the last few matrices in a small LRU
memo keyed by the pair, so the graph detector and the column sweep of
one pair share one matrix.  One table of the matrix's prefix row sums,
whose row i holds the row sums of its first
lambda_1 - i columns, gives both the fixing chain and the shapes: stage
i of :func:`fixing_chain` is the matrix's last i columns beside the
flush-left rows of row i, since column s holds exactly the rows selected
at column s, and row i is shape i of :func:`shape_sequence`.

Differencing consecutive rows of A gives the star matrix A*, whose
columns have one of three sign patterns; those patterns drive both the
graph of :mod:`kostka.kgr` and the shape-peeling interpretation
implemented by :func:`shape_sequence`.  A canonical matrix builds its
star once, on first use of ``CanonicalMatrix.star``, and every reader
of that matrix (the graph, the column sweep, the shape peeling) shares
it.

Reducibility of the pair along a column subset S (both the S-selected
and complementary row-sum vectors stay weakly decreasing) is decided by
:func:`matrix_reducible`, refused up front past ``config.SWEEP_CAP``
swept cells, and :func:`split_pair` materializes the two summand pairs.
Its test runs on the shared star matrix: the S-selected sums of each
row's difference with the next, v*, must satisfy 0 <= v* <= mu*.  The
decision is an exhaustive sweep, :func:`sweep_proper_subsets`, over the
proper nonempty column subsets in order of their sorted index tuples,
which stops at the first accepted subset.  That order is a depth-first
walk: (1), then (1) joined to each subset of the later columns in their
order, then those subsets alone.  The walk runs in plain Python on the
star's nonzeros, at most three per column: v* of the subset at hand is
one integer with a lane of bits per row, a column adds its packed
entries, and both bounds are tested in every lane at once by
subtractions that borrow across no lane, as :mod:`kostka.cone` tests
dominance.  A subset whose v* leaves a bound in some row even with the
+1s (or the -1s) of every later column added cannot be extended to an
accepted one, so the walk skips it and its extensions.

The canonical and star matrices are checked for:

- canonical: 0/1 entries, row sums mu, column sums lambda', and at most
  one run of 1s starting below the top row of each column, anchored at
  the top in the leftmost column;
- star: row sums mu*, the consecutive differences of the pair's mu, each
  column one of the three signatures, and the leftmost a single +1.

Two paths build and check them, split by one gate: 3 * lambda_1 and the
rank both at most :data:`LIST_VERTICES`.  Under it, where most queries
fall and each numpy call would cost more than its work, both matrices
are read off the fixing record in plain Python (:func:`_record_canonical`
and :func:`star_matrix`): each column's cuts, 1s in rows [0, p) and
[lo, q), and the star's vertices, at most three per column, come from
one pass, every check above runs there, and a read-only int8 array is
written only when a reader asks for ``entries``.  Above the gate, and
for any matrix passed to ``CanonicalMatrix(pair, entries)`` or
``StarMatrix(pair, entries)``, each matrix is one read-only int8 array
built once and checked in a few fused whole-array numpy passes (0/1 by
one unsigned compare, the signatures by int8 partial sums from the
bottom and counts of nonzeros), a failed check located column by column
only on the way to its error message.  Both paths refuse with the same
exceptions and messages.  Every fixing-chain stage is one read-only
int8 array.  A canonical matrix of more than ``config.CELL_CAP`` cells
is refused before the memo is consulted or the fixing procedure starts.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import ClassVar, Sequence

import numpy as np

from . import config
from .errors import MalformedStarMatrix, NotAWitness, WidthCapExceeded
from .partitions import (
    _INT_ONLY,
    KostkaPair,
    Partition,
    _certified,
    _conjugate,
    _non_integer,
    as_partition,
    conjugate,
    pad,
)


# Pairs with 3 * lambda_1 and the rank both at most this many have their
# canonical and star matrices read off the fixing record; a star has at
# most three nonzeros per column, so the graphs of :mod:`kostka.kgr` up
# to this many vertices are held on lists.  Numpy's per-call cost
# dominates below about this size, its per-cell cost above.
LIST_VERTICES = 64


def render_matrix(entries: np.ndarray | Sequence[Sequence[int]]) -> str:
    """Whitespace-separated grid, cells right-justified to equal width;
    a row of no cells is an empty line."""
    rows = np.asarray(entries).tolist()
    cell = max((len(str(v)) for row in rows for v in row), default=0)
    return "\n".join(" ".join(str(v).rjust(cell) for v in row) for row in rows)


def _frozen_int8(entries, shape: tuple[int, int], error: type[Exception]) -> np.ndarray:
    """A read-only int8 copy of ``entries`` with the given shape; raises
    ``error`` on a shape mismatch or an entry that int8 cannot hold."""
    raw = np.asarray(entries)
    if raw.size == 0 and 0 in shape:
        raw = raw.reshape(shape)
    if raw.shape != shape:
        raise error(f"matrix shape {raw.shape} != {shape}")
    if raw.dtype == np.int8:
        arr = raw.copy()
    else:
        arr = raw.astype(np.int8)
        if not np.array_equal(arr, raw):
            raise error("entries do not fit in int8")
    arr.flags.writeable = False
    return arr


def _cell_cap(cells: int, what: str) -> None:
    if cells > config.CELL_CAP:
        raise WidthCapExceeded(f"{what} of {cells} cells exceeds cap {config.CELL_CAP}")


@dataclass(frozen=True, eq=False)
class CanonicalMatrix:
    """Ryser's canonical matrix for a cone pair, held as one read-only
    int8 array (written on first read for a small pair, see
    :class:`_RecordCanonical`).  The fixing chain that produced it is
    rebuilt on demand by :func:`fixing_chain`."""

    pair: KostkaPair
    entries: np.ndarray

    def __post_init__(self) -> None:
        lam, mu = self.pair.lam, self.pair.mu
        r, w = self.pair.rank, self.pair.width
        arr = _frozen_int8(self.entries, (r, w), AssertionError)
        object.__setattr__(self, "entries", arr)
        if np.count_nonzero(arr.view(np.uint8) > 1):  # a -1 reads as 255
            raise AssertionError("entries must be 0/1")
        if np.add.reduce(arr, axis=1).tolist() != list(pad(mu, r)):
            raise AssertionError("row sums do not match mu")
        if np.add.reduce(arr, axis=0).tolist() != list(pad(_conjugate(lam), w)):
            raise AssertionError("column sums do not match conjugate(lambda)")
        # a column holds at most two runs of 1s, and a second one only
        # under a run at the top: at most one run starts below the top
        # row, at a 1 under a 0
        below = np.add.reduce(arr[1:] > arr[:-1], axis=0).tolist()
        if w and max(below) > 1:
            j = next(j for j, starts in enumerate(below) if starts > 1)
            runs = below[j] + int(arr[0, j])
            raise AssertionError(f"column {j + 1} has {runs} runs of 1s")
        if w and below[0] and not arr[0, 0]:
            raise AssertionError("leftmost column not anchored at the top")

    @functools.cached_property
    def star(self) -> StarMatrix:
        """The star matrix, built and validated by :func:`star_matrix` on
        first use and shared by every later reader of this matrix."""
        return star_matrix(self)

    def _row_sums(self, columns: list[int]) -> list[int]:
        """The row sums of the given columns (1-based)."""
        picked = self.entries.take([j - 1 for j in columns], axis=1)
        return np.add.reduce(picked, axis=1).tolist()


def _fixing_stages(pair: KostkaPair) -> tuple[list[int], Partition]:
    """Run the column-fixing procedure and record its decisions.

    The row sums of the current prefix shape mu^(i) stay weakly
    decreasing down the rows.  Column s takes the rows of the
    k = lambda'_s largest sums, ties southmost: every row whose sum
    exceeds the k-th largest sum t, and the southmost rows of the run
    of sum t.  Each of them drops by one and stays level with or above
    the rows below it, so rows are never reordered, and the procedure
    keeps only the conjugate nu = (mu^(i))': the rows of sum at least j
    are the top nu_j rows.  At column s:

    - t is the number of columns of nu of length at least k, found by
      one bisection;
    - the rows of sum above t are [0, p), p = nu_(t+1) (0 past the
      end), and the run of sum t ends at q = nu_t, so column s takes
      rows [0, p) and [lo, q), lo = q - k + p (0-based, end excluded):
      at most two runs of 1s;
    - nu then loses column t + 1 when p > 0, and column t shrinks to lo,
      or goes when lo = 0: the steps that :func:`shape_sequence`
      classifies.

    So a column costs a bisection and at most two list edits, whatever
    the rank.  When lo = 0 the column takes exactly the k rows of the
    largest sum, and the same step repeats while lambda'_s stays k and
    nu ends in a column of length k; those columns are taken at once.

    Returns the record, for s = lambda_1 down to 1 in turn, of column s
    read top to bottom as runs of 1s, 0s, 1s and 0s: p, lo - p, q - lo
    and r - q, and lambda', which the record's reader checks the column
    sums against.  A selected row's rightmost 1 moves into column s,
    which no later step touches, so this is also column s of the
    canonical matrix."""
    r, lam = pair.rank, pair.lam
    lam_conj = _conjugate(lam)
    # nu negated, so that it ascends for bisection, and closed by a
    # column of length 0 that no k >= 1 reaches
    neg = [-n for n in _conjugate(pair.mu)]
    neg.append(0)
    runs: list[int] = []
    s = pair.width
    while s:
        k = lam_conj[s - 1]
        t = bisect_right(neg, -k)
        p = -neg[t]
        # the k-th row in order of decreasing sum, ties southmost, is
        # row lo + 1, the northmost one selected from its run; with t = 0
        # that run, of sum 0, ends at q = r
        if not t:
            raise AssertionError(f"row {r - k + p + 1} has no 1 left of column {s}")
        q = -neg[t - 1]
        lo = q - k + p
        # column s leaves the prefix: no unselected row may still reach
        # it.  The next row in that order is row lo, left in the run of
        # sum t, or else the southmost of the next lower run
        if t >= s and (k < q or k < r and bisect_left(neg, -q) >= s):
            row = lo if k < q else -neg[bisect_left(neg, -q) - 1]
            raise AssertionError(f"row {row} keeps a 1 in column {s}")
        # lo = 0 leaves p = 0, so column t is the last of nu; with t = 1
        # neg[t - 2] is the closing 0
        if lo or neg[t - 2] != -k:
            if p:
                del neg[t]
            if lo:
                neg[t - 1] = -lo
            else:
                del neg[t - 1]
            runs += (p, lo - p, k - p, r - q)
            s -= 1
            continue
        # column s takes exactly the k rows of the largest sum t, and nu
        # ends in two or more columns of length k.  The step repeats,
        # each time deleting the last column of nu, while lambda'_s
        # stays k (s > lambda_(k+1)), nu ends in a column of length k,
        # and the next row, of sum ``longer``, stays short of column s
        longer = bisect_left(neg, -k)
        after = lam[k] if k < len(lam) else 0
        m = min(t - longer, s - longer, s - after)
        del neg[t - m : t]
        runs += (0, 0, k, r - k) * m
        s -= m
    return runs, lam_conj


def ryser_canonical(pair: KostkaPair) -> CanonicalMatrix:
    """The canonical matrix of the pair, built once per pair by
    :func:`_canonical` and shared by every later call on an equal pair.
    Raises :class:`WidthCapExceeded` before building or looking up
    anything when the matrix would hold more than ``config.CELL_CAP``
    cells."""
    _cell_cap(pair.rank * pair.width, "canonical matrix")
    return _canonical(pair)


# A pair's graph detector and its column sweep ask for the same matrix
# back to back, so one entry serves that traffic; 8 entries, each a matrix
# and its star, hold at most 16 * CELL_CAP int8 cells.  Sharing is safe:
# both are frozen and their entries read-only.
@functools.lru_cache(maxsize=8)
def _canonical(pair: KostkaPair) -> CanonicalMatrix:
    """Run the column-fixing procedure and return the canonical matrix:
    for a small pair read off the record by :func:`_record_canonical`,
    for any other written from the record in one step and checked by
    the constructor."""
    r, w = pair.rank, pair.width
    runs, heights = _fixing_stages(pair)
    if 3 * w <= LIST_VERTICES and r <= LIST_VERTICES:
        return _record_canonical(pair, runs, heights)
    return CanonicalMatrix(pair=pair, entries=_written(runs, r, w))


def _written(runs: list[int], r: int, w: int) -> np.ndarray:
    """The (r, w) 0/1 matrix of a fixing record, which lists the columns
    right to left, each top to bottom."""
    flat = np.frombuffer(b"\x01\x00" * (2 * w), dtype=np.int8).repeat(runs)
    return flat.reshape(w, r)[::-1].T


def _cut_sums(cuts: list[tuple[int, int, int]], r: int) -> list[int]:
    """The row sums of columns with 1s in rows [0, p) and [lo, q), given
    as their cuts (p, lo, q), from one difference table."""
    starts = [0] * (r + 1)
    starts[0] = len(cuts)
    for p, lo, q in cuts:
        starts[p] -= 1
        starts[lo] += 1
        starts[q] -= 1
    starts.pop()
    return list(accumulate(starts))


def _record_canonical(pair: KostkaPair, runs: list[int], heights: Partition) -> CanonicalMatrix:
    """The canonical matrix of a small pair, read off the fixing record
    and checked there as the constructor checks its entries, with the
    same exceptions and messages; ``heights`` is lambda', the column
    sums the matrix must have.

    Column j's runs (p, lo - p, q - lo, r - q) of 1s, 0s, 1s and 0s give
    its cuts: 1s in rows [0, p) and [lo, q).  Runs >= 0 that tile r rows
    make a 0/1 column of at most two runs of 1s, the second under one at
    the top, so the 0/1 and run checks hold by construction, and the row
    sums come from one difference table.  The same pass records the
    star's vertices: the column's differences with the row below are +1
    at row p - 1, -1 at lo - 1 and +1 at q - 1, less those an empty run
    cancels (an empty run of 0s merges the two runs of 1s, an empty
    second run of 1s leaves the first alone).  A column whose runs do
    not tile r rows has no matrix, and is refused before anything else."""
    r, w = pair.rank, pair.width
    cuts: list[tuple[int, int, int]] = []
    # a vertex's key is 2 * (row * w + column), 0-based, plus 1 for a +1,
    # so keys sort into row-major order
    keys: list[int] = []
    tall = False  # a column sum that is not lambda'
    rest = iter(runs[::-1])  # left to right, each column bottom to top
    w2 = 2 * w
    for j, (d, c, b, a) in enumerate(zip(rest, rest, rest, rest)):
        if (a | b | c | d) < 0 or a + b + c + d != r:
            raise AssertionError(f"column {j + 1} runs {(a, b, c, d)} do not tile {r} rows")
        lo = a + b
        q = lo + c
        cuts.append((a, lo, q))
        tall = tall or a + c != heights[j]
        at = 2 * j - w2  # the key of a -1 in row x - 1 is x * w2 + at
        if c:
            if b:
                if a:
                    keys.append(a * w2 + at + 1)
                keys.append(lo * w2 + at)
            keys.append(q * w2 + at + 1)
        elif a:
            keys.append(a * w2 + at + 1)
    if _cut_sums(cuts, r) != list(pad(pair.mu, r)):
        raise AssertionError("row sums do not match mu")
    if tall:
        raise AssertionError("column sums do not match conjugate(lambda)")
    if w and not cuts[0][0] and 0 < cuts[0][1] < cuts[0][2]:
        raise AssertionError("leftmost column not anchored at the top")
    return _RecordCanonical(pair, runs, cuts, keys)


class _RecordCanonical(CanonicalMatrix):
    """A canonical matrix checked on its fixing record.  It keeps the
    record, the columns' cuts and its star's vertices as sort keys, and
    ``entries`` is written on first read."""

    def __init__(
        self,
        pair: KostkaPair,
        runs: list[int],
        cuts: list[tuple[int, int, int]],
        keys: list[int],
    ) -> None:
        for name, value in (("pair", pair), ("_runs", runs), ("_cuts", cuts), ("_keys", keys)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        arr = _written(self._runs, self.pair.rank, self.pair.width).copy()
        arr.flags.writeable = False
        return arr

    def _row_sums(self, columns: list[int]) -> list[int]:
        cuts = self._cuts
        return _cut_sums([cuts[j - 1] for j in columns], self.pair.rank)


def _prefix_sums(canonical: CanonicalMatrix) -> np.ndarray:
    """The (w + 1, r) table whose row i holds the row sums of the first
    w - i columns of the canonical matrix: row 0 is mu, row w is 0."""
    columns = np.pad(canonical.entries, ((0, 0), (1, 0)))  # a 0 column first
    return np.cumsum(columns, axis=1, dtype=np.int64)[:, ::-1].T


def fixing_chain(canonical: CanonicalMatrix) -> tuple[np.ndarray, ...]:
    """The fixing chain A^(0), ..., A^(lambda_1) that ends at the
    canonical matrix, one read-only array per stage; stage i is the
    matrix's last i columns beside the flush-left rows of row i of
    :func:`_prefix_sums`.
    Raises :class:`WidthCapExceeded` before building anything when the
    chain would hold more than ``config.CELL_CAP`` cells."""
    r, w = canonical.pair.rank, canonical.pair.width
    _cell_cap((w + 1) * r * w, "fixing chain")
    cols = np.arange(w)
    # a prefix row sum of stage i is at most w - i, so the flush-left
    # rows stop short of the fixed columns
    flush = cols < _prefix_sums(canonical)[:, :, None]
    fixed = cols >= w - np.arange(w + 1)[:, None]
    chain = (flush | fixed[:, None] & canonical.entries.astype(bool)).view(np.int8)
    chain.flags.writeable = False
    return tuple(chain)


@dataclass(frozen=True, eq=False)
class StarMatrix:
    """Row-difference matrix A*_{i,j} = A_{i,j} - A_{i+1,j} of a
    canonical matrix (phantom zero row below), with row sums
    mu*_i = mu_i - mu_{i+1} (``mu_star``, computed once), held as one
    read-only int8 array (written on first read for a small pair, see
    :class:`_RecordStar`).

    Valid columns read, top to bottom, (+1), (-1, +1), or (+1, -1, +1);
    the leftmost column is a single +1.  The bottom row holds no -1, as
    a column's first partial sum from the bottom would leave {0, 1}.
    """

    pair: KostkaPair
    entries: np.ndarray

    @functools.cached_property
    def mu_star(self) -> tuple[int, ...]:
        return _differences(self.pair.mu, self.pair.rank)

    def __post_init__(self) -> None:
        r, w = self.pair.rank, self.pair.width
        arr = _frozen_int8(self.entries, (r, w), MalformedStarMatrix)
        object.__setattr__(self, "entries", arr)
        if np.add.reduce(arr, axis=1).tolist() != list(self.mu_star):
            raise MalformedStarMatrix("row sums do not match mu*")
        # the three signatures are exactly the columns with 1-3 nonzeros
        # whose partial sums, read from the bottom, stay in {0, 1}; in
        # int8 a partial sum leaves {0, 1} before it could wrap
        nonzeros = np.bincount(arr.nonzero()[1], minlength=w).tolist()
        partial = np.add.accumulate(arr[::-1], axis=0, dtype=np.int8)
        outside = partial.view(np.uint8) > 1  # a -1 reads as 255
        miscounted = w and not 1 <= min(nonzeros) <= max(nonzeros) <= 3
        if miscounted or np.count_nonzero(outside):
            bad = outside.any(axis=0).tolist()
            j = next(j for j, k in enumerate(nonzeros) if bad[j] or not 1 <= k <= 3)
            sig = arr[:, j][arr[:, j] != 0].tolist()
            raise MalformedStarMatrix(f"column {j + 1} pattern {tuple(sig)}")
        if w and nonzeros[0] != 1:
            raise MalformedStarMatrix("leftmost column must be a single +1")


class _RecordStar(StarMatrix):
    """A star matrix read off a fixing record and checked there, held as
    its nonzeros in row-major order: ``rows`` and ``cols`` (1-based) and
    ``signs``, with the ``mu_star`` its row sums were checked against.
    ``entries`` is written on first read, a byte per vertex."""

    def __init__(
        self,
        pair: KostkaPair,
        rows: list[int],
        cols: list[int],
        signs: list[int],
        mu_star: tuple[int, ...],
    ) -> None:
        for name, value in (
            ("pair", pair),
            ("rows", rows),
            ("cols", cols),
            ("signs", signs),
            ("mu_star", mu_star),
        ):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        r, w = self.pair.rank, self.pair.width
        cells = bytearray(r * w)
        for i, j, sign in zip(self.rows, self.cols, self.signs):
            cells[(i - 1) * w + j - 1] = sign & 255  # -1 as int8
        # a buffer of bytes makes the array read-only
        return np.frombuffer(bytes(cells), dtype=np.int8).reshape(r, w)


def _star_vertices(star: StarMatrix) -> tuple[list[int], list[int], list[int]]:
    """The star's nonzeros in row-major order, as lists of their rows and
    columns (1-based) and signs: a star read off its fixing record holds
    them, another one's are read off its entries."""
    if isinstance(star, _RecordStar):
        return star.rows, star.cols, star.signs
    arr = star.entries
    r0, c0 = arr.nonzero()
    return (r0 + 1).tolist(), (c0 + 1).tolist(), arr[r0, c0].tolist()


def _differences(mu: Partition, rank: int) -> tuple[int, ...]:
    """mu*_i = mu_i - mu_{i+1} over ``rank`` coordinates."""
    padded = pad(mu, rank)
    return tuple(map(sub, padded, padded[1:] + (0,)))


def star_matrix(canonical: CanonicalMatrix) -> StarMatrix:
    """The star matrix of a canonical matrix; readers share one through
    ``canonical.star``.  A matrix read off its fixing record gives the
    star read off the same record, checked as the constructor checks
    its entries: row sums mu*, a vertex in every column (the differences
    of a 0/1 column make one of the three signatures unless the column
    is empty) and the leftmost column a single +1."""
    if isinstance(canonical, _RecordCanonical):
        return _record_star(canonical)
    arr = canonical.entries
    star = arr.copy()
    star[:-1] -= arr[1:]
    return StarMatrix(pair=canonical.pair, entries=star)


def _record_star(canonical: _RecordCanonical) -> StarMatrix:
    """:func:`star_matrix` of a matrix read off its fixing record."""
    pair = canonical.pair
    r, w = pair.rank, pair.width
    keys = sorted(canonical._keys)  # row-major order
    w2 = 2 * w
    rows = [k // w2 + 1 for k in keys]
    cols = [(k >> 1) % w + 1 for k in keys]
    signs = [2 * (k & 1) - 1 for k in keys]
    sums = [0] * r
    for i, sign in zip(rows, signs):
        sums[i - 1] += sign
    mu_star = _differences(pair.mu, r)
    if tuple(sums) != mu_star:
        raise MalformedStarMatrix("row sums do not match mu*")
    if len({*cols}) < w:
        j = min({*range(1, w + 1)} - {*cols})
        raise MalformedStarMatrix(f"column {j} pattern ()")
    # column 1 holds one vertex unless it has a run of 0s between two of 1s
    if w and canonical._cuts[0][0] < canonical._cuts[0][1] < canonical._cuts[0][2]:
        raise MalformedStarMatrix("leftmost column must be a single +1")
    return _RecordStar(pair, rows, cols, signs, mu_star)


# --- shape peeling ---------------------------------------------------------


@dataclass(frozen=True)
class DeleteColumn:
    """The rightmost diagram column (this length) disappears."""

    kind: ClassVar[str] = "delete-column"
    length: int

    def delta(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(removed, added) column lengths."""
        return (self.length,), ()


@dataclass(frozen=True)
class ShortenRightmost:
    """The rightmost diagram column shrinks from ``length`` to
    ``new_length``."""

    kind: ClassVar[str] = "shorten-rightmost"
    length: int
    new_length: int

    def delta(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(removed, added) column lengths."""
        return (self.length,), (self.new_length,)


@dataclass(frozen=True)
class ShortenAndDelete:
    """The rightmost column shrinks from ``length`` to ``new_length`` and
    the strictly shorter column to its right (``deleted_length`` <
    ``new_length``) disappears."""

    kind: ClassVar[str] = "shorten-and-delete"
    length: int
    new_length: int
    deleted_length: int

    def delta(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(removed, added) column lengths."""
        return (self.length, self.deleted_length), (self.new_length,)


Step = DeleteColumn | ShortenRightmost | ShortenAndDelete


@dataclass(frozen=True)
class ShapeSequence:
    """The chain mu = mu^(0) > mu^(1) > ... > mu^(lambda_1) = 0, where
    mu^(i) is the row-sum vector of the leftmost lambda_1 - i columns of
    the canonical matrix, together with the per-step classification."""

    pair: KostkaPair
    shapes: tuple[Partition, ...]
    steps: tuple[Step, ...]


def _classify_column(column: np.ndarray) -> Step:
    rows = [(i + 1, int(v)) for i, v in enumerate(column) if v != 0]
    signs = tuple(v for _, v in rows)
    if signs == (1,):
        return DeleteColumn(length=rows[0][0])
    if signs == (-1, 1):
        return ShortenRightmost(length=rows[1][0], new_length=rows[0][0])
    if signs == (1, -1, 1):
        return ShortenAndDelete(
            length=rows[2][0], new_length=rows[1][0], deleted_length=rows[0][0]
        )
    raise MalformedStarMatrix(f"unclassifiable column signature {signs}")


def shape_sequence(canonical: CanonicalMatrix) -> ShapeSequence:
    """Shape chain of a canonical matrix, the rows of
    :func:`_prefix_sums`, and each step's classification, read from its
    star matrix and checked against the two shapes it joins."""
    pair = canonical.pair
    w = pair.width
    sums = _prefix_sums(canonical)
    rising = (sums[:, :-1] < sums[:, 1:]).any(axis=1)
    if rising.any():
        raise AssertionError(f"prefix row sums not weakly decreasing at step {rising.argmax()}")
    shapes = [as_partition(row) for row in sums.tolist()]
    steps: list[Step] = []
    for i in range(1, w + 1):
        step = _classify_column(canonical.star.entries[:, w - i])
        removed, added = map(Counter, step.delta())
        before = Counter(conjugate(shapes[i - 1]))
        after = Counter(conjugate(shapes[i]))
        # Counter subtraction clamps at zero, so check containment first.
        if any(before[k] < c for k, c in removed.items()) or (
            before - removed + added != after
        ):
            raise AssertionError(
                f"step {i} classification {step} does not match the shapes"
            )
        steps.append(step)
    return ShapeSequence(pair=pair, shapes=tuple(shapes), steps=tuple(steps))


# --- column-subset reducibility -------------------------------------------


def sweep_proper_subsets(
    width: int, rows: Sequence[int], cols: Sequence[int], signs: Sequence[int],
    mu_star: Sequence[int],
) -> tuple[int, ...] | None:
    """First (by sorted-index-tuple order) proper nonempty subset S of
    the ``width`` columns, as 1-based positions, whose sum v* satisfies
    0 <= v* <= ``mu_star`` (one entry per row), or None.  The columns
    hold the entries ``signs``, each +1 or -1, at the 1-based ``rows``
    and ``cols``, at most one per cell, and 0 elsewhere.

    The order is a depth-first walk: each subset, then its extensions by
    later columns.  Row i is lane i, b bits wide, of a Python int, with
    b = (width + max mu*).bit_length() + 1, so the counts P_i of +1s and
    N_i of -1s in S, and mu*_i + N_i, lie below each lane's top bit H.
    Then (P | H) - N and ((mu* + N) | H) - P borrow across no lane, and S
    passes iff both keep every H bit; as P | H = P + H, the walk keeps
    only D = P - N.  Before a subset is tested, the same test runs with
    the +1s of every later column added to P and their -1s to N: a row
    that fails even then fails in every extension, so the subset and its
    extensions are skipped.  The full set is never an answer."""
    if width < 2:
        return None
    b = (width + max(mu_star, default=0)).bit_length() + 1
    high = ((1 << len(mu_star) * b) - 1) // ((1 << b) - 1) << b - 1
    bound = high
    for i, m in enumerate(mu_star):
        bound += m << i * b
    plus, minus = [0] * width, [0] * width
    for i, j, sign in zip(rows, cols, signs):
        if sign > 0:
            plus[j - 1] += 1 << (i - 1) * b
        else:
            minus[j - 1] += 1 << (i - 1) * b
    column = list(map(sub, plus, minus))
    # the bounds of a subset whose last column is j, loosened by the
    # columns after j
    low, top = [high] * width, [bound] * width
    for j in range(width - 1, 0, -1):
        low[j - 1] = low[j] + plus[j]
        top[j - 1] = top[j] + minus[j]
    path: list[int] = []  # the subset, 1-based
    before: list[int] = []  # D of each shorter prefix of the path
    j = d = 0  # the next column to try, 0-based, and D of the path
    while True:
        if j == width:  # no column left to add: drop the path's last
            if not path:
                return None
            j, d = path.pop(), before.pop()
            continue
        e = d + column[j]
        if (low[j] + e) & (top[j] - e) & high == high:
            path.append(j + 1)
            if (high + e) & (bound - e) & high == high and len(path) < width:
                return tuple(path)
            before.append(d)
            d = e
        j += 1


def matrix_reducible(canonical: CanonicalMatrix) -> tuple[int, ...] | None:
    """Smallest (sorted-index-tuple order) proper nonempty column subset S
    such that the S row sums and the complementary row sums are both
    weakly decreasing, or None.

    The test runs on the row differences D_ij = A_ij - A_(i+1)j of the
    matrix (phantom zero row below): v*_i, the sum of D_ij over j in S,
    is s_i - s_(i+1) for the S row sums s, so they decrease iff v* >= 0,
    and the complement's iff v* <= mu*; the last row holds both always.
    The sweep reads the star's nonzeros, at most three per column, so a
    star read off its fixing record writes no array.

    Raises :class:`WidthCapExceeded` before sweeping above
    ``config.SWEEP_CAP`` swept cells, (2^width - 2) * rank, since every
    proper subset costs a row sum per row."""
    pair = canonical.pair
    w, r = pair.width, pair.rank
    cells = ((1 << w) - 2) * r
    if cells > config.SWEEP_CAP:
        raise WidthCapExceeded(f"sweep of {cells} cells exceeds cap {config.SWEEP_CAP}")
    star = canonical.star
    return sweep_proper_subsets(w, *_star_vertices(star), star.mu_star)


def split_pair(
    canonical: CanonicalMatrix, columns: Sequence[int]
) -> tuple[KostkaPair, KostkaPair]:
    """Split the canonical matrix's pair along a witnessing column subset
    into (selected, complement) summand pairs at the same rank.

    Raises :class:`NotAWitness` when a column is not an integer, the
    subset is not a proper nonempty subset of the columns or either
    half's row sums fail to be weakly decreasing.  The halves, whose
    parts are counts of the matrix's cells, are built by
    :func:`~kostka.partitions._certified`, which skips the type census
    of outside input and runs every cone check.
    """
    pair = canonical.pair
    r, w = pair.rank, pair.width
    # one type census in C; only other types are checked one by one
    if not {*map(type, columns)} <= _INT_ONLY and any(map(_non_integer, columns)):
        raise NotAWitness(f"columns {columns!r} are not all integers")
    chosen = {*columns}
    sel = sorted(chosen)
    if not sel or len(sel) == w or sel[0] < 1 or sel[-1] > w:
        raise NotAWitness(f"columns {columns} are not a proper nonempty subset")
    # the row sums are mu, checked when the matrix was built, so the
    # complement's are what the selection leaves
    mu = pad(pair.mu, r)
    sums = canonical._row_sums(sel)
    # the column heights are lambda', checked when the matrix was built:
    # column j reaches row i exactly when j <= lambda_i, so row i of the
    # diagram of some columns counts those among the first lambda_i
    lam = [bisect_right(sel, part) for part in pair.lam]
    halves: list[KostkaPair] = []
    for index_set, half_lam, row_sums in (
        (sel, lam, sums),
        (None, list(map(sub, pair.lam, lam)), list(map(sub, mu, sums))),
    ):
        if row_sums != sorted(row_sums, reverse=True):
            if index_set is None:  # the complement, listed for the message
                index_set = [j for j in range(1, w + 1) if j not in chosen]
            raise NotAWitness(f"row sums for columns {index_set} are not decreasing")
        halves.append(_certified(half_lam, row_sums, r))
    return halves[0], halves[1]
