"""Canonical 0/1 matrices, their difference matrices, and column splits.

For a pair (lambda, mu) in the Kostka cone, the Gale-Ryser class
GR(mu, lambda') of 0/1 matrices with row sums mu and column sums
lambda' is nonempty, and Ryser's column-fixing procedure selects one
canonical representative A(lambda, mu).  The procedure starts from the
flush-left matrix with row sums mu and, for s = lambda_1 down to 1,
moves the rightmost 1 of selected rows into column s; rows are selected
by largest current sum, ties broken southmost.

Differencing consecutive rows of A gives the star matrix A*, whose
columns have one of three sign patterns; those patterns drive both the
graph of :mod:`kostka.kgr` and the shape-peeling interpretation
implemented by :func:`shape_sequence`.

Reducibility of the pair along a column subset S (both the S-selected
and complementary row-sum vectors stay weakly decreasing) is decided by
exhaustive vectorized sweep, and :func:`split_pair` materializes the two
summand pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import config
from .errors import (
    MalformedStarMatrix,
    NotAWitness,
    WidthCapExceeded,
    WidthTooSmall,
)
from .partitions import (
    KostkaPair,
    Partition,
    as_partition,
    conjugate,
    dominates,
    pad,
    size,
)
from .subsets import sweep_proper_subsets

Matrix = tuple[tuple[int, ...], ...]


def _to_matrix(arr: np.ndarray) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in arr)


def _to_array(entries: Matrix) -> np.ndarray:
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    return np.asarray(entries, dtype=np.int64).reshape(rows, cols)


def render_matrix(entries: Matrix) -> str:
    """Whitespace-separated grid, cells right-justified to equal width."""
    if not entries:
        return ""
    cell = max(len(str(v)) for row in entries for v in row)
    return "\n".join(" ".join(str(v).rjust(cell) for v in row) for row in entries)


def initial_matrix(mu: Sequence[int], width: int) -> Matrix:
    """Flush-left 0/1 matrix with row sums mu, len(mu) rows, ``width``
    columns.  Raises :class:`WidthTooSmall` if a row does not fit."""
    pm = as_partition(mu)
    if pm and width < pm[0]:
        raise WidthTooSmall(f"width {width} < largest row sum {pm[0]}")
    if width < 0:
        raise WidthTooSmall(f"negative width {width}")
    return tuple((1,) * v + (0,) * (width - v) for v in pm)


def gr_nonempty(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """Whether some 0/1 matrix has row sums alpha and column sums beta:
    the conjugate of alpha must dominate beta."""
    return dominates(conjugate(alpha), beta)


def _column_runs(column: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of 1s as (first_row, last_row), 1-based."""
    runs: list[tuple[int, int]] = []
    start = None
    for i, v in enumerate(column, start=1):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(column)))
    return runs


@dataclass(frozen=True)
class CanonicalMatrix:
    """Ryser's canonical matrix for a cone pair.  The fixing chain that
    produced it is rebuilt on demand by :func:`fixing_chain`."""

    pair: KostkaPair
    entries: Matrix

    def __post_init__(self) -> None:
        lam, mu = self.pair.lam, self.pair.mu
        r, w = self.pair.rank, self.pair.width
        arr = _to_array(self.entries)
        if arr.shape != (r, w):
            raise AssertionError(f"matrix shape {arr.shape} != ({r}, {w})")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise AssertionError("entries must be 0/1")
        if tuple(arr.sum(axis=1)) != pad(mu, r):
            raise AssertionError("row sums do not match mu")
        if tuple(arr.sum(axis=0)) != pad(conjugate(lam), w):
            raise AssertionError("column sums do not match conjugate(lambda)")
        for j in range(w):
            runs = _column_runs(arr[:, j])
            if len(runs) > 2 or (len(runs) == 2 and runs[0][0] != 1):
                raise AssertionError(f"column {j + 1} has runs {runs}")
            if j == 0 and runs and runs[0][0] != 1:
                raise AssertionError("leftmost column not anchored at the top")

    @property
    def array(self) -> np.ndarray:
        return _to_array(self.entries)

    @property
    def row_sums(self) -> tuple[int, ...]:
        return pad(self.pair.mu, self.pair.rank)

    @property
    def col_sums(self) -> tuple[int, ...]:
        return pad(conjugate(self.pair.lam), self.pair.width)


def _fixing_stages(pair: KostkaPair) -> Iterator[np.ndarray]:
    """Run the column-fixing procedure, yielding the in-progress array
    A^(0), ..., A^(lambda_1).  The same array is mutated between yields;
    copy a stage to keep it."""
    r, w = pair.rank, pair.width
    mu_padded = pad(pair.mu, r)
    lam_conj = pad(conjugate(pair.lam), w)
    arr = np.zeros((r, w), dtype=np.int64)
    for i, v in enumerate(mu_padded):
        arr[i, :v] = 1
    yield arr
    for s in range(w, 0, -1):
        sums = arr[:, :s].sum(axis=1).tolist()
        # largest current sum first; among ties the southmost row wins
        order = sorted(range(r), key=lambda i: (-sums[i], -i))
        for i in order[: lam_conj[s - 1]]:
            # columns 1..s of every row are still flush-left, so the
            # rightmost 1 left of column s + 1 sits at column sums[i]
            if sums[i] == 0:
                raise AssertionError(f"row {i + 1} has no 1 left of column {s}")
            j = sums[i] - 1
            if j != s - 1:
                arr[i, j] = 0
                arr[i, s - 1] = 1
        yield arr


def ryser_canonical(pair: KostkaPair) -> CanonicalMatrix:
    """Run the column-fixing procedure and return the canonical matrix."""
    *_, arr = _fixing_stages(pair)
    return CanonicalMatrix(pair=pair, entries=_to_matrix(arr))


def fixing_chain(canonical: CanonicalMatrix) -> tuple[Matrix, ...]:
    """The fixing chain A^(0), ..., A^(lambda_1) that ends at the
    canonical matrix.  Raises :class:`WidthCapExceeded` before building
    anything when the chain would hold more than ``config.CHAIN_CAP``
    cells."""
    w = canonical.pair.width
    cells = (w + 1) * canonical.pair.rank * w
    if cells > config.CHAIN_CAP:
        raise WidthCapExceeded(
            f"fixing chain of {cells} cells exceeds cap {config.CHAIN_CAP}"
        )
    chain = tuple(_to_matrix(arr) for arr in _fixing_stages(canonical.pair))
    if len(chain) != w + 1:
        raise AssertionError("chain must have width + 1 matrices")
    if chain[-1] != canonical.entries:
        raise AssertionError("chain must end at the canonical matrix")
    if w >= 1 and chain[-1] != chain[-2]:
        raise AssertionError("the column-1 fixing step must be a no-op")
    return chain


@dataclass(frozen=True)
class StarMatrix:
    """Row-difference matrix A*_{i,j} = A_{i,j} - A_{i+1,j} of a
    canonical matrix (phantom zero row below), with row sums
    mu*_i = mu_i - mu_{i+1}.

    Valid columns read, top to bottom, (+1), (-1, +1), or (+1, -1, +1);
    the leftmost column is a single +1 and the bottom row holds no -1.
    """

    pair: KostkaPair
    entries: Matrix
    mu_star: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = _to_array(self.entries)
        r, w = self.pair.rank, self.pair.width
        if arr.shape != (r, w):
            raise MalformedStarMatrix(f"shape {arr.shape} != ({r}, {w})")
        if tuple(arr.sum(axis=1)) != self.mu_star:
            raise MalformedStarMatrix("row sums do not match mu*")
        mu_padded = pad(self.pair.mu, r)
        expected = tuple(
            mu_padded[i] - (mu_padded[i + 1] if i + 1 < r else 0) for i in range(r)
        )
        if self.mu_star != expected:
            raise MalformedStarMatrix("mu* does not match consecutive differences")
        for j in range(w):
            sig = tuple(int(v) for v in arr[:, j] if v != 0)
            if sig not in ((1,), (-1, 1), (1, -1, 1)):
                raise MalformedStarMatrix(f"column {j + 1} pattern {sig}")
            if j == 0 and sig != (1,):
                raise MalformedStarMatrix("leftmost column must be a single +1")
        if r and (arr[r - 1, :] < 0).any():
            raise MalformedStarMatrix("bottom row contains a -1")

    @property
    def array(self) -> np.ndarray:
        return _to_array(self.entries)


def star_matrix(canonical: CanonicalMatrix) -> StarMatrix:
    arr = canonical.array
    r = canonical.pair.rank
    below = np.vstack([arr[1:], np.zeros((1, arr.shape[1]), dtype=np.int64)]) if r else arr
    star = arr - below
    return StarMatrix(
        pair=canonical.pair,
        entries=_to_matrix(star),
        mu_star=tuple(int(v) for v in star.sum(axis=1)),
    )


# --- shape peeling ---------------------------------------------------------


@dataclass(frozen=True)
class DeleteColumn:
    """The rightmost diagram column (this length) disappears."""

    length: int


@dataclass(frozen=True)
class ShortenRightmost:
    """The rightmost diagram column shrinks from ``length`` to
    ``new_length``."""

    length: int
    new_length: int


@dataclass(frozen=True)
class ShortenAndDelete:
    """The rightmost column shrinks from ``length`` to ``new_length`` and
    the strictly shorter column to its right (``deleted_length`` <
    ``new_length``) disappears."""

    length: int
    new_length: int
    deleted_length: int


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


def _step_multiset_delta(step: Step) -> tuple[Counter, Counter]:
    """(removed column lengths, added column lengths) for one step."""
    if isinstance(step, DeleteColumn):
        return Counter([step.length]), Counter()
    if isinstance(step, ShortenRightmost):
        return Counter([step.length]), Counter([step.new_length])
    return Counter([step.length, step.deleted_length]), Counter([step.new_length])


def shape_sequence(
    canonical: CanonicalMatrix, star: StarMatrix, chain: Sequence[Matrix]
) -> ShapeSequence:
    """Shape chain and step classification of a canonical matrix, read
    from its star matrix; the prefix sums are cross-checked against its
    fixing chain."""
    pair = canonical.pair
    arr = canonical.array
    w = pair.width
    shapes: list[Partition] = []
    for i in range(w + 1):
        sums = arr[:, : w - i].sum(axis=1)
        if np.any(sums[:-1] < sums[1:]):
            raise AssertionError(f"prefix row sums not weakly decreasing at step {i}")
        shapes.append(as_partition(int(v) for v in sums))
        # the same prefix of the in-progress matrix already has these sums
        stage = _to_array(chain[i])
        if stage.size and not np.array_equal(stage[:, : w - i].sum(axis=1), sums):
            raise AssertionError(f"prefix row sums changed after stage {i}")
    if shapes[0] != pair.mu or shapes[-1] != ():
        raise AssertionError("shape chain endpoints are wrong")
    star_arr = star.array
    steps: list[Step] = []
    for i in range(1, w + 1):
        step = _classify_column(star_arr[:, w - i])
        removed, added = _step_multiset_delta(step)
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


def _decreasing_rows(mat: np.ndarray) -> np.ndarray:
    if mat.shape[1] <= 1:
        return np.ones(mat.shape[0], dtype=bool)
    return (mat[:, :-1] >= mat[:, 1:]).all(axis=1)


def matrix_reducible(
    canonical: CanonicalMatrix, cap: int = config.WIDTH_CAP
) -> tuple[int, ...] | None:
    """Smallest (sorted-index-tuple order) proper nonempty column subset S
    such that the S row sums and the complementary row sums are both
    weakly decreasing, or None."""
    w = canonical.pair.width
    if w > cap:
        raise WidthCapExceeded(f"width {w} exceeds cap {cap}")
    arr = canonical.array
    mu_padded = np.asarray(canonical.row_sums, dtype=np.int64)

    def predicate(bits: np.ndarray) -> np.ndarray:
        sums = bits.astype(np.int64) @ arr.T
        return _decreasing_rows(sums) & _decreasing_rows(mu_padded[None, :] - sums)

    return sweep_proper_subsets(w, predicate)


def star_reducible(
    star: StarMatrix, cap: int = config.WIDTH_CAP
) -> tuple[int, ...] | None:
    """Same witnesses as :func:`matrix_reducible`, decided on the star
    matrix: the S row sums v* must satisfy 0 <= v* <= mu* entrywise."""
    w = star.pair.width
    if w > cap:
        raise WidthCapExceeded(f"width {w} exceeds cap {cap}")
    arr = star.array
    mu_star = np.asarray(star.mu_star, dtype=np.int64)

    def predicate(bits: np.ndarray) -> np.ndarray:
        v = bits.astype(np.int64) @ arr.T
        return ((v >= 0) & (v <= mu_star[None, :])).all(axis=1)

    return sweep_proper_subsets(w, predicate)


def split_pair(
    canonical: CanonicalMatrix, columns: Sequence[int]
) -> tuple[KostkaPair, KostkaPair]:
    """Split the canonical matrix's pair along a witnessing column subset
    into (selected, complement) summand pairs at the same rank.

    Raises :class:`NotAWitness` when the subset is not a proper nonempty
    subset of the columns or either half's row sums fail to be weakly
    decreasing.
    """
    pair = canonical.pair
    w = pair.width
    sel = sorted(set(int(j) for j in columns))
    if not sel or len(sel) == w or any(j < 1 or j > w for j in sel):
        raise NotAWitness(f"columns {columns} are not a proper nonempty subset")
    arr = canonical.array
    lam_conj = canonical.col_sums
    halves: list[KostkaPair] = []
    for index_set in (sel, sorted(set(range(1, w + 1)) - set(sel))):
        cols = [j - 1 for j in index_set]
        sums = arr[:, cols].sum(axis=1)
        if np.any(sums[:-1] < sums[1:]):
            raise NotAWitness(f"row sums for columns {index_set} are not decreasing")
        heights = tuple(sorted((lam_conj[j] for j in cols), reverse=True))
        halves.append(
            KostkaPair(lam=conjugate(heights), mu=sums.tolist(), rank=pair.rank)
        )
    selected, complement = halves
    if tuple(a + b for a, b in zip(pad(selected.mu, pair.rank), pad(complement.mu, pair.rank))) != canonical.row_sums:
        raise AssertionError("split halves do not add back to mu")
    if size(selected.lam) + size(complement.lam) != size(pair.lam):
        raise AssertionError("split halves do not add back to lambda")
    return selected, complement
