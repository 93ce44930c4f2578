"""Hilbert bases and extremal rays of the Kostka cone at small rank.

A cone point is *irreducible* when it is nonzero and not the sum of two
nonzero cone points; the irreducible points form the Hilbert basis of
the semigroup of lattice points.  :func:`decompose` searches for a
summand by enumerating the ways each side can split into two partitions
(parameterized by choices in the consecutive-difference boxes) and
checking the two dominance conditions on packed prefix sums.  Each
side's splittings are cached as one ``bytes`` object of prefix-sum
rows, each row packed big-endian in lanes of the fewest bytes whose
top bit lies above the side's size (a byte for every pair under the
splitting cap), sorted by size and then by row, with the offsets of
each size's block and a bitmask of the sizes that occur, so the
candidate halves of one size are two runs of rows and the sizes both
sides share are one AND.  A pair of rows, read as Python integers, is
tested in all its lanes at once by two subtractions that borrow across
no lane.  Only the first len(lambda) coordinates are compared: past
the last part of lambda every candidate passes.

The Hilbert basis needs no splitting search.  The cone is cut out by
3 * rank - 1 facet inequalities (the consecutive differences of lambda
and of mu, and the prefix-sum gaps of lambda - mu); writing s(p) for a
pair's vector of slacks, q - p is a cone point iff s(p) <= s(q)
componentwise.  So the basis is the set of nonzero cone points whose
slack vectors are minimal among those of nonzero cone points.  It only
takes candidates inside the rank x rank box: that irreducible pairs
have lambda_1 <= rank is the paper's width theorem (checked by
:func:`width_bound_audit` on the lambda_1 = rank + 1 layer), and the
completeness of the basis rests on it.

One pass serves the basis and the audit.  :func:`_box_partitions` lists
a box's partitions one size at a time, as lattice paths, in the
smallest dtype that holds the box's sizes (a byte in every box walked
here).  :func:`_cone_slacks` takes each row's differences and prefix
sums once, reads dominance off the prefix-sum gaps of one broadcast and
writes the pairs' slack rows, so no pair becomes a Python object until
it is kept or reported.  :func:`_minimal_slacks` keeps the rows that no
smaller kept row lies below, by one scan, :func:`_covered`; it returns
the basis in catalog order with its slack matrix, which
:func:`hilbert_basis` wraps and :func:`width_bound_audit` reads to
certify the wide layer.

Both comparisons, dominance and slack order, are componentwise <= on
short rows of entries in [0, dtype max], and both run word-parallel
(see :func:`_covered`): rows are zero-padded to whole uint64 words of
dtype lanes, eight byte lanes in every shipped box, and one
subtraction, (c | 0x80...80) - b, compares all the lanes of a word with
no borrow between them; no reduction runs over a short trailing axis.
The slack rows are written in the padded layout, so the scan reads
them as words without a copy, and its temporaries are bounded by
``config.CHUNK_BITS`` in bytes.

Extremal rays are classified: every ray is spanned by
lambda = a^(b+ell), mu = (a^ell, b^a) for r >= a+ell >= a >= b > 0, and
(a, a, ell) is parallel to (1, 1, a+ell-1), leaving
C(r,3) + C(r,2) + C(r,1) distinct rays, the :class:`RaySpec` list of
:func:`extremal_rays`.  :func:`is_extremal` decides a pair twice and
insists the answers agree.  It reads the one candidate spec off the
multiplicities of the pair's primitive point (the pair divided by the
gcd of its parts) and asks whether that spec's :func:`primitive_point`
is the pair's; and it takes the exact rank of the facet normals of
:func:`_facets` (the rows of the slack vector above) that the pair
saturates, with the row of |lambda| = |mu|, which is 2 * rank - 1 iff
the pair spans a ray.  It refuses a rank above ``config.RAY_RANK_CAP``,
as :func:`extremal_rays` does, since the elimination is cubic in the
rank.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from operator import mul, sub
from pathlib import Path

import numpy as np

from . import config
from .errors import (
    AssertionFailure,
    InconsistentExtremalityTests,
    InvalidPair,
    RankCapExceeded,
    RefusedInput,
    SizeCapExceeded,
)
from .partitions import KostkaPair, Partition, _certified, _non_integer


def _lane(n: int) -> int:
    """The bytes of one lane of a splitting table of an n-box side: the
    fewest whose top bit lies above n (one up to 127 boxes, two past
    that), so that no entry of a row reaches its lane's top bit."""
    return n.bit_length() // 8 + 1


@functools.lru_cache(maxsize=2048)
def _splittings(p: Partition) -> tuple[bytes, list[int], int]:
    """The prefix sums of all vectors v such that v and p - v are both
    partitions, as rows of len(p) big-endian lanes of :func:`_lane`
    bytes, joined into one ``bytes`` object and sorted by size |v|, then
    by v lexicographically; the block offsets of the sizes (the rows of
    size m are rows ``bounds[m]`` to ``bounds[m + 1]``, for m from 0 to
    |p|); and a bitmask with bit m set iff that block is nonempty.

    Such v correspond to independent choices d_i in [0, p_i - p_{i+1}],
    v_i being the suffix sum of the d's, and only the parts where p
    steps down (p_i > p_{i+1}) have a choice.  A choice d at step i adds
    d * min(t + 1, i + 1) to the prefix sum V_t, and d * (i + 1) to the
    size, so each row is one sum over the steps of d times the step's
    packed reach row, with the size packed above it.  Big-endian lanes
    order the packed rows as the bytes order them, which is the order of
    the prefix sums and so of v: one sort of the packed sums orders the
    table by size, then by v.  The sizes are the sums of d * (i + 1)
    over the steps, so the mask is built with the rows, one shift of it
    per unit of each choice.
    """
    length, n = len(p), sum(p)
    bits = 8 * _lane(n)
    shift = bits * length
    ones = ((1 << shift) - 1) // ((1 << bits) - 1)
    below = p[1:] + (0,)
    reach, keys, mask = 0, [0], 1
    for i in range(length):
        # lane t of reach now holds min(t + 1, i + 1)
        reach += ones >> bits * i
        if p[i] > below[i]:
            step = reach | (i + 1) << shift
            top = (p[i] - below[i] + 1) * step
            keys = [key + d for d in range(0, top, step) for key in keys]
            for _ in range(p[i] - below[i]):
                mask |= mask << i + 1
    keys.sort()
    row = (1 << shift) - 1
    table = b"".join([(key & row).to_bytes(shift // 8, "big") for key in keys])
    bounds = [bisect_left(keys, m << shift) for m in range(n + 2)]
    return table, bounds, mask


def _split_cap(n: int) -> None:
    """Refuse a splitting search of an n-box pair past
    ``config.SPLIT_CAP``, with :class:`SizeCapExceeded`."""
    if n > config.SPLIT_CAP:
        raise SizeCapExceeded(f"|lambda| = {n} exceeds cap {config.SPLIT_CAP}")


def decompose(pair: KostkaPair) -> tuple[KostkaPair, KostkaPair] | None:
    """A decomposition (small, large) of the pair into two nonzero cone
    points at the same rank, or None if the pair is irreducible (or
    zero).

    Deterministic: the witness is the first hit in (size of the small
    half, lexicographic small lambda-half, lexicographic small mu-half)
    order.  Raises :class:`SizeCapExceeded` when |lambda| >
    ``config.SPLIT_CAP``.

    Each side's splittings come as one cached table of packed prefix-sum
    rows sorted by size, in blocks (:func:`_splittings`).  Only the
    sizes m <= n // 2 set in both sides' masks are searched (none: the
    pair is irreducible without reading a row).  A half (a, b) of size
    m works iff 0 <= A_t - B_t <= Lambda_t - M_t at every coordinate t,
    capital letters for prefix sums.  Only the first k - 1 coordinates,
    k = len(lambda), are compared, the first k - 1 lanes of each row:
    at t >= k - 1, A_t = m >= B_t, while M_t - B_t, a prefix sum of
    mu - b, is at most |mu - b| = n - m, so A_t - B_t <= n - M_t, which
    is the upper bound (lambda dominates mu, so mu has at least k parts
    and Lambda_t = n there).  The hit halves are read from whole rows.

    The rows are compared as Python integers, every lane at once, as in
    :func:`_covered`.  With H the top bit of every lane and G the packed
    gaps Lambda_t - M_t, d = (a | H) - b has every H bit set iff every
    A_t >= B_t, and then (G | H) - (d ^ H) has every H bit set iff every
    A_t - B_t <= G_t.  No borrow crosses a lane, since every entry lies
    below H.  The halves are the differences of the hit rows, built by
    :func:`~kostka.partitions._certified`: their parts are ints read off
    the rows, so the type census is skipped, and every cone check runs.
    """
    n = pair.n
    _split_cap(n)
    if n == 0:
        return None
    lam_rows, lam_at, lam_mask = _splittings(pair.lam)
    mu_rows, mu_at, mu_mask = _splittings(pair.mu)
    sizes = lam_mask & mu_mask & ((2 << n // 2) - 2)
    if not sizes:
        return None
    lane = _lane(n)
    bits = 8 * lane
    wide, mu_wide = len(pair.lam) * lane, len(pair.mu) * lane
    cut = wide - lane  # the bytes of the compared lanes
    high = ((1 << 8 * cut) - 1) // ((1 << bits) - 1) << bits - 1
    # the last row of each table is the whole side
    last, mu_last = len(lam_rows) - wide, len(mu_rows) - mu_wide
    gap = int.from_bytes(lam_rows[last : last + cut], "big")
    gap -= int.from_bytes(mu_rows[mu_last : mu_last + cut], "big")
    gap |= high
    while sizes:
        m = (sizes & -sizes).bit_length() - 1
        sizes &= sizes - 1
        first = mu_at[m] * mu_wide
        block = [
            int.from_bytes(mu_rows[at : at + cut], "big")
            for at in range(first, mu_at[m + 1] * mu_wide, mu_wide)
        ]
        for at in range(lam_at[m] * wide, lam_at[m + 1] * wide, wide):
            a = int.from_bytes(lam_rows[at : at + cut], "big") | high
            for j, b in enumerate(block):
                d = a - b
                if d & high == high and (gap - (d ^ high)) & high == high:
                    hit = first + j * mu_wide
                    small_lam = _entries(lam_rows[at : at + wide], lane)
                    small_mu = _entries(mu_rows[hit : hit + mu_wide], lane)
                    r = pair.rank
                    return (
                        _certified(small_lam, small_mu, r),
                        _certified(
                            list(map(sub, pair.lam, small_lam)),
                            list(map(sub, pair.mu, small_mu)),
                            r,
                        ),
                    )
    return None


def _entries(row: bytes, lane: int) -> list[int]:
    """The entries whose prefix sums are the packed row: the lanes of
    the row less the row shifted one lane down, which cannot borrow
    since prefix sums of entries >= 0 never decrease."""
    packed = int.from_bytes(row, "big")
    diffs = (packed - (packed >> 8 * lane)).to_bytes(len(row), "big")
    entries = list(diffs[::lane])
    for byte in range(1, lane):
        entries = [e << 8 | x for e, x in zip(entries, diffs[byte::lane])]
    return entries


# --- Hilbert basis ----------------------------------------------------------


@dataclass(frozen=True)
class BasisCatalog:
    """The Hilbert basis at a fixed rank, sorted by (size, lambda, mu)."""

    rank: int
    elements: tuple[KostkaPair, ...]

    @property
    def count(self) -> int:
        return len(self.elements)

    def keys(self) -> set[tuple[Partition, Partition]]:
        return {p.key() for p in self.elements}

    def payload(self) -> dict:
        elements = [[list(p.lam), list(p.mu)] for p in self.elements]
        return {
            "format_version": 1,
            "kind": "hilbert-basis",
            "rank": self.rank,
            "count": self.count,
            "elements": elements,
            "sha256": _element_hash(elements),
        }

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.payload(), indent=1, sort_keys=True) + "\n")


def _element_hash(elements: list) -> str:
    blob = json.dumps(elements, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_catalog(path: Path | str) -> BasisCatalog:
    """Read a catalog and verify its integrity hash; content is trusted,
    not recomputed.  A file that is not such a catalog raises
    :class:`AssertionFailure` naming the path."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise AssertionFailure(f"{path}: not JSON ({exc})") from exc
    if (
        not isinstance(data, dict)
        or data.get("format_version") != 1
        or data.get("kind") != "hilbert-basis"
    ):
        raise AssertionFailure(f"{path}: not a hilbert-basis catalog")
    missing = sorted({"sha256", "elements", "rank", "count"} - data.keys())
    if missing:
        raise AssertionFailure(f"{path}: missing fields {missing}")
    if data["sha256"] != _element_hash(data["elements"]):
        raise AssertionFailure(f"{path}: content hash mismatch")
    rank = data["rank"]
    if _non_integer(rank):
        raise AssertionFailure(f"{path}: non-integer rank {rank!r}")
    try:
        elements = tuple(KostkaPair(lam, mu, rank) for lam, mu in data["elements"])
    except (RefusedInput, TypeError, ValueError) as exc:
        raise AssertionFailure(f"{path}: malformed element ({exc})") from exc
    if len(elements) != data["count"]:
        raise AssertionFailure(f"{path}: count field disagrees with elements")
    return BasisCatalog(rank=rank, elements=elements)


def catalog_diff(first: BasisCatalog, second: BasisCatalog) -> dict:
    a, b = first.keys(), second.keys()
    fmt = lambda keys: sorted([list(map(list, k)) for k in keys])
    return {
        "only_in_first": fmt(a - b),
        "only_in_second": fmt(b - a),
        "match": a == b,
    }


def default_fixture_path(rank: int, directory: Path | str | None = None) -> Path:
    """``basis_r{rank}.json`` in ``directory``, by default the packaged fixtures."""
    base = Path(__file__).parent / "fixtures" if directory is None else Path(directory)
    return base / f"basis_r{rank}.json"


def _box_dtype(max_part: int, max_len: int) -> np.dtype:
    """The smallest signed dtype that holds every size in the
    max_part x max_len box."""
    return np.min_scalar_type(-max_part * max_len - 1)


def _box_partitions(max_part: int, max_len: int, max_boxes: int) -> Iterator[np.ndarray]:
    """The partitions with lambda_1 <= ``max_part``, at most ``max_len``
    parts and 1 <= |lambda| <= ``max_boxes``, one size at a time, as a
    (count, max_len) zero-padded array in decreasing lexicographic
    order.

    A partition in the max_part x max_len box is a lattice path: its
    parts, reversed, are the positions of the max_len up-steps among
    max_part + max_len steps, less 0, 1, ..., max_len - 1.  Sizes stop
    at the box's max_part * max_len.

    The arrays are in the smallest signed dtype that holds that largest
    size.  Every part, slack and prefix sum of a pair in the box is at
    most its size, so :func:`_cone_slacks` keeps the dtype: a byte up to
    the rank-8 audit's 9 x 8 = 72, wider rather than wrapped past 127."""
    top = min(max_boxes, max_part * max_len)
    if top < 1:
        return
    steps = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(max_part + max_len), max_len)
        ),
        dtype=np.int64,
    ).reshape(-1, max_len)
    parts = (steps - np.arange(max_len))[:, ::-1]
    sizes = parts.sum(axis=1)
    # lexsort's last key is its first: size up, then each part down
    order = np.lexsort((*(-parts.T[::-1]), sizes))
    parts = parts[order].astype(_box_dtype(max_part, max_len))
    bounds = np.searchsorted(sizes[order], np.arange(top + 2))
    for n in range(1, top + 1):
        yield parts[bounds[n] : bounds[n + 1]]


def _lanes(width: int, dtype: np.dtype) -> int:
    """The entries in a row of ``width`` entries of ``dtype`` once it is
    zero-padded to whole uint64 words (one word at least)."""
    per_word = 8 // dtype.itemsize
    return -(-max(width, 1) // per_word) * per_word


@functools.lru_cache(maxsize=8)
def _high_bits(dtype: np.dtype) -> np.uint64:
    """H = 0x80...80: the high bit of every ``dtype`` lane of a word."""
    return np.full(8 // dtype.itemsize, np.iinfo(dtype).min, dtype=dtype).view(np.uint64)[0]


def _words(rows: np.ndarray, lanes: int) -> np.ndarray:
    """``rows`` zero-padded to ``lanes`` entries and viewed as uint64
    words, without a copy when they are laid out so already."""
    if rows.shape[1] != lanes or not rows.flags.c_contiguous:
        padded = np.zeros_like(rows, shape=(rows.shape[0], lanes))
        padded[:, : rows.shape[1]] = rows
        rows = padded
    return rows.view(np.uint64)


def _cone_slacks(block: np.ndarray, wide: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cone points (lambda, mu) of one size block of
    :func:`_box_partitions`, lambda among its first ``wide`` rows and mu
    among all of them, with their slack vectors s(p).

    Returns the block rows of lambda and of mu, ordered by lambda's row,
    then mu's, and one slack row per pair in the block's dtype: 3 * rank
    - 1 entries, the consecutive differences of lambda and of mu (the
    last part counting as a difference from 0), then the prefix-sum gaps
    Lambda_t - M_t for t < rank.  These are the facet inequalities of
    the cone, so for cone points p and q, q - p is a cone point iff
    s(p) <= s(q) componentwise.  The rows are zero-padded to whole
    uint64 words (:func:`_lanes`), the layout in which :func:`_covered`
    reads them without a copy; a padding entry compares 0 <= 0.

    Each row's differences and prefix sums are taken once.  A mu that
    lambda dominates lies in the same box, and lambda dominates mu iff
    every gap is >= 0.  The prefix sums lie in [0, dtype max], so the
    test runs on whole words, as in :func:`_covered`: one broadcast of
    (Lambda | H) - M keeps the pairs whose words have the high bit H of
    every lane set, that is, whose gaps have no lane with its sign bit
    set, and the kept pairs' gaps become their slacks."""
    rank, dtype = block.shape[1], block.dtype
    high = _high_bits(dtype)
    diffs = block.copy()
    diffs[:, :-1] -= block[:, 1:]
    sums = np.zeros((len(block), _lanes(rank - 1, dtype)), dtype=dtype)
    np.add.accumulate(block[:, :-1], axis=1, dtype=dtype, out=sums[:, : rank - 1])
    words = sums.view(np.uint64)
    lifted = words[:wide] | high
    ok = lifted[:, None, 0] - words[:, 0]
    for j in range(1, words.shape[1]):
        ok &= lifted[:, None, j] - words[:, j]
    ok &= high
    lam, mu = (ok == high).nonzero()
    del ok  # the largest temporary, (wide, len(block)) words
    rows = np.zeros((len(lam), _lanes(3 * rank - 1, dtype)), dtype=dtype)
    rows[:, :rank] = diffs.take(lam, axis=0)
    rows[:, rank : 2 * rank] = diffs.take(mu, axis=0)
    # no lane of a kept pair's gaps is negative, so no borrow crosses a
    # lane: the words subtract as wholes
    gaps = words.take(lam, axis=0)
    gaps -= words.take(mu, axis=0)
    rows[:, 2 * rank : 3 * rank - 1] = gaps.view(dtype)[:, : rank - 1]
    return lam, mu, rows


def _covered(slacks: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """For each row of ``slacks``, whether some row of ``basis`` lies at or
    below it componentwise.  The entries lie in [0, dtype max], in any
    signed dtype; rows of different widths compare as if zero-padded to
    the wider.

    The rows are compared a uint64 word at a time, in lanes of the
    (common) dtype's width: a byte for the slack rows of every box
    walked here.  With H = 0x80...80, the high bit of every lane, a
    basis row b lies at or below a row c iff every word of (c | H) - b
    has every lane's high bit set.  No borrow crosses a lane: each lane
    of c | H is at least H and each lane of b below it, so a lane holds
    H + c_i - b_i, whose high bit is set iff b_i <= c_i.  The words of
    a pair are ANDed together and compared with H once.  Rows are
    zero-padded to whole words (padding lanes compare 0 <= 0); those of
    :func:`_cone_slacks` already are, and are viewed without a copy.

    The rows of ``slacks`` are taken in chunks of 2^CHUNK_BITS bytes,
    each set to c | H and transposed once, so that a step compares the
    chunk along its long axis.  The basis rows are taken in order, a
    step of rows at a time; covered rows leave the chunk (it is
    compressed only when some row was covered), so the first (smallest)
    basis rows do most of the work.  Most rows are covered by one of
    the first few basis rows, so the first step's words span
    2^(CHUNK_BITS - 6) bytes, enough for a small basis in one pass, and
    each later step doubles that up to 2^CHUNK_BITS.  No temporary
    holds more than 2^CHUNK_BITS bytes (unless one padded row is
    wider)."""
    covered = np.zeros(slacks.shape[0], dtype=bool)
    if not basis.shape[0]:
        return covered
    dtype = np.promote_types(slacks.dtype, basis.dtype)
    lanes = _lanes(max(slacks.shape[1], basis.shape[1]), dtype)
    high = _high_bits(dtype)
    rows = _words(slacks.astype(dtype, copy=False), lanes)
    # (rows, words, 1): word j of a step's rows runs down a column
    base = _words(basis.astype(dtype, copy=False), lanes)[:, :, None]
    cells = 1 << config.CHUNK_BITS
    chunk_rows = max(1, cells // rows.itemsize // rows.shape[1])
    for start in range(0, rows.shape[0], chunk_rows):
        # transposed: line j holds word j of every row, lifted by H
        chunk = (rows[start : start + chunk_rows] | high).T.copy()
        index = np.arange(start, start + chunk.shape[1])
        budget, done = cells >> 6, 0
        while index.size and done < base.shape[0]:
            step = max(1, budget // chunk.itemsize // index.size)
            below = base[done : done + step]
            ok = chunk[0] - below[:, 0]
            for j in range(1, chunk.shape[0]):
                ok &= chunk[j] - below[:, j]
            # masked by H, a word is H iff all its lanes passed, and H is
            # the largest masked word: the column maximum tells if any did
            ok &= high
            hit = ok.max(axis=0) == high
            done += step
            if hit.any():
                covered[index[hit]] = True
                if done < base.shape[0]:
                    chunk, index = chunk[:, ~hit], index[~hit]
            budget = min(2 * budget, cells)
    return covered


def _minimal_slacks(rank: int) -> tuple[tuple[KostkaPair, ...], np.ndarray]:
    """The Hilbert basis at the given rank in catalog order, and its
    slack matrix: row k is s(element k).

    A nonzero cone point c is reducible iff some nonzero cone point
    b != c has s(b) <= s(c).  Then every irreducible summand of b lies
    below c as well, and is smaller; its lambda_1 is at most c's, so it
    sits in the box too.  The candidates are therefore visited one size
    block at a time, and a candidate is kept iff no element kept from a
    smaller block lies below it in slack order.  Same-size candidates
    need no comparison, since a cone point of size 0 is zero.  A block's
    pairs come by lambda, then mu, each in decreasing lexicographic
    order, so its kept rows, reversed, are in catalog order.  The slack
    matrix is kept in :func:`_cone_slacks`'s word-padded layout and
    returned without its padding.
    """
    if not 1 <= rank <= config.RANK_CAP:
        raise RankCapExceeded(f"rank {rank} outside [1, {config.RANK_CAP}]")
    lams, mus = [], []
    width, dtype = 3 * rank - 1, _box_dtype(rank, rank)
    basis = np.zeros((0, _lanes(width, dtype)), dtype=dtype)
    for block in _box_partitions(rank, rank, rank * rank):
        lam, mu, slacks = _cone_slacks(block, len(block))
        kept = np.flatnonzero(~_covered(slacks, basis))[::-1]
        lams += block[lam[kept]].tolist()
        mus += block[mu[kept]].tolist()
        basis = np.vstack([basis, slacks[kept]])
    elements = tuple(_certified(lam, mu, rank) for lam, mu in zip(lams, mus))
    return elements, basis[:, :width]


def hilbert_basis(rank: int) -> BasisCatalog:
    """The Hilbert basis at the given rank: the cone points inside the
    rank x rank box whose slack vectors are minimal (see
    :func:`_minimal_slacks`).

    Every element returned is irreducible; that none is missing rests on
    the paper's width theorem, which puts every basis element inside the
    box (lambda_1 <= rank; see :func:`width_bound_audit`).
    """
    elements, _ = _minimal_slacks(rank)
    return BasisCatalog(rank=rank, elements=elements)


# --- extremal rays ----------------------------------------------------------


@dataclass(frozen=True)
class RaySpec:
    """Parameters (a, b, ell) of the ray spanned by lambda = a^(b+ell),
    mu = (a^ell, b^a) at the given rank; impossible parameters raise
    :class:`InvalidPair`."""

    a: int
    b: int
    ell: int
    rank: int

    def __post_init__(self) -> None:
        if any(map(_non_integer, (self.a, self.b, self.ell, self.rank))):
            raise InvalidPair(f"need integer parameters, got {self!r}")
        if not (self.rank >= self.a + self.ell >= self.a >= self.b > 0):
            raise InvalidPair(
                f"need rank >= a+ell >= a >= b > 0, got {self!r}"
            )

    def pair(self) -> KostkaPair:
        lam = (self.a,) * (self.b + self.ell)
        mu = (self.a,) * self.ell + (self.b,) * self.a
        return _certified(lam, mu, self.rank)


def primitive_point(spec: RaySpec) -> KostkaPair:
    """First lattice point on the ray: the spanning pair divided by
    gcd(a, b)."""
    g = math.gcd(spec.a, spec.b)
    lam = (spec.a // g,) * (spec.b + spec.ell)
    mu = (spec.a // g,) * spec.ell + (spec.b // g,) * spec.a
    return _certified(lam, mu, spec.rank)


def _ray_rank_cap(rank: int) -> None:
    """Refuse a rank below 0 or above ``config.RAY_RANK_CAP``, with
    :class:`RankCapExceeded`."""
    if rank < 0:
        raise RankCapExceeded(f"rank {rank} is negative")
    if rank > config.RAY_RANK_CAP:
        raise RankCapExceeded(f"rank {rank} exceeds cap {config.RAY_RANK_CAP}")


def extremal_rays(rank: int) -> tuple[RaySpec, ...]:
    """All extremal rays at the given rank, deduplicated ((a, a, ell) is
    parallel to (1, 1, a+ell-1)) and sorted by (a, b, ell).  Raises
    :class:`RankCapExceeded` below 0 or above ``config.RAY_RANK_CAP``."""
    _ray_rank_cap(rank)
    if rank < 1:
        return ()
    # b < a, and b = 1 alone at a = 1, which stands for every (a, a, ell)
    specs = [
        RaySpec(a=a, b=b, ell=ell, rank=rank)
        for a in range(1, rank + 1)
        for b in range(1, a) or (1,)
        for ell in range(rank - a + 1)
    ]
    expected = math.comb(rank, 3) + math.comb(rank, 2) + math.comb(rank, 1)
    if len(specs) != expected:
        raise AssertionFailure(
            f"ray count {len(specs)} != C(r,3)+C(r,2)+C(r,1) = {expected}"
        )
    return tuple(specs)


def _is_rectangle(p: Partition) -> bool:
    return len(set(p)) == 1 if p else False


def _ray_spec(pair: KostkaPair) -> RaySpec | None:
    """The listed ray through a nonzero pair, or None.

    The spec is read off the pair's primitive point (lambda, mu), the
    pair divided by the gcd of its parts: mu = lambda is the ray
    (1, 1, len - 1); otherwise ell counts the copies of lambda_1 in mu,
    a = len(mu) - ell and b = len(lambda) - ell.  The pair is on the ray
    iff those parameters are possible and the ray's primitive point is
    (lambda, mu)."""
    g = math.gcd(*pair.lam, *pair.mu)
    lam = tuple(v // g for v in pair.lam)
    mu = tuple(v // g for v in pair.mu)
    if mu == lam:
        a, b, ell = 1, 1, len(lam) - 1
    else:
        ell = mu.count(lam[0])
        a, b = len(mu) - ell, len(lam) - ell
    try:
        spec = RaySpec(a=a, b=b, ell=ell, rank=pair.rank)
    except InvalidPair:
        return None
    return spec if primitive_point(spec).key() == (lam, mu) else None


def _integer_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss)
    elimination: every division by the previous pivot is exact."""
    m = [list(row) for row in rows]
    width = len(m[0]) if m else 0
    rank, prev = 0, 1
    for c in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, len(m)):
            m[i] = [(p * m[i][j] - m[i][c] * m[rank][j]) // prev for j in range(width)]
        prev = p
        rank += 1
    return rank


@functools.lru_cache(maxsize=32)
def _facets(rank: int) -> tuple[tuple[int, ...], ...]:
    """The 3 * rank - 1 facet normals of the rank-``rank`` cone, over the
    coordinates (lambda_1..lambda_rank, mu_1..mu_rank), in
    :func:`_cone_slacks`' slack order: the consecutive differences of
    lambda, then of mu (the last part counting as a difference from 0),
    then the prefix-sum gaps Lambda_t - M_t for t < rank."""
    diff = np.eye(rank, dtype=np.int64) - np.eye(rank, k=1, dtype=np.int64)
    sums = np.tri(rank - 1, rank, dtype=np.int64)
    zero = np.zeros_like(diff)
    return tuple(map(tuple, np.block([[diff, zero], [zero, diff], [sums, -sums]]).tolist()))


def _tight_rank(pair: KostkaPair) -> int:
    """Rank of the facet normals the pair saturates, with the row of
    |lambda| = |mu| (exact integer arithmetic)."""
    lam, mu = pair.padded()
    point = lam + mu
    rows = [row for row in _facets(pair.rank) if not sum(map(mul, row, point))]
    rows.append([1] * pair.rank + [-1] * pair.rank)
    return _integer_rank(rows)


def is_extremal(pair: KostkaPair) -> bool:
    """Whether the pair lies on an extremal ray of its cone.

    Decided twice: by the ray list that :func:`extremal_rays` gives
    (:func:`_ray_spec`) and by checking that the pair's tight facet
    normals have rank 2*rank - 1.  Disagreement raises
    :class:`InconsistentExtremalityTests`; a rank below 0 or above
    ``config.RAY_RANK_CAP`` raises :class:`RankCapExceeded` first.
    """
    _ray_rank_cap(pair.rank)
    if pair.n == 0:
        return False
    family = _ray_spec(pair) is not None
    tight = _tight_rank(pair) == 2 * pair.rank - 1
    if family != tight:
        raise InconsistentExtremalityTests(
            f"classification says {family}, tight-rank test says {tight} for {pair}"
        )
    return family


# --- width-bound audit ------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    rank: int
    basis_count: int
    full_width_count: int
    boundary_pairs_checked: int
    box_cap: int


def width_bound_audit(rank: int) -> AuditReport:
    """Checks, raising :class:`AssertionFailure` on any violation:

    - basis elements with lambda_1 = rank have both sides rectangular;
    - every cone pair with lambda_1 = rank + 1 is reducible, certified
      by a basis element below it in slack order (the difference is
      then a nonzero cone point, so the certificate does not lean on
      the width theorem).

    Such a pair has at most rank * (rank + 1) boxes, the report's
    ``box_cap``, so the whole lambda_1 = rank + 1 layer is checked.  No
    basis element is wider than the rank by construction, since
    :func:`_minimal_slacks` takes candidates only inside the rank x rank
    box; the width bound itself is tested by the last check, on the
    layer just outside the box.
    """
    box_cap = rank * (rank + 1)
    elements, basis = _minimal_slacks(rank)
    full_width = 0
    for pair in elements:
        if pair.width == rank:
            full_width += 1
            if not (_is_rectangle(pair.lam) and _is_rectangle(pair.mu)):
                raise AssertionFailure(
                    f"width-saturating basis pair {pair} is not a rectangle pair"
                )
    checked = 0
    for block in _box_partitions(rank + 1, rank, box_cap):
        # the lambdas with lambda_1 = rank + 1 come first in the block
        lam, mu, slacks = _cone_slacks(block, np.count_nonzero(block[:, 0] > rank))
        checked += len(lam)
        covered = _covered(slacks, basis)
        if not covered.all():
            i = int(np.argmin(covered))
            pair = KostkaPair(block[lam[i]].tolist(), block[mu[i]].tolist(), rank)
            raise AssertionFailure(
                f"over-wide pair {pair} has no basis element below it"
            )
    return AuditReport(
        rank=rank,
        basis_count=len(elements),
        full_width_count=full_width,
        boundary_pairs_checked=checked,
        box_cap=box_cap,
    )
