"""Brute-force referees, written independently of the library internals.

Everything here trades speed for obviousness: explicit search over 0/1
matrices, tableau fillings cell by cell, and exhaustive subset scans.
These are the ground truth the fast implementations are tested against.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from kostka import config
from kostka.config import INT_CAP
from kostka.errors import (
    InvalidPair,
    InvalidPartition,
    MalformedStarMatrix,
    NotAWitness,
    ShapeError,
    SizeCapExceeded,
)
from kostka.partitions import KostkaPair, pad, size
from kostka.sequences import CatalanSeq, catalan_reducible as sublist_witness


def prefix_dom(a: Sequence[int], b: Sequence[int]) -> bool:
    """All prefix sums of ``a`` at least those of ``b`` (after padding)."""
    length = max(len(a), len(b))
    ta, tb = 0, 0
    for i in range(length):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            return False
    return True


def dominance_walk(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Prefix dominance of two partitions of any totals, one running gap
    at a time over the zero-padded parts (the library's kernel as first
    written)."""
    gap = 0
    for x, y in itertools.zip_longest(a, b, fillvalue=0):
        gap += x - y
        if gap < 0:
            return False
    return True


def dominance(a: Sequence[int], b: Sequence[int]) -> bool:
    return sum(a) == sum(b) and prefix_dom(a, b)


def partitions(
    n: int, max_part: int | None = None, max_len: int | None = None
) -> Iterator[tuple[int, ...]]:
    """The partitions of n with parts at most ``max_part`` and at most
    ``max_len`` parts (no bound for None), in decreasing lexicographic
    order: each part in turn, largest first."""

    def rec(remaining: int, bound: int, slots: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - part, part, slots - 1):
                yield (part,) + rest

    yield from rec(
        n, n if max_part is None else max_part, n if max_len is None else max_len
    )


def cone_pairs(
    max_boxes: int, max_part: int, max_len: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every dominance pair (lambda, mu) with 1 <= |lambda| <= max_boxes,
    lambda_1 <= max_part and at most max_len parts on each side, by
    filtering all pairs of partitions: ordered by size, then lambda, then
    mu, each in decreasing lexicographic order.  A mu that lambda
    dominates has mu_1 <= lambda_1, so both sides come from one list."""
    for n in range(1, max_boxes + 1):
        shapes = list(partitions(n, max_part, max_len))
        for lam in shapes:
            yield from ((lam, mu) for mu in shapes if dominance(lam, mu))


def gr_matrix_exists(row_sums: Sequence[int], col_sums: Sequence[int]) -> bool:
    """Is there a 0/1 matrix with these exact margins?  Row-by-row DFS."""
    rows = [int(v) for v in row_sums]
    cols = [int(v) for v in col_sums]
    if sum(rows) != sum(cols):
        return False
    if any(v < 0 for v in rows + cols):
        return False
    w = len(cols)

    def place(i: int, remaining: tuple[int, ...]) -> bool:
        if i == len(rows):
            return not any(remaining)
        need = rows[i]
        if need > w:
            return False
        open_cols = [j for j in range(w) if remaining[j] > 0]
        if len(open_cols) < need:
            return False
        rows_left = len(rows) - i - 1
        for chosen in itertools.combinations(open_cols, need):
            nxt = list(remaining)
            for j in chosen:
                nxt[j] -= 1
            if max(nxt, default=0) > rows_left:
                continue
            if place(i + 1, tuple(nxt)):
                return True
        return False

    return place(0, tuple(cols))


def ssyt_count(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Semistandard tableaux of shape lam and content mu, counted by
    filling cells one at a time (rows weakly increase, columns strictly)."""
    lam = tuple(int(v) for v in lam if v)
    mu = tuple(int(v) for v in mu)
    if sum(lam) != sum(mu):
        return 0
    cells = [(r, c) for r, width in enumerate(lam) for c in range(width)]
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * len(mu)

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        total = 0
        for v in range(len(mu)):
            if counts[v] >= mu[v]:
                continue
            if c > 0 and grid[(r, c - 1)] > v:
                continue
            if r > 0 and grid[(r - 1, c)] >= v:
                continue
            counts[v] += 1
            grid[(r, c)] = v
            total += fill(k + 1)
            counts[v] -= 1
            del grid[(r, c)]
        return total

    return fill(0)


def vector_splits(lam: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All v with v and lam - v weakly decreasing and 0 <= v <= lam."""
    lam = tuple(int(v) for v in lam)
    for v in itertools.product(*(range(p + 1) for p in lam)):
        pieces = tuple(v)
        rest = tuple(a - b for a, b in zip(lam, pieces))
        if all(pieces[i] >= pieces[i + 1] for i in range(len(pieces) - 1)) and all(
            rest[i] >= rest[i + 1] for i in range(len(rest) - 1)
        ):
            yield pieces


def pair_reducible(
    lam: Sequence[int], mu: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Some (v, w) with 0 < |v| = |w| < |lam|, all four halves weakly
    decreasing, v dominating w and lam - v dominating mu - w."""
    lam = tuple(int(p) for p in lam)
    mu = tuple(int(p) for p in mu)
    n = sum(lam)
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for w in vector_splits(mu):
        by_size.setdefault(sum(w), []).append(w)
    for v in vector_splits(lam):
        m = sum(v)
        if not 0 < m < n:
            continue
        for w in by_size.get(m, ()):
            rest_l = tuple(a - b for a, b in zip(lam, v))
            rest_m = tuple(a - b for a, b in zip(mu, w))
            if prefix_dom(v, w) and dominance(rest_l, rest_m):
                return v, w
    return None


def catalan_ok(entries: Sequence[int], positions: Sequence[int]) -> bool:
    """Do the 1-based positions select a zero-sum sublist with
    nonnegative prefix sums?"""
    height = 0
    for i in positions:
        height += entries[i - 1]
        if height < 0:
            return False
    return height == 0


def catalan_reducible(entries: Sequence[int]) -> tuple[int, ...] | None:
    """Lexicographically least proper nonempty 1-based position set whose
    selection and complement are both valid, by full enumeration."""
    t = len(entries)
    best: tuple[int, ...] | None = None
    for size in range(1, t):
        for subset in itertools.combinations(range(1, t + 1), size):
            rest = tuple(i for i in range(1, t + 1) if i not in subset)
            if catalan_ok(entries, subset) and catalan_ok(entries, rest):
                if best is None or subset < best:
                    best = subset
    return best


def subset_sum_dfs(inst) -> tuple[int, ...] | None:
    """First (in sorted-index-tuple order) subset of positions of a
    SubsetSumInstance summing to its target, or None: the library's
    oracle as first written, depth-first with include-before-skip, so
    the first hit is the lexicographically smallest witness.  It takes
    no cap."""
    d = len(inst.values)
    values, target = inst.values, inst.target
    suffix = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]

    def dfs(i: int, remaining: int, acc: list[int]) -> tuple[int, ...] | None:
        if remaining == 0:
            return tuple(acc)
        if i == d or remaining < 0 or suffix[i] < remaining:
            return None
        acc.append(i + 1)
        hit = dfs(i + 1, remaining - values[i], acc)
        if hit is not None:
            return hit
        acc.pop()
        return dfs(i + 1, remaining, acc)

    return dfs(0, target, [])


def rank_order_sweep(width: int, predicate, cells: int) -> tuple[int, ...] | None:
    """The first proper nonempty subset of [1..width] in sorted index
    tuple order that ``predicate`` accepts, or None, found as the
    library's sweep first found it.  The predicate maps (N, width) int8
    indicator rows to (N,) booleans, and ``cells`` is the widest row it
    builds per subset.  Every proper nonempty mask is tested in counting
    order, in chunks of at most 2^CHUNK_BITS cells, and of all the hits
    the one whose sorted index tuple ranks first, by the rank
    2^width - 1 + k - R - (R & -R) of the tuple (R the mask read with
    position j weighing 2^(width - j)).  Every chunk is visited."""
    if width < 2:
        return None
    total = 1 << width
    chunk = max(1, (1 << config.CHUNK_BITS) // max(width, cells))
    shifts = np.arange(width, dtype=np.uint32)
    weights = np.left_shift(1, np.arange(width - 1, -1, -1, dtype=np.int64))
    best_rank, best = 0, None
    for start in range(1, total - 1, chunk):
        stop = min(start + chunk, total - 1)
        masks = np.arange(start, stop, dtype=np.uint64 if width > 31 else np.uint32)
        bits = (masks[:, None] >> shifts[None, :] & 1).astype(np.int8)
        good = np.asarray(predicate(bits), dtype=bool)
        if not good.any():
            continue
        hits = bits[good]
        rev = hits @ weights
        rank = hits.sum(axis=1, dtype=np.int64) - rev - (rev & -rev)
        at = int(rank.argmin())
        if best is None or rank[at] < best_rank:
            best_rank, best = int(rank[at]), int(masks[good][at])
    if best is None:
        return None
    return tuple(j + 1 for j in range(width) if best >> j & 1)


def catalan_sweep(entries: Sequence[int]) -> tuple[int, ...] | None:
    """``catalan_reducible`` as the library first computed it: every one
    of the 2^t - 2 proper nonempty masks tested at once by int64 prefix
    sums, the smallest witness in tuple order kept.  Valid only while
    those sums fit in int64, so it refuses larger entries."""
    if sum(abs(v) for v in entries) > INT_CAP:
        raise ValueError(f"prefix sums of {entries} may overflow int64")
    arr = np.asarray(entries, dtype=np.int64)
    full = arr.cumsum()

    def predicate(bits: np.ndarray) -> np.ndarray:
        chosen = (bits.astype(np.int64) * arr[None, :]).cumsum(axis=1)
        rest = full[None, :] - chosen
        return (
            (chosen >= 0).all(axis=1)
            & (chosen[:, -1] == 0)
            & (rest >= 0).all(axis=1)
        )

    return rank_order_sweep(len(entries), predicate, len(entries))


def star_reducible(star) -> tuple[int, ...] | None:
    """``matrix_reducible``'s witness, decided on the star matrix
    instead: the S row sums v* must satisfy 0 <= v* <= mu* entrywise.
    No cap is checked."""
    arr = star.entries
    mu_star = np.asarray(star.mu_star, dtype=np.int64)

    def predicate(bits: np.ndarray) -> np.ndarray:
        v = bits.astype(np.int64) @ arr.T
        return ((v >= 0) & (v <= mu_star[None, :])).all(axis=1)

    return rank_order_sweep(star.pair.width, predicate, star.pair.rank)


def _decreasing_rows(mat: np.ndarray) -> np.ndarray:
    if mat.shape[1] <= 1:
        return np.ones(mat.shape[0], dtype=bool)
    return (mat[:, :-1] >= mat[:, 1:]).all(axis=1)


def row_sum_reducible(canonical) -> tuple[int, ...] | None:
    """``matrix_reducible``'s witness, decided as the library first
    computed it: the S row sums and the complementary row sums, in
    int64, are both tested for weakly decreasing rows.  No cap is
    checked."""
    pair = canonical.pair
    arr = canonical.entries
    mu_padded = np.asarray(_padded(pair.mu, pair.rank), dtype=np.int64)

    def predicate(bits: np.ndarray) -> np.ndarray:
        sums = bits.astype(np.int64) @ arr.T
        return _decreasing_rows(sums) & _decreasing_rows(mu_padded[None, :] - sums)

    return rank_order_sweep(pair.width, predicate, pair.rank)


# --- common-column splits ------------------------------------------------
#
# A cone pair maps to the sequence x_j = mu'_j - lambda'_j, one entry per
# column of lambda; dominance makes its prefixes nonnegative.  Positions
# where both the sublist and its complement are Catalan split both
# diagrams along common columns, a strictly stronger form of
# reducibility, which every pair wider than its rank has.


def pair_to_sequence(pair: KostkaPair) -> tuple[int, ...]:
    """Column-difference sequence mu'_j - lambda'_j for j = 1..lambda_1.
    Entries may be zero; the total is zero and prefixes are nonnegative."""
    w = pair.width
    lam_conj = _padded(_conjugate(pair.lam), w)
    mu_conj = _padded(_conjugate(pair.mu), w)
    return tuple(m - l for m, l in zip(mu_conj, lam_conj))


def common_split(
    pair: KostkaPair, columns: Sequence[int]
) -> tuple[KostkaPair, KostkaPair]:
    """Split both diagrams along the given column positions: the halves
    take the selected columns of lambda *and* of mu.  Raises
    NotAWitness when either half leaves the cone."""
    w = pair.width
    sel = sorted(set(columns))
    if not sel or len(sel) == w or sel[0] < 1 or sel[-1] > w:
        raise NotAWitness(f"columns {columns} are not a proper nonempty subset")
    lam_conj = _padded(_conjugate(pair.lam), w)
    mu_conj = _padded(_conjugate(pair.mu), w)
    halves = []
    for index_set in (sel, [j for j in range(1, w + 1) if j not in sel]):
        lam_cols = sorted((lam_conj[j - 1] for j in index_set), reverse=True)
        mu_cols = sorted((mu_conj[j - 1] for j in index_set), reverse=True)
        lam, mu = tuple(_conjugate(lam_cols)), tuple(_conjugate(mu_cols))
        try:
            halves.append(KostkaPair(lam, mu, pair.rank))
        except InvalidPair as exc:
            raise NotAWitness(
                f"columns {index_set} do not give a cone pair: {exc}"
            ) from exc
    return halves[0], halves[1]


def commonly_reducible(
    pair: KostkaPair,
) -> tuple[tuple[int, ...], KostkaPair, KostkaPair] | None:
    """(columns, selected half, complement half) of a common-column split
    of the pair, or None.  A zero entry of the column-difference sequence
    (a column of equal height in both diagrams) splits off on its own;
    otherwise the library's sublist search decides."""
    if pair.width <= 1:
        return None
    x = pair_to_sequence(pair)
    if 0 in x:
        columns = (x.index(0) + 1,)
    else:
        columns = sublist_witness(CatalanSeq(x))
        if columns is None:
            return None
    return (columns, *common_split(pair, columns))


def horizontal_strip(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """Is outer/inner a horizontal strip: inner fits inside outer and no
    column gains more than one box (outer_{i+1} <= inner_i)."""
    length = max(len(inner), len(outer))
    small = tuple(inner) + (0,) * (length - len(inner))
    big = tuple(outer) + (0,) * (length - len(outer))
    if any(s > b for s, b in zip(small, big)):
        return False
    return all(big[i + 1] <= small[i] for i in range(length - 1))


def lr_coefficient_grid(triple) -> int:
    """c(lambda, mu; nu) for an LrTriple, with the library's checks and
    refusals: the tableau search as first written, each filling held in
    a dict keyed by (row, col) and each cell's neighbours looked up on
    every visit."""
    lam, mu, nu = triple.lam, triple.mu, triple.nu
    if size(nu) > config.LR_BOX_CAP:
        raise SizeCapExceeded(f"|nu| = {size(nu)} exceeds cap {config.LR_BOX_CAP}")
    lam_padded = pad(lam, len(nu)) if len(lam) <= len(nu) else None
    if lam_padded is None or any(l > n for l, n in zip(lam_padded, nu)):
        raise ShapeError(f"lambda {lam} is not contained in nu {nu}")
    if size(lam) + size(mu) != size(nu):
        return 0
    values = len(mu)
    # skew cells in reading order: top row first, right to left
    cells: list[tuple[int, int]] = []
    for i, outer in enumerate(nu):
        for j in range(outer - 1, lam_padded[i] - 1, -1):
            cells.append((i, j))
    if not cells:
        return 1  # empty skew shape, empty content
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (values + 1)

    def above_value(i: int, j: int) -> int | None:
        if i == 0 or j >= nu[i - 1] or j < lam_padded[i - 1]:
            return None
        return grid[(i - 1, j)]

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        right = grid.get((i, j + 1))
        floor = above_value(i, j)
        total = 0
        for v in range(1, values + 1):
            if right is not None and v > right:
                break  # rows weakly increase left to right
            if floor is not None and v <= floor:
                continue  # columns strictly increase top to bottom
            if counts[v] >= mu[v - 1]:
                continue  # content bound
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # ballot: prefix counts stay weakly decreasing
            grid[(i, j)] = v
            counts[v] += 1
            total += fill(idx + 1)
            counts[v] -= 1
            del grid[(i, j)]
        return total

    return fill(0)


def compositions_below(bound: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All integer vectors 0 <= alpha <= bound coordinatewise."""
    yield from itertools.product(*(range(b + 1) for b in bound))


def schur_product_monomial(
    lam: Sequence[int], mu: Sequence[int], rho: Sequence[int]
) -> int:
    """Coefficient of x^rho in s_lam * s_mu, as a sum of products of
    tableau counts over splittings rho = alpha + beta."""
    total = 0
    for alpha in compositions_below(rho):
        if sum(alpha) != sum(lam):
            continue
        beta = tuple(r - a for r, a in zip(rho, alpha))
        total += ssyt_count(lam, sorted_desc(alpha)) * ssyt_count(
            mu, sorted_desc(beta)
        )
    return total


def sorted_desc(v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted((x for x in v if x), reverse=True))


# --- validation as first written ---------------------------------------
#
# The constructors of kostka.ryser and kostka.kgr and the partition check
# of kostka.partitions validate in fused passes.  These are the
# straightforward versions they replaced, check by check in the same
# order; each raises the same exception with the same message, or
# returns None (as_partition: the trimmed tuple) when the input passes.


def as_partition(seq) -> tuple[int, ...]:
    parts = tuple(seq)
    for p in parts:
        if not isinstance(p, (int,)) or isinstance(p, bool):
            raise InvalidPartition(f"non-integer part {p!r}")
        if p < 0:
            raise InvalidPartition(f"negative part {p}")
        if p > INT_CAP:
            raise InvalidPartition(f"part {p} exceeds 64-bit range")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise InvalidPartition(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _frozen_int8(entries, shape, error):
    raw = np.asarray(entries)
    if raw.size == 0 and 0 in shape:
        raw = raw.reshape(shape)
    if raw.shape != shape:
        raise error(f"matrix shape {raw.shape} != {shape}")
    arr = raw.astype(np.int8)
    if not np.array_equal(arr, raw):
        raise error("entries do not fit in int8")
    return arr


def _padded(p: Sequence[int], length: int) -> list[int]:
    return list(p) + [0] * (length - len(p))


def _conjugate(p: Sequence[int]) -> list[int]:
    return [sum(1 for part in p if part >= j) for j in range(1, (p[0] if p else 0) + 1)]


def canonical_matrix_checks(pair, entries) -> None:
    """``CanonicalMatrix(pair, entries)`` validation."""
    r, w = pair.rank, pair.width
    arr = _frozen_int8(entries, (r, w), AssertionError)
    if np.count_nonzero((arr != 0) & (arr != 1)):
        raise AssertionError("entries must be 0/1")
    if arr.sum(axis=1, dtype=np.int64).tolist() != _padded(pair.mu, r):
        raise AssertionError("row sums do not match mu")
    if arr.sum(axis=0, dtype=np.int64).tolist() != _padded(_conjugate(pair.lam), w):
        raise AssertionError("column sums do not match conjugate(lambda)")
    starts = arr.copy()
    starts[1:] &= 1 - arr[:-1]
    runs = starts.sum(axis=0, dtype=np.int64)
    top = arr[:1].any(axis=0)
    bad = ((runs > 2) | ((runs == 2) & ~top)).nonzero()[0]
    if bad.size:
        j = int(bad[0])
        raise AssertionError(f"column {j + 1} has {runs[j]} runs of 1s")
    if w and runs[0] and not top[0]:
        raise AssertionError("leftmost column not anchored at the top")


def star_matrix_checks(pair, entries, mu_star) -> None:
    """``StarMatrix(pair, entries)`` validation, against the given mu*."""
    r, w = pair.rank, pair.width
    arr = _frozen_int8(entries, (r, w), MalformedStarMatrix)
    if arr.sum(axis=1, dtype=np.int64).tolist() != list(mu_star):
        raise MalformedStarMatrix("row sums do not match mu*")
    mu_padded = _padded(pair.mu, r)
    expected = tuple(
        mu_padded[i] - (mu_padded[i + 1] if i + 1 < r else 0) for i in range(r)
    )
    if mu_star != expected:
        raise MalformedStarMatrix("mu* does not match consecutive differences")
    nonzeros = np.count_nonzero(arr, axis=0)
    partial = np.cumsum(arr[::-1], axis=0, dtype=np.int64)
    valid = (nonzeros >= 1) & (nonzeros <= 3)
    valid &= ((partial == 0) | (partial == 1)).all(axis=0)
    bad = (~valid).nonzero()[0]
    if bad.size:
        j = int(bad[0])
        sig = arr[:, j][arr[:, j] != 0].tolist()
        raise MalformedStarMatrix(f"column {j + 1} pattern {tuple(sig)}")
    if w and nonzeros[0] != 1:
        raise MalformedStarMatrix("leftmost column must be a single +1")
    if r and np.count_nonzero(arr[r - 1] < 0):
        raise MalformedStarMatrix("bottom row contains a -1")


def graph_checks(entries) -> None:
    """``build_graph`` validation of a star matrix's entries: at most one
    -1 per column, each with a +1 as its nearest nonzero on the left."""
    arr = np.asarray(entries)
    w = arr.shape[1]
    r0, c0 = arr.nonzero()
    signs = arr[r0, c0]
    minus = (signs < 0).nonzero()[0]
    if np.count_nonzero(np.bincount(c0[minus], minlength=w) > 1):
        seen: set[int] = set()
        for c in c0[minus].tolist():
            if c in seen:
                raise MalformedStarMatrix(f"column {c + 1} has two -1 entries")
            seen.add(c)
    left = minus - 1
    stray = (left < 0) | (r0[left] != r0[minus])
    bad = (stray | (signs[left] < 0)).nonzero()[0]
    if bad.size:
        m, b = int(minus[bad[0]]), int(left[bad[0]])
        where = (int(r0[m]) + 1, int(c0[m]) + 1)
        if stray[bad[0]]:
            raise MalformedStarMatrix(f"-1 at {where} has no +1 on its left")
        raise MalformedStarMatrix(
            f"-1 at {(int(r0[b]) + 1, int(c0[b]) + 1)} blocks the -1 at {where}"
        )


# --- enumeration kernels as first written --------------------------------
#
# kostka_count and decompose of kostka.partitions and kostka.cone before
# they peeled by content symmetry and sliced presorted size blocks.  They
# take partitions that are already checked and give the same answers.


def strip_peel_count(lam: Sequence[int], mu: Sequence[int]) -> int:
    """K(lambda, mu) by peeling one horizontal strip per letter of mu,
    last letter first, every candidate strip generated and filtered."""
    lam, mu = tuple(lam), tuple(mu)
    left = sum(lam)
    if left != sum(mu):
        return 0
    ways = {lam: 1}
    for rows in range(len(mu) - 1, -1, -1):
        left -= mu[rows]
        peeled: dict[tuple[int, ...], int] = {}
        for shape, count in ways.items():
            ranges = map(range, shape[1:] + (0,), [part + 1 for part in shape])
            for prev in itertools.product(*ranges):
                if sum(prev) == left:
                    prev = prev if prev[-1] else prev[:-1]
                    if len(prev) <= rows:
                        peeled[prev] = peeled.get(prev, 0) + count
        ways = peeled
    return ways.get((), 0)


def _size_sorted_splittings(p: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    length = len(p)
    deltas = [p[i] - (p[i + 1] if i + 1 < length else 0) for i in range(length)]
    combos = np.array(
        list(itertools.product(*(range(d + 1) for d in deltas))), dtype=np.int64
    ).reshape(-1, length)
    vectors = combos[:, ::-1].cumsum(axis=1)[:, ::-1] if length else combos
    sizes = vectors.sum(axis=1)
    order = np.lexsort((*vectors.T[::-1], sizes))
    return vectors[order], sizes[order]


def _padded_prefixes(vectors: np.ndarray, rank: int) -> np.ndarray:
    out = np.zeros((vectors.shape[0], rank), dtype=np.int64)
    out[:, : vectors.shape[1]] = vectors
    return out.cumsum(axis=1)


def splitting_decompose(pair):
    """``decompose(pair)`` by one size mask and one rank-wide broadcast
    per size m of the small half."""
    n, r = sum(pair.lam), pair.rank
    if n == 0:
        return None
    lam_v, lam_sizes = _size_sorted_splittings(pair.lam)
    mu_v, mu_sizes = _size_sorted_splittings(pair.mu)
    gap = np.cumsum(
        np.subtract(_padded(pair.lam, r), _padded(pair.mu, r)), dtype=np.int64
    )
    for m in range(1, n // 2 + 1):
        va = lam_v[lam_sizes == m]
        vb = mu_v[mu_sizes == m]
        if not (va.shape[0] and vb.shape[0]):
            continue
        diff = _padded_prefixes(va, r)[:, None, :] - _padded_prefixes(vb, r)[None, :, :]
        ok = (diff >= 0).all(axis=2) & (diff <= gap[None, None, :]).all(axis=2)
        hits = np.argwhere(ok)
        if hits.size:
            i, j = hits[0]
            small_lam, small_mu = va[i].tolist(), vb[j].tolist()
            return (
                KostkaPair(small_lam, small_mu, r),
                KostkaPair(
                    [a - b for a, b in zip(pair.lam, small_lam)],
                    [a - b for a, b in zip(pair.mu, small_mu)],
                    r,
                ),
            )
    return None


# --- Ryser's column-fixing procedure as first written ----------------------
#
# kostka.ryser before it kept the conjugate of the prefix shape: every
# column sorts all rows by current sum.


def sorted_fixing_stages(pair) -> tuple[np.ndarray, np.ndarray]:
    """Run the column-fixing procedure and record its decisions.

    Returns (rows, cols): for s = lambda_1 down to 1 in turn, the
    lambda'_s rows selected at column s, each paired with column index
    s - 1."""
    r, w = pair.rank, pair.width
    lam_conj = _conjugate(pair.lam)
    sums = _padded(pair.mu, r)
    south_first = list(range(r - 1, -1, -1))
    rows: list[int] = []
    for s in range(w, 0, -1):
        # largest current sum first; the sort is stable, so among ties
        # the southmost row wins
        order = sorted(south_first, key=sums.__getitem__, reverse=True)
        k = lam_conj[s - 1]
        if sums[order[k - 1]] == 0:
            raise AssertionError(f"row {order[k - 1] + 1} has no 1 left of column {s}")
        # column s leaves the prefix: no unselected row may still reach it
        if k < r and sums[order[k]] >= s:
            raise AssertionError(f"row {order[k] + 1} keeps a 1 in column {s}")
        chosen = order[:k]
        for i in chosen:
            sums[i] -= 1
        rows.extend(chosen)
    cols = np.arange(w - 1, -1, -1).repeat(lam_conj[::-1])
    return np.asarray(rows, dtype=np.intp), cols


def sorted_canonical(pair) -> np.ndarray:
    """The canonical matrix's entries, one cell per recorded row."""
    rows, cols = sorted_fixing_stages(pair)
    arr = np.zeros((pair.rank, pair.width), dtype=np.int8)
    arr[rows, cols] = 1
    return arr


def sorted_chain(pair) -> list[np.ndarray]:
    """The fixing chain, replayed from the recorded rows."""
    r, w = pair.rank, pair.width
    rows, cols = sorted_fixing_stages(pair)
    sums = np.asarray(_padded(pair.mu, r), dtype=np.intp)
    arr = np.zeros((r, w), dtype=np.int8)
    arr[np.arange(w) < sums[:, None]] = 1  # flush left
    chain = [arr.copy()]
    steps = np.split(rows, np.flatnonzero(np.diff(cols)) + 1) if w else []
    for s, chosen in zip(range(w, 0, -1), steps):
        # each selected row's rightmost 1 in columns 1..s moves to column s
        sums[chosen] -= 1
        arr[chosen, sums[chosen]] = 0
        arr[chosen, s - 1] = 1
        chain.append(arr.copy())
    return chain


# --- the byte-wise slack scan as first written -----------------------------
#
# kostka.cone before it compared slack rows eight bytes per uint64 word:
# every comparison fills a boolean broadcast over the rows' trailing
# axis and reduces it with ``.all(axis=2)``.


def bytewise_cone_pairs(block: np.ndarray, wide: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cone pairs of one size block, lambda among its first ``wide``
    rows, as (lambda rows, mu rows, slack rows): dominance read off the
    signs of one broadcast of prefix-sum gaps, which become the slacks'
    last rank - 1 entries."""
    rank = block.shape[1]
    diffs = block.copy()
    diffs[:, :-1] -= block[:, 1:]
    sums = block[:, :-1].cumsum(axis=1, dtype=block.dtype)
    gaps = sums[:wide, None, :] - sums[None, :, :]
    lam, mu = (gaps >= 0).all(axis=2).nonzero()
    rows = np.empty((len(lam), 3 * rank - 1), dtype=block.dtype)
    np.take(diffs, lam, axis=0, out=rows[:, :rank])
    np.take(diffs, mu, axis=0, out=rows[:, rank : 2 * rank])
    rows[:, 2 * rank :] = gaps[lam, mu]
    return lam, mu, rows


def bytewise_covered(slacks: np.ndarray, basis: np.ndarray, chunk_bits: int = 20) -> np.ndarray:
    """For each row of ``slacks``, whether some row of ``basis`` lies at or
    below it: chunks of 2^chunk_bits cells, a doubling step of basis
    rows, covered rows leaving the chunk."""
    cells = 1 << chunk_bits
    width = slacks.shape[1]
    chunk_rows = max(1, cells // width)
    covered = np.zeros(slacks.shape[0], dtype=bool)
    for start in range(0, slacks.shape[0], chunk_rows):
        chunk = slacks[start : start + chunk_rows]
        index = np.arange(start, start + chunk.shape[0])
        budget, done = cells >> 6, 0
        while index.size and done < basis.shape[0]:
            step = max(1, budget // chunk.size)
            below = basis[done : done + step]
            hit = (below[None, :, :] <= chunk[:, None, :]).all(axis=2).any(axis=1)
            if hit.any():
                covered[index[hit]] = True
                chunk, index = chunk[~hit], index[~hit]
            done += step
            budget = min(2 * budget, cells)
    return covered
