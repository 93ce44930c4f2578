"""Vectorized sweeps over column subsets.

The matrix reducibility questions of :mod:`kostka.ryser` reduce to:
find a proper nonempty subset of [1..w] whose indicator vector satisfies
a linear feasibility condition.  This module enumerates all 2^w - 2
masks in chunks of at most 2^CHUNK_BITS cells, so peak memory does not
grow with w or with the predicate's rows, and returns the witness whose
sorted index tuple is lexicographically smallest, so results are
deterministic and stable across chunk sizes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import config

# predicate: (N, width) 0/1 int8 matrix of subset indicators -> (N,) bool
Predicate = Callable[[np.ndarray], np.ndarray]


def mask_indices(mask: int, width: int) -> tuple[int, ...]:
    """1-based positions of the set bits (bit 0 = position 1)."""
    return tuple(j + 1 for j in range(width) if mask >> j & 1)


def _bits(masks: np.ndarray, width: int) -> np.ndarray:
    return (masks[:, None] >> np.arange(width, dtype=np.uint32)[None, :] & 1).astype(
        np.int8
    )


def sweep_proper_subsets(
    width: int, predicate: Predicate, cells: int
) -> tuple[int, ...] | None:
    """First (by sorted-index-tuple order) proper nonempty subset of
    [1..width] satisfying ``predicate``, or None.

    The predicate must return a boolean vector, and ``cells`` is the
    widest row it builds per subset (the swept matrix's rank).  It is
    called on chunks of 2^CHUNK_BITS // max(width, cells) indicator rows
    (at least one), so no row block it builds holds more than
    2^CHUNK_BITS cells.  Every chunk is visited: the witness minimal in
    tuple order need not be minimal as a bit mask.

    Tuples are ranked by one integer.  Read the mask as R, position j
    weighing 2^(width - j).  The tuples before (i_1 < ... < i_k) are its
    k - 1 proper nonempty prefixes and, for each m and each j strictly
    between i_(m-1) and i_m (i_0 = 0), the 2^(width - j) tuples that
    agree with it before m and take j at m.  They add up to
    2^width - 1 + k - R - (R & -R), so the sweep keeps the hit with the
    smallest k - R - (R & -R).
    """
    if width < 2:
        return None
    total = 1 << width
    chunk = max(1, (1 << config.CHUNK_BITS) // max(width, cells))
    weights = np.left_shift(1, np.arange(width - 1, -1, -1, dtype=np.int64))
    best_rank, best = 0, None
    for start in range(1, total - 1, chunk):
        stop = min(start + chunk, total - 1)
        masks = np.arange(start, stop, dtype=np.uint64 if width > 31 else np.uint32)
        bits = _bits(masks, width)
        good = np.asarray(predicate(bits), dtype=bool)
        if not good.any():
            continue
        hits = bits[good]
        rev = hits @ weights
        rank = hits.sum(axis=1, dtype=np.int64) - rev - (rev & -rev)
        at = int(rank.argmin())
        if best is None or rank[at] < best_rank:
            best_rank, best = int(rank[at]), int(masks[good][at])
    return None if best is None else mask_indices(best, width)
