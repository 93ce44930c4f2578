"""Vectorized sweeps over column subsets.

Reducibility questions below all reduce to: find a proper nonempty
subset of [1..w] whose indicator vector satisfies a linear feasibility
condition.  This module enumerates all 2^w - 2 masks in fixed-size
chunks (bounded memory for w up to the configured caps) and returns the
witness whose sorted index tuple is lexicographically smallest, so
results are deterministic and stable across chunk sizes.
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


def _padded_index_rows(bits: np.ndarray, width: int) -> np.ndarray:
    """Sorted 1-based index tuples padded with trailing zeros.

    Padding with zeros at the end makes plain lexicographic comparison
    of rows agree with lexicographic comparison of the index tuples
    (a strict prefix sorts before its extensions)."""
    sentinel = width + 2
    vals = np.where(bits > 0, np.arange(1, width + 1, dtype=np.int8), np.int8(sentinel))
    vals = np.sort(vals, axis=1)
    vals[vals == sentinel] = 0
    return vals


def _lexmin_row(rows: np.ndarray) -> int:
    """Index of the lexicographically smallest row."""
    order = np.lexsort(tuple(rows[:, j] for j in range(rows.shape[1] - 1, -1, -1)))
    return int(order[0])


def sweep_proper_subsets(
    width: int,
    predicate: Predicate,
    chunk_bits: int = config.CHUNK_BITS,
) -> tuple[int, ...] | None:
    """First (by sorted-index-tuple order) proper nonempty subset of
    [1..width] satisfying ``predicate``, or None.

    The predicate is called on chunks of subset indicator matrices and
    must return a boolean vector.  Every chunk is visited: the witness
    minimal in tuple order need not be minimal as a bit mask.
    """
    if width < 2:
        return None
    total = 1 << width
    chunk = 1 << chunk_bits
    best: tuple[int, ...] | None = None
    for start in range(1, total - 1, chunk):
        stop = min(start + chunk, total - 1)
        masks = np.arange(start, stop, dtype=np.uint64 if width > 31 else np.uint32)
        bits = _bits(masks, width)
        good = np.asarray(predicate(bits), dtype=bool)
        if not good.any():
            continue
        rows = _padded_index_rows(bits[good], width)
        local = mask_indices(int(masks[good][_lexmin_row(rows)]), width)
        if best is None or local + (0,) * (width - len(local)) < best + (0,) * (
            width - len(best)
        ):
            best = local
    return best
