from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from kostka import config, ryser
from kostka.cone import RaySpec, primitive_point
from kostka.partitions import KostkaPair
from kostka.ryser import (
    matrix_reducible,
    ryser_canonical,
    star_matrix,
    sweep_proper_subsets,
)
from test_kgr import basis_sum


def mask_indices(mask: int, width: int) -> tuple[int, ...]:
    """1-based positions of the set bits (bit 0 = position 1)."""
    return tuple(j + 1 for j in range(width) if mask >> j & 1)


def random_rows(rng, width: int, rank: int, zeros: float, top: int):
    """``width`` int8 rows of ``rank`` entries in {-1, 0, 1}, a share
    ``zeros`` of them 0, and uint8 bounds drawn from 0..top."""
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(width, rank))
    diff = np.where(rng.random((width, rank)) < zeros, 0, signs).astype(np.int8)
    return diff, rng.integers(0, top + 1, size=rank).astype(np.uint8)


def accepts(diff: np.ndarray, mu_star: np.ndarray):
    """The predicate over indicator rows that accepts a subset iff its
    int64 row sum v satisfies 0 <= v <= mu_star."""
    wide, bound = diff.astype(np.int64), mu_star.astype(np.int64)

    def predicate(bits: np.ndarray) -> np.ndarray:
        v = bits.astype(np.int64) @ wide
        return ((v >= 0) & (v <= bound)).all(axis=1)

    return predicate


def first_by_tuple_order(diff: np.ndarray, mu_star: np.ndarray) -> tuple[int, ...] | None:
    """The least accepted proper nonempty subset, over every mask."""
    width = len(diff)
    masks = np.arange(1, (1 << width) - 1)
    bits = (masks[:, None] >> np.arange(width) & 1).astype(np.int8)
    good = accepts(diff, mu_star)(bits)
    return min((mask_indices(m, width) for m in masks[good].tolist()), default=None)


def lone(mask: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows under zero bounds that accept the subset ``mask`` alone.  Its
    rows go round a cycle of coordinates, +1 on one and -1 on the next,
    so a proper part of it leaves some -1; every other row puts a +1 on
    a coordinate of its own."""
    diff = np.zeros((width, width), dtype=np.int8)
    members = mask_indices(mask, width)
    for i, j in enumerate(members):
        diff[j - 1, j - 1] += 1
        diff[j - 1, members[(i + 1) % len(members)] - 1] -= 1
    for j in range(width):
        if not mask >> j & 1:
            diff[j, j] = 1
    return diff, np.zeros(width, dtype=np.uint8)


# (share of zero entries, largest bound): from frequent hits to none
MIXES = ((0.9, 2), (0.7, 1), (0.5, 0), (0.2, 1))


def sweep(diff: np.ndarray, mu_star: np.ndarray) -> tuple[int, ...] | None:
    """``sweep_proper_subsets`` on the int8 rows of ``diff``, one per
    column, passed as their nonzeros: rows and columns (1-based) and
    signs."""
    c0, r0 = diff.nonzero()
    return sweep_proper_subsets(
        len(diff), (r0 + 1).tolist(), (c0 + 1).tolist(), diff[c0, r0].tolist(), mu_star.tolist()
    )


class TestSweep:
    @pytest.mark.parametrize("seed", [2, 3, 5, 20])
    def test_witness_is_first_in_tuple_order(self, seed):
        rng = np.random.default_rng(seed)
        found = []
        for width in range(2, 12):
            for rank in (1, 3, 6):
                for zeros, top in MIXES:
                    diff, mu_star = random_rows(rng, width, rank, zeros, top)
                    witness = sweep(diff, mu_star)
                    assert witness == first_by_tuple_order(diff, mu_star)
                    found.append(witness)
        assert None in found and any(found)

    def test_each_single_accepted_subset_is_found(self):
        width = 8
        for mask in range(1, (1 << width) - 1):
            assert sweep(*lone(mask, width)) == mask_indices(mask, width)

    def test_too_narrow_and_empty(self):
        zero = np.zeros(1, dtype=np.uint8)
        assert sweep(np.zeros((1, 1), dtype=np.int8), zero) is None
        assert sweep(np.full((4, 1), -1, dtype=np.int8), zero) is None


class TestRankOrderReferee:
    @pytest.mark.parametrize("chunk_bits", [6, 8, 20])
    def test_same_witness_as_the_rank_order_sweep(self, monkeypatch, chunk_bits):
        # the referee tests every mask in chunks of 2^CHUNK_BITS cells
        monkeypatch.setattr(config, "CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(100 + chunk_bits)
        for width in range(1, 13):
            for rank in (1, 5, 13, 40, 100):
                for zeros, top in MIXES:
                    diff, mu_star = random_rows(rng, width, rank, zeros, top)
                    assert sweep(diff, mu_star) == oracles.rank_order_sweep(
                        width, accepts(diff, mu_star), rank
                    )

    def test_same_witness_as_the_star_referee_where_the_walk_prunes(self):
        # the primitive points of rays are Hilbert basis elements: every
        # subset fails, and the walk skips all but w(w + 1) / 2 of the
        # 2^w - 2; basis sums split, some only on several columns
        rays = [primitive_point(RaySpec(a, a - 1, 2, a + 2)) for a in range(12, 17)]
        rays += [primitive_point(RaySpec(a, 3, 1, a + 1)) for a in (13, 14, 16)]
        rng = random.Random(36)
        sums = [basis_sum(rng.choice, rank, w) for w in range(12, 21, 2) for rank in (4, 5, 6)]
        found = []
        for pair in rays + sums:
            canonical = ryser_canonical(pair)
            witness = matrix_reducible(canonical)
            assert witness == oracles.star_reducible(canonical.star), pair
            found.append(witness)
        assert found[: len(rays)] == [None] * len(rays)
        assert all(found[len(rays) :]) and max(map(len, found[len(rays) :])) > 1


TALL = KostkaPair((6, 6, 6, 6), (1,) * 24)  # width 6, rank 24
CATALAN_16 = (3, 2, 1, -2, 1, -2, -1, -1, 2, -1, 2, 1, -2, -1, -1, -1)


class TestChunkCells:
    @pytest.mark.parametrize(
        "call, cells",
        [
            (lambda: oracles.row_sum_reducible(ryser_canonical(TALL)), TALL.rank),
            (lambda: oracles.star_reducible(star_matrix(ryser_canonical(TALL))), TALL.rank),
            (lambda: oracles.catalan_sweep(CATALAN_16), len(CATALAN_16)),
        ],
        ids=["matrix", "star", "catalan"],
    )
    def test_predicate_calls_hold_at_most_chunk_cells(self, monkeypatch, call, cells):
        # the referees' sweep: each mask's row is as wide as the pair's
        # rank or the sequence's length
        expected = call()
        shapes = []
        real = oracles.rank_order_sweep

        def spy(width, predicate, *rest):
            def counted(bits):
                shapes.append(bits.shape)
                return predicate(bits)

            return real(width, counted, *rest)

        monkeypatch.setattr(oracles, "rank_order_sweep", spy)
        monkeypatch.setattr(config, "CHUNK_BITS", 7)
        assert call() == expected
        assert len(shapes) > 1
        assert all(rows * max(width, cells) <= 1 << 7 for rows, width in shapes)


class TestRecordSweep:
    @pytest.mark.parametrize(
        "pair",
        [TALL, KostkaPair((10, 6, 3), (4,) * 4 + (1,) * 3), KostkaPair((12,), (1,) * 12)],
    )
    def test_the_sweep_of_a_record_star_reads_no_array(self, monkeypatch, pair):
        canonical = ryser_canonical(pair)
        star = canonical.star
        assert type(star) is ryser._RecordStar
        with monkeypatch.context() as m:
            m.setattr(ryser, "np", None)  # any numpy call raises
            witness = matrix_reducible(canonical)
        assert "entries" not in vars(star)
        assert witness == oracles.star_reducible(star)
