from __future__ import annotations

import numpy as np
import pytest

import oracles
from kostka import config, ryser
from kostka.partitions import KostkaPair
from kostka.ryser import (
    matrix_reducible,
    ryser_canonical,
    star_matrix,
    sweep_proper_subsets,
)


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


def blocks(log: list) -> list[int]:
    """The rows of each block a logged sweep tested, in order."""
    return [shape[0] for name, _, shape in log if name == "less_equal"]


class TestSweep:
    @pytest.mark.parametrize("chunk_bits", [2, 3, 5, 20])
    def test_witness_is_first_in_tuple_order(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(config, "CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(chunk_bits)
        found = []
        for width in range(2, 11):
            for rank in (1, 3, 6):
                for zeros, top in MIXES:
                    diff, mu_star = random_rows(rng, width, rank, zeros, top)
                    witness = sweep_proper_subsets(width, diff, mu_star)
                    assert witness == first_by_tuple_order(diff, mu_star)
                    found.append(witness)
        assert None in found and any(found)

    def test_each_single_accepted_subset_is_found(self, monkeypatch):
        monkeypatch.setattr(config, "CHUNK_BITS", 3)
        width = 6
        for mask in range(1, (1 << width) - 1):
            diff, mu_star = lone(mask, width)
            assert sweep_proper_subsets(width, diff, mu_star) == mask_indices(mask, width)

    def test_too_narrow_and_empty(self):
        zero = np.zeros(1, dtype=np.uint8)
        assert sweep_proper_subsets(1, np.zeros((1, 1), dtype=np.int8), zero) is None
        assert sweep_proper_subsets(4, np.full((4, 1), -1, dtype=np.int8), zero) is None


class TestRankOrderReferee:
    @pytest.mark.parametrize("chunk_bits", [6, 8, 20])
    def test_same_witness_as_the_rank_order_sweep(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(config, "CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(100 + chunk_bits)
        for width in range(1, 13):
            for rank in (1, 5, 13, 40, 100):
                for zeros, top in MIXES:
                    diff, mu_star = random_rows(rng, width, rank, zeros, top)
                    assert sweep_proper_subsets(
                        width, diff, mu_star
                    ) == oracles.rank_order_sweep(width, accepts(diff, mu_star), rank)

    def test_a_hit_in_the_first_buffer_ends_the_sweep(self, monkeypatch, sweep_log):
        # a block is the unit the sweep tests: 2^tail - 1 subsets that
        # share a head of the first width - tail rows, or a head alone
        monkeypatch.setattr(config, "CHUNK_BITS", 6)
        width = 10
        # a full miss tests every nonempty subset once, over many blocks
        miss = np.full((width, 1), -1, dtype=np.int8)
        assert ryser.sweep_proper_subsets(width, miss, np.zeros(1, dtype=np.uint8)) is None
        rows = blocks(sweep_log)
        assert len(rows) > 1 and sum(rows) == (1 << width) - 1
        assert max(rows) <= (1 << 6) // width
        # (1) alone is the first block, (1, 2) alone the second
        for mask, tested in ((0b1, 1), (0b11, 2)):
            sweep_log.clear()
            assert ryser.sweep_proper_subsets(width, *lone(mask, width)) == mask_indices(
                mask, width
            )
            assert len(blocks(sweep_log)) == tested

    def test_a_table_that_fits_one_buffer_is_one_call(self, sweep_log):
        # one product with the cached table and one compare
        diff = np.full((7, 13), -1, dtype=np.int8)
        assert ryser.sweep_proper_subsets(7, diff, np.zeros(13, dtype=np.uint8)) is None
        subsets = (1 << 7) - 1
        assert sweep_log == [
            ("matmul", "__call__", (subsets, 13)),
            ("less_equal", "__call__", (subsets, 13)),
            ("logical_and", "reduce", (subsets,)),
        ]
        assert not ryser._tuple_order(7).flags.writeable

    def test_tuple_order_tables_are_read_only_and_bounded(self):
        limit = ryser._tuple_order.cache_info().maxsize
        for width in range(limit + 2):
            table = ryser._tuple_order(width)
            assert not table.flags.writeable
            assert table.shape == ((1 << width) - 1, width)
            if width <= 8:
                rows = [mask_positions(row) for row in table]
                assert rows == sorted(set(rows)) and () not in rows
        assert ryser._tuple_order.cache_info().currsize <= limit

    def test_tuple_order_tables_match_the_rank_formula(self):
        for width in range(18):
            assert np.array_equal(ryser._tuple_order(width), oracles.rank_order_table(width))


def mask_positions(row: np.ndarray) -> tuple[int, ...]:
    return tuple(j + 1 for j in np.flatnonzero(row).tolist())


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

    @pytest.mark.parametrize(
        "pair",
        [TALL, KostkaPair((10, 6, 3), (4,) * 4 + (1,) * 3), KostkaPair((12,), (1,) * 12)],
    )
    def test_sweep_temporaries_hold_at_most_chunk_cells(self, monkeypatch, sweep_log, pair):
        expected = matrix_reducible(ryser_canonical(pair))
        sweep_log.clear()
        tables = []
        real = ryser._tuple_order

        def spy(width):
            tables.append(width)
            return real(width)

        monkeypatch.setattr(ryser, "_tuple_order", spy)
        monkeypatch.setattr(config, "CHUNK_BITS", 7)
        assert matrix_reducible(ryser_canonical(pair)) == expected
        assert len(blocks(sweep_log)) > 1
        assert all(np.prod(shape) <= 1 << 7 for _, _, shape in sweep_log)
        cells = max(pair.width, pair.rank)
        assert tables and all(((1 << t) - 1) * cells <= 1 << 7 for t in tables)
