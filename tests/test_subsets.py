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


def table_predicate(table: np.ndarray, width: int):
    """The predicate that accepts a subset iff ``table`` is set at its
    bit mask (position j is bit j - 1)."""
    weights = np.left_shift(1, np.arange(width, dtype=np.int64))
    return lambda bits: table[bits.astype(np.int64) @ weights]


def mask_indices(mask: int, width: int) -> tuple[int, ...]:
    """1-based positions of the set bits (bit 0 = position 1)."""
    return tuple(j + 1 for j in range(width) if mask >> j & 1)


def first_by_tuple_order(table: np.ndarray, width: int) -> tuple[int, ...] | None:
    accepted = [
        mask_indices(mask, width) for mask in range(1, (1 << width) - 1) if table[mask]
    ]
    return min(accepted, default=None)


class TestSweep:
    @pytest.mark.parametrize("chunk_bits", [2, 3, 5, 20])
    def test_witness_is_first_in_tuple_order(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(config, "CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(chunk_bits)
        for width in range(2, 11):
            for density in (0.0, 0.002, 0.05, 0.5):
                table = rng.random(1 << width) < density
                assert sweep_proper_subsets(
                    width, table_predicate(table, width), 1
                ) == first_by_tuple_order(table, width)

    def test_each_single_accepted_subset_is_found(self, monkeypatch):
        monkeypatch.setattr(config, "CHUNK_BITS", 3)
        width = 6
        for mask in range(1, (1 << width) - 1):
            table = np.zeros(1 << width, dtype=bool)
            table[mask] = True
            assert sweep_proper_subsets(width, table_predicate(table, width), 1) == (
                mask_indices(mask, width)
            )

    def test_too_narrow_and_empty(self):
        assert sweep_proper_subsets(1, lambda bits: np.ones(len(bits), dtype=bool), 1) is None
        assert sweep_proper_subsets(4, lambda bits: np.zeros(len(bits), dtype=bool), 1) is None


class TestRankOrderReferee:
    @pytest.mark.parametrize("chunk_bits", [6, 8, 20])
    def test_same_witness_as_the_rank_order_sweep(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(config, "CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(100 + chunk_bits)
        for width in range(1, 13):
            for density in (0.0, 0.001, 0.01, 0.1, 0.5):
                for cells in (1, 5, 13, 40, 100):
                    table = rng.random(1 << width) < density
                    predicate = table_predicate(table, width)
                    assert sweep_proper_subsets(
                        width, predicate, cells
                    ) == oracles.rank_order_sweep(width, predicate, cells)

    def test_a_hit_in_the_first_buffer_ends_the_sweep(self, monkeypatch):
        monkeypatch.setattr(config, "CHUNK_BITS", 6)
        width = 10
        calls = []

        def spy(accept):
            def predicate(bits):
                calls.append(len(bits))
                return np.array([mask_positions(row) == accept for row in bits])

            return predicate

        # the empty set is never swept, so every buffer is
        assert sweep_proper_subsets(width, spy(()), 1) is None
        assert len(calls) > 1 and sum(calls) == (1 << width) - 1
        calls.clear()
        assert sweep_proper_subsets(width, spy((1, 2)), 1) == (1, 2)
        assert len(calls) == 1 and calls[0] <= (1 << 6) // width

    def test_a_table_that_fits_one_buffer_is_one_call(self):
        calls = []

        def predicate(bits):
            calls.append(bits)
            return np.zeros(len(bits), dtype=bool)

        assert sweep_proper_subsets(7, predicate, 13) is None
        [rows] = calls
        assert rows.shape == ((1 << 7) - 1, 7) and not rows.flags.writeable

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
        "module, call, cells",
        [
            (ryser, lambda: matrix_reducible(ryser_canonical(TALL)), TALL.rank),
            (
                oracles,
                lambda: oracles.star_reducible(star_matrix(ryser_canonical(TALL))),
                TALL.rank,
            ),
            (oracles, lambda: oracles.catalan_sweep(CATALAN_16), len(CATALAN_16)),
        ],
        ids=["matrix", "star", "catalan"],
    )
    def test_predicate_calls_hold_at_most_chunk_cells(self, monkeypatch, module, call, cells):
        # each mask's row is as wide as the pair's rank or the sequence's length
        expected = call()
        shapes = []
        real = module.sweep_proper_subsets

        def spy(width, predicate, *rest):
            def counted(bits):
                shapes.append(bits.shape)
                return predicate(bits)

            return real(width, counted, *rest)

        monkeypatch.setattr(module, "sweep_proper_subsets", spy)
        monkeypatch.setattr(config, "CHUNK_BITS", 7)
        assert call() == expected
        assert len(shapes) > 1
        assert all(rows * max(width, cells) <= 1 << 7 for rows, width in shapes)
