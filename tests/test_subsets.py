from __future__ import annotations

import numpy as np
import pytest

from kostka import config
from kostka.subsets import mask_indices, sweep_proper_subsets


def table_predicate(table: np.ndarray, width: int):
    """The predicate that accepts a subset iff ``table`` is set at its
    bit mask (position j is bit j - 1)."""
    weights = np.left_shift(1, np.arange(width, dtype=np.int64))
    return lambda bits: table[bits.astype(np.int64) @ weights]


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
                    width, table_predicate(table, width)
                ) == first_by_tuple_order(table, width)

    def test_each_single_accepted_subset_is_found(self, monkeypatch):
        monkeypatch.setattr(config, "CHUNK_BITS", 3)
        width = 6
        for mask in range(1, (1 << width) - 1):
            table = np.zeros(1 << width, dtype=bool)
            table[mask] = True
            assert sweep_proper_subsets(width, table_predicate(table, width)) == (
                mask_indices(mask, width)
            )

    def test_too_narrow_and_empty(self):
        assert sweep_proper_subsets(1, lambda bits: np.ones(len(bits), dtype=bool)) is None
        assert sweep_proper_subsets(4, lambda bits: np.zeros(len(bits), dtype=bool)) is None
