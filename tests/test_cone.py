from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from operator import sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import oracles
from conftest import cone_pair_pool, cone_pairs_st, partition_pool
from kostka import cone, config
from kostka.cone import (
    AuditReport,
    RaySpec,
    catalog_diff,
    decompose,
    default_fixture_path,
    extremal_rays,
    hilbert_basis,
    is_extremal,
    load_catalog,
    primitive_point,
    width_bound_audit,
)
from kostka.errors import AssertionFailure, InvalidPair, RankCapExceeded, SizeCapExceeded
from kostka.partitions import KostkaPair, as_partition, conjugate, pad, size
from kostka.subsetsum import SubsetSumInstance, reduce_to_kostka

BASIS_COUNTS = {1: 1, 2: 3, 3: 8, 4: 19, 5: 50, 6: 111, 7: 281, 8: 635}
# cone pairs with lambda_1 = rank + 1 and at most rank parts, by rank
LAYER_COUNTS = {2: 6, 3: 42, 4: 336, 5: 3030, 6: 29772}
# bytes that tracemalloc may see the splitting tables of the 337 sides of
# the reduction pairs of total <= 12 hold: they measured 248-295 KB as int8
# prefix sums, and 812-824 KB as the int64 vectors they replaced
SPLITTING_FOOTPRINT = 400_000
RAY_COUNTS = [1, 3, 7, 14, 25, 41, 63, 92, 129, 175, 231, 298, 377, 469, 575, 696, 833]


def slack(lam, mu, rank: int) -> tuple[int, ...]:
    """The facet slacks of a pair, written out independently of the
    engine: consecutive differences of lambda and of mu, then the
    prefix-sum gaps Lambda_t - M_t for t < rank."""
    lam, mu = pad(lam, rank + 1), pad(mu, rank + 1)
    diffs = [a - b for side in (lam, mu) for a, b in zip(side, side[1:])]
    return tuple(diffs) + tuple(accumulate(a - b for a, b in zip(lam[: rank - 1], mu)))


def below(small, large) -> bool:
    return all(a <= b for a, b in zip(small, large))


def scale_pair(pair: KostkaPair, factor: int) -> KostkaPair:
    return KostkaPair(
        as_partition(factor * x for x in pair.lam),
        as_partition(factor * x for x in pair.mu),
        pair.rank,
    )


class TestDecompose:
    def test_worked_example(self):
        pair = KostkaPair((3, 2, 1), (2, 2, 1, 1))
        found = decompose(pair)
        assert found is not None
        small, large = found
        assert small == KostkaPair((1, 1), (1, 1), rank=4)
        assert large == KostkaPair((2, 1, 1), (1, 1, 1, 1), rank=4)

    def test_zero_and_unit_pairs(self):
        assert decompose(KostkaPair((), (), rank=1)) is None
        assert decompose(KostkaPair((1,), (1,))) is None

    def test_size_cap(self, monkeypatch):
        pair = KostkaPair((30, 30), (30, 30))
        monkeypatch.setattr(config, "SPLIT_CAP", 40)
        with pytest.raises(SizeCapExceeded):
            decompose(pair)
        monkeypatch.setattr(config, "SPLIT_CAP", 60)
        assert decompose(pair) is not None

    @given(cone_pairs_st(max_boxes=11))
    def test_matches_bruteforce(self, pair):
        found = decompose(pair)
        brute = oracles.pair_reducible(pair.padded()[0], pair.padded()[1])
        assert (found is None) == (brute is None), pair

    @given(cone_pairs_st(max_boxes=11))
    def test_summands_recompose(self, pair):
        found = decompose(pair)
        if found is None:
            return
        small, large = found
        assert 0 < small.n <= large.n < pair.n
        rank = pair.rank
        for side in (0, 1):
            merged = tuple(
                a + b
                for a, b in zip(small.padded()[side], large.padded()[side])
            )
            assert merged[:rank] == pair.padded()[side]

    def test_splitting_cache_is_bounded(self):
        limit = cone._splittings.cache_info().maxsize
        # decompose never splits the zero pair; (128,) needs two bytes
        shapes = partition_pool(20)[1:] + ((127,), (128,))
        assert len(shapes) > limit
        for p in shapes:
            table, bounds, mask = cone._splittings(p)
            n = size(p)
            assert isinstance(table, bytes)
            rows, lane = table_rows(p, table, bounds)
            assert lane == next(b for b in (1, 2) if 2 ** (8 * b - 1) > n)
            assert len(bounds) == n + 2 and bounds[-1] == len(rows)
            vectors, _ = oracles._size_sorted_splittings(p)
            assert (rows == vectors.cumsum(axis=1)).all()
            for m in range(n + 1):
                assert (rows[bounds[m] : bounds[m + 1], -1] == m).all()
                assert bool(mask >> m & 1) == (bounds[m] < bounds[m + 1])
            assert mask >> (n + 1) == 0
        assert cone._splittings.cache_info().currsize <= limit

    # (conjugate lambda, conjugate mu): one reducible and one irreducible
    # pair on either side of the byte lanes' 127 boxes, each with a size
    # of small half that both sides share, so the blocks are compared;
    # the lanes are as wide as the signed dtype that holds the size
    @pytest.mark.parametrize(
        "lam_t, mu_t, dtype",
        [
            ((39, 36, 33, 19), (72, 36, 19), np.int8),
            ((76, 40, 10, 1), (87, 31, 9), np.int8),
            ((74, 25, 16, 13), (74, 41, 13), np.int16),
            ((50, 43, 32, 3), (75, 44, 9), np.int16),
        ],
    )
    def test_table_dtype_boundary(self, monkeypatch, lam_t, mu_t, dtype):
        monkeypatch.setattr(config, "SPLIT_CAP", 200)
        pair = KostkaPair(conjugate(lam_t), conjugate(mu_t))
        _, _, lam_mask = cone._splittings(pair.lam)
        table, bounds, mu_mask = cone._splittings(pair.mu)
        _, lane = table_rows(pair.mu, table, bounds)
        assert lane == np.dtype(dtype).itemsize
        assert lam_mask & mu_mask & ((2 << pair.n // 2) - 2)
        assert decompose(pair) == oracles.splitting_decompose(pair), pair

    def test_splitting_tables_stay_small(self):
        """The tables of every subset-sum reduction pair of total at most
        12 fit under a bound that int64 vectors would exceed."""
        sides = set()
        for total in range(1, 13):
            for values in oracles.partitions(total):
                for target in range(1, total + 1):
                    pair = reduce_to_kostka(SubsetSumInstance(values, target))
                    sides.update((pair.lam, pair.mu))
        assert len(sides) <= cone._splittings.cache_info().maxsize
        cone._splittings.cache_clear()
        tracemalloc.start()
        try:
            for p in sides:
                cone._splittings(p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            cone._splittings.cache_clear()
        assert held < SPLITTING_FOOTPRINT, held

    def test_witnesses_match_the_splitting_oracle(self):
        """Every cone pair of at most 12 boxes, at its minimal rank and
        two coordinates wider: the same answer, halves and all."""
        for pair in cone_pair_pool(12):
            for rank in (pair.rank, pair.rank + 2):
                wide = KostkaPair(pair.lam, pair.mu, rank)
                assert decompose(wide) == oracles.splitting_decompose(wide), wide

    # lambda, mu, a lane t < len(lambda) that fails alone in some
    # candidate the search visits, and whether the hit has a tight lane,
    # A_t - B_t = Lambda_t - M_t > 0; mu is longer, so its rows have
    # lanes past the compared ones
    @pytest.mark.parametrize(
        "lam, mu, alone, tight",
        [
            ((3, 3, 1), (3, 1, 1, 1, 1), 0, False),
            # lane k - 1 never fails (see lane_checks), so k - 2 is the
            # last lane that can
            ((4, 3, 3), (3, 3, 1, 1, 1, 1), 1, False),
            ((4, 3, 3), (3, 3, 2, 2), None, True),
        ],
        ids=["first-lane", "last-lane", "tight-gap"],
    )
    def test_lane_edges(self, lam, mu, alone, tight):
        pair = KostkaPair(lam, mu)
        checks = lane_checks(pair)
        if alone is not None:
            assert {alone} in [failed for failed, _ in checks]
        failed, tight_lanes = checks[-1]
        assert bool(tight_lanes and not failed) == tight
        assert decompose(pair) == oracles.splitting_decompose(pair), pair

    def test_wide_sample_matches_the_splitting_oracle(self):
        """A seeded sample of cone pairs of 30-40 boxes, near the cap."""
        rng = random.Random(34)
        checked = 0
        while checked < 1200:
            n = rng.randint(30, 40)
            lam, mu = random_partition(rng, n), random_partition(rng, n)
            if oracles.dominance(lam, mu):
                pair = KostkaPair(lam, mu)
                assert decompose(pair) == oracles.splitting_decompose(pair), pair
                checked += 1

    def test_reduction_witnesses_match_the_splitting_oracle(self):
        """Every subset-sum reduction pair of total at most 10: long,
        thin pairs at a rank well past len(lambda)."""
        for total in range(1, 11):
            for values in oracles.partitions(total):
                for target in range(1, total + 1):
                    pair = reduce_to_kostka(SubsetSumInstance(values, target))
                    assert decompose(pair) == oracles.splitting_decompose(pair), pair


def table_rows(p, table: bytes, bounds: list[int]) -> tuple[np.ndarray, int]:
    """The rows of a splitting table of p as an integer array, one
    column per part, and the bytes of one lane."""
    lane = len(table) // (bounds[-1] * len(p))
    return np.frombuffer(table, dtype=f">u{lane}").reshape(-1, len(p)), lane


def lane_checks(pair: KostkaPair) -> list[tuple[set[int], set[int]]]:
    """For each candidate (a, b) that the search visits, in its order,
    up to and including the first hit: the coordinates t < len(lambda)
    where 0 <= A_t - B_t <= Lambda_t - M_t fails, and those where
    A_t - B_t = Lambda_t - M_t > 0.  No candidate fails at t =
    len(lambda) - 1: there A_t = |a| >= B_t, and M_t - B_t <= |mu - b|,
    so A_t - B_t <= n - M_t."""
    k = len(pair.lam)
    gap = np.cumsum(pair.lam) - np.cumsum(pair.mu)[:k]
    lam_v, lam_sizes = oracles._size_sorted_splittings(pair.lam)
    mu_v, mu_sizes = oracles._size_sorted_splittings(pair.mu)
    checks = []
    for m in range(1, pair.n // 2 + 1):
        for a in lam_v[lam_sizes == m].cumsum(axis=1):
            for b in mu_v[mu_sizes == m].cumsum(axis=1)[:, :k]:
                diff = a - b
                failed = set(np.flatnonzero((diff < 0) | (diff > gap)).tolist())
                tight = set(np.flatnonzero((diff == gap) & (gap > 0)).tolist())
                checks.append((failed, tight))
                assert k - 1 not in failed
                if not failed:
                    return checks
    return checks


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A partition of n > 0: the parts of a random composition, sorted."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return tuple(sorted(map(sub, [*cuts, n], [0, *cuts]), reverse=True))


def unpadded(row) -> tuple[int, ...]:
    return tuple(v for v in row if v)


def block_pairs(block: np.ndarray, wide: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of one size block as lambda rows, mu rows and slack rows,
    the rows without the zero padding that makes them whole words."""
    lam, mu, rows = cone._cone_slacks(block, wide)
    width = 3 * block.shape[1] - 1
    assert rows.flags.c_contiguous and rows.shape[1] * rows.itemsize % 8 == 0
    assert rows.shape[1] - 8 // rows.itemsize < width <= rows.shape[1]
    assert not rows[:, width:].any()
    return block[lam], block[mu], rows[:, :width]


class TestConeBlocks:
    def test_matches_the_oracle_filter(self):
        boxes = [(r, r, r * r) for r in range(1, 6)] + [(r + 1, r, 13) for r in range(1, 6)]
        boxes += [(7, 13, 13), (0, 3, 5), (3, 0, 5)]
        for max_part, max_len, max_boxes in boxes:
            want: dict[int, list] = {}
            for lam, mu in oracles.cone_pairs(max_boxes, max_part, max_len):
                want.setdefault(sum(lam), []).append((lam, mu))
            blocks = list(cone._box_partitions(max_part, max_len, max_boxes))
            assert len(blocks) == min(max_boxes, max_part * max_len)
            for n, block in enumerate(blocks, start=1):
                lam, mu, _ = block_pairs(block, len(block))
                pairs = want.get(n, [])
                assert np.iinfo(block.dtype).max >= max_part * max_len
                assert lam.shape == mu.shape == (len(pairs), max_len)
                got = [(unpadded(a), unpadded(b)) for a, b in zip(lam.tolist(), mu.tolist())]
                assert got == pairs, (max_part, max_len, n)

    def test_slack_rows_match_the_definition(self):
        rank = 4
        for block in cone._box_partitions(rank, rank, rank * rank):
            lam, mu, rows = block_pairs(block, len(block))
            assert rows.tolist() == [
                list(slack(unpadded(a), unpadded(b), rank))
                for a, b in zip(lam.tolist(), mu.tolist())
            ]

    def test_facet_table_gives_the_slack_rows(self):
        # is_extremal's facet normals and the basis scan's slack rows
        # describe the same facets in the same order
        for rank in range(1, 6):
            facets = np.array(cone._facets(rank))
            assert facets.shape == (3 * rank - 1, 2 * rank)
            for block in cone._box_partitions(rank + 1, rank, rank * (rank + 1)):
                lam, mu, rows = block_pairs(block, len(block))
                points = np.hstack([lam, mu]).astype(np.int64)
                assert np.array_equal(points @ facets.T, rows)

    def test_layer_pairs_match_the_filtered_blocks(self):
        for rank in range(1, 6):
            for block in cone._box_partitions(rank + 1, rank, rank * (rank + 1)):
                # the lambdas with lambda_1 = rank + 1 open the block
                wide = int(np.count_nonzero(block[:, 0] == rank + 1))
                assert (block[wide:, 0] <= rank).all()
                lam, mu, rows = block_pairs(block, len(block))
                keep = lam[:, 0] == rank + 1
                got = block_pairs(block, wide)
                for part, want in zip(got, (lam, mu, rows)):
                    assert np.array_equal(part, want[keep])


def covered_by_definition(slacks: np.ndarray, basis: np.ndarray) -> list[bool]:
    return [any(below(b, s) for b in basis.tolist()) for s in slacks.tolist()]


def bare(x):
    return x.view(np.ndarray) if isinstance(x, BroadcastLog) else x


class BroadcastLog(np.ndarray):
    """An array whose ufuncs record the dtype and the bytes of every array
    they return, and return arrays that record in turn, so that each
    temporary the scan derives from it by ufuncs, words and masks alike,
    is logged."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if "out" in kwargs:
            kwargs["out"] = tuple(map(bare, kwargs["out"]))
        result = getattr(ufunc, method)(*map(bare, inputs), **kwargs)
        if not isinstance(result, np.ndarray):
            return result
        BroadcastLog.log.append((result.dtype, result.nbytes))
        return result.view(BroadcastLog)


def word_row_bytes(width: int, dtype) -> int:
    """The bytes of a row of ``width`` entries zero-padded to whole words."""
    return -(-max(width, 1) * np.dtype(dtype).itemsize // 8) * 8


class TestSlackScan:
    @pytest.mark.parametrize("chunk_bits", [3, 6, 8, 20])
    def test_matches_all_pairs_on_random_slacks(self, monkeypatch, chunk_bits):
        # small CHUNK_BITS forces several chunks, steps clamped at the cap
        # and doubling past the end of the basis
        monkeypatch.setattr(config, "CHUNK_BITS", chunk_bits)
        rng = np.random.default_rng(chunk_bits)
        for width in (2, 5, 11):
            for rows, basis_rows, top in ((0, 4, 3), (7, 0, 3), (60, 3, 4), (150, 40, 5), (300, 200, 9)):
                slacks = rng.integers(0, top, size=(rows, width), dtype=np.int8)
                basis = rng.integers(0, top, size=(basis_rows, width), dtype=np.int8)
                BroadcastLog.log = []
                got = cone._covered(slacks.view(BroadcastLog), basis.view(BroadcastLog))
                assert got.dtype == bool and got.shape == (rows,)
                assert got.tolist() == covered_by_definition(slacks, basis)
                # every temporary, counted in bytes, within the chunk bound
                bound = max(1 << chunk_bits, word_row_bytes(width, np.int8))
                assert all(nbytes <= bound for _, nbytes in BroadcastLog.log)
                if rows and basis_rows:
                    assert any(dtype == np.uint64 for dtype, _ in BroadcastLog.log)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_lanes_hold_zero_and_the_dtype_maximum(self, dtype):
        """Rows that mostly do not fill a whole word, with entries at both
        ends of the dtype's range: a borrow across a lane, or a padding
        lane that does not compare 0 <= 0, changes some answer."""
        top = np.iinfo(dtype).max
        values = np.array([0, 1, top - 1, top], dtype=dtype)
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        for width in range(1, 18):
            slacks = values[rng.choice(4, size=(60, width), p=[0.45, 0.25, 0.1, 0.2])]
            basis = values[rng.choice(4, size=(12, width), p=[0.6, 0.3, 0.05, 0.05])]
            # every basis row has a positive entry, so none lies below the
            # zero row, and one lies at the second row
            basis[:, 0] = np.maximum(basis[:, 0], 1)
            slacks[0], slacks[1] = 0, basis[0]
            want = covered_by_definition(slacks, basis)
            assert cone._covered(slacks, basis).tolist() == want, width
            # a basis row at the top everywhere lies only below its copies
            peak = np.full((1, width), top, dtype=dtype)
            rows = np.vstack([slacks, peak])
            want = (slacks == top).all(axis=1).tolist() + [True]
            assert cone._covered(rows, peak).tolist() == want
            # and a zero row lies below every row
            assert cone._covered(rows, peak * 0).all()

    def test_covered_rows_leave_the_chunk(self, monkeypatch):
        # the first basis row covers every row, so one step settles the
        # chunk and the other 999 basis rows are never compared
        monkeypatch.setattr(config, "CHUNK_BITS", 10)
        slacks = np.full((20, 5), 3, dtype=np.int8)
        basis = np.vstack([np.zeros((1, 5), dtype=np.int8), np.full((999, 5), 9, dtype=np.int8)])
        BroadcastLog.log = []
        got = cone._covered(slacks.view(BroadcastLog), basis.view(BroadcastLog))
        assert got.all()
        subtractions = sum(dtype == np.uint64 for dtype, _ in BroadcastLog.log)
        assert 0 < subtractions < 10

    def test_edge_cases(self, monkeypatch):
        monkeypatch.setattr(config, "CHUNK_BITS", 5)
        rows = np.array([[0, 2, 1], [3, 3, 3], [1, 0, 0]], dtype=np.int8)
        assert cone._covered(rows, rows[:0]).tolist() == [False] * 3
        assert cone._covered(rows[:0], rows).tolist() == []
        # <= is inclusive: every row lies at or below itself
        assert cone._covered(rows, rows[::-1]).tolist() == [True] * 3
        # a basis longer than any step, covering only through its last row
        basis = np.vstack([np.full((100, 3), 4, dtype=np.int8), rows[2:]])
        assert cone._covered(rows, basis).tolist() == [False, True, True]

    def test_slack_rows_are_byte_wide_in_every_shipped_box(self):
        # the widest box the library walks: the rank-8 audit layer, 9 x 8
        dtype = next(cone._box_partitions(9, 8, 1)).dtype
        assert dtype.itemsize == 1
        pairs = [((9,) * 8, (9,) * 8), ((9, 9, 9), (6, 6, 6, 6, 3)), ((9,), (2,) + (1,) * 7)]
        for lam, mu in pairs:
            _, _, rows = block_pairs(np.array([pad(lam, 8), pad(mu, 8)], dtype=dtype), 1)
            assert rows.dtype == dtype
            assert rows[-1].tolist() == list(slack(lam, mu, 8))

    @pytest.mark.parametrize("top", [127, 128, 200, 40_000])
    def test_slacks_past_a_byte_are_widened(self, top):
        # the top x 1 box holds sizes up to top: its dtype is the smallest
        # signed one that holds top
        dtype = next(cone._box_partitions(top, 1, 1)).dtype
        assert np.iinfo(dtype).max >= top
        assert dtype.itemsize == 1 or np.iinfo(f"int{4 * dtype.itemsize}").max < top
        lam, mu = (top,), ((top + 1) // 2, top // 2)
        _, _, rows = block_pairs(np.array([pad(lam, 2), pad(mu, 2)], dtype=dtype), 1)
        rows = rows[-1:]
        assert rows.tolist() == [list(slack(lam, mu, 2))]
        assert rows.max() == top <= np.iinfo(rows.dtype).max
        # a wrapped row would fall below ((2) | (1, 1))'s and go uncovered
        _, _, basis = block_pairs(np.array([[2, 0], [1, 1]], dtype=np.int8), 1)
        assert cone._covered(rows, basis[-1:]).tolist() == [True]


class TestBytewiseReferee:
    """The word-parallel slack scan against the byte-wise one it replaced
    (``oracles.bytewise_cone_pairs`` and ``oracles.bytewise_covered``)."""

    @staticmethod
    def same_block(block: np.ndarray, wide: int, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The block's pairs, slack rows and cover vector from both scans,
        asserted identical; returns the oracle's slack rows and cover."""
        lam, mu, rows = cone._cone_slacks(block, wide)
        want_lam, want_mu, want_rows = oracles.bytewise_cone_pairs(block, wide)
        assert np.array_equal(lam, want_lam) and np.array_equal(mu, want_mu)
        width = want_rows.shape[1]
        assert rows.dtype == want_rows.dtype
        assert np.array_equal(rows[:, :width], want_rows)
        assert not rows[:, width:].any()
        got = cone._covered(rows, basis)
        want = oracles.bytewise_covered(want_rows, basis)
        assert got.dtype == bool and np.array_equal(got, want)
        return want_rows, want

    def test_every_basis_block(self):
        """Every size block of ranks 1-7, against the basis kept from the
        smaller blocks, as the engine meets them."""
        for rank in range(1, 8):
            basis = np.zeros((0, 3 * rank - 1), dtype=np.int8)
            for block in cone._box_partitions(rank, rank, rank * rank):
                rows, covered = self.same_block(block, len(block), basis)
                basis = np.vstack([basis, rows[~covered][::-1]])
            _, want = cone._minimal_slacks(rank)
            assert np.array_equal(basis, want[:, : basis.shape[1]])
            assert len(basis) == BASIS_COUNTS[rank]

    @pytest.mark.parametrize("box", [(30, 6, 12), (11, 12, 14)])
    def test_blocks_past_a_byte(self, box):
        """Boxes whose sizes pass 127, so that lanes are int16 and the
        prefix sums fill two or three words: a pair can fail dominance
        in a later word only, as (4, 2, 2, 2, 1, 1) fails (3, 3, 2, 2, 2)
        at its fifth prefix sum."""
        max_part, max_len, max_boxes = box
        width = 3 * max_len - 1
        basis = np.zeros((0, width), dtype=np.int16)
        for block in cone._box_partitions(max_part, max_len, max_boxes):
            assert block.dtype == np.int16
            rows, covered = self.same_block(block, len(block), basis)
            basis = np.vstack([basis, rows[~covered]])
        assert 0 < len(basis)

    def test_audit_layers(self):
        """The lambda_1 = rank + 1 layers of ranks 2-6, against the whole
        basis and against every other basis row, so that some pairs go
        uncovered."""
        for rank in range(2, 7):
            _, basis = cone._minimal_slacks(rank)
            basis = basis[:, : 3 * rank - 1]
            layer = uncovered = 0
            for block in cone._box_partitions(rank + 1, rank, rank * (rank + 1)):
                wide = int(np.count_nonzero(block[:, 0] > rank))
                _, covered = self.same_block(block, wide, basis)
                assert covered.all()
                _, covered = self.same_block(block, wide, basis[::2])
                layer += len(covered)
                uncovered += np.count_nonzero(~covered)
            assert layer == LAYER_COUNTS[rank]
            assert 0 < uncovered < layer


def assert_matches_fixture_and_referees(rank: int, monkeypatch) -> None:
    catalog = hilbert_basis(rank)
    assert catalog.payload() == json.loads(default_fixture_path(rank).read_text())
    monkeypatch.setattr(config, "SPLIT_CAP", rank * rank)
    for pair in catalog.elements:
        assert pair.width <= rank, pair
        assert decompose(pair) is None, pair
    rays = {primitive_point(spec).key() for spec in extremal_rays(rank)}
    assert len(rays) == RAY_COUNTS[rank - 1]
    assert rays <= catalog.keys()


class TestHilbertBasis:
    def test_rank_cap(self):
        with pytest.raises(RankCapExceeded):
            hilbert_basis(9)
        with pytest.raises(RankCapExceeded):
            hilbert_basis(0)

    def test_rank_seven_matches_its_fixture_and_referees(self, monkeypatch):
        assert_matches_fixture_and_referees(7, monkeypatch)

    def test_rank_eight_matches_its_fixture_and_referees(self, monkeypatch):
        assert_matches_fixture_and_referees(8, monkeypatch)

    def test_rejected_candidates_carry_certificates(self):
        for rank in range(1, 6):
            elements = hilbert_basis(rank).elements
            returned = [(slack(*p.key(), rank), p) for p in elements]
            keys = {p.key() for p in elements}
            for lam, mu in oracles.cone_pairs(rank * rank, rank, rank):
                if (lam, mu) in keys:
                    continue
                s = slack(lam, mu, rank)
                b = next((b for sb, b in returned if below(sb, s)), None)
                assert b is not None, (lam, mu)
                lam_pad, mu_pad = pad(lam, rank), pad(mu, rank)
                rest = KostkaPair(
                    [x - y for x, y in zip(lam_pad, pad(b.lam, rank))],
                    [x - y for x, y in zip(mu_pad, pad(b.mu, rank))],
                    rank,
                )
                assert rest.n > 0

    def test_matches_the_decompose_filter(self, monkeypatch):
        for rank in range(1, 6):
            candidates = [
                KostkaPair(lam, mu, rank)
                for lam, mu in oracles.cone_pairs(rank * rank, rank, rank)
            ]
            monkeypatch.setattr(config, "SPLIT_CAP", rank * rank)
            old = [p for p in candidates if decompose(p) is None]
            old.sort(key=lambda p: (p.n, p.lam, p.mu))
            assert hilbert_basis(rank).elements == tuple(old)

    def test_slack_matrix_follows_the_catalog(self):
        for rank in range(1, 7):
            elements, basis = cone._minimal_slacks(rank)
            assert elements == hilbert_basis(rank).elements
            assert basis.tolist() == [list(slack(*p.key(), rank)) for p in elements]

    def test_makes_no_decompose_calls(self, monkeypatch):
        calls = []
        real = cone.decompose

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cone, "decompose", spy)
        assert hilbert_basis(5).count == 50
        assert calls == []

    def test_every_element_is_irreducible_and_in_cone(self):
        for rank in (1, 2, 3, 4):
            for lam, mu in hilbert_basis(rank).keys():
                pair = KostkaPair(lam, mu, rank=rank)
                assert decompose(pair) is None

    def test_shipped_elements_are_irreducible(self):
        """Every shipped basis element of ranks 5-8 within the splitting
        cap: each runs the search over every size both sides share."""
        for rank in range(5, 9):
            for pair in load_catalog(default_fixture_path(rank)).elements:
                if pair.n <= config.SPLIT_CAP:
                    assert decompose(pair) is None, pair

    def test_monotone_in_rank(self):
        previous: set = set()
        for rank in range(1, 6):
            current = set(hilbert_basis(rank).keys())
            assert previous <= current
            previous = current

    def test_width_never_exceeds_rank(self):
        for rank in range(1, 6):
            for lam, _ in hilbert_basis(rank).keys():
                assert lam[0] <= rank


class TestCatalogIO:
    def test_shipped_fixtures_match_recomputation(self):
        for rank in range(1, 9):
            shipped = load_catalog(default_fixture_path(rank))
            if rank <= 5:
                fresh = hilbert_basis(rank)
                diff = catalog_diff(shipped, fresh)
                assert diff["match"], diff
            assert shipped.rank == rank
            assert shipped.count == BASIS_COUNTS[rank]

    @staticmethod
    def run_regen_script(max_rank: int, out_dir: Path) -> subprocess.CompletedProcess:
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "regen_fixtures.py"),
             "--max-rank", str(max_rank), "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True,
        )

    def test_regen_script_reproduces_the_shipped_fixtures(self, tmp_path):
        assert self.run_regen_script(6, tmp_path).returncode == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"basis_r{rank}.json" for rank in range(1, 7)
        ]
        for rank in range(1, 7):
            shipped = default_fixture_path(rank).read_bytes()
            assert (tmp_path / f"basis_r{rank}.json").read_bytes() == shipped, rank

    def test_regen_script_refuses_ranks_above_the_cap(self, tmp_path):
        result = self.run_regen_script(config.RANK_CAP + 1, tmp_path)
        assert result.returncode != 0
        assert "RANK_CAP" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_tampering_is_detected(self, tmp_path):
        catalog = hilbert_basis(2)
        path = tmp_path / "basis.json"
        catalog.save(path)
        assert load_catalog(path).count == 3

        payload = json.loads(path.read_text())
        payload["elements"][0] = [[2], [2]]
        path.write_text(json.dumps(payload))
        with pytest.raises(AssertionFailure):
            load_catalog(path)

    def test_diff_reports_direction(self):
        small = hilbert_basis(2)
        big = hilbert_basis(3)
        diff = catalog_diff(small, big)
        assert not diff["match"]
        assert diff["only_in_first"] == []
        assert len(diff["only_in_second"]) == 5


class TestExtremalRays:
    def test_count_sequence_and_formula(self):
        from math import comb

        for rank, expected in zip(range(1, 18), RAY_COUNTS):
            rays = extremal_rays(rank)
            assert len(rays) == expected
            assert expected == comb(rank, 3) + comb(rank, 2) + comb(rank, 1)

    def test_rank_cap_refuses_before_building(self, monkeypatch):
        assert config.RAY_RANK_CAP >= len(RAY_COUNTS)  # the highest rank tested
        cap = config.RAY_RANK_CAP
        assert len(extremal_rays(cap)) == sum(math.comb(cap, k) for k in (1, 2, 3))
        built = []
        monkeypatch.setattr(cone, "RaySpec", lambda **spec: built.append(spec))
        with pytest.raises(RankCapExceeded):
            extremal_rays(cap + 1)
        assert built == []

    def test_spec_validation(self):
        with pytest.raises(InvalidPair):
            RaySpec(a=2, b=3, ell=0, rank=4)  # b > a
        with pytest.raises(InvalidPair):
            RaySpec(a=2, b=1, ell=3, rank=4)  # a + ell > rank
        with pytest.raises(InvalidPair):
            RaySpec(a=1, b=0, ell=0, rank=4)  # b must be positive

    @pytest.mark.parametrize(
        "params", [(2.0, 1, 0, 3), (2, True, 0, 3), (2, 1, 0.0, 3), (2, 1, 0, 3.0)]
    )
    def test_spec_needs_integer_parameters(self, params):
        with pytest.raises(InvalidPair, match="^need integer parameters, got RaySpec"):
            RaySpec(*params)

    def test_primitive_points_are_basis_members(self):
        for rank in range(1, 6):
            basis = set(hilbert_basis(rank).keys())
            for spec in extremal_rays(rank):
                point = primitive_point(spec)
                assert (point.lam, point.mu) in basis, spec
            if rank >= 3:  # the containment is strict from rank 3 onward
                assert len(extremal_rays(rank)) < len(basis)

    def test_primitive_point_examples(self):
        assert primitive_point(RaySpec(a=1, b=1, ell=0, rank=1)) == KostkaPair(
            (1,), (1,), rank=1
        )
        # a and b share a factor: (2,2,0) scales down to the staircase-free point
        assert primitive_point(RaySpec(a=2, b=2, ell=0, rank=2)) == KostkaPair(
            (1, 1), (1, 1), rank=2
        )
        assert primitive_point(RaySpec(a=2, b=1, ell=1, rank=3)) == KostkaPair(
            (2, 2), (2, 1, 1), rank=3
        )


class TestExtremalityTest:
    def test_family_members_are_extremal(self):
        assert is_extremal(KostkaPair((1, 1), (1, 1)))
        assert is_extremal(KostkaPair((2,), (1, 1)))
        assert is_extremal(KostkaPair((2, 2), (2, 1, 1), rank=3))

    def test_non_members_are_not(self):
        assert not is_extremal(KostkaPair((3, 1), (2, 2), rank=2))
        assert not is_extremal(KostkaPair((2, 1), (1, 1, 1), rank=3))
        assert not is_extremal(KostkaPair((), (), rank=2))

    def test_scaling_preserves_extremality(self):
        for spec in extremal_rays(3):
            point = primitive_point(spec)
            assert is_extremal(point)
            assert is_extremal(scale_pair(point, 3))

    def test_basis_sweep_consistency(self):
        # is_extremal runs two independent tests and raises on disagreement;
        # every ray's primitive point is a basis element, so sweeping the
        # shipped bases finds the listed rays from the basis side
        for rank, count in zip(range(1, 9), RAY_COUNTS):
            rays = {primitive_point(s).key() for s in extremal_rays(rank)}
            basis = load_catalog(default_fixture_path(rank)).elements
            accepted = {pair.key() for pair in basis if is_extremal(pair)}
            assert accepted == rays
            assert len(accepted) == count

    def test_every_small_pair_up_to_rank_six(self):
        # the cone pairs of at most 10 boxes at each rank 1..6 they fit,
        # each also scaled by 3; is_extremal raises if its two tests
        # disagree on any
        pairs = [
            scale_pair(KostkaPair(p.lam, p.mu, rank), factor)
            for rank in range(1, 7)
            for p in cone_pair_pool(10)
            if p.rank <= rank
            for factor in (1, 3)
        ]
        assert len(pairs) == 6782
        assert sum(map(is_extremal, pairs)) == 396


class TestWidthBoundAudit:
    def test_small_ranks_pass(self):
        report = width_bound_audit(2)
        assert isinstance(report, AuditReport)
        assert report.rank == 2
        assert report.basis_count == 3
        assert report.full_width_count == 1  # only ((2),(1,1)) has lam_1 = rank
        assert report.boundary_pairs_checked == LAYER_COUNTS[2]
        assert report.box_cap == 6

    def test_box_cap_bounds_the_layer(self):
        # the layer's pairs have at most 6 * 7 = 42 boxes
        report = width_bound_audit(6)
        assert (report.box_cap, report.boundary_pairs_checked) == (42, LAYER_COUNTS[6])

    def test_certificate_agrees_with_decompose(self, monkeypatch):
        # the whole lambda_1 = rank + 1 layer, at most rank * (rank + 1) boxes
        for rank in range(2, 6):
            cap = rank * (rank + 1)
            monkeypatch.setattr(config, "SPLIT_CAP", cap)
            _, basis = cone._minimal_slacks(rank)
            checked = 0
            for block in cone._box_partitions(rank + 1, rank, cap):
                lam, mu, rows = block_pairs(block, len(block))
                wide = lam[:, 0] == rank + 1
                lam, mu = lam[wide], mu[wide]
                covered = cone._covered(rows[wide], basis)
                for pair, certified in zip(zip(lam.tolist(), mu.tolist()), covered):
                    found = decompose(KostkaPair(*pair, rank))
                    assert bool(certified) == (found is not None), pair
                checked += len(covered)
            assert checked == LAYER_COUNTS[rank]

    def test_uncertified_pair_fails_the_audit(self, monkeypatch):
        monkeypatch.setattr(
            cone,
            "_minimal_slacks",
            lambda rank: ((), np.zeros((0, 3 * rank - 1), dtype=np.int8)),
        )
        with pytest.raises(AssertionFailure, match="no basis element below it"):
            width_bound_audit(2)

    def test_rank_three(self):
        report = width_bound_audit(3)
        assert report.basis_count == 8
        assert report.full_width_count == 2  # ((3),(1,1,1)) and ((3,3),(2,2,2))


class TestScaling:
    @given(cone_pairs_st(max_boxes=8))
    def test_scaled_pairs_stay_in_cone(self, pair):
        doubled = scale_pair(pair, 2)
        assert doubled.n == 2 * pair.n
        assert size(doubled.lam) == size(doubled.mu)

    def test_pool_has_expected_size(self):
        assert len(cone_pair_pool(8)) > 300
