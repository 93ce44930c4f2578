from __future__ import annotations

import random
import re
import tracemalloc
from typing import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import cone_pair_pool, cone_pairs_st
from kostka import config
from kostka.errors import InvalidSequence, LengthCapExceeded, NotAWitness
from kostka.partitions import KostkaPair, conjugate, dominates
from kostka.sequences import (
    CatalanSeq,
    catalan_reducible,
    cost,
    kim_theorem_check,
    runs,
)

WORKED_SEQ = (3, 2, 1, -2, 1, -2, -1, -1, 2, -1, 2, 1, -2, -1, -1, -1)


def strip_zeros(entries: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(nonzero entries, their original 1-based positions)."""
    kept = [(v, i) for i, v in enumerate(entries, start=1) if v != 0]
    return tuple(v for v, _ in kept), tuple(i for _, i in kept)


def small_sequences() -> list[tuple[int, ...]]:
    """Every valid sequence with entries in {-2,-1,1,2} and width <= 7."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], height: int) -> None:
        if prefix and height == 0:
            out.append(tuple(prefix))
        if len(prefix) == 7:
            return
        for step in (-2, -1, 1, 2):
            if height + step >= 0:
                prefix.append(step)
                extend(prefix, height + step)
                prefix.pop()

    extend([], 0)
    return out

SMALL_SEQUENCES = small_sequences()

# 30 rising entries 1000..1029, then falling: a state bound of 1,667,240
# and, with the cap lifted, tables of about 27 MB
MOUNTAIN_60 = tuple(range(1000, 1030)) + tuple(range(-1029, -999))


@st.composite
def catalan_st(draw, max_length: int = 6) -> tuple[int, ...]:
    """A sequence of entries up to INT_CAP: drawn steps, each fall cut to
    the height reached, closed by falls of at most INT_CAP (so at most
    2 * max_length entries, few enough for the brute-force oracle)."""
    entries: list[int] = []
    height = 0
    for step in draw(st.lists(st.integers(-config.INT_CAP, config.INT_CAP), max_size=max_length)):
        step = max(step, -height)
        if step:
            entries.append(step)
            height += step
    while height:
        entries.append(-min(height, config.INT_CAP))
        height += entries[-1]
    return tuple(entries)


def random_walk(rng: random.Random, top: int, max_length: int = 14) -> tuple[int, ...]:
    """The c09 generator with steps up to ``top``: nonnegative partial
    sums returning to zero, biased toward repeated signs and unit steps."""
    budget = rng.randint(2, max_length)
    entries: list[int] = []
    height = 0
    sign = 1
    while len(entries) < budget - 1:
        if height == 0:
            sign = 1
        elif rng.random() < 0.3:
            sign = -sign
        step = sign * (1 if rng.random() < 0.7 else rng.randint(1, top))
        if step < 0:
            step = max(step, -height)
        entries.append(step)
        height += step
    if height > 0:
        entries.append(-height)
    return tuple(entries)


class TestCatalanSeq:
    def test_validation(self):
        CatalanSeq((1, -1))
        with pytest.raises(InvalidSequence):
            CatalanSeq((1, 0, -1))  # zero entry
        with pytest.raises(InvalidSequence):
            CatalanSeq((-1, 1))  # negative prefix
        with pytest.raises(InvalidSequence):
            CatalanSeq((1, 1))  # nonzero total

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((1.5, -1.5), "non-integer entry 1.5 at position 1"),
            ((True, -1), "non-integer entry True at position 1"),
            ((2, -1, -1.0), "non-integer entry -1.0 at position 3"),
        ],
    )
    def test_non_integers_are_refused(self, entries, message):
        # entries are checked, not converted by int()
        with pytest.raises(InvalidSequence, match=f"^{re.escape(message)}$"):
            CatalanSeq(entries)

    def test_empty_is_allowed(self):
        assert CatalanSeq(()).width == 0

    def test_worked_example_runs_and_cost(self):
        x = CatalanSeq(WORKED_SEQ)
        assert x.width == 16
        assert runs(x) == (
            (3, 2, 1),
            (-2,),
            (1,),
            (-2, -1, -1),
            (2,),
            (-1,),
            (2, 1),
            (-2, -1, -1, -1),
        )
        assert cost(x) == 15

    def test_worked_example_decomposition(self):
        x = CatalanSeq(WORKED_SEQ)
        # the underlined split: positions {1,7,8,16} give (3,-1,-1,-1)
        assert oracles.catalan_ok(WORKED_SEQ, (1, 7, 8, 16))
        assert oracles.catalan_ok(
            WORKED_SEQ, tuple(i for i in range(1, 17) if i not in (1, 7, 8, 16))
        )
        witness = catalan_reducible(x)
        assert witness is not None
        sub = tuple(i for i in range(1, 17) if i not in witness)
        assert oracles.catalan_ok(WORKED_SEQ, witness)
        assert oracles.catalan_ok(WORKED_SEQ, sub)


class TestCatalanReducible:
    def test_matches_bruteforce_exhaustively(self):
        for entries in SMALL_SEQUENCES:
            fast = catalan_reducible(CatalanSeq(entries))
            brute = oracles.catalan_reducible(entries)
            assert fast == brute, entries

    @given(catalan_st())
    def test_matches_bruteforce_past_int64(self, entries):
        assert catalan_reducible(CatalanSeq(entries)) == oracles.catalan_reducible(entries)

    def test_matches_the_mask_sweep_on_seeded_walks(self):
        # 3,000 walks as the bench draws them, 2,000 with steps up to 9
        for top, count in ((5, 3000), (9, 2000)):
            rng = random.Random(top)
            for _ in range(count):
                entries = random_walk(rng, top)
                assert catalan_reducible(CatalanSeq(entries)) == oracles.catalan_sweep(
                    entries
                ), entries

    def test_length_cap(self):
        # the cap is on the state bound, refused before any table is built
        x = CatalanSeq(MOUNTAIN_60)
        tracemalloc.start()
        try:
            with pytest.raises(LengthCapExceeded, match="state bound 1667240 exceeds"):
                catalan_reducible(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_every_short_sequence_is_answered(self):
        # at length t the bound is at most 2 * (2^t - 1), reached when every
        # prefix sum is large; so every sequence of length <= 12 is admitted
        top = config.INT_CAP
        highest = CatalanSeq(tuple(range(top - 5, top + 1)) + tuple(range(-top, 6 - top)))
        assert highest.width == 12
        assert catalan_reducible(highest) == oracles.catalan_reducible(highest.entries)
        assert config.STATE_CAP >= 2 * (2**12 - 1)

    def test_prefix_sums_past_int64(self):
        top = config.INT_CAP
        entries = (top, top, top, -top, -top, -top)
        assert catalan_reducible(CatalanSeq(entries)) == (1, 2, 4, 5)
        assert oracles.catalan_reducible(entries) == (1, 2, 4, 5)

    def test_irreducible_examples(self):
        assert catalan_reducible(CatalanSeq((1, 1, -2))) is None
        assert catalan_reducible(CatalanSeq((2, -1, -1))) is None
        assert catalan_reducible(CatalanSeq((1, -1))) is None


class TestPairSequences:
    def test_conjugate_differences(self):
        pair = KostkaPair((5, 1, 1), (2, 2, 2, 1))
        assert oracles.pair_to_sequence(pair) == (1, 2, -1, -1, -1)

    def test_strip_zeros(self):
        assert strip_zeros((1, 0, -1, 0)) == ((1, -1), (1, 3))
        assert strip_zeros((0, 0)) == ((), ())

    @given(cone_pairs_st(max_boxes=12))
    def test_sequences_are_catalan(self, pair):
        seq = oracles.pair_to_sequence(pair)
        assert len(seq) == pair.width
        assert sum(seq) == 0
        height = 0
        for value in seq:
            height += value
            assert height >= 0

    @given(cone_pairs_st(max_boxes=12))
    def test_cost_bounded_by_mu_length(self, pair):
        values, _ = strip_zeros(oracles.pair_to_sequence(pair))
        if values:
            assert cost(CatalanSeq(values)) <= len(pair.mu)


class TestCommonSplit:
    def test_worked_column_split(self):
        pair = KostkaPair((5, 1, 1), (2, 2, 2, 1))
        assert oracles.commonly_reducible(pair) == (
            (1, 3),
            KostkaPair((2, 1, 1), (1, 1, 1, 1), rank=4),
            KostkaPair((3,), (1, 1, 1), rank=4),
        )

    def test_zero_column_shortcut(self):
        columns, selected, _ = oracles.commonly_reducible(KostkaPair((2, 2), (2, 2)))
        assert columns == (1,)
        assert selected == KostkaPair((1, 1), (1, 1), rank=2)

    def test_narrow_pair_without_common_split(self):
        pair = KostkaPair((3, 3, 1), (2, 2, 2, 1))
        assert oracles.commonly_reducible(pair) is None
        from kostka.cone import decompose

        found = decompose(pair)
        assert found is not None
        assert found[0] == KostkaPair((1, 1, 1), (1, 1, 1), rank=4)
        assert found[1] == KostkaPair((2, 2), (1, 1, 1, 1), rank=4)

    def test_single_column_pair(self):
        assert oracles.commonly_reducible(KostkaPair((1, 1), (1, 1))) is None

    def test_explicit_split_validates_columns(self):
        pair = KostkaPair((5, 1, 1), (2, 2, 2, 1))
        with pytest.raises(NotAWitness):
            # the selected halves are not dominance pairs
            oracles.common_split(pair, (2, 3))

    @given(cone_pairs_st(max_boxes=13))
    def test_split_halves_partition_the_columns(self, pair):
        split = oracles.commonly_reducible(pair)
        if split is None:
            return
        _, sel, comp = split
        assert dominates(sel.lam, sel.mu)
        assert dominates(comp.lam, comp.mu)
        merged = sorted(conjugate(sel.lam) + conjugate(comp.lam), reverse=True)
        assert tuple(merged) == conjugate(pair.lam)
        merged_mu = sorted(conjugate(sel.mu) + conjugate(comp.mu), reverse=True)
        assert tuple(merged_mu) == conjugate(pair.mu)

    def test_wide_pairs_always_split(self):
        # lambda_1 > rank forces a common split (exhaustive, 13 boxes)
        wide = 0
        for pair in cone_pair_pool(13, max_width=7):
            if pair.width > pair.rank:
                assert oracles.commonly_reducible(pair) is not None, pair
                wide += 1
        assert wide > 1900


class TestKimBound:
    def test_worked_example_has_witness(self):
        report = kim_theorem_check(CatalanSeq(WORKED_SEQ))
        assert report.cost == 15
        assert report.width == 16
        assert report.hypothesis
        assert report.witness is not None

    def test_vacuous_cases(self):
        report = kim_theorem_check(CatalanSeq((1, -1)))
        assert report.cost == 2
        assert not report.hypothesis
        assert report.witness is None

    def test_two_run_family(self):
        # (m, 1, 1, ..., -1, ..., -1): cost m+1, width 2m+1; reducible
        for m in range(2, 6):
            entries = (m,) + (1,) * m + (-1,) * (2 * m)
            report = kim_theorem_check(CatalanSeq(entries))
            assert report.hypothesis
            assert report.witness is not None

    def test_length_cap(self):
        # long sequences with small entries are answered
        rng = random.Random(200)
        walk: tuple[int, ...] = ()
        while len(walk) != 200:
            walk = random_walk(rng, top=3, max_length=200)
        for entries in (walk, (1, -1) * 100):
            witness = catalan_reducible(CatalanSeq(entries))
            assert witness is not None
            rest = tuple(i for i in range(1, 201) if i not in witness)
            assert oracles.catalan_ok(entries, witness) and oracles.catalan_ok(entries, rest)
            report = kim_theorem_check(CatalanSeq(entries))
            assert report.witness in (None, witness)
        assert catalan_reducible(CatalanSeq((1, -1) * 100)) == (1, 2)
        # the check inherits the sublist search's cap where cost < width
        with pytest.raises(LengthCapExceeded, match="state bound 722400 exceeds"):
            kim_theorem_check(CatalanSeq((1,) * 600 + (-1,) * 600))

    def test_exhaustive_small_widths(self):
        for entries in SMALL_SEQUENCES:
            report = kim_theorem_check(CatalanSeq(entries))
            if report.hypothesis:
                assert report.witness is not None, entries
