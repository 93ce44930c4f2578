from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import cone_pair_pool, outcome, partition_pool, partitions_st
from kostka import cone, config, partitions, ryser, subsetsum
from kostka.config import INT_CAP
from kostka.errors import InvalidPair, InvalidPartition, SizeCapExceeded
from kostka.partitions import (
    KostkaPair,
    _certified,
    as_partition,
    conjugate,
    dominates,
    format_partition,
    in_kostka_cone,
    kostka_count,
    kostka_positive,
    pad,
    parse_partition,
    size,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # p(0..10)
WORKED = ((8, 7, 7, 7, 3, 2), (7, 7, 4, 4, 4, 4, 4))


def render_diagram(p: Sequence[int]) -> str:
    """Young diagram as rows of '#' (English convention)."""
    q = as_partition(p)
    return "\n".join("#" * part for part in q)


def partitions_by_definition(n: int) -> set[tuple[int, ...]]:
    """The partitions of n as its compositions sorted into decreasing
    order; a composition is fixed by its set of cut points in 1..n-1."""
    if n <= 0:
        return {()} if n == 0 else set()
    return {
        tuple(sorted((b - a for a, b in zip(ends, ends[1:])), reverse=True))
        for k in range(n)
        for cuts in itertools.combinations(range(1, n), k)
        for ends in [(0, *cuts, n)]
    }


class TestBasics:
    def test_as_partition_trims_and_validates(self):
        assert as_partition([3, 2, 0, 0]) == (3, 2)
        assert as_partition(()) == ()
        with pytest.raises(InvalidPartition):
            as_partition((1, 2))
        with pytest.raises(InvalidPartition):
            as_partition((2, -1))

    def test_pad_and_size(self):
        assert pad((3, 1), 4) == (3, 1, 0, 0)
        assert size((3, 1)) == 4
        assert size(()) == 0

    def test_conjugate_golden(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((8, 7, 7, 7, 3, 2)) == (6, 6, 5, 4, 4, 4, 4, 1)

    @given(partitions_st(max_boxes=14))
    def test_conjugate_involution(self, p):
        assert conjugate(conjugate(p)) == p
        if p:
            assert len(conjugate(p)) == p[0]
            assert conjugate(p)[0] == len(p)

    def test_conjugate_matches_the_definition_exhaustively(self):
        for p in partition_pool(14):
            width = p[0] if p else 0
            expected = tuple(
                sum(1 for part in p if part >= j) for j in range(1, width + 1)
            )
            assert conjugate(p) == expected
            assert conjugate(expected) == p

    def test_render_diagram(self):
        assert render_diagram((3, 1)) == "###\n#"


class TestDominance:
    @given(partitions_st(max_boxes=12))
    def test_reflexive(self, p):
        assert dominates(p, p)

    def test_size_mismatch_is_false(self):
        assert not dominates((2, 1), (2,))
        assert not dominates((2,), (2, 1))

    def test_transitive_and_antisymmetric_exhaustive(self):
        parts = list(oracles.partitions(6))
        for a, b in itertools.product(parts, repeat=2):
            if dominates(a, b) and dominates(b, a):
                assert a == b
        for a, b, c in itertools.product(parts, repeat=3):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)

    @given(partitions_st(max_boxes=10), partitions_st(max_boxes=10))
    def test_dominates_is_sized_prefix_dominance(self, a, b):
        assert dominates(a, b) == (size(a) == size(b) and oracles.prefix_dom(a, b))

    @given(partitions_st(max_boxes=10))
    def test_conjugation_reverses_dominance(self, a):
        for b in oracles.partitions(size(a)):
            if dominates(a, b):
                assert dominates(conjugate(b), conjugate(a))

    def test_dominance_kernel_matches_the_walk(self):
        """The one-pass kernel and the functions built on it against the
        prefix-sum walk, on seeded random partitions of unequal lengths
        and totals, the zero partition among them."""
        rng = random.Random(25)
        shapes = [()] + [
            tuple(sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 8))), reverse=True))
            for _ in range(400)
        ]
        for a in shapes:
            for b in rng.sample(shapes, 40) + [(), a]:
                walk = oracles.dominance_walk(a, b)
                assert partitions._dominated(a, b) == walk, (a, b)
                assert dominates(a, b) == (size(a) == size(b) and walk), (a, b)
                rank = rng.randint(0, 9)
                assert in_kostka_cone(a, b, rank) == (
                    max(len(a), len(b)) <= rank and size(a) == size(b) and walk
                ), (a, b, rank)

    def test_in_kostka_cone_respects_rank(self):
        assert in_kostka_cone((2, 1), (1, 1, 1), 3)
        assert not in_kostka_cone((2, 1), (1, 1, 1), 2)
        assert not in_kostka_cone((2, 2), (3, 1), 2)


class TestKostkaCount:
    def test_worked_tableau_example(self):
        assert kostka_count((4, 2, 1), (3, 2, 1, 1)) == 4

    def test_small_goldens(self):
        assert kostka_count((2, 1), (1, 1, 1)) == 2
        assert kostka_count((2, 2), (2, 1, 1)) == 1
        assert kostka_count((), ()) == 1
        assert kostka_count((3, 1), (2, 2)) == 1

    def test_same_shape_gives_one_and_single_row_counts_once(self):
        for n in range(1, 7):
            for lam in oracles.partitions(n):
                assert kostka_count(lam, lam) == 1
                assert kostka_count((n,), lam) == 1

    def test_size_mismatch_counts_zero(self):
        assert kostka_count((2, 1), (1, 1)) == 0

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(config, "BOX_CAP", 5)
        with pytest.raises(SizeCapExceeded):
            kostka_count((4, 2, 1), (3, 2, 1, 1))

    def test_intermediate_shapes_are_not_rechecked(self, as_partition_calls, monkeypatch):
        monkeypatch.setattr(config, "BOX_CAP", 34)
        assert kostka_count(*WORKED) == 495
        assert len(as_partition_calls) == 2

    def test_matches_cell_filling_oracle(self):
        for pair in cone_pair_pool(8):
            assert kostka_count(pair.lam, pair.mu) == oracles.ssyt_count(pair.lam, pair.mu)

    def test_matches_the_strip_peeling_oracle(self):
        """Every pair of partitions of at most 11 boxes, dominated or
        not, of equal size or not."""
        shapes = partition_pool(11)
        for lam, mu in itertools.product(shapes, repeat=2):
            assert kostka_count(lam, mu) == oracles.strip_peel_count(lam, mu), (lam, mu)

    def test_standard_counts_match_the_cell_filling_oracle(self):
        # content 1^n leaves the shape itself to the hook length formula
        for shape in partition_pool(9):
            ones = (1,) * size(shape)
            assert kostka_count(shape, ones) == oracles.ssyt_count(shape, ones), shape

    @given(partitions_st(max_boxes=8), st.data())
    def test_content_order_does_not_matter(self, lam, data):
        mu = data.draw(st.sampled_from(list(oracles.partitions(size(lam)))))
        content = data.draw(st.permutations(mu))
        assert oracles.ssyt_count(lam, content) == kostka_count(lam, mu)

    def test_strip_cache_is_bounded(self):
        limit = partitions._strips.cache_info().maxsize
        shapes = partition_pool(16)[1:]
        keys = [(p, m) for p in shapes for m in range(1, 4) if m <= size(p)]
        assert len(keys) > limit
        for shape, m in keys:
            strips = partitions._strips(shape, m)
            assert isinstance(strips, tuple)
            for prev in strips:
                assert size(prev) == size(shape) - m
                assert oracles.horizontal_strip(prev, shape)
        assert partitions._strips.cache_info().currsize <= limit

    def test_standard_count_cache_is_bounded(self):
        limit = partitions._standard_count.cache_info().maxsize
        shapes = partition_pool(17)
        assert len(shapes) > limit
        for shape in shapes:
            count = oracles.strip_peel_count(shape, (1,) * size(shape))
            assert partitions._standard_count(shape) == count
        assert partitions._standard_count.cache_info().currsize <= limit

    def test_cap_edge_golden(self):
        # standard tableaux of the 3 x 10 rectangle: the 3-dimensional
        # Catalan number 2 * 30! / (10! * 11! * 12!)
        assert kostka_count((10, 10, 10), (1,) * 30) == 7_646_001_090

    @given(partitions_st(max_boxes=8), partitions_st(max_boxes=8))
    def test_positivity_iff_dominance(self, a, b):
        positive = size(a) == size(b) and kostka_count(a, b) > 0
        assert positive == dominates(a, b)
        assert kostka_positive(a, b) == dominates(a, b)


class TestEnumeration:
    """The oracle enumerators behind the pools, against the definition."""

    def test_partition_numbers(self):
        for n, expected in enumerate(PARTITION_COUNTS):
            assert sum(1 for _ in oracles.partitions(n)) == expected

    def test_matches_sorted_compositions(self):
        bounds = (None, 0, 1, 2, 3, 5, 20)
        for n in range(-1, 16):
            brute = partitions_by_definition(n)
            for max_part, max_len in itertools.product(bounds, repeat=2):
                want = sorted(
                    (
                        p
                        for p in brute
                        if (max_part is None or not p or p[0] <= max_part)
                        and (max_len is None or len(p) <= max_len)
                    ),
                    reverse=True,
                )
                assert list(oracles.partitions(n, max_part, max_len)) == want

    def test_decreasing_lex_order_and_bounds(self):
        got = list(oracles.partitions(6, max_part=3, max_len=3))
        assert got == sorted(got, reverse=True)
        assert all(p[0] <= 3 and len(p) <= 3 for p in got)
        assert got == [(3, 3), (3, 2, 1), (2, 2, 2)]

    def test_cone_pairs_against_filter(self):
        for max_boxes, max_part, max_len in ((6, 6, 6), (10, 4, 3), (13, 7, 13)):
            brute = []
            for n in range(1, max_boxes + 1):
                shapes = sorted(
                    (p for p in partitions_by_definition(n) if len(p) <= max_len),
                    reverse=True,
                )
                brute += [
                    (lam, mu)
                    for lam in shapes
                    if lam[0] <= max_part
                    for mu in shapes
                    if oracles.prefix_dom(lam, mu)
                ]
            assert list(oracles.cone_pairs(max_boxes, max_part, max_len)) == brute

    def test_pool_sizes_are_stable(self):
        assert len(partition_pool(10)) == sum(PARTITION_COUNTS)


class TestPairType:
    def test_normalization_and_defaults(self):
        pair = KostkaPair((4, 2, 1, 0), (3, 2, 1, 1))
        assert pair.lam == (4, 2, 1)
        assert pair.rank == 4
        assert pair.n == 7
        assert pair.width == 4
        assert str(pair) == "(4,2,1 | 3,2,1,1; r=4)"

    def test_each_side_is_checked_once(self, as_partition_calls):
        KostkaPair(*WORKED)
        assert as_partition_calls == list(WORKED)

    def test_str_does_not_recheck(self, as_partition_calls):
        pair, zero = KostkaPair(*WORKED), KostkaPair((), (), rank=2)
        as_partition_calls.clear()
        assert str(pair) == "(8,7,7,7,3,2 | 7,7,4,4,4,4,4; r=7)"
        assert str(zero) == "(0 | 0; r=2)"
        assert as_partition_calls == []

    def test_padded(self):
        pair = KostkaPair((2, 1), (1, 1, 1))
        assert pair.padded() == ((2, 1, 0), (1, 1, 1))

    def test_invalid_pairs(self):
        with pytest.raises(InvalidPair):
            KostkaPair((2, 1), (1, 1))  # size mismatch
        with pytest.raises(InvalidPair):
            KostkaPair((2, 1), (1, 1, 1), rank=2)  # mu needs 3 rows
        with pytest.raises(InvalidPartition):
            KostkaPair((1, 2), (2, 1))

    @pytest.mark.parametrize(
        "lam, mu, rank, message",
        [
            ((2, 1), (1, 1), None, "((2, 1), (1, 1)) is not in the Kostka cone at rank 2"),
            ((2, 1), (1, 1, 1), 2, "((2, 1), (1, 1, 1)) is not in the Kostka cone at rank 2"),
            ((2, 2), (3, 1), 2, "((2, 2), (3, 1)) is not in the Kostka cone at rank 2"),
            ((1, 1), (2,), None, "((1, 1), (2,)) is not in the Kostka cone at rank 2"),
            ((), (1,), None, "((), (1,)) is not in the Kostka cone at rank 1"),
            # a negative rank is refused, not read as the minimal one
            ((1,), (1,), -1, "((1,), (1,)) is not in the Kostka cone at rank -1"),
            # a rank that is not an int is refused, as a part would be
            ((1,), (1,), 2.5, "non-integer rank 2.5"),
            ((1,), (1,), True, "non-integer rank True"),
            ((1,), (1,), "2", "non-integer rank '2'"),
        ],
    )
    def test_invalid_pair_messages(self, lam, mu, rank, message):
        with pytest.raises(InvalidPair) as err:
            KostkaPair(lam, mu, rank)
        assert str(err.value) == message

    def test_zero_pair_is_allowed(self):
        pair = KostkaPair((), (), rank=1)
        assert pair.n == 0 and pair.width == 0


class TestParsing:
    def test_round_trip(self):
        for text in ("4,2,1", "1", "7,7,4,4,4,4,4"):
            assert format_partition(parse_partition(text)) == text

    def test_empty_forms(self):
        assert parse_partition("") == ()
        assert parse_partition("0") == ()
        assert parse_partition("()") == ()
        assert format_partition(()) == "0"

    def test_rejects_garbage(self):
        with pytest.raises(InvalidPartition):
            parse_partition("1,2")
        with pytest.raises(InvalidPartition):
            format_partition((1, 2))
        with pytest.raises(InvalidPartition):
            parse_partition("a,b")
        with pytest.raises(InvalidPartition):
            parse_partition("3,-1")


class _Part(int):
    """An int subclass: accepted as a part, and walked part by part."""


AS_PARTITION_INPUTS = {
    "empty": [],
    "all zeros": [0, 0, 0],
    "trailing zeros": [4, 2, 2, 0, 0],
    "already trimmed": [3, 3, 1],
    "bool parts": [True, False],
    "a bool among ints": [2, True],
    "numpy int64 parts": [np.int64(3), np.int64(1)],
    "numpy int64 among ints": [3, np.int64(1), 0],
    "int subclass parts": [_Part(3), _Part(1), _Part(0)],
    "int subclass among ints": [4, _Part(2), 0],
    "increasing int subclass": [_Part(1), 2],
    "negative part": [3, -1],
    "negative first": [-1, -2],
    "negative zero tail": [2, 0, -1],
    "at INT_CAP": [INT_CAP, INT_CAP, 5],
    "above INT_CAP": [INT_CAP + 1, 1],
    "above INT_CAP last": [INT_CAP + 1],
    "increasing": [1, 2, 3],
    "increasing after zero": [2, 0, 1],
    "increasing and negative": [1, 2, -1],
    "float part": [2.0, 1],
    "string part": ["3"],
    "none part": [None],
}


def _outcome(fn, parts):
    try:
        value = fn(parts)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return value, tuple(map(type, value))


class TestAsPartitionFastPath:
    """as_partition checks int parts with C-level builtins and walks part
    by part only on failure; it must agree with the part-by-part check
    (oracles.as_partition) on every input, value, part types, exception
    and message."""

    @pytest.mark.parametrize("case", AS_PARTITION_INPUTS)
    def test_agrees_with_the_walk(self, case):
        parts = AS_PARTITION_INPUTS[case]
        for wrap in (list, tuple, iter, lambda p: (v for v in p)):
            assert _outcome(as_partition, wrap(parts)) == _outcome(
                oracles.as_partition, wrap(parts)
            ), (case, wrap)

    def test_agrees_on_random_sequences(self):
        rng = random.Random(12)
        for _ in range(3000):
            parts = [rng.randint(-2, 5) for _ in range(rng.randint(0, 7))]
            if rng.random() < 0.5:
                parts.sort(reverse=True)
            if parts and rng.random() < 0.2:
                parts[rng.randrange(len(parts))] = rng.choice(
                    [True, np.int64(1), _Part(2), INT_CAP + 1, 1.0]
                )
            assert _outcome(as_partition, parts) == _outcome(
                oracles.as_partition, parts
            ), parts


def _same_pair(got: KostkaPair, want: KostkaPair) -> bool:
    """Equal pairs of the same type whose fields hold the same types: a
    tuple of plain ints per side and an int rank."""
    return (
        type(got) is type(want) is KostkaPair
        and vars(got) == vars(want)
        and {type(got.lam), type(got.mu)} == {tuple}
        and {*map(type, got.lam + got.mu), type(got.rank)} <= {int}
    )


@pytest.fixture
def certified_calls(monkeypatch) -> list:
    """Every call of ``_certified`` made by the modules that build the
    library's own pairs, each checked against the constructor on the
    same arguments."""
    calls = []

    def spy(lam, mu, rank):
        got = _certified(lam, mu, rank)
        assert _same_pair(got, KostkaPair(lam, mu, rank)), (lam, mu, rank)
        calls.append((lam, mu, rank))
        return got

    for module in (cone, ryser, subsetsum):
        monkeypatch.setattr(module, "_certified", spy)
    return calls


# one input of each kind the builder refuses, and the one it trims
TAMPERED = {
    "rising lambda": ([1, 2], [2, 1], 2),
    "rising mu": ([2, 1], (1, 2), 2),
    "negative part": ([3, -1], [1, 1], 2),
    "negative mu part": ((2,), [3, -1], 2),
    "part above INT_CAP": ([INT_CAP + 1], [INT_CAP + 1], 1),
    "unequal sizes": ([2, 1], [1, 1], 2),
    "more parts than the rank": ([2, 1], [1, 1, 1], 2),
    "undominated": ([2, 2], [3, 1], 2),
}


class TestCertifiedBuilder:
    """``_certified`` builds the pairs the library computes without the
    constructor's type census, and must return what the constructor
    returns and refuse what it refuses, with the same message."""

    @pytest.mark.parametrize("case", TAMPERED)
    def test_refuses_as_the_constructor_does(self, case):
        lam, mu, rank = TAMPERED[case]
        refusal = outcome(KostkaPair, lam, mu, rank)
        assert refusal is not None and refusal[0] in (InvalidPair, InvalidPartition)
        assert outcome(_certified, lam, mu, rank) == refusal

    def test_trailing_zeros_are_trimmed(self):
        for lam, mu, rank in (([2, 1, 0], [1, 1, 1, 0], 4), ((0, 0), [0], 2), ([], [], 0)):
            assert _same_pair(_certified(lam, mu, rank), KostkaPair(lam, mu, rank))
        assert _certified([2, 1, 0], [1, 1, 1, 0], 4).lam == (2, 1)

    def test_decompose_and_split_halves_match_the_constructor(self, certified_calls):
        decomposed = split = 0
        for pair in cone_pair_pool(13, max_width=7):
            found = cone.decompose(pair)
            canonical = ryser.ryser_canonical(pair)
            columns = ryser.matrix_reducible(canonical)
            if columns is not None:
                ryser.split_pair(canonical, columns)
            decomposed += found is not None
            split += columns is not None
        # the c05 census: 6,456 pairs decompose, 6,271 by a column split
        assert (decomposed, split) == (6456, 6271)
        assert len(certified_calls) == 2 * (6456 + 6271)

    def test_reduction_and_proof_pairs_match_the_constructor(self, certified_calls):
        instances = yes = 0
        for total in range(1, 20):
            for values in oracles.partitions(total, None, None):
                for target in range(1, total + 1):
                    inst = subsetsum.SubsetSumInstance(values, target)
                    whole = subsetsum.reduce_to_kostka(inst)
                    witness = subsetsum.subset_sum_oracle(inst)
                    if witness is not None:
                        subsetsum.proof_decomposition(inst, witness, whole)
                    instances += 1
                    yes += witness is not None
        assert len(certified_calls) == instances + 2 * yes

    def test_basis_elements_match_the_constructor(self, certified_calls):
        counts = [cone.hilbert_basis(rank).count for rank in range(1, 9)]
        assert len(certified_calls) == sum(counts)

    def test_ray_points_match_the_constructor(self, certified_calls):
        specs = cone.extremal_rays(9)
        for spec in specs:
            spec.pair()
            cone.primitive_point(spec)
        assert len(certified_calls) == 2 * len(specs)

