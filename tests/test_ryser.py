from __future__ import annotations

import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given

import oracles
from conftest import (
    cone_pair_pool,
    cone_pairs_st,
    one_cell_mutations,
    outcome,
    random_int8_matrices,
    read_matrix_blocks,
)
from kostka import config, ryser
from kostka.cone import RaySpec, primitive_point
from kostka.errors import (
    InvalidPair,
    InvalidPartition,
    MalformedStarMatrix,
    NotAWitness,
    WidthCapExceeded,
)
from kostka.partitions import (
    KostkaPair,
    conjugate,
    dominates,
    pad,
    size,
)
from kostka.ryser import (
    CanonicalMatrix,
    DeleteColumn,
    ShortenAndDelete,
    ShortenRightmost,
    StarMatrix,
    matrix_reducible,
    fixing_chain,
    render_matrix,
    ryser_canonical,
    shape_sequence,
    split_pair,
    star_matrix,
)

GOLDEN_SHAPES = (
    (7, 7, 4, 4, 4, 4, 4),
    (7, 6, 4, 4, 4, 4, 4),
    (6, 5, 4, 4, 4, 3, 3),
    (5, 4, 4, 3, 3, 3, 3),
    (4, 3, 3, 3, 3, 3, 2),
    (3, 3, 3, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 1, 1),
    (1, 1, 1, 1, 1, 1),
    (),
)

GOLDEN_STEPS = (
    ShortenRightmost(length=2, new_length=1),
    ShortenAndDelete(length=7, new_length=5, deleted_length=2),
    ShortenAndDelete(length=5, new_length=3, deleted_length=2),
    ShortenAndDelete(length=7, new_length=6, deleted_length=3),
    ShortenAndDelete(length=6, new_length=3, deleted_length=1),
    ShortenAndDelete(length=7, new_length=5, deleted_length=3),
    ShortenAndDelete(length=7, new_length=6, deleted_length=5),
    DeleteColumn(length=6),
)


class TestRenderMatrix:
    def test_render(self):
        assert render_matrix(((1, 0), (0, 1))) == "1 0\n0 1"

    def test_rows_of_no_cells_are_empty_lines(self):
        assert render_matrix(np.zeros((2, 0), dtype=np.int8)) == "\n"
        assert render_matrix(np.zeros((0, 0), dtype=np.int8)) == ""


class TestGaleRyser:
    def test_known_margins(self):
        assert dominates(conjugate((2, 2)), (2, 1, 1))
        assert not dominates(conjugate((2, 2)), (1, 1))

    def test_matches_matrix_search_exhaustively(self):
        for n in range(1, 9):
            shapes = list(oracles.partitions(n))
            for alpha in shapes:
                for beta in shapes:
                    assert dominates(conjugate(alpha), beta) == oracles.gr_matrix_exists(
                        alpha, beta
                    ), (alpha, beta)


class TestCanonicalMatrix:
    def test_golden_chain(self, running_pair):
        canonical = ryser_canonical(running_pair)
        chain = fixing_chain(canonical)
        assert [stage.tolist() for stage in chain] == [
            [list(row) for row in block] for block in read_matrix_blocks("ryser_chain.txt")
        ]
        assert np.array_equal(canonical.entries, chain[-1])

    def test_margins_hold_along_the_whole_chain(self, running_pair):
        canonical = ryser_canonical(running_pair)
        mu_padded = pad(running_pair.mu, running_pair.rank)
        for stage in fixing_chain(canonical):
            assert tuple(sum(row) for row in stage) == mu_padded
        cols = np.asarray(canonical.entries).sum(axis=0)
        assert tuple(int(c) for c in cols) == pad(
            conjugate(running_pair.lam), running_pair.width
        )

    def test_identity_pair_is_a_fixed_point(self):
        canonical = ryser_canonical(KostkaPair((4, 2), (4, 2)))
        assert all(
            np.array_equal(stage, canonical.entries) for stage in fixing_chain(canonical)
        )
        assert canonical.entries.tolist() == [[1, 1, 1, 1], [1, 1, 0, 0]]

    def test_built_pair_is_not_rechecked(self, running_pair, as_partition_calls):
        ryser_canonical(running_pair)
        assert as_partition_calls == []

    @given(cone_pairs_st(max_boxes=12))
    def test_construction_validates(self, pair):
        canonical = ryser_canonical(pair)  # __post_init__ re-checks everything
        assert len(fixing_chain(canonical)) == pair.width + 1

    @given(cone_pairs_st(max_boxes=12))
    def test_columns_have_at_most_two_runs_anchored_at_top(self, pair):
        arr = ryser_canonical(pair).entries
        for j in range(arr.shape[1]):
            column = [int(v) for v in arr[:, j]]
            runs = [
                i
                for i in range(len(column))
                if column[i] and (i == 0 or not column[i - 1])
            ]
            assert len(runs) <= 2
            if len(runs) == 2 or j == 0:
                assert column and column[0] == 1


class TestCellCap:
    def test_oversized_matrix_is_refused_before_fixing(self, fixing_forbidden):
        with pytest.raises(WidthCapExceeded):
            ryser_canonical(KostkaPair((1000001,), (1000001,)))


class TestCanonicalMemo:
    def test_equal_pairs_share_one_matrix(self, running_pair):
        twin = KostkaPair(running_pair.lam, running_pair.mu)
        assert twin is not running_pair
        assert ryser_canonical(twin) is ryser_canonical(running_pair)

    def test_fixing_procedure_runs_once_per_pair(self, running_pair, monkeypatch):
        calls = []
        real = ryser._fixing_stages

        def spy(pair):
            calls.append(pair)
            return real(pair)

        monkeypatch.setattr(ryser, "_fixing_stages", spy)
        ryser_canonical(running_pair)
        ryser_canonical(KostkaPair(running_pair.lam, running_pair.mu))
        assert calls == [running_pair]

    def test_rank_is_part_of_the_key(self):
        low = ryser_canonical(KostkaPair((2,), (1, 1)))
        high = ryser_canonical(KostkaPair((2,), (1, 1), rank=3))
        assert low.entries.tolist() == [[1, 0], [0, 1]]
        assert high.entries.tolist() == [[1, 0], [0, 1], [0, 0]]

    def test_cap_is_checked_before_the_memo(self, running_pair, monkeypatch):
        ryser_canonical(running_pair)
        cells = running_pair.rank * running_pair.width
        monkeypatch.setattr(config, "CELL_CAP", cells - 1)
        with pytest.raises(WidthCapExceeded, match=f"of {cells} cells exceeds cap"):
            ryser_canonical(running_pair)

    def test_shared_matrix_cannot_be_changed(self, running_pair):
        canonical = ryser_canonical(running_pair)
        with pytest.raises(ValueError):
            canonical.entries[0, 0] = 0
        with pytest.raises(AttributeError):
            canonical.entries = canonical.entries.copy()

    def test_memo_is_small(self):
        assert 1 <= ryser._canonical.cache_info().maxsize <= 8


def raw_pair(lam, mu, rank: int) -> KostkaPair:
    """A pair built without validation, so it may lie outside the cone."""
    pair = object.__new__(KostkaPair)
    for name, value in (("lam", lam), ("mu", mu), ("rank", rank)):
        object.__setattr__(pair, name, value)
    return pair


def random_cone_pair(
    rng: random.Random, max_rank: int, max_width: int = 0
) -> KostkaPair:
    """mu with up to ``max_rank`` parts, and lambda raised from it by
    moving single boxes up, which keeps lambda dominating mu; lambda_1
    stays below ``max_width`` + 1 when that is set."""
    rank = rng.randint(1, max_rank)
    mu = sorted((rng.randint(0, 12) for _ in range(rank)), reverse=True)
    mu[0] += 1
    lam = list(mu)
    for _ in range(rng.randint(0, 4 * rank)):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if (
            i < j
            and lam[j] > (lam[j + 1] if j + 1 < rank else 0)
            and (lam[i] < lam[i - 1] if i else not max_width or lam[0] < max_width)
        ):
            lam[i] += 1
            lam[j] -= 1
    return KostkaPair(lam, mu, rank)


# (lambda, mu, rank, message): pairs outside the cone that stop the
# fixing procedure, one per check and per way the second check fires
FIXING_REJECTS = {
    "no 1 left": ((1, 1), (2,), 2, "row 2 has no 1 left of column 1"),
    "row left in the run": ((2,), (3, 3), 2, "row 1 keeps a 1 in column 2"),
    "row of the next run": ((3,), (5, 4, 2, 1), 4, "row 2 keeps a 1 in column 3"),
}


class TestSortedReferee:
    """The column-fixing procedure on the conjugate shape against the
    one that sorts every row by current sum at each column."""

    @staticmethod
    def assert_same_as_sorted(pair: KostkaPair) -> None:
        canonical = ryser_canonical(pair)
        assert np.array_equal(canonical.entries, oracles.sorted_canonical(pair)), pair
        chain = fixing_chain(canonical)
        expected = oracles.sorted_chain(pair)
        assert len(chain) == len(expected)
        assert all(map(np.array_equal, chain, expected)), pair

    def test_c05_pool(self):
        pool = cone_pair_pool(13, max_width=7)
        assert len(pool) == 7214
        for pair in pool:
            self.assert_same_as_sorted(pair)

    def test_wide_pairs(self, monkeypatch):
        # the chains of the wider staircases exceed the default cell cap
        monkeypatch.setattr(config, "CELL_CAP", 10**7)
        for w in (50, 100, 200):
            stairs = tuple(range(w, 0, -1))
            self.assert_same_as_sorted(KostkaPair(stairs, stairs))
        for a in range(5, 81):
            self.assert_same_as_sorted(primitive_point(RaySpec(a, a - 1, 2, a + 2)))

    def test_random_cone_pairs(self):
        rng = random.Random(18)
        for _ in range(2000):
            self.assert_same_as_sorted(random_cone_pair(rng, 12))

    @pytest.mark.parametrize("case", FIXING_REJECTS)
    def test_pinned_pairs_outside_the_cone(self, case):
        lam, mu, rank, message = FIXING_REJECTS[case]
        pair = raw_pair(lam, mu, rank)
        for procedure in (ryser._fixing_stages, oracles.sorted_fixing_stages):
            with pytest.raises(AssertionError) as info:
                procedure(pair)
            assert str(info.value) == message

    def test_random_pairs_outside_the_cone(self):
        """Same refusal, or the same matrix and the same constructor
        verdict on it, on unchecked pairs of partitions."""
        rng = random.Random(18)
        parts = (1, 2, 3, 5, 8, 13)
        fired = {"has no 1 left of column": 0, "keeps a 1 in column": 0}
        for _ in range(3000):
            lam, mu = (
                tuple(sorted(rng.choices(parts, k=rng.randint(1, 7)), reverse=True))
                for _ in range(2)
            )
            pair = raw_pair(lam, mu, max(len(lam), len(mu)) + rng.randint(0, 2))
            got = outcome(ryser._fixing_stages, pair)
            assert got == outcome(oracles.sorted_fixing_stages, pair), pair
            if got is None:
                verdict = outcome(CanonicalMatrix, pair, oracles.sorted_canonical(pair))
                assert outcome(ryser_canonical, pair) == verdict
                if verdict is None:
                    self.assert_same_as_sorted(pair)
                continue
            fired[next(check for check in fired if check in got[1])] += 1
        assert all(fired.values()), fired


# (lambda, mu, entries, message) per check of CanonicalMatrix.__post_init__
CANONICAL_REJECTS = {
    "shape": ((2,), (1, 1), ((1, 0),), "shape"),
    "entry 2": ((2,), (1, 1), ((2, 0), (0, 1)), "0/1"),
    "entry that wraps to 1 in int8": ((2,), (1, 1), ((257, 0), (0, 1)), "entries"),
    "row sums": ((2,), (1, 1), ((1, 1), (0, 0)), "row sums"),
    "column sums": ((2,), (1, 1), ((1, 0), (1, 0)), "column sums"),
    "second run not at the top": (
        (2, 2), (1, 1, 1, 1), ((1, 0), (0, 1), (1, 0), (0, 1)), "column 2 has"
    ),
    "three runs": (
        (2, 2, 2), (2, 1, 1, 1, 1), ((1, 1), (1, 0), (0, 1), (1, 0), (0, 1)), "column 2 has"
    ),
    "leftmost column not anchored": ((2,), (1, 1), ((0, 1), (1, 0)), "leftmost column"),
}

# (lambda, mu, entries, message) per check of StarMatrix.__post_init__
STAR_REJECTS = {
    "shape": ((2,), (1, 1), ((1, -1),), "shape"),
    "row sums": ((2,), (1, 1), ((1, 1), (0, 0)), "row sums"),
    "column (1, 1)": ((3, 3), (3, 3), ((0, 1, -1), (1, 1, 1)), "column 2 pattern"),
    "column (-1)": ((3,), (1, 1, 1), ((0, -1, 1), (0, 0, 0), (1, 0, 0)), "column 2 pattern"),
    "column (1, -1)": ((3,), (2, 1), ((0, 1, 0), (1, -1, 1)), "column 2 pattern"),
    "column (-1, 1, -1, 1)": (
        (3, 3, 2),
        (2, 2, 2, 2),
        ((0, -1, 1), (0, 1, -1), (0, -1, 1), (1, 1, 0)),
        "column 2 pattern",
    ),
    "leftmost column not a single +1": ((2,), (1, 1), ((-1, 1), (1, 0)), "leftmost column"),
    # a -1 in the bottom row leaves its column without a valid signature,
    # so the signature check refuses it before the bottom-row check
    "-1 in the bottom row": ((3,), (2, 1), ((0, 0, 1), (1, 1, -1)), "column 3 pattern"),
}


class TestConstructorChecks:
    @pytest.mark.parametrize("case", CANONICAL_REJECTS)
    def test_canonical_matrix_rejects(self, case):
        lam, mu, entries, message = CANONICAL_REJECTS[case]
        with pytest.raises(AssertionError, match=message):
            CanonicalMatrix(pair=KostkaPair(lam, mu), entries=entries)

    @pytest.mark.parametrize("case", STAR_REJECTS)
    def test_star_matrix_rejects(self, case):
        lam, mu, entries, message = STAR_REJECTS[case]
        with pytest.raises(MalformedStarMatrix, match=message):
            StarMatrix(pair=KostkaPair(lam, mu), entries=entries)


def _margin_pair(heights, mu, rank: int, width: int) -> KostkaPair | None:
    """The cone pair with lambda' = ``heights`` and the given mu at
    ``rank``, if there is one of this width."""
    try:
        pair = KostkaPair(conjugate(heights), mu, rank=rank)
    except (InvalidPartition, InvalidPair):
        return None
    return pair if pair.width == width else None


def _switches(arr: np.ndarray, rng: random.Random, count: int):
    """Copies of a 0/1 matrix with one 2 x 2 switch each, [[1, 0], [0, 1]]
    to [[0, 1], [1, 0]]: row and column sums stay, runs move."""
    r, w = arr.shape
    for _ in range(count * 10):
        if r < 2 or w < 2 or not count:
            return
        i, k = rng.sample(range(r), 2)
        j, m = rng.sample(range(w), 2)
        if arr[i, j] == arr[k, m] == 1 and arr[i, m] == arr[k, j] == 0:
            mutant = arr.copy()
            mutant[i, j] = mutant[k, m] = 0
            mutant[i, m] = mutant[k, j] = 1
            count -= 1
            yield mutant


def _differences(pair: KostkaPair) -> tuple[int, ...]:
    mu = pad(pair.mu, pair.rank)
    return tuple(a - b for a, b in zip(mu, mu[1:] + (0,)))


def _canonical_cases():
    rng = random.Random(20)
    pool = cone_pair_pool(9)
    for arr in random_int8_matrices(rng, 2000):
        r, w = arr.shape
        own = _margin_pair(arr.sum(axis=0).tolist(), arr.sum(axis=1).tolist(), r, w)
        if own is not None:
            yield own, arr
        other = rng.choice(pool)
        yield KostkaPair(other.lam, other.mu, rank=max(other.rank, r)), arr
    for k, pair in enumerate(pool):
        entries = ryser_canonical(pair).entries
        yield pair, entries
        yield from ((pair, m) for m in one_cell_mutations(entries, rng, 3))
        yield from ((pair, m) for m in _switches(entries, rng, 3))
        # a 1 moved along its row: the row sums stay, two column sums move
        i = rng.randrange(pair.rank)
        ones, zeros = entries[i].nonzero()[0], (entries[i] == 0).nonzero()[0]
        if ones.size and zeros.size:
            mutant = entries.copy()
            mutant[i, rng.choice(ones.tolist())] = 0
            mutant[i, rng.choice(zeros.tolist())] = 1
            yield pair, mutant
        if k % 50 == 0:  # an entry that int8 cannot hold
            wide = entries.astype(np.int64)
            wide[-1, -1] = 300
            yield pair, wide


def _star_cases():
    rng = random.Random(21)
    pool = cone_pair_pool(9)

    def own_pair(arr):
        # mu from the row sums as differences, lambda' from the column
        # sums of the matrix the star differences
        r, w = arr.shape
        mu = list(accumulate(arr.sum(axis=1).tolist()[::-1]))[::-1]
        heights = np.cumsum(arr[::-1], axis=0)[::-1].sum(axis=0).tolist()
        return _margin_pair(heights, mu, r, w)

    for arr in random_int8_matrices(rng, 2000):
        own = own_pair(arr)
        if own is not None:
            yield own, arr
        other = rng.choice(pool)
        yield KostkaPair(other.lam, other.mu, rank=max(other.rank, arr.shape[0])), arr
    for k, pair in enumerate(pool):
        star = star_matrix(ryser_canonical(pair))
        yield pair, star.entries
        for mutant in one_cell_mutations(star.entries, rng, 3):
            yield pair, mutant
            own = own_pair(mutant)
            if own is not None:
                yield own, mutant
        # the differences of a switched canonical matrix: same margins,
        # and columns with more runs read as longer signatures
        for switched in _switches(ryser_canonical(pair).entries, rng, 2):
            diffs = switched.copy()
            diffs[:-1] -= switched[1:]
            yield pair, diffs
        # +1 and -1 in one row keep the row sums and break two columns
        i = rng.randrange(pair.rank)
        if pair.width > 1:
            j, m = rng.sample(range(pair.width), 2)
            mutant = star.entries.copy()
            mutant[i, j] += 1
            mutant[i, m] -= 1
            yield pair, mutant
        if k % 50 == 0:
            wide = star.entries.astype(np.int64)
            wide[0, 0] = -300
            yield pair, wide


# a phrase of each check's message, in the order the checks run
CANONICAL_CHECKS = (
    "shape", "fit in int8", "0/1", "row sums", "column sums", "runs of 1s",
    "leftmost column",
)
STAR_CHECKS = ("shape", "fit in int8", "row sums", "pattern", "leftmost column")


class TestFusedChecks:
    """The constructors validate in fused passes; they must refuse
    exactly what the checks they replaced (kept in oracles) refuse, with
    the same exception type and message, on seeded random matrices and
    on mutations of real canonical and star matrices."""

    def test_canonical_matrix_refuses_as_before(self):
        seen = set()
        for pair, entries in _canonical_cases():
            expected = outcome(oracles.canonical_matrix_checks, pair, entries)
            got = outcome(CanonicalMatrix, pair=pair, entries=entries)
            assert got == expected, (pair, np.asarray(entries).tolist())
            if expected:
                seen.update(c for c in CANONICAL_CHECKS if c in expected[1])
        assert seen == set(CANONICAL_CHECKS)

    def test_star_matrix_refuses_as_before(self):
        seen = set()
        for pair, entries in _star_cases():
            # the constructor takes mu* from the pair
            expected = outcome(oracles.star_matrix_checks, pair, entries, _differences(pair))
            got = outcome(StarMatrix, pair=pair, entries=entries)
            assert got == expected, (pair, np.asarray(entries).tolist())
            if expected:
                seen.update(c for c in STAR_CHECKS if c in expected[1])
        # the bottom-row check never fires: a -1 there leaves its column
        # without a valid signature first (see STAR_REJECTS)
        assert seen == set(STAR_CHECKS)


def record_path(pair: KostkaPair) -> bool:
    """Whether the pair's matrices are read off the fixing record."""
    limit = ryser.LIST_VERTICES
    return 3 * pair.width <= limit and pair.rank <= limit


def record_pairs(running_pair: KostkaPair):
    """The pairs under the record path's gate that the benchmark's
    detector and wide-pairs workloads ask about: the c05 pool, the basis
    sums of width 20 (the fixed ones and those of seeds 1-10), the ray
    points primitive_point(RaySpec(a, a - 1, 2, a + 2)) under the gate,
    and the running example."""
    from test_kgr import basis_sum

    yield running_pair
    yield from cone_pair_pool(13, max_width=7)
    for source in ("wide-pairs core", *range(1, 11)):
        choose = random.Random(source).choice
        yield from (basis_sum(choose, rank, 20) for rank in (4, 5, 6))
    for a in range(5, 81):
        point = primitive_point(RaySpec(a, a - 1, 2, a + 2))
        if record_path(point):
            yield point


def written(pair: KostkaPair, runs: list[int]) -> np.ndarray:
    """The matrix the array path writes from a fixing record."""
    return ryser._written(runs, pair.rank, pair.width)


def star_of(arr: np.ndarray) -> np.ndarray:
    star = arr.copy()
    star[:-1] -= arr[1:]
    return star


def run_mutations(runs: list[int], r: int, rng: random.Random):
    """(kind, record) for mutations of a fixing record, whose columns
    are listed right to left, each as its four runs of 1s, 0s, 1s, 0s."""
    w = len(runs) // 4
    for _ in range(2):
        j = rng.randrange(w)
        give, take = rng.sample(range(4), 2)
        if runs[4 * j + give]:
            mutant = list(runs)
            mutant[4 * j + give] -= 1
            mutant[4 * j + take] += 1
            yield "unit moved", mutant
    if w > 1:
        j, k = sorted(rng.sample(range(w), 2))
        mutant = list(runs)
        mutant[4 * j : 4 * j + 4], mutant[4 * k : 4 * k + 4] = (
            runs[4 * k : 4 * k + 4],
            runs[4 * j : 4 * j + 4],
        )
        yield "columns swapped", mutant
    # cut p, lo or q (the end of run 0, 1 or 2) one row up or down
    j, cut = rng.randrange(w), rng.randrange(3)
    for step in (1, -1):
        at = 4 * j + cut
        if runs[at + 1] - step >= 0 and runs[at] + step >= 0:
            mutant = list(runs)
            mutant[at] += step
            mutant[at + 1] -= step
            yield "cut shifted", mutant
    # column 1, listed last, with its 1s moved one row down
    ones = runs[-4] + runs[-2]
    if ones < r:
        yield "column 1 unanchored", runs[:-4] + [0, 1, ones, r - 1 - ones]
    j, at = rng.randrange(w), rng.randrange(4)
    for step in (1, -1):
        if runs[4 * j + at] + step >= 0:
            mutant = list(runs)
            mutant[4 * j + at] += step
            yield "tiles r + 1" if step > 0 else "tiles r - 1", mutant


def record_outcome(pair: KostkaPair, runs: list[int]):
    """The record path's verdict: its canonical matrix, then its star."""
    return outcome(lambda: ryser._record_canonical(pair, runs, conjugate(pair.lam)).star)


class TestRecordPath:
    """The canonical and star matrices read off the fixing record, and
    checked there, against the array path and the entries constructors
    as referees."""

    def test_every_gate_pair_takes_the_record_path(self, running_pair):
        for pair in record_pairs(running_pair):
            assert record_path(pair), pair
            assert type(ryser_canonical(pair)) is ryser._RecordCanonical

    def test_record_matrices_pass_the_constructors(self, running_pair):
        for pair in record_pairs(running_pair):
            canonical = ryser._record_canonical(pair, *ryser._fixing_stages(pair))
            star = canonical.star
            arrays = CanonicalMatrix(pair=pair, entries=written(pair, canonical._runs))
            for matrix, expected, kind in (
                (canonical, arrays.entries, CanonicalMatrix),
                (star, star_matrix(arrays).entries, StarMatrix),
            ):
                entries = matrix.entries
                assert not entries.flags.writeable
                assert entries.dtype == np.int8 and entries.shape == expected.shape
                assert np.array_equal(entries, expected), pair
                assert np.array_equal(kind(pair=pair, entries=entries).entries, expected)
            r0, c0 = star.entries.nonzero()
            assert star.rows == (r0 + 1).tolist() and star.cols == (c0 + 1).tolist()
            assert star.signs == star.entries[r0, c0].tolist()

    def test_mutated_records_are_refused_as_their_matrices(self, running_pair):
        """A mutated record whose columns each tile r rows is refused by
        the record checks exactly when the entries constructors refuse
        the matrix the array path writes from it, with the same type and
        message.  A column tiling r +- 1 has no such matrix: the record
        checks refuse it, as the canonical constructor refuses the
        record's repeat, by type."""
        rng = random.Random(35)
        kinds, messages = set(), set()
        for pair in (running_pair, *cone_pair_pool(9)):
            r, w = pair.rank, pair.width
            for kind, runs in run_mutations(ryser._fixing_stages(pair)[0], r, rng):
                kinds.add(kind)
                got = record_outcome(pair, runs)
                if any(sum(runs[i : i + 4]) != r for i in range(0, 4 * w, 4)):
                    assert got and got[0] is AssertionError, (pair, runs)
                    assert "do not tile" in got[1]
                    flat = np.frombuffer(b"\x01\x00" * (2 * w), np.int8).repeat(runs)
                    assert outcome(CanonicalMatrix, pair, flat)[0] is AssertionError
                    continue
                arr = written(pair, runs)
                expected = outcome(CanonicalMatrix, pair=pair, entries=arr)
                if expected is None:
                    expected = outcome(StarMatrix, pair=pair, entries=star_of(arr))
                assert got == expected, (pair, kind, runs)
                if got:
                    messages.add(got[1])
        assert len(kinds) == 6, kinds
        assert messages >= {
            "row sums do not match mu",
            "column sums do not match conjugate(lambda)",
            "leftmost column not anchored at the top",
            "leftmost column must be a single +1",
        }, messages

    def test_star_checks_refuse_corrupted_vertices(self, running_pair):
        """The star's own checks guard the vertices the record pass
        derives: with one vertex dropped, or column 1 given a second run
        of 1s, they refuse the star as the constructor refuses it."""
        canonical = ryser_canonical(running_pair)
        keys, cuts = canonical._keys, canonical._cuts
        r, w = running_pair.rank, running_pair.width
        for k in range(len(keys)):
            corrupt = ryser._RecordCanonical(
                running_pair, canonical._runs, cuts, keys[:k] + keys[k + 1 :]
            )
            entries = star_of(canonical.entries).ravel().copy()
            entries[keys[k] >> 1] = 0
            expected = outcome(StarMatrix, running_pair, entries.reshape(r, w))
            assert outcome(star_matrix, corrupt) == expected
            assert expected == (MalformedStarMatrix, "row sums do not match mu*")
        # column 1 holds 1s in rows 1-6; make them rows 1-4 and row 6
        assert cuts[0] == (0, 0, 6)
        corrupt = ryser._RecordCanonical(
            running_pair, canonical._runs, [(4, 5, 6), *cuts[1:]], keys
        )
        assert outcome(star_matrix, corrupt) == (
            MalformedStarMatrix, "leftmost column must be a single +1"
        )


class TestStarMatrix:
    def test_golden_star(self, running_pair):
        star = star_matrix(ryser_canonical(running_pair))
        [expected] = read_matrix_blocks("star_matrix.txt")
        assert np.array_equal(star.entries, expected)
        assert star.mu_star == (0, 3, 0, 0, 0, 0, 4)

    @given(cone_pairs_st(max_boxes=12))
    def test_row_sums_are_consecutive_differences(self, pair):
        star = star_matrix(ryser_canonical(pair))
        mu_padded = pad(pair.mu, pair.rank)
        diffs = tuple(
            mu_padded[i] - (mu_padded[i + 1] if i + 1 < pair.rank else 0)
            for i in range(pair.rank)
        )
        assert star.mu_star == diffs


class TestReducibility:
    @staticmethod
    def assert_referees_agree(pair: KostkaPair) -> tuple[int, ...] | None:
        """The library's walk on packed row differences against the star
        matrix's 0 <= v* <= mu* and the int64 decreasing-row test."""
        canonical = ryser_canonical(pair)
        left = matrix_reducible(canonical)
        right = oracles.star_reducible(star_matrix(canonical))
        sums = oracles.row_sum_reducible(canonical)
        assert left == right == sums, (pair, left, right, sums)
        return left

    def test_matrix_and_star_agree_exhaustively(self):
        pairs = 0
        for pair in cone_pair_pool(14, max_width=8):
            self.assert_referees_agree(pair)
            pairs += 1
        assert pairs > 13000

    def test_referees_agree_on_wide_tall_pairs(self):
        # up to 2^16 subsets per sweep and rows of up to 40 entries, so
        # the referees' sweeps span chunks
        rng = random.Random(22)
        found = []
        for _ in range(40):
            pair = random_cone_pair(rng, 40, max_width=16)
            assert pair.width <= 16
            found.append(self.assert_referees_agree(pair))
        assert any(found)
        assert max(len(w) for w in found if w) > 1
        # irreducible ray points: full misses over every subset
        rays = (RaySpec(16, 15, 9, 25), RaySpec(16, 15, 2, 40), RaySpec(14, 13, 3, 30))
        for spec in rays:
            assert self.assert_referees_agree(primitive_point(spec)) is None

    def test_sweep_cap_refuses_before_sweeping(self, monkeypatch):
        # 2^20 masks at rank 200 is 209,714,800 cells: several seconds of
        # sweeping
        pair = KostkaPair((20,) * 10, (1,) * 200)
        canonical = ryser_canonical(pair)
        spy = []
        monkeypatch.setattr(ryser, "sweep_proper_subsets", lambda *a: spy.append(a))
        message = r"sweep of 209714800 cells exceeds cap 33554432$"
        with pytest.raises(WidthCapExceeded, match=message):
            matrix_reducible(canonical)
        assert not spy

    def test_widest_sweep_under_the_cap_stops_at_its_first_subset(self):
        # (2^25 - 2) * 1 cells: no cap refuses width 25 at rank 1, and
        # the first subset of the order, column 1 alone, splits the pair
        canonical = ryser_canonical(KostkaPair((25,), (25,)))
        assert matrix_reducible(canonical) == (1,)
        # 25 columns of one -1 each: every subset fails, and so does every
        # extension of each first column, so the walk ends after 25 tests
        # instead of 2^25 - 2
        ones = [1] * 25
        assert ryser.sweep_proper_subsets(25, ones, range(1, 26), [-1] * 25, [25]) is None

    @pytest.mark.parametrize("chunk_bits", [5, 7, 9])
    def test_small_chunks_keep_the_star_referee_witness(self, monkeypatch, chunk_bits):
        # small chunks split the referee's masks into many blocks; its
        # answer does not depend on its chunk size
        rng = random.Random(chunk_bits)
        pairs = list(cone_pair_pool(13, max_width=7)[chunk_bits::23])
        pairs += [random_cone_pair(rng, 40, max_width=16) for _ in range(12)]
        pairs.append(primitive_point(RaySpec(14, 13, 3, 30)))
        expected = [matrix_reducible(ryser_canonical(p)) for p in pairs]
        assert None in expected and any(expected)
        monkeypatch.setattr(config, "CHUNK_BITS", chunk_bits)
        for pair, witness in zip(pairs, expected):
            assert oracles.star_reducible(ryser_canonical(pair).star) == witness, pair

    def test_witness_always_splits(self, running_pair):
        canonical = ryser_canonical(running_pair)
        witness = matrix_reducible(canonical)
        assert witness is not None
        selected, complement = split_pair(canonical, witness)
        assert size(selected.lam) + size(complement.lam) == running_pair.n

    def test_basis_elements_have_no_column_split(self):
        for lam, mu in (((1,), (1,)), ((2,), (1, 1)), ((2, 2), (2, 1, 1))):
            pair = KostkaPair(lam, mu)
            assert matrix_reducible(ryser_canonical(pair)) is None, pair


class TestSplitPair:
    def test_golden_split(self, running_pair):
        selected, complement = split_pair(ryser_canonical(running_pair), (2, 3, 4, 8))
        assert selected == KostkaPair(
            (4, 3, 3, 3, 2, 1), (3, 3, 2, 2, 2, 2, 2), rank=7
        )
        assert complement == KostkaPair(
            (4, 4, 4, 4, 1, 1), (4, 4, 2, 2, 2, 2, 2), rank=7
        )

    def test_rejects_improper_subsets(self, running_pair):
        canonical = ryser_canonical(running_pair)
        with pytest.raises(NotAWitness):
            split_pair(canonical, ())
        with pytest.raises(NotAWitness):
            split_pair(canonical, range(1, 9))
        with pytest.raises(NotAWitness):
            split_pair(canonical, (0, 3))

    @pytest.mark.parametrize(
        "columns",
        [[1.5], [1.0], ["1"], [True], [np.int64(1)], [1, 1.9]],
        ids=["fraction", "float", "string", "bool", "numpy", "int-and-fraction"],
    )
    def test_rejects_non_integer_columns(self, columns):
        # column 1 of (2,2 | 2,2) is a witness, and int() reads each of these as 1
        canonical = ryser_canonical(KostkaPair((2, 2), (2, 2)))
        assert split_pair(canonical, [1]) == (
            KostkaPair((1, 1), (1, 1)),
            KostkaPair((1, 1), (1, 1)),
        )
        with pytest.raises(NotAWitness, match="not all integers"):
            split_pair(canonical, columns)

    def test_rejects_non_witness(self, running_pair):
        # column 1 alone leaves complement row sums (6,6,3,3,3,3,4)
        with pytest.raises(NotAWitness):
            split_pair(ryser_canonical(running_pair), (1,))

    def test_names_the_half_that_fails(self, running_pair):
        canonical = ryser_canonical(running_pair)
        with pytest.raises(NotAWitness, match=r"columns \[2, 3, 4, 5, 6, 7, 8\] "):
            split_pair(canonical, (1,))  # the complement fails
        with pytest.raises(NotAWitness, match=r"columns \[8\] "):
            split_pair(canonical, (8,))  # the selection fails


def shape_of(pair):
    canonical = ryser_canonical(pair)
    return shape_sequence(canonical)


class TestShapeSequence:
    def test_golden_shapes_and_steps(self, running_pair):
        seq = shape_of(running_pair)
        assert seq.shapes == GOLDEN_SHAPES
        assert seq.steps == GOLDEN_STEPS

    def test_zero_pair_at_rank_two(self):
        canonical = ryser_canonical(KostkaPair((), (), rank=2))
        assert [stage.shape for stage in fixing_chain(canonical)] == [(2, 0)]
        seq = shape_sequence(canonical)
        assert seq.shapes == ((),)
        assert seq.steps == ()

    def test_rising_prefix_sums_are_refused(self):
        # the constructor accepts this matrix, whose first column has two
        # runs, but the row sums of that column alone are (1, 0, 1)
        canonical = CanonicalMatrix(
            KostkaPair((2, 2), (2, 1, 1)), np.array([[1, 1], [0, 1], [1, 0]])
        )
        with pytest.raises(AssertionError, match="not weakly decreasing at step 1$"):
            shape_sequence(canonical)

    def test_single_row_peels_by_column_deletion(self):
        seq = shape_of(KostkaPair((3,), (3,)))
        assert seq.steps == (DeleteColumn(length=1),) * 3
        assert seq.shapes == ((3,), (2,), (1,), ())

    @given(cone_pairs_st(max_boxes=12))
    def test_chain_runs_from_mu_to_empty(self, pair):
        seq = shape_of(pair)
        assert seq.shapes[0] == pair.mu
        assert seq.shapes[-1] == ()
        assert len(seq.shapes) == pair.width + 1
        assert len(seq.steps) == pair.width

    @given(cone_pairs_st(max_boxes=12))
    def test_steps_only_touch_existing_columns(self, pair):
        seq = shape_of(pair)
        for before, step in zip(seq.shapes, seq.steps):
            cols_before = list(conjugate(before))
            assert step.length in cols_before
            if isinstance(step, ShortenRightmost):
                assert 0 < step.new_length < step.length
            if isinstance(step, ShortenAndDelete):
                assert step.deleted_length < step.new_length < step.length
                assert step.deleted_length in cols_before
