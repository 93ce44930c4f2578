"""End-to-end acceptance criteria.

Each test is one criterion, checked at full stated scope with an explicit
time budget where one applies.  A criterion prints a single ``PASS`` line
(visible under ``pytest -s``); a failed assertion means the criterion is
red and the line is absent.  Nothing here is sampled or softened: sweeps
are exhaustive over their stated domains.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from math import comb

import numpy as np

import oracles
from conftest import cone_pair_pool, partition_pool, read_matrix_blocks
from kostka import subsetsum
from kostka.cone import (
    decompose,
    extremal_rays,
    hilbert_basis,
    width_bound_audit,
)
from kostka.kgr import fast_reducibility, pair_graph, verify_subtree
from kostka.lr import growth_table, verify_counterexample
from kostka.partitions import (
    KostkaPair,
    conjugate,
    dominates,
    kostka_count,
    kostka_positive,
    size,
)
from kostka.ryser import (
    fixing_chain,
    matrix_reducible,
    ryser_canonical,
    split_pair,
    star_matrix,
)
from kostka.sequences import CatalanSeq, cost, kim_theorem_check
from kostka.subsetsum import SubsetSumInstance, reduction_equivalence_check
from test_kgr import GOLDEN_ARCS, GOLDEN_SUBTREE

WORKED = KostkaPair((8, 7, 7, 7, 3, 2), (7, 7, 4, 4, 4, 4, 4))

RANK4_BASIS = [
    ((1,), (1,)),
    ((1, 1), (1, 1)),
    ((2,), (1, 1)),
    ((1, 1, 1), (1, 1, 1)),
    ((2, 1), (1, 1, 1)),
    ((3,), (1, 1, 1)),
    ((1, 1, 1, 1), (1, 1, 1, 1)),
    ((2, 1, 1), (1, 1, 1, 1)),
    ((2, 2), (1, 1, 1, 1)),
    ((2, 2), (2, 1, 1)),
    ((3, 1), (1, 1, 1, 1)),
    ((4,), (1, 1, 1, 1)),
    ((2, 2, 1), (2, 1, 1, 1)),
    ((2, 2, 2), (2, 2, 1, 1)),
    ((3, 3), (2, 2, 2)),
    ((3, 3), (3, 1, 1, 1)),
    ((3, 3, 2), (2, 2, 2, 2)),
    ((3, 3, 3), (3, 2, 2, 2)),
    ((4, 4, 4), (3, 3, 3, 3)),
]

BASIS_COUNTS = (1, 3, 8, 19, 50, 111)

RAY_COUNTS = (
    1, 3, 7, 14, 25, 41, 63, 92, 129, 175, 231, 298, 377, 469, 575, 696, 833,
)


def test_c01_rank_four_basis_is_the_known_table():
    """The rank-4 Hilbert basis has exactly 19 elements, listed here in
    full, and computes in under ten seconds."""
    t0 = time.perf_counter()
    catalog = hilbert_basis(4)
    elapsed = time.perf_counter() - t0
    got = sorted(
        ((p.lam, p.mu) for p in catalog.elements),
        key=lambda lm: (sum(lm[0]), lm[0], lm[1]),
    )
    expected = sorted(RANK4_BASIS, key=lambda lm: (sum(lm[0]), lm[0], lm[1]))
    assert got == expected
    assert elapsed < 10.0, f"rank-4 basis took {elapsed:.2f}s"
    print(f"PASS criterion 1: rank-4 basis matches all 19 pairs ({elapsed:.2f}s)")


def test_c02_basis_counts_through_rank_six():
    """Hilbert basis sizes for ranks 1..6 are 1, 3, 8, 19, 50, 111; the
    rank-6 computation stays under ten minutes."""
    for rank in range(1, 6):
        assert hilbert_basis(rank).count == BASIS_COUNTS[rank - 1]
    t0 = time.perf_counter()
    assert hilbert_basis(6).count == 111
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"rank-6 basis took {elapsed:.1f}s"
    print(f"PASS criterion 2: basis counts 1,3,8,19,50,111 (rank 6 in {elapsed:.2f}s)")


def test_c03_extremal_ray_counts():
    """Ray counts for ranks 1..17 match both the stored sequence and the
    closed form C(r,3) + C(r,2) + C(r,1), in under a second."""
    t0 = time.perf_counter()
    for rank in range(1, 18):
        rays = extremal_rays(rank)
        assert len(rays) == RAY_COUNTS[rank - 1]
        assert len(rays) == comb(rank, 3) + comb(rank, 2) + comb(rank, 1)
        assert len({(spec.a, spec.b, spec.ell) for spec in rays}) == len(rays)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"ray enumeration took {elapsed:.2f}s"
    print(f"PASS criterion 3: ray counts match C(r,3)+C(r,2)+C(r,1) up to rank 17")


def test_c04_worked_example_end_to_end():
    """The running example lambda=(8,7,7,7,3,2), mu=(7,7,4,4,4,4,4):
    column-fixing chain bit-exact, star matrix exact, 20 graph arcs,
    conservative subtree on columns (2,3,4,8), and the induced split."""
    canonical = ryser_canonical(WORKED)
    blocks = read_matrix_blocks("ryser_chain.txt")
    assert [stage.tolist() for stage in fixing_chain(canonical)] == [
        [list(row) for row in block] for block in blocks
    ]
    star = star_matrix(canonical)
    [expected_star] = read_matrix_blocks("star_matrix.txt")
    assert np.array_equal(star.entries, expected_star)
    assert star.mu_star == (0, 3, 0, 0, 0, 0, 4)

    graph = pair_graph(WORKED)
    assert set(graph.arcs) == GOLDEN_ARCS
    assert len(graph.arcs) == 20

    reduction = fast_reducibility(WORKED)
    assert reduction is not None
    assert reduction.columns == (2, 3, 4, 8)
    assert set(reduction.witness.vertices) == GOLDEN_SUBTREE
    assert verify_subtree(graph, reduction.witness.vertices)

    selected, complement = split_pair(canonical, reduction.columns)
    assert (selected, complement) == (reduction.selected, reduction.complement)
    assert selected.lam == (4, 3, 3, 3, 2, 1)
    assert selected.mu == (3, 3, 2, 2, 2, 2, 2)
    assert complement.lam == (4, 4, 4, 4, 1, 1)
    assert complement.mu == (4, 4, 2, 2, 2, 2, 2)
    print("PASS criterion 4: worked example chain/star/graph/subtree/split all exact")


def test_c05_fast_detector_agrees_with_exhaustive_search():
    """Over every cone pair with lambda_1 <= 7 and at most 13 boxes, the
    graph detector finds a subtree exactly when a column split exists,
    and the splitting search decomposes every pair either detector
    splits.  Of the 7214 pairs, 6456 decompose: 6271 by a column split
    and 185 only by another splitting.  Zero discrepancies allowed;
    budget five minutes."""
    t0 = time.perf_counter()
    checked = split = decomposable = 0
    mismatches = []
    for pair in cone_pair_pool(13, max_width=7):
        fast = fast_reducibility(pair)
        slow = matrix_reducible(ryser_canonical(pair))
        found = decompose(pair) is not None
        if (fast is not None) != (slow is not None) or (slow is not None and not found):
            mismatches.append(pair)
        checked += 1
        split += slow is not None
        decomposable += found
    elapsed = time.perf_counter() - t0
    assert not mismatches, f"detector disagreements: {mismatches[:5]}"
    # every split pair decomposes, so 185 decompose with no column split
    assert (checked, decomposable, split) == (7214, 6456, 6271)
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    print(
        f"PASS criterion 5: detector sweep, {checked} pairs, "
        f"0 discrepancies, {decomposable - split} decompose with no column "
        f"split ({elapsed:.1f}s)"
    )


POOL_WITNESS_SHA256 = "b43723c52e53720334ed6bbfeed6abc795c0c4a6f730f2c3002dabd5f22acb03"


def test_c05_pool_witnesses_are_pinned():
    """Every answer of the graph detector over the c05 pool, witness
    and all, hashes to a pinned value: kind, columns, vertices, sink and
    source, and both halves."""
    digest = hashlib.sha256()
    for pair in cone_pair_pool(13, max_width=7):
        red = fast_reducibility(pair)
        record = None
        if red is not None:
            wit = red.witness
            record = (
                wit.kind,
                red.columns,
                [tuple(v) for v in wit.vertices],
                wit.sink and tuple(wit.sink),
                wit.source and tuple(wit.source),
                red.selected.key(),
                red.complement.key(),
            )
        digest.update(repr(record).encode() + b"\n")
    assert digest.hexdigest() == POOL_WITNESS_SHA256


def test_c05_pool_pairs_wider_than_their_rank_split_by_the_graph():
    """The width theorem, one direction: a cone pair with lambda_1 >
    rank is reducible.  Over the c05 pool each of the 1,917 such pairs
    has a KGR witness, and its halves are cone pairs at the same rank
    that add back to it."""
    wide = [p for p in cone_pair_pool(13, max_width=7) if p.width > p.rank]
    assert len(wide) == 1917
    for pair in wide:
        red = fast_reducibility(pair)
        assert red is not None, pair
        halves = (red.selected, red.complement)
        for half in halves:
            assert half.rank == pair.rank and half.n == size(half.mu) > 0, pair
            assert dominates(half.lam, half.mu), pair
        for side in (0, 1):
            padded = [half.padded()[side] for half in halves]
            assert tuple(map(sum, zip(*padded))) == pair.padded()[side], pair


POOL_SWEEP_SHA256 = "75c7a8c18835ed0e10af5ea920f2537196b3418204e09ed5361f23e055e8557c"


def test_c05_pool_sweep_witnesses_are_pinned():
    """Every answer of the exhaustive column-subset sweep over the c05
    pool, the first witnessing columns in tuple order or None, hashes to
    a pinned value."""
    digest = hashlib.sha256()
    for pair in cone_pair_pool(13, max_width=7):
        digest.update(repr(matrix_reducible(ryser_canonical(pair))).encode() + b"\n")
    assert digest.hexdigest() == POOL_SWEEP_SHA256


POOL_DECOMPOSE_SHA256 = "27240021a873b10a05a4e2d78a54b994d20fba02d0eaa6c18f8ee011445686f8"


def test_c05_pool_decompositions_are_pinned():
    """Every answer of the splitting search over the c05 pool, both
    halves of each witness, hashes to a pinned value."""
    digest = hashlib.sha256()
    for pair in cone_pair_pool(13, max_width=7):
        found = decompose(pair)
        digest.update(repr(found and (found[0].key(), found[1].key())).encode() + b"\n")
    assert digest.hexdigest() == POOL_DECOMPOSE_SHA256


POOL_KOSTKA_SHA256 = "1e23660856216b58ce512ab0e16505f1f1ffad8cdc7b351638844895324897ff"


def test_c05_pool_kostka_numbers_are_pinned():
    """Every Kostka number of the c05 pool hashes to a pinned value."""
    digest = hashlib.sha256()
    for pair in cone_pair_pool(13, max_width=7):
        digest.update(repr(kostka_count(pair.lam, pair.mu)).encode() + b"\n")
    assert digest.hexdigest() == POOL_KOSTKA_SHA256


def test_c06_width_bound_audit():
    """For ranks 2..5: no basis element is wider than the rank, the
    full-width elements are rectangle pairs, and every width rank+1 cone
    pair within the box cap is reducible."""
    for rank in range(2, 6):
        report = width_bound_audit(rank)
        assert report.basis_count == BASIS_COUNTS[rank - 1]
        assert report.boundary_pairs_checked > 0
    print("PASS criterion 6: width bound audited for ranks 2..5")


def test_c07_decomposable_pair_missed_by_the_fast_detector():
    """lambda=(3,2,1), mu=(2,2,1,1) has no conservative subtree yet is
    decomposable; the exhaustive splitter finds the canonical witness."""
    pair = KostkaPair((3, 2, 1), (2, 2, 1, 1))
    assert fast_reducibility(pair) is None
    summands = decompose(pair)
    assert summands is not None
    small, rest = summands
    assert (small.lam, small.mu) == ((1, 1), (1, 1))
    assert (rest.lam, rest.mu) == ((2, 1, 1), (1, 1, 1, 1))
    print("PASS criterion 7: slow-but-decomposable pair handled correctly")


def test_c08_subset_sum_reduction_equivalence():
    """For every ordered value tuple with d <= 4 entries from 1..4 and
    every feasible target, the instance has a subset iff the reduced
    cone point decomposes; both agree with brute force.  Budget two
    minutes."""
    t0 = time.perf_counter()
    checked = 0
    for d in range(1, 5):
        for values in itertools.product(range(1, 5), repeat=d):
            total = sum(values)
            for target in range(1, total + 1):
                inst = SubsetSumInstance(values, target)
                report = reduction_equivalence_check(inst)
                brute = any(
                    sum(combo) == target
                    for r in range(1, d + 1)
                    for combo in itertools.combinations(values, r)
                )
                assert (report.subset is not None) == brute, inst
                assert (report.decomposition is not None) == brute, inst
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 2500
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.1f}s"
    print(
        f"PASS criterion 8: subset-sum reduction equivalence, "
        f"{checked} instances ({elapsed:.1f}s)"
    )


def test_c08_each_check_builds_one_reduction_pair(monkeypatch):
    """The equivalence check reduces its instance once: the proof
    decomposition is checked against the pair already built."""
    calls = []
    real = subsetsum.reduce_to_kostka

    def spy(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(subsetsum, "reduce_to_kostka", spy)
    report = reduction_equivalence_check(SubsetSumInstance((3, 1, 2), 4))
    assert report.decomposition is not None
    assert len(calls) == 1


def test_c09_catalan_cost_bound():
    """The worked length-16 sequence has cost 15 < width 16 with a valid
    sublist witness, and 10,000 random valid sequences of length <= 14
    produce zero violations of the cost-below-width criterion."""
    worked = CatalanSeq((3, 2, 1, -2, 1, -2, -1, -1, 2, -1, 2, 1, -2, -1, -1, -1))
    assert cost(worked) == 15
    assert worked.width == 16
    report = kim_theorem_check(worked)
    assert report.hypothesis and report.witness is not None
    assert oracles.catalan_ok(worked.entries, (1, 7, 8, 16))

    rng = random.Random(20260815)
    witnessed = 0
    for _ in range(10_000):
        entries = _random_walk(rng)
        report = kim_theorem_check(CatalanSeq(entries))
        if report.witness is not None:
            witnessed += 1
    assert witnessed > 0
    print(f"PASS criterion 9: cost bound, worked example + 10000 fuzz "
          f"({witnessed} witnessed)")


def _random_walk(rng: random.Random) -> tuple[int, ...]:
    """Valid nonzero-entry sequence: partial sums stay nonnegative and
    return to zero; length at most 14.  Biased toward repeated signs and
    unit steps so the cost < width region is actually exercised."""
    budget = rng.randint(2, 14)
    entries: list[int] = []
    height = 0
    sign = 1
    while len(entries) < budget - 1:
        if height == 0:
            sign = 1
        elif rng.random() < 0.3:
            sign = -sign
        magnitude = 1 if rng.random() < 0.7 else rng.randint(1, 5)
        step = sign * magnitude
        if step < 0:
            step = max(step, -height)
        entries.append(step)
        height += step
    if height > 0:
        entries.append(-height)
    return tuple(entries)


def test_c10_littlewood_richardson_family():
    """Family members k=2 and k=3 have coefficient exactly 1 (checked by
    explicit tableau count); the first part of nu first exceeds the rank
    at k=4 and keeps exceeding it afterwards."""
    two = verify_counterexample(2)
    assert two.coefficient == 1
    assert two.rank == 5 and two.nu1 == 2
    assert not two.exceeds_rank
    three = verify_counterexample(3)
    assert three.coefficient == 1
    assert three.rank == 8 and three.nu1 == 6
    assert not three.exceeds_rank
    rows = growth_table(8)
    first_violation = next(row.k for row in rows if row.exceeds_rank)
    assert first_violation == 4
    assert all(row.exceeds_rank for row in rows if row.k >= 4)
    print("PASS criterion 10: coefficient-1 family verified, rank exceeded from k=4")


def test_c11_counting_cross_validation():
    """Kostka positivity agrees with direct tableau counting on every
    equal-size pair up to 9 boxes, and Gale-Ryser nonemptiness agrees
    with brute-force matrix search up to 8 boxes."""
    checked_k = 0
    for n in range(1, 10):
        shapes = partition_pool(n, 0, 0)
        sized = [p for p in shapes if sum(p) == n]
        for lam, mu in itertools.product(sized, repeat=2):
            assert kostka_positive(lam, mu) == (oracles.ssyt_count(lam, mu) > 0)
            checked_k += 1
    checked_gr = 0
    for n in range(1, 9):
        sized = [p for p in partition_pool(n, 0, 0) if sum(p) == n]
        for alpha, beta in itertools.product(sized, repeat=2):
            assert dominates(conjugate(alpha), beta) == oracles.gr_matrix_exists(alpha, beta)
            checked_gr += 1
    assert checked_k == 1818 and checked_gr == 918
    print(
        f"PASS criterion 11: positivity vs tableaux ({checked_k}), "
        f"Gale-Ryser vs brute force ({checked_gr})"
    )
