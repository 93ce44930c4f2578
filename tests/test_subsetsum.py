from __future__ import annotations

import itertools
import re

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import oracles

from kostka import cone, config, partitions, subsetsum
from kostka.cli import main
from kostka.cone import decompose
from kostka.errors import AssertionFailure, InvalidInstance, SizeCapExceeded
from kostka.partitions import KostkaPair, dominates, size
from kostka.subsetsum import (
    EquivalenceReport,
    SubsetSumInstance,
    proof_decomposition,
    reduce_to_kostka,
    reduction_equivalence_check,
    subset_sum_oracle,
)

GOLDEN = SubsetSumInstance((3, 2, 1), 4)
NO_INSTANCE = SubsetSumInstance((2, 2), 3)


def small_instances() -> list[SubsetSumInstance]:
    """Every multiset of 1 to 5 values from 1..6 with a total of at most
    19, listed in rising order, with every target from 1 to the total."""
    return [
        SubsetSumInstance(values, target)
        for d in range(1, 6)
        for values in itertools.combinations_with_replacement(range(1, 7), d)
        if sum(values) <= 19
        for target in range(1, sum(values) + 1)
    ]


def certify_spy(monkeypatch) -> list[tuple]:
    """The arguments of every call of ``partitions._certified`` through
    the bindings that ``cone`` and ``subsetsum`` read."""
    calls: list[tuple] = []

    def spy(lam, mu, rank):
        calls.append((tuple(lam), tuple(mu), rank))
        return partitions._certified(lam, mu, rank)

    monkeypatch.setattr(cone, "_certified", spy)
    monkeypatch.setattr(subsetsum, "_certified", spy)
    return calls


class TestInstance:
    def test_validation(self):
        with pytest.raises(InvalidInstance):
            SubsetSumInstance((), 1)
        with pytest.raises(InvalidInstance):
            SubsetSumInstance((1, 0), 1)
        with pytest.raises(InvalidInstance):
            SubsetSumInstance((1, 2), 0)
        with pytest.raises(InvalidInstance):
            SubsetSumInstance((1, 2), 4)  # target above the total

    @pytest.mark.parametrize(
        "values, target, message",
        [
            ((2.5, 1), 1, "values must be integers: (2.5, 1)"),
            ((True, 1), 1, "values must be integers: (True, 1)"),
            ((2, 1), 1.0, "target must be an integer: 1.0"),
            ((2, 1), True, "target must be an integer: True"),
        ],
    )
    def test_non_integers_are_refused(self, values, target, message):
        # numbers are checked, not converted by int()
        with pytest.raises(InvalidInstance, match=f"^{re.escape(message)}$"):
            SubsetSumInstance(values, target)

    def test_reduction_pair_must_fit_int64(self):
        # 2A + 1 boxes: A = 2^62 - 1 is the largest total admitted
        SubsetSumInstance((2**62 - 1,), 1)
        with pytest.raises(InvalidInstance, match="total 4611686018427387904 exceeds 64-bit range"):
            SubsetSumInstance((2**61, 2**61), 1)
        result = CliRunner().invoke(main, ["subsetsum", f"{2**64} : 1"])
        assert result.exit_code == 2

    def test_accessors(self):
        assert GOLDEN.total == 6
        assert GOLDEN.sorted_desc().values == (3, 2, 1)

    def test_sorted_copy_matches_the_constructor(self):
        # the sorted copy skips __post_init__ but reads as the
        # constructor's instance in every field, its repr and equality
        instances = small_instances()
        assert len(instances) == 4702
        for inst in instances:
            backward = SubsetSumInstance(inst.values[::-1], inst.target)
            built = SubsetSumInstance(tuple(sorted(inst.values, reverse=True)), inst.target)
            copy = backward.sorted_desc()
            assert (copy.values, copy.target, copy.total) == (
                built.values,
                built.target,
                built.total,
            )
            assert repr(copy) == repr(built)
            assert copy == built and hash(copy) == hash(built)


class TestOracle:
    def test_golden_witness(self):
        assert subset_sum_oracle(GOLDEN) == (1, 3)

    def test_full_set_and_singleton(self):
        assert subset_sum_oracle(SubsetSumInstance((2, 1), 3)) == (1, 2)
        assert subset_sum_oracle(SubsetSumInstance((5,), 5)) == (1,)

    def test_no_witness(self):
        assert subset_sum_oracle(SubsetSumInstance((4, 2), 3)) is None

    def test_lexicographic_preference(self):
        # (1,4) and (2,3) both sum to 6; the former wins
        assert subset_sum_oracle(SubsetSumInstance((5, 4, 2, 1), 6)) == (1, 4)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            subset_sum_oracle(SubsetSumInstance((1,) * 25, 5))

    def test_matches_the_dfs_referee(self, monkeypatch):
        # every tuple of 1-5 values in 1..5, every target: the bitset
        # table picks the witness the depth-first search finds first
        monkeypatch.setattr(config, "SPLIT_CAP", 60)
        checked = 0
        for d in range(1, 6):
            for values in itertools.product(range(1, 6), repeat=d):
                for target in range(1, sum(values) + 1):
                    inst = SubsetSumInstance(values, target)
                    assert subset_sum_oracle(inst) == oracles.subset_sum_dfs(inst), inst
                    checked += 1
        assert checked == 55665

    def test_matches_bruteforce(self):
        for values in itertools.product((1, 2, 3), repeat=4):
            inst = SubsetSumInstance(values, 4)
            fast = subset_sum_oracle(inst)
            best = None
            for r in range(1, 5):
                for combo in itertools.combinations(range(1, 5), r):
                    if sum(values[i - 1] for i in combo) == 4:
                        if best is None or combo < best:
                            best = combo
            assert fast == best, values


class TestReduction:
    def test_golden_pair(self):
        pair = reduce_to_kostka(GOLDEN)
        assert pair == KostkaPair(
            (4, 3, 2, 1, 1, 1, 1), (2, 2, 2, 2, 1, 1, 1, 1, 1), rank=9
        )

    def test_golden_decomposition(self):
        whole = reduce_to_kostka(GOLDEN)
        selected, complement = proof_decomposition(GOLDEN, (1, 3), whole)
        assert selected == KostkaPair((2, 1, 1), (1, 1, 1, 1), rank=9)
        assert complement == KostkaPair(
            (2, 2, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1, 1), rank=9
        )

    def test_halves_that_do_not_add_back_are_rejected(self):
        # a whole pair that differs from the reduction pair on one side:
        # (4, 1, 1; 4) has the same total and target, so the same mu,
        # and a mu dominated by the same lambda differs on mu alone
        other = reduce_to_kostka(SubsetSumInstance((4, 1, 1), 4))
        whole = reduce_to_kostka(GOLDEN)
        other_mu = KostkaPair(whole.lam, (3, 2, 2, 1, 1, 1, 1, 1, 1), rank=9)
        for tampered, side in ((other, "lam"), (other_mu, "mu")):
            with pytest.raises(AssertionFailure) as err:
                proof_decomposition(GOLDEN, (1, 3), tampered)
            assert str(err.value) == f"proof decomposition does not add back on {side}"

    def test_bad_subset_is_rejected(self):
        with pytest.raises(AssertionFailure):
            # (1, 2) sums to 5, not 4
            proof_decomposition(GOLDEN, (1, 2), reduce_to_kostka(GOLDEN))

    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5),
        st.data(),
    )
    def test_reduction_is_always_a_cone_point(self, values, data):
        target = data.draw(st.integers(min_value=1, max_value=sum(values)))
        inst = SubsetSumInstance(tuple(values), target)
        pair = reduce_to_kostka(inst)
        total = sum(values)
        assert dominates(pair.lam, pair.mu)
        assert size(pair.lam) == 2 * total + 1
        assert pair.rank == 2 * total - target + 1
        assert pair.width == len(values) + 1  # one column per value, plus the tall one

    def test_equivalence_golden(self):
        report = reduction_equivalence_check(GOLDEN)
        assert report.subset == (1, 3)
        assert report.decomposition is not None
        assert report.coordinates == 18

    def test_exhaustive_multisets(self, monkeypatch):
        # every multiset of up to 5 values <= 5, every feasible target
        monkeypatch.setattr(config, "SPLIT_CAP", 60)
        checked = 0
        for d in range(1, 6):
            for values in itertools.combinations_with_replacement(
                range(1, 6), d
            ):
                for target in range(1, sum(values) + 1):
                    inst = SubsetSumInstance(values, target)
                    report = reduction_equivalence_check(inst)
                    yes = report.subset is not None
                    assert yes == (report.decomposition is not None)
                    checked += 1
        assert checked > 1500

    def test_size_cap_refuses_before_the_oracle(self, monkeypatch):
        # 24 values of 2 and an odd target: a 97-box pair, and the
        # oracle's search would visit every subset before saying no
        calls = []
        monkeypatch.setattr(subsetsum, "subset_sum_oracle", calls.append)
        with pytest.raises(SizeCapExceeded, match=r"\|lambda\| = 97 exceeds cap 40$"):
            reduction_equivalence_check(SubsetSumInstance((2,) * 24, 23))
        assert not calls

    @pytest.mark.parametrize("total", [20, 10**13])
    def test_past_cap_builds_no_pair(self, monkeypatch, total):
        # the cap is tested on 2A + 1 before the pair of that many boxes
        # is built
        calls = []
        monkeypatch.setattr(subsetsum, "reduce_to_kostka", calls.append)
        refusal = rf"\|lambda\| = {2 * total + 1} exceeds cap 40$"
        with pytest.raises(SizeCapExceeded, match=refusal):
            reduction_equivalence_check(SubsetSumInstance((total,), 1))
        assert not calls

    @pytest.mark.parametrize("values, target", [((10, 9), 9), ((10, 9), 5)], ids=["yes", "no"])
    def test_caps_agree_at_total_19(self, values, target):
        # 39 boxes: the oracle, the check and the CLI all answer
        inst = SubsetSumInstance(values, target)
        witness = subset_sum_oracle(inst)
        report = reduction_equivalence_check(inst)
        assert report.pair.n == 39
        assert report.subset == witness
        result = CliRunner().invoke(main, ["subsetsum", f"10,9 : {target}"])
        assert result.exit_code == (0 if witness else 1)

    def test_caps_agree_at_total_20(self):
        # 41 boxes: all three refuse, with decompose's message
        inst = SubsetSumInstance((10, 10), 10)
        refusal = r"\|lambda\| = 41 exceeds cap 40$"
        with pytest.raises(SizeCapExceeded, match=refusal):
            subset_sum_oracle(inst)
        with pytest.raises(SizeCapExceeded, match=refusal):
            reduction_equivalence_check(inst)
        result = CliRunner().invoke(main, ["subsetsum", "10,10 : 10"])
        assert result.exit_code == 2
        assert "|lambda| = 41 exceeds cap 40" in result.output

    @pytest.mark.parametrize(
        "values, target, certified, shared",
        [((3, 2, 1), 4, 3, 2), ((4, 3, 3, 1, 1), 6, 5, 0)],
        ids=["shared", "fallback"],
    )
    def test_each_distinct_pair_is_certified_once(
        self, monkeypatch, values, target, certified, shared
    ):
        # the reduction pair and the search's two halves; the proof
        # halves are the search's on 3,2,1 : 4, so they are not built
        # again, and differ on 4,3,3,1,1 : 6, so both are built
        calls = certify_spy(monkeypatch)
        report = reduction_equivalence_check(SubsetSumInstance(values, target))
        assert len(calls) == certified
        assert len(set(report.decomposition) & set(decompose(report.pair))) == shared

    def test_report_matches_the_proof_built_on_its_own(self):
        for inst in small_instances():
            canonical = inst.sorted_desc()
            pair = reduce_to_kostka(canonical)
            subset = subset_sum_oracle(canonical)
            expected = EquivalenceReport(
                instance=canonical,
                pair=pair,
                subset=subset,
                decomposition=proof_decomposition(canonical, subset, pair) if subset else None,
                coordinates=2 * pair.rank,
            )
            assert reduction_equivalence_check(inst) == expected, inst

    def test_search_that_disagrees_with_the_oracle_is_an_assertion_failure(self, monkeypatch):
        halves = decompose(reduce_to_kostka(GOLDEN))
        for inst, found in ((GOLDEN, None), (NO_INSTANCE, halves)):
            monkeypatch.setattr(subsetsum, "decompose", lambda pair: found)
            witness = subset_sum_oracle(inst)
            with pytest.raises(AssertionFailure) as err:
                reduction_equivalence_check(inst)
            assert str(err.value) == (
                f"oracle says {witness}, decomposition search says {found} for {inst}"
            )

    def test_reduction_pair_of_another_size_is_an_assertion_failure(self, monkeypatch):
        # an irreducible one-box pair: the search and the oracle agree
        monkeypatch.setattr(subsetsum, "reduce_to_kostka", lambda inst: KostkaPair((1,), (1,)))
        with pytest.raises(AssertionFailure) as err:
            reduction_equivalence_check(NO_INSTANCE)
        assert str(err.value) == "reduction pair has the wrong box count"

    def test_no_instances_give_irreducible_pairs(self):
        inst = SubsetSumInstance((4, 2), 3)
        pair = reduce_to_kostka(inst)
        assert subset_sum_oracle(inst) is None
        assert decompose(pair) is None

    def test_yes_instances_decompose(self):
        pair = reduce_to_kostka(GOLDEN)
        found = decompose(pair)
        assert found is not None
        small, large = found
        assert small.n + large.n == pair.n
