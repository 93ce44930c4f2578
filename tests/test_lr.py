from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given

import oracles
from conftest import partitions_st
from kostka import config, lr
from kostka.errors import AssertionFailure, InvalidTriple, ShapeError, SizeCapExceeded
from kostka.lr import (
    LrTriple,
    counterexample_family,
    growth_table,
    lr_coefficient,
    verify_counterexample,
)
from kostka.partitions import kostka_count, size


def coeff(lam, mu, nu, rank=4) -> int:
    """lr_coefficient with the containment error flattened to zero, for
    sweeps that enumerate nu blindly."""
    try:
        return lr_coefficient(LrTriple(lam, mu, nu, rank=rank))
    except ShapeError:
        return 0


class TestTriple:
    def test_normalization(self):
        triple = LrTriple((2, 1, 0), (1,), (3, 1), rank=3)
        assert triple.lam == (2, 1)
        assert triple.rank == 3

    def test_rank_must_cover_all_three(self):
        with pytest.raises(InvalidTriple):
            LrTriple((1, 1, 1), (1,), (2, 1, 1), rank=2)

    @pytest.mark.parametrize("rank", [2.5, True, "3"])
    def test_non_integer_rank_refused(self, rank):
        with pytest.raises(InvalidTriple, match="non-integer rank"):
            LrTriple((1,), (1,), (2,), rank)


class TestCoefficient:
    def test_classic_value(self):
        assert lr_coefficient(LrTriple((2, 1), (2, 1), (3, 2, 1), rank=3)) == 2

    def test_zero_when_sizes_disagree(self):
        assert lr_coefficient(LrTriple((2,), (1,), (2, 2), rank=2)) == 0

    def test_shape_error_when_lam_not_inside_nu(self):
        with pytest.raises(ShapeError):
            lr_coefficient(LrTriple((3,), (2, 1), (2, 2, 2), rank=3))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(config, "LR_BOX_CAP", 20)
        with pytest.raises(SizeCapExceeded):
            lr_coefficient(LrTriple((8, 8), (8, 8), (16, 8, 8), rank=3))

    def test_empty_lam_reduces_to_kostka_delta(self):
        # c(0, mu; nu) is 1 exactly when mu == nu
        for n in range(1, 7):
            shapes = list(oracles.partitions(n, max_len=4))
            for mu in shapes:
                for nu in shapes:
                    got = lr_coefficient(LrTriple((), mu, nu, rank=4))
                    assert got == (1 if mu == nu else 0), (mu, nu)

    def test_pieri_rule(self):
        # adding a single row: coefficient 1 on horizontal strips, else 0
        for n in range(1, 6):
            for lam in oracles.partitions(n, max_len=3):
                for m in range(1, 4):
                    for nu in oracles.partitions(n + m, max_len=4):
                        got = coeff(lam, (m,), nu)
                        expected = int(oracles.horizontal_strip(lam, nu))
                        assert got == expected, (lam, m, nu)

    def test_column_pieri_rule(self):
        # adding a column (1^m): vertical strips only
        got = lr_coefficient(LrTriple((2, 1), (1, 1), (2, 2, 1), rank=4))
        assert got == 1
        assert lr_coefficient(LrTriple((2, 1), (1, 1), (4, 1), rank=4)) == 0

    @given(partitions_st(max_boxes=5, max_len=3), partitions_st(max_boxes=4, max_len=3))
    def test_symmetry_in_lam_mu(self, lam, mu):
        n = size(lam) + size(mu)
        for nu in oracles.partitions(n, max_len=4):
            left = coeff(lam, mu, nu)
            right = coeff(mu, lam, nu)
            assert left == right, (lam, mu, nu)

    def test_matches_the_grid_search_on_every_small_triple(self):
        # every nu of at most 9 boxes and every lam, mu of matching total
        # size, at most 4 parts each; lam outside nu must be refused alike
        def outcome(count, triple):
            try:
                return count(triple)
            except ShapeError:
                return "ShapeError"

        triples = positive = 0
        for n in range(10):
            shapes = [list(oracles.partitions(m, max_len=4)) for m in range(n + 1)]
            for nu in shapes[n]:
                for a in range(n + 1):
                    for lam in shapes[a]:
                        for mu in shapes[n - a]:
                            triple = LrTriple(lam, mu, nu, rank=4)
                            got = outcome(lr_coefficient, triple)
                            want = outcome(oracles.lr_coefficient_grid, triple)
                            assert got == want, triple
                            triples += 1
                            positive += got not in ("ShapeError", 0)
        assert (triples, positive) == (8179, 1891)

    def test_product_expansion_matches_monomial_oracle(self):
        # sum_nu c(lam,mu;nu) K(nu,rho) must equal the monomial coefficient
        # of x^rho in s_lam * s_mu, for every content rho
        cases = [((1,), (1,)), ((2,), (1,)), ((2, 1), (1,)), ((2, 1), (2, 1)), ((2, 2), (2,))]
        for lam, mu in cases:
            n = size(lam) + size(mu)
            nus = list(oracles.partitions(n, max_len=4))
            coeffs = {nu: coeff(lam, mu, nu) for nu in nus}
            for rho in oracles.partitions(n, max_len=4):
                via_lr = sum(
                    c * kostka_count(nu, rho) for nu, c in coeffs.items() if c
                )
                direct = oracles.schur_product_monomial(lam, mu, rho)
                assert via_lr == direct, (lam, mu, rho)


class TestCounterexampleFamily:
    def test_shapes_for_small_k(self):
        t2 = counterexample_family(2)
        assert t2.lam == (2, 1, 1)
        assert t2.mu == (1, 1, 1)
        assert t2.nu == (2, 2, 1, 1, 1)
        assert t2.rank == 5

        t3 = counterexample_family(3)
        assert t3.lam == (3, 3, 2, 2, 2)
        assert t3.mu == (4, 4, 4, 2, 2, 2)
        assert t3.nu == (6, 6, 4, 4, 4, 2, 2, 2)
        assert t3.rank == 8

    def test_rejects_k_below_two(self):
        with pytest.raises(InvalidTriple, match="family needs k >= 2, got 1"):
            counterexample_family(1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: counterexample_family(np.int64(3)),
            lambda: counterexample_family(3.0),
            lambda: counterexample_family(True),
            lambda: verify_counterexample(2.5),
            lambda: growth_table(2.5),
            lambda: growth_table(np.int64(5)),
        ],
        ids=[
            "family-numpy",
            "family-float",
            "family-bool",
            "verify-float",
            "growth-float",
            "growth-numpy",
        ],
    )
    def test_rejects_non_integer_k(self, build):
        with pytest.raises(InvalidTriple, match="non-integer k"):
            build()

    def test_identities_hold_for_large_k(self):
        for k in range(2, 51):
            triple = counterexample_family(k)
            assert size(triple.lam) == 2 * k * (k - 1)
            assert 2 * size(triple.mu) == 3 * k * (k - 1) ** 2
            assert len(triple.nu) == triple.rank == 3 * k - 1
            assert math.gcd(*triple.lam, *triple.mu, *triple.nu) == 1

    def test_growth_table(self):
        rows = growth_table(8)
        assert [row.k for row in rows] == list(range(2, 9))
        for row in rows:
            assert row.rank == 3 * row.k - 1
            assert row.nu1 == row.k * (row.k - 1)
            assert row.exceeds_rank == (row.k >= 4)

    def test_first_violation_at_k_four(self):
        rows = {row.k: row for row in growth_table(6)}
        assert not rows[2].exceeds_rank
        assert not rows[3].exceeds_rank
        assert rows[4].exceeds_rank
        assert rows[4].nu1 == 12 > rows[4].rank == 11


class TestVerifyCounterexample:
    def test_k2_is_positive(self):
        report = verify_counterexample(2)
        assert report.coefficient == 1
        assert not report.exceeds_rank

    def test_k3_is_positive(self):
        report = verify_counterexample(3)
        assert report.coefficient == 1
        assert not report.exceeds_rank

    @pytest.mark.parametrize(
        "triple",
        [LrTriple((), (3,), (3,), rank=5), LrTriple((), (2,), (2,), rank=4)],
        ids=["nu1-differs", "rank-differs"],
    )
    def test_triple_checked_against_its_row(self, monkeypatch, triple):
        # row k = 2 has rank 5 and nu_1 2; each triple has coefficient 1
        monkeypatch.setattr(lr, "counterexample_family", lambda k: triple)
        with pytest.raises(AssertionFailure, match="growth row"):
            verify_counterexample(2)

    def test_k4_formula_level_only(self):
        report = verify_counterexample(4)
        assert report.coefficient is None  # 78 boxes, far over the cap
        assert report.exceeds_rank
        assert report.nu1 == 12
        assert report.rank == 11
