import itertools
import math

import numpy as np
import pytest

from graphenergy import (
    OPERATORS,
    cycle_graph,
    energy,
    generalized_splitting,
    m_splitting,
    shadow_splitting,
)
from graphenergy.spectral import agreement

from conftest import random_graphs
from spectral_reference import matrix_spectrum, quotient_matrix, quotient_matrix_spectrum

PARAM_GRID = list(itertools.product(range(1, 6), repeat=2))


class TestEnergyFactors:
    @pytest.mark.parametrize("m,expected", [(1, math.sqrt(5)), (2, 3.0), (6, 5.0)])
    def test_split_single_copy(self, m, expected):
        assert OPERATORS["split"].factor(1, m) == pytest.approx(expected)

    def test_split_2_1(self):
        assert OPERATORS["split"].factor(2, 1) == pytest.approx(4.0)

    def test_split_factor_18_two_ways(self):
        assert OPERATORS["split"].factor(12, 1) == pytest.approx(18.0)
        assert OPERATORS["split"].factor(6, 7) == pytest.approx(18.0)

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_shadow_split_k_equals_2c(self, c):
        assert OPERATORS["shadow-split"].factor(c, 2 * c) == pytest.approx(3.0 * c)

    def test_shadow_split_2_2(self):
        assert OPERATORS["shadow-split"].factor(2, 2) == pytest.approx(math.sqrt(20))

    def test_shadow_split_4_3(self):
        assert OPERATORS["shadow-split"].factor(4, 3) == pytest.approx(8.0)

    @pytest.mark.parametrize("p,q", PARAM_GRID)
    def test_split_factor_at_least_one(self, p, q):
        assert OPERATORS["split"].factor(p, q) >= 1.0

    @pytest.mark.parametrize("c,k", PARAM_GRID)
    def test_shadow_factor_at_least_one(self, c, k):
        assert OPERATORS["shadow-split"].factor(c, k) >= 1.0

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            OPERATORS["split"].factor(0, 1)
        with pytest.raises(ValueError):
            OPERATORS["shadow-split"].factor(1, 0)


class TestCoefficientSpectra:
    def test_split_1_1_closed_form(self):
        values = OPERATORS["split"].coefficient_spectrum(1, 1).values
        golden = (1 + math.sqrt(5)) / 2
        assert np.allclose(values, [golden, 1 - golden], atol=1e-12)

    def test_split_2_2_closed_form(self):
        values = OPERATORS["split"].coefficient_spectrum(2, 2).values
        r = math.sqrt(17)
        assert np.allclose(values, sorted([1.0, 0.0, (1 + r) / 2, (1 - r) / 2],
                                          reverse=True), atol=1e-12)

    def test_shadow_1_1_closed_form(self):
        values = OPERATORS["shadow-split"].coefficient_spectrum(1, 1).values
        golden = (1 + math.sqrt(5)) / 2
        assert np.allclose(values, [golden, 1 - golden], atol=1e-12)

    def test_shadow_2_2_closed_form(self):
        values = OPERATORS["shadow-split"].coefficient_spectrum(2, 2).values
        r = math.sqrt(5)
        assert np.allclose(values, sorted([0.0, 0.0, 1 + r, 1 - r], reverse=True),
                           atol=1e-12)

    @pytest.mark.parametrize("p,q", PARAM_GRID)
    def test_split_matches_direct_eigensolve(self, p, q):
        closed = OPERATORS["split"].coefficient_spectrum(p, q)
        direct = matrix_spectrum(OPERATORS["split"].coefficients(p, q))
        assert agreement((closed, direct), 1e-10)[1]

    @pytest.mark.parametrize("c,k", PARAM_GRID)
    def test_shadow_matches_direct_eigensolve(self, c, k):
        closed = OPERATORS["shadow-split"].coefficient_spectrum(c, k)
        direct = matrix_spectrum(OPERATORS["shadow-split"].coefficients(c, k))
        assert agreement((closed, direct), 1e-10)[1]

    @pytest.mark.parametrize("p,q", PARAM_GRID)
    def test_split_trace_frobenius_and_energy_sums(self, p, q):
        values = OPERATORS["split"].coefficient_spectrum(p, q).values
        assert values.sum() == pytest.approx(p, abs=1e-12)
        assert (values ** 2).sum() == pytest.approx(p + 2 * p * q, abs=1e-12)
        assert np.abs(values).sum() == pytest.approx(OPERATORS["split"].factor(p, q), abs=1e-12)

    @pytest.mark.parametrize("c,k", PARAM_GRID)
    def test_shadow_trace_frobenius_and_energy_sums(self, c, k):
        values = OPERATORS["shadow-split"].coefficient_spectrum(c, k).values
        assert values.sum() == pytest.approx(c, abs=1e-12)
        assert (values ** 2).sum() == pytest.approx(c * c + 2 * c * k, abs=1e-12)
        assert np.abs(values).sum() == pytest.approx(
            OPERATORS["shadow-split"].factor(c, k), abs=1e-12
        )

    def test_multiplicity_counts(self):
        assert OPERATORS["split"].coefficient_spectrum(4, 3).multiplicities(1e-7)[1] == (1.0, 3)
        groups = dict(OPERATORS["shadow-split"].coefficient_spectrum(3, 4).multiplicities(1e-7))
        assert groups[0.0] == 5


class TestOperatorEnergyAgainstOracle:
    def test_full_small_grid_on_random_bases(self, base_graphs):
        bases = list(base_graphs.values()) + random_graphs(2, 8, seed=55)
        for g in bases:
            base_energy = energy(g)
            for p, q in itertools.product(range(1, 4), repeat=2):
                tol = max(1e-8, (p + q) * g.order * 1e-10)
                built = generalized_splitting(g, p, q)
                assert abs(energy(built) - OPERATORS["split"].factor(p, q) * base_energy) <= tol
                built = shadow_splitting(g, p, q)
                assert abs(
                    energy(built) - OPERATORS["shadow-split"].factor(p, q) * base_energy
                ) <= tol

    def test_parameters_up_to_five(self):
        for g in random_graphs(2, 8, seed=61):
            base_energy = energy(g)
            for a, b in itertools.product(range(1, 6), repeat=2):
                tol = max(1e-8, (a + b) * g.order * 1e-10)
                assert abs(
                    energy(generalized_splitting(g, a, b))
                    - OPERATORS["split"].factor(a, b) * base_energy
                ) <= tol
                assert abs(
                    energy(shadow_splitting(g, a, b))
                    - OPERATORS["shadow-split"].factor(a, b) * base_energy
                ) <= tol


class TestQuotientMatrix:
    def test_shadow_coefficient_two_block_partition(self):
        for c, k in [(1, 1), (2, 3), (4, 2)]:
            m = OPERATORS["shadow-split"].coefficients(c, k)
            partition = [list(range(c)), list(range(c, c + k))]
            q = quotient_matrix(m, partition)
            assert np.array_equal(q, [[c, k], [c, 0]])
            values = quotient_matrix_spectrum(m, partition).values
            root = math.sqrt(c * c + 4 * c * k)
            assert np.allclose(values, [(c + root) / 2, (c - root) / 2], atol=1e-10)

    def test_identity_with_singleton_partition(self):
        values = quotient_matrix_spectrum(np.eye(3), [[0], [1], [2]]).values
        assert np.array_equal(values, [1.0, 1.0, 1.0])

    def test_all_ones_single_block(self):
        values = quotient_matrix_spectrum(np.ones((3, 3)), [[0, 1, 2]]).values
        assert np.array_equal(values, [3.0])

    def test_quotient_values_in_full_spectrum(self):
        for p, q in [(2, 2), (3, 1), (1, 4)]:
            m = OPERATORS["split"].coefficients(p, q)
            partition = [list(range(p)), list(range(p, p + q))]
            sub = quotient_matrix_spectrum(m, partition).values
            full = matrix_spectrum(m).values
            for value in sub:
                assert np.min(np.abs(full - value)) < 1e-8

    def test_rejects_non_equitable(self):
        # a path's endpoint and midpoint rows have different block sums
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="not equitable"):
            quotient_matrix(a, [[0, 1, 2]])

    def test_rejects_bad_partition_cover(self):
        with pytest.raises(ValueError, match="cover"):
            quotient_matrix(np.eye(3), [[0, 1]])
        with pytest.raises(ValueError, match="cover"):
            quotient_matrix(np.eye(3), [[0, 1], [1, 2]])


class TestFormulaOracleSpotChecks:
    def test_split_energy_example(self):
        c4 = cycle_graph(4)
        assert abs(energy(m_splitting(c4, 1)) - math.sqrt(5) * 4) < 1e-8

    def test_shadow_split_energy_example(self):
        built = shadow_splitting(cycle_graph(4), 2, 2)
        assert abs(energy(built) - math.sqrt(20) * 4) < 1e-8
