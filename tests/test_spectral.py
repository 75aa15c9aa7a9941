import math

import numpy as np
import pytest

from graphenergy import (
    CoefficientMatrix,
    Spectrum,
    adjacency_spectrum,
    are_cospectral,
    coefficient_matrix_split,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    eigenvalues_symmetric,
    energy,
    generalized_splitting,
    m_shadow,
    path_graph,
    random_graph,
    star_graph,
    structured_spectrum,
    verification_tolerance,
)

from conftest import random_graphs
from jacobi_reference import jacobi_eigenvalues
from test_codec_golden import acceptance_corpus


class TestEigenvaluesSymmetric:
    def test_triangle(self):
        values = adjacency_spectrum(complete_graph(3)).values
        assert np.allclose(values, [2.0, -1.0, -1.0], atol=1e-12)

    def test_complete_bipartite_4_4(self):
        values = adjacency_spectrum(complete_bipartite(4, 4)).values
        expected = [4.0] + [0.0] * 6 + [-4.0]
        assert np.allclose(values, expected, atol=1e-10)

    def test_zero_matrix(self):
        values = eigenvalues_symmetric(np.zeros((5, 5))).values
        assert np.array_equal(values, np.zeros(5))

    def test_descending_order(self):
        values = adjacency_spectrum(random_graph(15, 0.4, seed=1)).values
        assert np.all(np.diff(values) <= 0)

    @pytest.mark.parametrize("matrix", [
        [[0.0, 1.0], [1.0 + 1e-9, 0.0]],
        np.array([[0, 1], [0, 0]], dtype=np.uint8),
        np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]]),
    ])
    def test_rejects_asymmetric(self, matrix):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            eigenvalues_symmetric(matrix)

    def test_graph_input_matches_its_float_matrix_bit_for_bit(self):
        for name, g in acceptance_corpus():
            via_graph = eigenvalues_symmetric(g).values
            via_matrix = eigenvalues_symmetric(g.adjacency.astype(float)).values
            assert via_graph.tobytes() == via_matrix.tobytes(), name

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues_symmetric(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            eigenvalues_symmetric(np.zeros((0, 0)))

    _SQRT2 = math.sqrt(2.0)
    _SQRT3 = math.sqrt(3.0)
    _GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

    @pytest.mark.parametrize(
        "coeffs,roots,graph",
        [
            # hand-expanded characteristic polynomials and their exact
            # factored roots, dimensions <= 4
            ([1, 0, -1], [1.0, -1.0], complete_graph(2)),
            ([1, 0, -2, 0], [_SQRT2, 0.0, -_SQRT2], path_graph(3)),
            ([1, 0, -3, -2], [2.0, -1.0, -1.0], complete_graph(3)),
            ([1, 0, -4, 0, 0], [2.0, 0.0, 0.0, -2.0], cycle_graph(4)),
            ([1, 0, -3, 0, 0], [_SQRT3, 0.0, 0.0, -_SQRT3], star_graph(3)),
            (
                [1, 0, -3, 0, 1],
                [_GOLDEN, _GOLDEN - 1.0, 1.0 - _GOLDEN, -_GOLDEN],
                path_graph(4),
            ),
        ],
    )
    def test_matches_characteristic_polynomial(self, coeffs, roots, graph):
        values = adjacency_spectrum(graph).values
        assert np.max(np.abs(np.array(roots) - values)) < 1e-8
        # the polynomial itself must vanish at the computed eigenvalues
        assert np.max(np.abs(np.polyval(coeffs, values))) < 1e-8


class TestAdjacencyInvariants:
    def test_trace_and_frobenius_identities(self):
        for g in random_graphs(20, 12, seed=42):
            spectrum = adjacency_spectrum(g)
            n = g.order
            assert abs(spectrum.values.sum()) <= n * 1e-10
            assert abs((spectrum.values ** 2).sum() - 2 * g.edge_count) <= n * 1e-9

    def test_energy_invariant_under_relabeling(self):
        rng = np.random.default_rng(5)
        for g in random_graphs(10, 10, seed=17):
            perm = rng.permutation(g.order)
            assert abs(energy(g) - energy(g.relabeled(perm))) < 1e-8

    def test_energy_zero_iff_edgeless(self):
        assert energy(random_graph(6, 0.0, seed=0)) == 0.0
        assert energy(complete_graph(2)) > 0


class TestEnergy:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graph(self, n):
        assert abs(energy(complete_graph(n)) - 2 * (n - 1)) < 1e-8

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4), (9, 9)])
    def test_complete_bipartite(self, m, n):
        assert abs(energy(complete_bipartite(m, n)) - 2 * math.sqrt(m * n)) < 1e-8

    def test_four_cycle(self):
        assert abs(energy(cycle_graph(4)) - 4.0) < 1e-10


class TestJacobi:
    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(99)
        for n in (2, 3, 5, 10, 25):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            jac = jacobi_eigenvalues(a)
            lap = eigenvalues_symmetric(a).values
            assert np.max(np.abs(jac - lap)) < 1e-10

    def test_matches_lapack_on_adjacency(self):
        for g in random_graphs(8, 12, seed=23):
            jac = jacobi_eigenvalues(g.adjacency.astype(float))
            lap = adjacency_spectrum(g).values
            assert np.max(np.abs(jac - lap)) < 1e-10

    def test_single_element(self):
        assert jacobi_eigenvalues([[3.5]]) == pytest.approx([3.5])

    def test_diagonal_matrix_immediate(self):
        values = jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(values, [3.0, 2.0, 1.0])

    def test_nonconvergence_is_reported(self):
        a = complete_graph(4).adjacency.astype(float)
        with pytest.raises(RuntimeError, match="did not converge"):
            jacobi_eigenvalues(a, max_sweeps=0)


class TestSpectrumType:
    def test_sorted_and_readonly(self):
        s = Spectrum(np.array([1.0, 3.0, 2.0]))
        assert np.array_equal(s.values, [3.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            s.values[0] = 0.0

    def test_multiplicities_merge_close_values(self):
        s = Spectrum(np.array([2.0, 2.0 - 1e-9, 0.0, -1.0, -1.0]), merge_tolerance=1e-7)
        assert s.multiplicities() == [(2.0, 2), (0.0, 1), (-1.0, 2)]

    def test_merging_never_changes_energy(self):
        values = np.array([1.0, 1.0 + 5e-8, -2.0])
        assert Spectrum(values, merge_tolerance=1e-7).energy() == pytest.approx(
            np.abs(values).sum()
        )

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([]))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0]), merge_tolerance=0.0)

    def test_matches_requires_same_length(self):
        assert not Spectrum(np.array([1.0])).matches(Spectrum(np.array([1.0, 0.0])), 1.0)


class TestStructuredSpectrum:
    def test_zero_base_gives_zeros(self):
        base = Spectrum(np.zeros(4))
        out = structured_spectrum(np.array([1.0, -2.0]), base)
        assert np.array_equal(out.values, np.zeros(8))

    def test_matches_direct_eigensolve_on_split_graph(self):
        g = cycle_graph(4)
        coeff = coefficient_matrix_split(2, 2)
        product = structured_spectrum(coeff, adjacency_spectrum(g))
        direct = adjacency_spectrum(generalized_splitting(g, 2, 2))
        assert product.matches(direct, 1e-8)

    def test_accepts_spectrum_input(self):
        base = adjacency_spectrum(cycle_graph(4))
        coeff_spectrum = eigenvalues_symmetric(coefficient_matrix_split(1, 2).entries)
        via_spectrum = structured_spectrum(coeff_spectrum, base)
        via_matrix = structured_spectrum(coefficient_matrix_split(1, 2), base)
        assert via_spectrum.matches(via_matrix, 1e-12)

    def test_kronecker_spectrum_law_small_grid(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 7):
            m = rng.integers(0, 2, size=(dim, dim))
            m = np.triu(m, 1)
            m = m + m.T + np.diag(rng.integers(0, 2, size=dim))
            for g in random_graphs(3, 10, seed=dim):
                coeff = CoefficientMatrix(m)
                predicted = structured_spectrum(coeff, adjacency_spectrum(g))
                direct = eigenvalues_symmetric(
                    np.kron(m.astype(float), g.adjacency.astype(float))
                )
                assert predicted.matches(direct, 1e-8)


class TestCospectral:
    def test_graph_with_itself(self):
        g = random_graph(9, 0.5, seed=31)
        assert are_cospectral(g, g)

    def test_classic_order5_pair(self):
        a = star_graph(4)
        b = disjoint_union([cycle_graph(4), complete_graph(1)])
        assert are_cospectral(a, b)
        assert a != b

    def test_equienergetic_but_not_cospectral(self):
        g = cycle_graph(4)
        split = generalized_splitting(g, 1, 2)
        shadow = m_shadow(g, 3)
        assert abs(energy(split) - energy(shadow)) < 1e-8
        assert not are_cospectral(split, shadow)

    def test_different_orders(self):
        assert not are_cospectral(complete_graph(3), complete_graph(4))

    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("inf"), float("nan")], ids=str)
    def test_rejects_bad_tolerance(self, tolerance):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            are_cospectral(g, g, tolerance=tolerance)


def test_verification_tolerance_floor_and_scaling():
    assert verification_tolerance(1) == 1e-8
    assert verification_tolerance(100) == 1e-8
    assert verification_tolerance(200) == pytest.approx(2e-8)
    assert verification_tolerance(10_000) == pytest.approx(1e-6)
