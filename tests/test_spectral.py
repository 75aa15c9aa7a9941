import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import (
    OPERATORS,
    Graph,
    Spectrum,
    adjacency_spectrum,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    energy,
    generalized_splitting,
    m_shadow,
    path_graph,
    random_graph,
    star_graph,
    structured_spectrum,
    verification_tolerance,
)
from graphenergy import spectral

from conftest import random_graphs
from jacobi_reference import jacobi_eigenvalues
from spectral_reference import are_cospectral, matrix_spectrum, twin_classes, twin_quotient_spectrum
from test_codec_golden import acceptance_corpus


class TestEigenvaluesSymmetric:
    def test_triangle(self):
        values = adjacency_spectrum(complete_graph(3)).values
        assert np.allclose(values, [2.0, -1.0, -1.0], atol=1e-12)

    def test_complete_bipartite_4_4(self):
        values = adjacency_spectrum(complete_bipartite(4, 4)).values
        expected = [4.0] + [0.0] * 6 + [-4.0]
        assert np.allclose(values, expected, atol=1e-10)

    def test_edgeless_graph(self):
        values = adjacency_spectrum(empty_graph(5)).values
        assert np.array_equal(values, np.zeros(5))

    def test_descending_order(self):
        values = adjacency_spectrum(random_graph(15, 0.4, seed=1)).values
        assert np.all(np.diff(values) <= 0)

    def test_takes_only_a_graph(self):
        with pytest.raises(TypeError, match="expected a Graph, got ndarray"):
            spectral.eigenvalues_symmetric(np.zeros((2, 2)))

    def test_graph_input_matches_its_float_matrix_bit_for_bit(self):
        # a graph with false twins is eigensolved through its quotient, so its
        # reference is the loop-built quotient; a twin-free graph's is its matrix
        twin_free = 0
        for name, g in acceptance_corpus():
            via_graph = adjacency_spectrum(g).values
            if len(twin_classes(g)) == g.order:
                twin_free += 1
                reference = matrix_spectrum(g.adjacency.astype(float)).values
            else:
                reference = twin_quotient_spectrum(g).values
                # the loop-built quotient shares the formula; the full solve does not
                full = np.linalg.eigvalsh(g.adjacency.astype(float))[::-1]
                assert (np.max(np.abs(via_graph - full))
                        <= verification_tolerance(g.order) / 100), name
            assert via_graph.tobytes() == reference.tobytes(), name
        assert 0 < twin_free < 100

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_planted_false_twins_keep_the_full_spectrum(self, data):
        # blow each vertex of a random base graph up into 1-6 mutually
        # non-adjacent copies with equal rows, then shuffle the vertices
        base = random_graph(data.draw(st.integers(1, 12)),
                            data.draw(st.sampled_from([0.2, 0.5, 0.8])),
                            seed=data.draw(st.integers(0, 2**32 - 1)))
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=base.order,
                                   max_size=base.order))
        copies = np.repeat(np.arange(base.order), sizes)
        vertices = copies[data.draw(st.permutations(range(copies.size)))]
        g = Graph(base.adjacency[np.ix_(vertices, vertices)])
        n, m = g.order, len(twin_classes(g))
        values = adjacency_spectrum(g).values
        full = np.linalg.eigvalsh(g.adjacency.astype(float))[::-1]
        assert values.shape == full.shape
        assert np.max(np.abs(values - full)) <= verification_tolerance(n) / 100
        assert np.count_nonzero(values == 0.0) >= n - m

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
            assert abs(energy(g) - energy(Graph(g.adjacency[np.ix_(perm, perm)]))) < 1e-8

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


class TestMatrixSpectrum:
    @pytest.mark.parametrize("matrix", [
        [[0.0, 1.0], [1.0 + 1e-9, 0.0]],
        np.array([[0, 1], [0, 0]], dtype=np.uint8),
        np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]]),
    ])
    def test_rejects_asymmetric(self, matrix):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            matrix_spectrum(matrix)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            matrix_spectrum(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            matrix_spectrum(np.zeros((0, 0)))


class TestJacobi:
    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(99)
        for n in (2, 3, 5, 10, 25):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            jac = jacobi_eigenvalues(a)
            lap = matrix_spectrum(a).values
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
        s = Spectrum(np.array([2.0, 2.0 - 1e-9, 0.0, -1.0, -1.0]))
        assert s.multiplicities(1e-7) == [(2.0, 2), (0.0, 1), (-1.0, 2)]

    def test_merging_never_changes_energy(self):
        values = np.array([1.0, 1.0 + 5e-8, -2.0])
        s = Spectrum(values)
        assert s.multiplicities(1e-7) == [(1.0 + 5e-8, 2), (-2.0, 1)]
        assert s.energy() == pytest.approx(np.abs(values).sum())

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([]))

    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("inf"), float("nan")], ids=str)
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            Spectrum(np.array([1.0, 0.0])).multiplicities(tolerance)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=1, max_size=40)
           .map(lambda v: v + [0.0, -0.0]), st.data())
    def test_zeros_are_unsigned_in_every_input_order(self, values, data):
        first = Spectrum(np.array(values)).values
        assert not np.signbit(first[first == 0.0]).any()
        for _ in range(3):
            again = Spectrum(np.array(data.draw(st.permutations(values)))).values
            assert again.tobytes() == first.tobytes()


class TestAgreement:
    def test_spectra_of_unequal_lengths_disagree(self):
        pair = (Spectrum(np.array([1.0])), Spectrum(np.array([1.0, 0.0])))
        assert spectral.agreement(pair, 1.0) == (None, False)

    def test_spectra_pair_values_in_order(self):
        a = Spectrum(np.array([2.0, 0.0, -1.0]))
        assert spectral.agreement((a, Spectrum(np.array([1.5, 0.25, -1.0]))), 1.0) == (0.5, True)
        assert spectral.agreement((a, Spectrum(np.array([1.5, 0.25, -1.0]))), 0.25) == (0.5, False)
        # a length-1 spectrum would broadcast against any other: delta 1.0, then 3.0
        assert spectral.agreement((a, Spectrum(np.array([1.0]))), 10.0) == (None, False)
        assert spectral.agreement((Spectrum(np.array([1.0])), a), 10.0) == (None, False)

    def test_an_unequal_pair_adds_no_delta_to_the_others(self):
        a, b = Spectrum(np.array([2.0, 0.0])), Spectrum(np.array([2.0, 0.5]))
        assert spectral.agreement((a, b, Spectrum(np.array([2.0]))), 1.0) == (0.5, False)

    def test_energies_and_absent_values(self):
        assert spectral.agreement((None, 3.0, 3.5, None), 0.5) == (0.5, True)
        assert spectral.agreement((3.0, 3.5, 2.0), 1.0) == (1.5, False)
        assert spectral.agreement((None, 3.0, None), 1e-8) == (None, True)
        assert spectral.agreement((), 1e-8) == (None, True)


class TestStructuredSpectrum:
    def test_zero_base_gives_zeros(self):
        base = Spectrum(np.zeros(4))
        out = structured_spectrum(Spectrum(np.array([1.0, -2.0])), base)
        assert np.array_equal(out.values, np.zeros(8))

    def test_matches_direct_eigensolve_on_split_graph(self):
        g = cycle_graph(4)
        coeff = OPERATORS["split"].coefficients(2, 2)
        product = structured_spectrum(matrix_spectrum(coeff),
                                      adjacency_spectrum(g))
        direct = adjacency_spectrum(generalized_splitting(g, 2, 2))
        assert spectral.agreement((product, direct), 1e-8)[1]

    def test_closed_form_and_eigensolved_coefficients_agree(self):
        base = adjacency_spectrum(cycle_graph(4))
        closed = structured_spectrum(OPERATORS["split"].coefficient_spectrum(1, 2), base)
        solved = structured_spectrum(
            matrix_spectrum(OPERATORS["split"].coefficients(1, 2)), base)
        assert spectral.agreement((closed, solved), 1e-12)[1]

    def test_kronecker_spectrum_law_small_grid(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 7):
            m = rng.integers(0, 2, size=(dim, dim))
            m = np.triu(m, 1)
            m = m + m.T + np.diag(rng.integers(0, 2, size=dim))
            for g in random_graphs(3, 10, seed=dim):
                coeff = matrix_spectrum(m)
                predicted = structured_spectrum(coeff, adjacency_spectrum(g))
                direct = matrix_spectrum(
                    np.kron(m.astype(float), g.adjacency.astype(float))
                )
                assert spectral.agreement((predicted, direct), 1e-8)[1]


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
