"""Acceptance suite: one test per release criterion.

Each criterion prints a single pass/fail line (visible with `pytest -s`);
the assertions carry the stated tolerances. Criteria 1-7 build a shared
deterministic corpus of constructed graphs that criterion 8 re-checks for
spectral sanity and graph6 round-trips.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from graphenergy import (
    OPERATORS,
    FamilySpec,
    adjacency_spectrum,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decode_graph6,
    encode_graph6,
    energy,
    generalized_splitting,
    m_shadow,
    path_graph,
    random_graph,
    shadow_splitting,
    verification_tolerance,
    verify,
)
from graphenergy.cli import main as cli_main
from graphenergy.spectral import agreement

from conftest import instantiate_family
from neighborhood_reference import ShadowSplitParams, SplitParams, construct_by_neighborhood
from spectral_reference import matrix_spectrum

PARAM_RANGE = range(1, 5)  # operator parameters 1..4 for criteria 1-2


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return decorate


def _bases():
    return {
        "K3": complete_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "K23": complete_bipartite(2, 3),
        "P4": path_graph(4),
        "R8": random_graph(8, 0.5, seed=918273645),
    }


@pytest.fixture(scope="module")
def bases():
    return _bases()


@pytest.fixture(scope="module")
def base_energies(bases):
    return {name: energy(g) for name, g in bases.items()}


@pytest.fixture(scope="module")
def split_grid(bases):
    """All splitting graphs over the criterion-1 grid."""
    return [
        (name, p, q, generalized_splitting(g, p, q))
        for name, g in bases.items()
        for p, q in itertools.product(PARAM_RANGE, repeat=2)
    ]


@pytest.fixture(scope="module")
def shadow_grid(bases):
    """All shadow-splitting graphs over the criterion-2 grid."""
    return [
        (name, c, k, shadow_splitting(g, c, k))
        for name, g in bases.items()
        for c, k in itertools.product(PARAM_RANGE, repeat=2)
    ]


def _family_points():
    """The criterion-4 and criterion-5 family instances."""
    points = []
    for k in (1, 2, 3):
        points.append(FamilySpec("C6_1", {"k": k}))
    for t in (1, 2):
        points.append(FamilySpec("C6_2", {"t": t}))
    points.append(FamilySpec("C6_3", {"t": 1}))
    for base in (cycle_graph(4), complete_graph(3)):
        for t in (1, 2):
            for m in (1, 2):
                for k in (1, -1):
                    points.append(FamilySpec("C5_2", {"t": t, "m": m, "k": k}, (base,)))
        for m in (2, 3):
            for t in range(1, m):
                points.append(FamilySpec("C5_3", {"m": m, "t": t}, (base,)))
        for p in (1, 2, 3):
            points.append(FamilySpec("C5_4", {"p": p, "q": 4 * p - 2}, (base,)))
        for c in (1, 2, 3):
            points.append(FamilySpec("C5_5", {"c": c, "k": 2 * c}, (base,)))
        points.append(FamilySpec("C5_6", {}, (base,)))
        for m in (1, 2):
            points.append(FamilySpec("C5_7", {"m": m}, (base,)))
        points.append(FamilySpec("C5_8", {"m": 1}, (base,)))
        points.append(FamilySpec("C5_9", {"t": 1}, (base,)))
    return points


def _random_instances():
    """The criterion-7 random (graph, params) pairs, deterministic."""
    rng = np.random.default_rng(55443322)
    instances = []
    for _ in range(50):
        n = int(rng.integers(2, 11))
        g = random_graph(n, float(rng.uniform(0.2, 0.8)), seed=rng)
        a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if rng.random() < 0.5:
            instances.append((g, SplitParams(a, b)))
        else:
            instances.append((g, ShadowSplitParams(a, b)))
    return instances


@criterion(1, "splitting energy scaling vs oracle")
def test_criterion_1_split_energy(bases, base_energies, split_grid):
    for name, p, q, built in split_grid:
        tol = verification_tolerance(built.order)
        predicted = OPERATORS["split"].factor(p, q) * base_energies[name]
        assert abs(energy(built) - predicted) <= tol, (name, p, q)


@criterion(2, "shadow-splitting energy scaling vs oracle")
def test_criterion_2_shadow_split_energy(bases, base_energies, shadow_grid):
    for name, c, k, built in shadow_grid:
        tol = verification_tolerance(built.order)
        predicted = OPERATORS["shadow-split"].factor(c, k) * base_energies[name]
        assert abs(energy(built) - predicted) <= tol, (name, c, k)


@criterion(3, "coefficient spectra closed form vs eigensolve")
def test_criterion_3_coefficient_spectra():
    for a, b in itertools.product(range(1, 7), repeat=2):
        closed = OPERATORS["split"].coefficient_spectrum(a, b)
        direct = matrix_spectrum(OPERATORS["split"].coefficients(a, b))
        assert agreement((closed, direct), 1e-10)[1], ("split", a, b)
        # the rational roots (1 +- sqrt(1+4pq))/2 never collide with 1 or 0,
        # so the multiplicity counts are exact
        ones = sum(abs(v - 1.0) <= 1e-7 for v in direct.values)
        zeros = sum(abs(v) <= 1e-7 for v in direct.values)
        assert ones == a - 1
        assert zeros == b - 1

        closed = OPERATORS["shadow-split"].coefficient_spectrum(a, b)
        direct = matrix_spectrum(OPERATORS["shadow-split"].coefficients(a, b))
        assert agreement((closed, direct), 1e-10)[1], ("shadow", a, b)
        zeros = sum(abs(v) <= 1e-7 for v in direct.values)
        assert zeros == a + b - 2


# frozen expectations, re-derived from this package's eigensolver
C6_1_EXPECTED = {1: ((9, 16.0), (51, 100.0)), 2: ((15, 28.0), (81, 160.0)),
                 3: ((21, 40.0), (111, 220.0))}
C6_2_EXPECTED = {1: (49, 96.0), 2: (190, 378.0)}
C6_3_EXPECTED = {1: (105, 208.0)}


@criterion(4, "borderenergetic families reproduce complete-graph energies")
def test_criterion_4_borderenergetic():
    for k, expected in C6_1_EXPECTED.items():
        report = verify(FamilySpec("C6_1", {"k": k}), method="both", tolerance=1e-8)
        assert report.passed, ("C6_1", k)
        for member, (order, target) in zip(report.members, expected):
            assert member.order == order
            assert abs(member.measured_energy - target) <= 1e-8
            assert abs(member.predicted_energy - target) <= 1e-8
            assert member.target_energy == 2.0 * (order - 1) == target
    for t, (order, target) in C6_2_EXPECTED.items():
        report = verify(FamilySpec("C6_2", {"t": t}), method="both", tolerance=1e-8)
        assert report.passed, ("C6_2", t)
        member = report.members[0]
        assert (member.order, member.target_energy) == (order, target)
        assert abs(member.measured_energy - target) <= 1e-8
        assert abs(member.predicted_energy - target) <= 1e-8
    for t, (order, target) in C6_3_EXPECTED.items():
        report = verify(FamilySpec("C6_3", {"t": t}), method="both", tolerance=1e-8)
        assert report.passed, ("C6_3", t)
        member = report.members[0]
        assert (member.order, member.target_energy) == (order, target)
        assert abs(member.measured_energy - target) <= 1e-8


@criterion(5, "equienergetic families pass on both stock bases")
def test_criterion_5_equienergetic():
    for spec in _family_points():
        if spec.corollary_id.startswith("C6"):
            continue
        report = verify(spec, method="both")
        assert report.passed, (spec.corollary_id, dict(spec.parameters))
        assert report.orders_equal
        assert report.energies_equal


@criterion(6, "iff negative controls fail with nonzero exit status")
def test_criterion_6_negative_controls(tmp_path, capsys):
    for p in (1, 2, 3):
        report = verify(FamilySpec("C5_4", {"p": p, "q": 4 * p - 1}))
        assert not report.energies_equal
        assert report.verdict == "fail"
    for c in (1, 2, 3):
        report = verify(FamilySpec("C5_5", {"c": c, "k": 2 * c + 1}))
        assert not report.energies_equal
        assert report.verdict == "fail"
    assert cli_main(["verify", "C5_4", "p=2", "q=7"]) == 1
    assert cli_main(["verify", "C5_5", "c=2", "k=5"]) == 1
    capsys.readouterr()


@criterion(7, "neighborhood route equals Kronecker route entrywise")
def test_criterion_7_structural_cross_check():
    c4 = cycle_graph(4)
    assert construct_by_neighborhood(c4, SplitParams(2, 2)) == \
        generalized_splitting(c4, 2, 2)
    assert construct_by_neighborhood(c4, ShadowSplitParams(2, 2)) == \
        shadow_splitting(c4, 2, 2)
    for g, params in _random_instances():
        if isinstance(params, SplitParams):
            direct = generalized_splitting(g, params.p, params.q)
        else:
            direct = shadow_splitting(g, params.c, params.k)
        assert construct_by_neighborhood(g, params) == direct


@criterion(8, "spectral sanity and graph6 round-trip on the whole corpus")
def test_criterion_8_sanity_suite(bases, split_grid, shadow_grid):
    corpus = list(bases.values())
    corpus += [built for _, _, _, built in split_grid]
    corpus += [built for _, _, _, built in shadow_grid]
    for spec in _family_points():
        corpus += instantiate_family(spec)
    for g, params in _random_instances():
        corpus.append(construct_by_neighborhood(g, params))
    assert len(corpus) > 250

    for g in corpus:
        values = adjacency_spectrum(g).values
        n = g.order
        assert abs(values.sum()) <= n * 1e-10
        assert abs((values ** 2).sum() - 2 * g.edge_count) <= n * 1e-9
        assert decode_graph6(encode_graph6(g)) == g


@criterion(9, "known-energy anchors")
def test_criterion_9_known_energy_anchors(bases):
    for n in range(1, 11):
        assert abs(energy(complete_graph(n)) - 2 * (n - 1)) <= 1e-8
    for m, n in itertools.product(range(1, 7), repeat=2):
        assert abs(energy(complete_bipartite(m, n)) - 2 * math.sqrt(m * n)) <= 1e-8
    for name, g in bases.items():
        base_energy = energy(g)
        for m in range(1, 5):
            assert abs(energy(m_shadow(g, m)) - m * base_energy) <= 1e-8, (name, m)
