"""A sweep shares eigensolves across its grid points, and nothing else changes.

`families.sweep` resolves the base graphs once and hands one memo of base
and member spectra to every point's `verify`. The reports must be
byte for byte those of one `verify` per point, on every family and method,
so that a memo key collision shows up as a changed report. The memo lives
for one sweep call only, and a failed eigensolve is not remembered.
"""

import itertools

import numpy as np
import pytest

from graphenergy import (
    FamilySpec,
    complete_bipartite,
    cycle_graph,
    jsonio,
    m_shadow,
    path_graph,
    random_graph,
    star_graph,
)
from graphenergy import families
from graphenergy.families import (
    FAMILIES,
    METHODS,
    OutOfDomainError,
    VerificationReport,
    get_family,
    sweep,
    verify,
)
from graphenergy.graphs import OrderCapError

# small grids with out-of-domain points for all 12 families
GRIDS = {
    "C5_1": {"p": [0, 1, 2], "q": [1, 2]},
    "C5_2": {"t": [0, 1], "m": [1, 2], "k": [-1, 0, 1]},
    "C5_3": {"m": [1, 2, 3], "t": [1, 2]},
    "C5_4": {"p": [0, 1, 2], "q": [1, 2, 3]},
    "C5_5": {"c": [0, 1, 2], "k": [1, 2, 3]},
    "C5_6": {},
    "C5_7": {"m": [0, 1]},
    "C5_8": {"m": [0, 1]},
    "C5_9": {"t": [0, 1]},
    "C6_1": {"k": [0, 1, 2, 1]},
    "C6_2": {"t": [0, 1]},
    "C6_3": {"t": [0, 1]},
}

# (family, bases given to the sweep): every family with its stock bases,
# one single-base family with a custom base and C5_1 with a custom pair
CASES = [(name, ()) for name in GRIDS] + [
    ("C5_5", (complete_bipartite(2, 3),)),
    ("C5_4", (random_graph(5, 0.5, seed=11),)),
    ("C5_1", (cycle_graph(5), path_graph(5))),
    ("C5_1", (star_graph(3), cycle_graph(5))),  # orders differ: skipped
]
CASE_LABELS = ("default", "base", "base_pair")  # by the number of bases


def one_verify_per_point(corollary_id, ranges, method, bases):
    """The sweep's reports, built from one stand-alone `verify` per point."""
    family = get_family(corollary_id)
    reports = []
    for point in itertools.product(*(ranges[name] for name in family.param_names)):
        params = dict(zip(family.param_names, point))
        try:
            reports.append(verify(FamilySpec(corollary_id, params, bases), method=method))
            continue
        except (OutOfDomainError, OrderCapError) as exc:
            verdict, message = "skipped", str(exc)
        except Exception as exc:
            verdict, message = "error", f"{type(exc).__name__}: {exc}"
        reports.append(VerificationReport(corollary_id, family.kind, params, method,
                                          verdict=verdict, error=message))
    return reports


def dumped(reports) -> str:
    return jsonio.dumps([r.to_dict() for r in reports])


def test_the_cases_cover_every_family():
    assert set(GRIDS) == set(FAMILIES)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("corollary_id,bases", CASES,
                         ids=[f"{name}-{CASE_LABELS[len(bases)]}" for name, bases in CASES])
def test_a_sweep_equals_one_verify_per_point(corollary_id, bases, method):
    ranges = GRIDS[corollary_id]
    reports = sweep(corollary_id, ranges, method=method, bases=bases)
    assert dumped(reports) == dumped(one_verify_per_point(corollary_id, ranges, method, bases))


@pytest.fixture
def eigensolves(monkeypatch):
    """The graphs `families.adjacency_spectrum` is called on, in call order."""
    graphs = []
    solve = families.adjacency_spectrum

    def counted(g, *args, **kwargs):
        graphs.append(g)
        return solve(g, *args, **kwargs)

    monkeypatch.setattr(families, "adjacency_spectrum", counted)
    return graphs


C5_4_GRID = {"p": range(1, 4), "q": range(1, 11)}


def test_a_sweep_eigensolves_each_distinct_graph_once(eigensolves):
    sweep("C5_4", C5_4_GRID)
    # 30 split members, the shadow members of p+q in 2..13 and the 4-cycle
    assert len(eigensolves) == 30 + 12 + 1
    assert len(set(eigensolves)) == len(eigensolves)
    assert eigensolves.count(cycle_graph(4)) == 1


def test_the_memo_does_not_outlive_a_sweep_call(eigensolves):
    sweep("C5_4", C5_4_GRID)
    sweep("C5_4", C5_4_GRID)
    assert len(eigensolves) == 2 * 43


def test_each_verify_call_eigensolves_afresh(eigensolves):
    spec = FamilySpec("C5_4", {"p": 1, "q": 2})
    verify(spec)
    verify(spec)
    assert len(eigensolves) == 2 * 3


@pytest.mark.parametrize("method,calls", [("formula", 1), ("oracle", 42), ("both", 43)])
def test_each_route_eigensolves_only_what_it_reads(eigensolves, method, calls):
    sweep("C5_4", C5_4_GRID, method=method)
    assert len(eigensolves) == calls


def test_a_base_rebuilt_at_every_point_is_keyed_by_content(eigensolves):
    # C6_1 builds complete(3) afresh at each point; its energy is closed-form
    sweep("C6_1", {"k": [1, 1, 1]})
    assert len(eigensolves) == 2


def test_equal_bases_share_their_eigensolves(eigensolves):
    # two distinct Graph objects with one content, both alive for the whole sweep
    sweep("C5_1", {"p": [1], "q": [1, 2]}, bases=(cycle_graph(5), cycle_graph(5)))
    assert len(eigensolves) == 2 + 1


def test_a_failed_eigensolve_is_not_memoized(monkeypatch):
    # shadow(3) of the 4-cycle is a member at (p, q) = (1, 2) and at (2, 1)
    shadow = m_shadow(cycle_graph(4), 3)
    solve = families.adjacency_spectrum
    failures = []

    def flaky(g, *args, **kwargs):
        if g == shadow and not failures:
            failures.append(g)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(g, *args, **kwargs)

    monkeypatch.setattr(families, "adjacency_spectrum", flaky)
    reports = sweep("C5_4", {"p": [1, 2], "q": [2, 1]}, method="oracle")
    first, second = reports[0], reports[3]
    assert first.parameters == {"p": 1, "q": 2}
    assert first.verdict == "error"
    assert first.error == "LinAlgError: Eigenvalues did not converge"
    assert second.parameters == {"p": 2, "q": 1}
    assert second.verdict == "fail"
    assert [m.measured_energy for m in second.members][1] == pytest.approx(12.0)


def test_a_failed_diagonal_block_solve_stores_neither_the_block_nor_the_member(monkeypatch):
    # split(2, 2) of a twin-free base: the block step solves its quotient,
    # then the copies' diagonal block (the base), then the splitting sets'
    # zero block at order 1, which fails here
    base = random_graph(12, 0.5, seed=12)
    plan = families.MemberPlan(families.OPERATORS["split"], (2, 2), base)
    real = np.linalg.eigvalsh

    def flaky(a):
        if a.shape[0] == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
    memo = {}
    with pytest.raises(np.linalg.LinAlgError):
        plan.check("oracle", memo, 1e-8)
    assert list(memo) == [base]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_a_malformed_cap_setting_fails_the_sweep_before_any_point(eigensolves, monkeypatch,
                                                                  value):
    monkeypatch.setenv("SPECTRAL_MAX_ORDER", value)
    with pytest.raises(ValueError, match="SPECTRAL_MAX_ORDER must be"):
        sweep("C6_1", {"k": [1, 2]})
    assert eigensolves == []
