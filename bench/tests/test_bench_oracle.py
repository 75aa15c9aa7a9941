"""The benchmark's expected-outcome oracle, checked against graphenergy itself."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from graphenergy import cli, encode_graph6, families, random_graph  # noqa: E402

GRIDS = {
    "C5_1": {"p": [1, 2], "q": [1, 2, 3]},
    "C5_2": {"t": [1, 2], "m": [1, 2], "k": [-1, 1]},
    "C5_3": {"m": [1, 2, 3], "t": [1, 2, 3]},
    "C5_4": {"p": [1, 2], "q": [1, 2, 6]},
    "C5_5": {"c": [1, 2], "k": [1, 2, 4]},
    "C5_6": {},
    "C5_7": {"m": [1, 2]},
    "C6_1": {"k": [1, 2, 3]},
    "C6_2": {"t": [1, 2]},
    "C6_3": {"t": [1, 2]},
}


@pytest.mark.parametrize("family", sorted(GRIDS))
def test_expected_verdicts_and_orders_match_sweeps(family):
    reports = families.sweep(family, GRIDS[family], jobs=1)
    assert reports
    for report in reports:
        params = dict(report.parameters)
        assert report.verdict == workloads.expected_verdict(family, params), params
        if report.verdict != "skipped":
            assert [m.order for m in report.members] == workloads.member_orders(family, params)
        if report.verdict == "pass" and family.startswith("C5"):
            want = workloads.expected_energy(family, params)
            for member in report.members:
                assert member.measured_energy == pytest.approx(want), params


@pytest.mark.parametrize("n", [1, 2, 7, 62, 63, 130])
def test_graph6_encoder_matches_the_program(n):
    g = random_graph(n, 0.5, seed=n)
    assert workloads.encode_graph6(g.adjacency) == encode_graph6(g) + b"\n"


def test_inputs_depend_only_on_the_seed(tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for path, seed in ((first, 5), (second, 5), (other, 6)):
        path.mkdir()
        workloads.build("file-convert", seed, path)
    assert (first / "g.g6").read_bytes() == (second / "g.g6").read_bytes()
    assert (first / "g.g6").read_bytes() != (other / "g.g6").read_bytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_passes_its_own_checks(name, tmp_path):
    client = run.Client(cli, workloads.build(name, 11, tmp_path))
    client.passes(0)
    assert client.attempted == len(client.ops) and client.failed == 0


def test_quiet_skip_at_an_in_domain_point_counts_as_a_failure(tmp_path, monkeypatch):
    real = families.adjacency_spectrum

    def flaky(g, *args, **kwargs):
        if g.order == 27:  # a C6_1 k=4 member: in the domain, so never a skip
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(g, *args, **kwargs)

    monkeypatch.setattr(families, "adjacency_spectrum", flaky)
    client = run.Client(cli, workloads.build("sweep-grid", 11, tmp_path))
    client.passes(0)
    assert client.failed == 1 and client.failed / client.attempted > 0


@pytest.mark.parametrize("family, params", [("C5_3", {"m": 3, "t": 1}),
                                            ("C5_9", {"t": 1}), ("C6_1", {"k": 2})])
def test_uniformly_wrong_energies_are_problems(family, params):
    report = json.loads(json.dumps(families.verify(families.FamilySpec(family, params)).to_dict()))
    assert workloads._check_report(report, family, params) == []
    for member in report["members"]:  # every member off alike, so they still agree
        member["predicted_energy"] *= 1.01
        member["measured_energy"] *= 1.01
    assert len(workloads._check_report(report, family, params)) == 2 * len(report["members"])


def test_changed_output_bytes_count_as_a_failure(tmp_path, monkeypatch):
    from graphenergy import io

    real = io.write_edge_list
    monkeypatch.setattr(io, "write_edge_list", lambda g: real(g).replace("# order", "#order"))
    client = run.Client(cli, workloads.build("file-convert", 11, tmp_path))
    client.passes(0)
    assert client.failed == 1
