import json

import numpy as np
import pytest

from graphenergy import (
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    generalized_splitting,
    read_graph_text,
    star_graph,
)
from graphenergy import families
from graphenergy.cli import build_parser, main


def write_g6(path, g):
    path.write_bytes(encode_graph6(g) + b"\n")
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    return write_g6(tmp_path / "c4.g6", cycle_graph(4))


@pytest.fixture
def k3_file(tmp_path):
    return write_g6(tmp_path / "k3.g6", complete_graph(3))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGen:
    def test_complete_3_writes_graph6(self, tmp_path, capsys):
        out = tmp_path / "k3.g6"
        assert main(["gen", "complete", "3", "-o", str(out)]) == 0
        assert out.read_text() == "Bw\n"
        assert "wrote" in capsys.readouterr().err

    def test_cycle_4(self, tmp_path):
        out = tmp_path / "c4.g6"
        assert main(["gen", "cycle", "4", "-o", str(out)]) == 0
        g = decode_graph6(out.read_text().strip())
        assert g.order == 4
        assert g.edge_count == 4

    def test_union(self, tmp_path):
        out = tmp_path / "u.g6"
        assert main(["gen", "union", "complete:7", "complete:8", "-o", str(out)]) == 0
        assert decode_graph6(out.read_text().strip()).order == 15

    def test_stdout_default(self, capsys):
        assert main(["gen", "complete", "3"]) == 0
        assert capsys.readouterr().out == "Bw\n"

    def test_formats(self, tmp_path):
        out = tmp_path / "c4.mtx"
        assert main(["gen", "cycle", "4", "-o", str(out)]) == 0
        assert out.read_text().startswith("%%MatrixMarket")
        assert read_graph_text(out.read_text(), "mtx") == cycle_graph(4)

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["gen", "petersen", "5"])

    def test_bad_union_member(self, capsys):
        assert main(["gen", "union", "tree:3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_wrong_arity(self, capsys):
        assert main(["gen", "complete", "3", "4"]) == 2


class TestConstruct:
    def test_split_on_c4(self, tmp_path, c4_file):
        out = tmp_path / "s.g6"
        assert main(["construct", "split:2,2", c4_file, "-o", str(out)]) == 0
        g = decode_graph6(out.read_text().strip())
        assert g == generalized_splitting(cycle_graph(4), 2, 2)

    def test_shadow(self, tmp_path, c4_file):
        out = tmp_path / "d.g6"
        assert main(["construct", "shadow:3", c4_file, "-o", str(out)]) == 0
        assert decode_graph6(out.read_text().strip()).order == 12

    def test_kron(self, tmp_path, c4_file, k3_file):
        out = tmp_path / "k.g6"
        assert main(["construct", "kron", c4_file, "--with", k3_file, "-o", str(out)]) == 0
        assert decode_graph6(out.read_text().strip()).order == 12

    def test_kron_without_second_graph(self, c4_file, capsys):
        assert main(["construct", "kron", c4_file]) == 2
        assert "second graph" in capsys.readouterr().err

    def test_unknown_operator(self, c4_file, capsys):
        assert main(["construct", "corona:2", c4_file]) == 2

    def test_bad_arity(self, c4_file, capsys):
        assert main(["construct", "split:2", c4_file]) == 2


class TestEnergy:
    def test_oracle_energy_of_k7(self, tmp_path, capsys):
        path = write_g6(tmp_path / "k7.g6", complete_graph(7))
        code, payload = run_json(capsys, ["energy", path, "--method", "oracle"])
        assert code == 0
        assert payload["oracle_energy"] == pytest.approx(12.0, abs=1e-10)
        assert payload["formula_energy"] is None
        assert payload["order"] == 7

    def test_both_routes_on_split_of_k3(self, k3_file, capsys):
        code, payload = run_json(
            capsys, ["energy", k3_file, "--apply", "split:2,1", "--method", "both"]
        )
        assert code == 0
        assert payload["formula_energy"] == pytest.approx(16.0, abs=1e-8)
        assert payload["oracle_energy"] == pytest.approx(16.0, abs=1e-8)
        assert payload["delta"] < 1e-8
        assert payload["within_tolerance"] is True

    def test_formula_needs_apply(self, k3_file, capsys):
        assert main(["energy", k3_file, "--method", "formula"]) == 2
        assert "--apply" in capsys.readouterr().err


class TestSpectrum:
    def test_k3_values_and_multiplicities(self, k3_file, capsys):
        code, payload = run_json(capsys, ["spectrum", k3_file, "--method", "oracle"])
        assert code == 0
        assert payload["oracle"]["values"] == pytest.approx([2.0, -1.0, -1.0])
        groups = payload["oracle"]["multiplicities"]
        assert [count for _, count in groups] == [1, 2]
        assert [value for value, _ in groups] == pytest.approx([2.0, -1.0])

    def test_structured_route_matches_direct(self, c4_file, capsys):
        code, payload = run_json(
            capsys, ["spectrum", c4_file, "--apply", "shadow-split:2,2", "--method", "both"]
        )
        assert code == 0
        assert payload["within_tolerance"] is True
        assert payload["max_delta"] < 1e-8
        assert len(payload["oracle"]["values"]) == 16

    def test_apply_kron_unsupported(self, c4_file, capsys):
        assert main(["spectrum", c4_file, "--apply", "kron", "--method", "both"]) == 2


class TestVerify:
    def test_c6_2_passes(self, capsys):
        code, payload = run_json(capsys, ["verify", "C6_2", "t=1"])
        assert code == 0
        assert payload["verdict"] == "pass"
        member = payload["members"][0]
        assert member["order"] == 49
        assert member["measured_energy"] == pytest.approx(96.0, abs=1e-8)

    def test_c5_9_with_default_base(self, capsys):
        code, payload = run_json(capsys, ["verify", "C5_9", "t=1"])
        assert code == 0
        assert len(payload["members"]) == 4
        for member in payload["members"]:
            assert member["measured_energy"] == pytest.approx(72.0, abs=1e-8)

    def test_off_manifold_fails_with_nonzero_exit(self, capsys):
        code, payload = run_json(capsys, ["verify", "C5_4", "p=2", "q=5"])
        assert code == 1
        assert payload["verdict"] == "fail"
        assert payload["energies_equal"] is False

    def test_custom_base(self, k3_file, capsys):
        code, payload = run_json(capsys, ["verify", "C5_6", "--base", k3_file])
        assert code == 0
        assert payload["members"][0]["order"] == 9

    def test_base_pair(self, tmp_path, capsys):
        a = write_g6(tmp_path / "a.g6", star_graph(4))
        b = write_g6(tmp_path / "b.g6",
                     disjoint_union([cycle_graph(4), complete_graph(1)]))
        code, payload = run_json(
            capsys, ["verify", "C5_1", "p=1", "q=2", "--base", a, "--base2", b]
        )
        assert code == 0
        assert payload["verdict"] == "pass"

    def test_base_pair_only_for_c5_1(self, tmp_path, capsys):
        a = write_g6(tmp_path / "a.g6", cycle_graph(4))
        b = write_g6(tmp_path / "b.g6", cycle_graph(4))
        assert main(["verify", "C5_6", "--base", a, "--base2", b]) == 2

    def test_unknown_family(self, capsys):
        assert main(["verify", "C9_9", "t=1"]) == 2

    def test_negative_binding_value(self, capsys):
        code, payload = run_json(capsys, ["verify", "C5_2", "t=1", "m=1", "k=-1"])
        assert code == 0
        assert payload["parameters"]["k"] == -1

    def test_malformed_binding(self, capsys):
        assert main(["verify", "C6_2", "t"]) == 2

    def test_out_of_domain_is_usage_error(self, capsys):
        assert main(["verify", "C5_3", "m=1", "t=1"]) == 2

    def test_table_output(self, capsys):
        assert main(["verify", "C6_2", "t=1", "--table"]) == 0
        out = capsys.readouterr().out
        assert "C6_2 [borderenergetic]" in out
        assert "verdict: PASS" in out
        assert not out.lstrip().startswith("{")


class TestSweep:
    def test_c6_1_range(self, capsys):
        code, payload = run_json(capsys, ["sweep", "C6_1", "k=1..5", "--method", "oracle"])
        assert code == 0
        assert len(payload) == 5
        assert all(r["verdict"] == "pass" for r in payload)

    def test_value_list_ranges(self, capsys):
        code, payload = run_json(
            capsys, ["sweep", "C5_2", "t=1", "m=1", "k=-1,1", "--method", "formula"]
        )
        assert code == 0
        assert [r["parameters"]["k"] for r in payload] == [-1, 1]

    def test_failing_sweep_has_nonzero_exit(self, capsys):
        code, payload = run_json(
            capsys, ["sweep", "C5_4", "p=1..2", "q=7", "--method", "formula"]
        )
        assert code == 1
        assert {r["verdict"] for r in payload} == {"fail"}

    def test_empty_range_is_usage_error(self, capsys):
        assert main(["sweep", "C6_1", "k=3..1"]) == 2

    def test_skipped_points_do_not_fail_run(self, capsys):
        code, payload = run_json(
            capsys, ["sweep", "C5_3", "m=2..3", "t=1..2", "--method", "formula"]
        )
        assert code == 0
        assert sorted(r["verdict"] for r in payload) == ["pass", "pass", "pass", "skipped"]

    @pytest.mark.parametrize("exc", [
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        RuntimeError("solver crashed"),
    ], ids=["LinAlgError", "RuntimeError"])
    def test_error_point_fails_the_run(self, capsys, monkeypatch, exc):
        real = families.adjacency_spectrum

        def solve(g, *args, **kwargs):
            if g.order == 21:  # C6_1 k=3
                raise exc
            return real(g, *args, **kwargs)

        monkeypatch.setattr(families, "adjacency_spectrum", solve)
        code, payload = run_json(capsys, ["sweep", "C6_1", "k=1..3", "--method", "oracle"])
        assert code == 1
        assert [r["verdict"] for r in payload] == ["pass", "pass", "error"]
        assert payload[2]["error"] == f"{type(exc).__name__}: {exc}"

    @pytest.mark.parametrize("argv,message", [
        (["C6_1", "k=1..2", "--base", "{c4}"], "C6_1 constructs its own base graphs"),
        (["C5_1", "p=1", "q=1..2", "--base", "{c4}"],
         "C5_1 takes a base pair, not a single base graph"),
        (["C5_6", "--base", "{c4}", "--base2", "{c4}"],
         "only C5_1 takes a base pair (--base plus --base2)"),
    ], ids=["C6_1-base", "C5_1-single", "C5_6-pair"])
    def test_wrong_kind_of_base_is_a_usage_error(self, capsys, c4_file, argv, message):
        # checked once before the grid, as verify does: exit 2 and no
        # per-point "error" reports
        assert main(["sweep", *(a.format(c4=c4_file) for a in argv)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_jobs_flag_is_a_usage_error(self, capsys):
        # sweeps run serially; there is no worker count to set
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "C5_5", "c=1..2", "k=2..3", "--jobs", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err


class TestParser:
    # an infinite --tol passed a failing negative control; NaN failed in JSON
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["verify", "C5_4", "p=1", "q=3", "--table"],
        ["sweep", "C5_4", "p=1", "q=2..3"],
        ["energy", "{k3}", "--apply", "split:2,1"],
    ], ids=["verify", "sweep", "energy"])
    def test_tol_must_be_positive_and_finite(self, capsys, k3_file, argv, tol):
        with pytest.raises(SystemExit) as exc:
            main([a.format(k3=k3_file) for a in argv] + ["--tol", tol])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --tol: tolerance must be positive and finite" in err

    def test_one_parser_serves_every_call(self, capsys):
        build_parser.cache_clear()
        try:
            assert main(["gen", "complete", "3"]) == 0
            parser = build_parser()
            assert main(["gen", "cycle", "4"]) == 0
            assert main(["convert", "nope.g6"]) == 2
            with pytest.raises(SystemExit) as exc:
                main(["gen", "petersen", "5"])
            assert exc.value.code == 2
            with pytest.raises(SystemExit) as exc:
                main(["energy", "x.g6", "--tol", "-1"])
            assert exc.value.code == 2
            assert main(["gen", "complete", "3"]) == 0
            assert build_parser() is parser
            assert build_parser.cache_info().misses == 1
        finally:
            build_parser.cache_clear()
        assert capsys.readouterr().out == "Bw\nCl\nBw\n"


class TestConvert:
    def test_round_trip_between_formats(self, tmp_path, c4_file):
        mtx = tmp_path / "c4.mtx"
        edges = tmp_path / "c4.edges"
        back = tmp_path / "back.g6"
        assert main(["convert", c4_file, "-o", str(mtx)]) == 0
        assert main(["convert", str(mtx), "-o", str(edges)]) == 0
        assert main(["convert", str(edges), "-o", str(back)]) == 0
        assert back.read_text() == encode_graph6(cycle_graph(4)).decode() + "\n"

    def test_explicit_formats_override_extension(self, tmp_path, c4_file):
        out = tmp_path / "c4.data"
        assert main(["convert", c4_file, "-o", str(out), "--format", "edges"]) == 0
        assert read_graph_text(out.read_text(), "edges") == cycle_graph(4)

    def test_missing_file(self, capsys):
        assert main(["convert", "nope.g6"]) == 2


class TestDeterminism:
    def test_verify_output_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["verify", "C6_1", "k=2", "-o", str(a)]) == 0
        assert main(["verify", "C6_1", "k=2", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_output_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        # mixed grid: two on-manifold passes, two off-manifold fails
        args = ["sweep", "C5_5", "c=1..2", "k=2,4", "--method", "both"]
        assert main(args + ["-o", str(a)]) == 1
        assert main(args + ["-o", str(b)]) == 1
        assert a.read_bytes() == b.read_bytes()

    def test_float_formatting_full_precision(self, tmp_path, capsys):
        code, payload = run_json(capsys, ["verify", "C5_6", "--method", "both"])
        assert code == 0
        measured = payload["members"][0]["measured_energy"]
        # parsing the emitted decimal recovers the double exactly
        assert measured == pytest.approx(16.0, abs=1e-8)
