import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graphenergy import (
    OPERATORS,
    Spectrum,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    generalized_splitting,
    random_graph,
    read_graph_text,
    star_graph,
)
import graphenergy
from graphenergy import families, operators
from graphenergy.cli import build_parser, main
from graphenergy.operators import Operator

from conftest import split_with_one_zero_too_many, with_wrong_factor
from spectral_reference import twin_classes


# parameters too large for a float (10**400) or for the square of one (10**160)
BIG, HUGE = 10 ** 400, 10 ** 160
# the dense cap's message for the first member of each family's point above
OVER_CAP = {
    "C5_4": f"splitting(p={BIG},q=1) would have order {4 * (BIG + 1)}",
    "C5_8": f"splitting(p={3 * HUGE + 1},q={12 * HUGE + 2}) would have order {60 * HUGE + 12}",
}
CAP_100 = ", exceeding the dense cap of 100 (raise SPECTRAL_MAX_ORDER to override)"


def write_g6(path, g):
    path.write_bytes(encode_graph6(g) + b"\n")
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    return write_g6(tmp_path / "c4.g6", cycle_graph(4))


@pytest.fixture
def k3_file(tmp_path):
    return write_g6(tmp_path / "k3.g6", complete_graph(3))


def run_module(argv, **env):
    """`python -m graphenergy *argv` in a new process whose environment adds
    `env`, so the package is imported under it; the process imports the
    graphenergy source these tests imported."""
    source = str(Path(graphenergy.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [source] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "graphenergy", *argv], env=env,
                          capture_output=True, text=True)


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

    @pytest.mark.parametrize("spec", ["split:2,1", "shadow-split:1,1", "shadow:2",
                                      "splitting:1"])
    def test_with_is_refused_for_a_table_operator_before_any_file_is_read(self, tmp_path,
                                                                          capsys, spec):
        missing = str(tmp_path / "missing.g6")
        assert main(["construct", spec, missing, "--with", missing]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --with applies only to kron\n"

    def test_unknown_operator(self, c4_file, capsys):
        assert main(["construct", "corona:2", c4_file]) == 2

    def test_bad_arity(self, c4_file, capsys):
        assert main(["construct", "split:2", c4_file]) == 2

    def test_help_names_every_operator_with_its_arity(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one help line, no hyphen breaks
        with pytest.raises(SystemExit):
            main(["construct", "--help"])
        line = next(t for t in capsys.readouterr().out.splitlines() if "operator spec:" in t)
        named = {name: len(args.split(",")) if args else 0
                 for name, _, args in (s.partition(":") for s in line.split("spec:")[1].split())}
        cli = {op.name: len(op.params) for op in OPERATORS.values() if op.cli}
        assert named == cli | {"kron": 0}


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

    @pytest.mark.parametrize("method", ["formula", "both"])
    def test_zeros_are_printed_unsigned(self, c4_file, capsys, method):
        # the rank-2 coefficient matrix makes 0 * negative products, each -0.0
        argv = ["spectrum", c4_file, "--apply", "shadow-split:2,3", "--method", method]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0.0," in out
        assert "-0.0" not in out


class TestMemberCheck:
    """`energy --apply` and `spectrum --apply` check one member: each fails
    on a fault in the closed forms by far more than rounding, and each builds
    the member once and eigensolves each graph a route reads once."""

    def test_a_wrong_factor_fails_energy(self, monkeypatch, k3_file, capsys):
        monkeypatch.setitem(OPERATORS, "split", with_wrong_factor(OPERATORS["split"]))
        code, payload = run_json(capsys, ["energy", k3_file, "--apply", "split:2,1",
                                          "--tol", "1e-9"])
        assert (code, payload["within_tolerance"]) == (1, False)
        assert payload["delta"] == pytest.approx(16e-6)
        assert list(payload) == ["command", "input", "applied", "order", "edge_count", "method",
                                 "formula_energy", "oracle_energy", "delta", "tolerance",
                                 "within_tolerance"]
        assert payload["tolerance"] == 1e-9

    def test_wrong_closed_eigenvalues_fail_spectrum(self, monkeypatch, k3_file, capsys):
        class WrongFloats(Operator):  # C's float eigenvalues, each wrong in the 7th digit
            def coefficient_spectrum(self, *args: int) -> Spectrum:
                return Spectrum(super().coefficient_spectrum(*args).values * (1 + 1e-6))

        monkeypatch.setitem(OPERATORS, "split", WrongFloats(**vars(OPERATORS["split"])))
        code, payload = run_json(capsys, ["spectrum", k3_file, "--apply", "split:2,1",
                                          "--tol", "1e-9"])
        assert (code, payload["within_tolerance"]) == (1, False)
        assert payload["max_delta"] == pytest.approx(4e-6)  # of the product 2 * 2
        assert list(payload) == ["command", "input", "applied", "order", "method", "oracle",
                                 "formula", "max_delta", "tolerance", "within_tolerance"]
        assert payload["tolerance"] == 1e-9
        for route in ("oracle", "formula"):
            assert list(payload[route]) == ["values", "multiplicities"]
            assert sum(count for _, count in payload[route]["multiplicities"]) == 9

    def test_spectra_of_unequal_lengths_fail_spectrum(self, monkeypatch, c4_file, capsys):
        # the closed spectrum states 16 values for the member's 12 vertices
        monkeypatch.setitem(OPERATORS, "split", split_with_one_zero_too_many())
        assert main(["spectrum", c4_file, "--apply", "split:2,1"]) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert (payload["within_tolerance"], payload["max_delta"], err) == (False, None, "")
        assert [len(payload[route]["values"]) for route in ("formula", "oracle")] == [16, 12]

    # shadow:1 builds a copy of the base: the member the command built is
    # solved directly, not looked up, so under both that content is solved twice
    @pytest.mark.parametrize("spec", ["split:2,1", "shadow-split:2,3", "shadow:3", "shadow:1",
                                      "splitting:2"])
    @pytest.mark.parametrize("command", ["energy", "spectrum"])
    @pytest.mark.parametrize("method", families.METHODS)
    def test_one_build_and_one_eigensolve_per_route(self, monkeypatch, capsys,
                                                     c4_file, spec, command, method):
        name, _, argtext = spec.partition(":")
        args = tuple(int(a) for a in argtext.split(","))
        op, base = OPERATORS[name], cycle_graph(4)
        member = op.build(base, *args)
        builds, solved = [], []
        real_solve = families.adjacency_spectrum

        def build(g, *params):
            builds.append(params)
            return op.build(g, *params)

        def solve(g, *args, **kwargs):
            solved.append(g)
            return real_solve(g, *args, **kwargs)

        monkeypatch.setitem(OPERATORS, name, replace(op, build=build))
        monkeypatch.setattr(families, "adjacency_spectrum", solve)
        assert main([command, c4_file, "--apply", spec, "--method", method]) == 0
        capsys.readouterr()
        assert builds == [args]
        assert solved == {"formula": [base], "oracle": [member], "both": [base, member]}[method]


class TestEigensolveWork:
    """The orders of the dense eigensolves behind three commands. They are
    exact, so a change to them is a change to the quotient rule or the memo,
    not noise: each diagonal block of a block-twin class is solved once, by
    content, and the block step is taken whenever its quotient is smaller."""

    @pytest.fixture
    def orders(self, monkeypatch):
        orders, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kwargs: orders.append(a.shape[0])
                            or real(a, *args, **kwargs))
        return orders

    @staticmethod
    def twin_free_file(tmp_path, order):
        g = random_graph(order, 0.5, seed=order)
        assert len(twin_classes(g)) == order
        return write_g6(tmp_path / f"r{order}.g6", g)

    def test_energy_solves_the_base_once(self, tmp_path, capsys, orders):
        # split(2, 1) is twin-free: its order-120 block quotient takes the
        # base's spectrum, which the formula route solved, from the memo
        path = self.twin_free_file(tmp_path, 60)
        code, _ = run_json(capsys, ["energy", path, "--apply", "split:2,1", "--method", "both"])
        assert (code, orders) == (0, [60, 120])

    def test_a_split_member_with_vertex_twins_takes_the_block_step(self, tmp_path, capsys,
                                                                   orders):
        # split(4, 14) of the base: its false-twin quotient has order 200, its
        # block quotient order 80, whose zero diagonal block is solved at order 1
        path = self.twin_free_file(tmp_path, 40)
        code, payload = run_json(capsys, ["verify", "C5_8", "m=1", "--base", path])
        assert (code, payload["verdict"]) == (0, "pass")
        assert sorted(orders) == [1, 40, 80, 80]

    def test_a_c6_1_sweep_solves_nothing_above_order_6(self, capsys, orders):
        code, payload = run_json(capsys, ["sweep", "C6_1", "k=1..8"])
        assert code == 0 and len(payload) == 8
        assert max(orders) == 6


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

    def test_c5_1_out_of_domain_is_usage_error(self, capsys):
        assert main(["verify", "C5_1", "p=0", "q=1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: C5_1 needs p,q >= 1, got p=0, q=1\n"

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

    # 10**19 values, and sys.maxsize + 1, the fewest refused: a range of
    # sys.maxsize values would be allocated, so none is run
    @pytest.mark.parametrize("binding", ["m=1..10000000000000000000", f"m=0..{sys.maxsize}"])
    def test_a_range_too_long_for_a_list_is_refused_by_name(self, monkeypatch, capsys, binding):
        monkeypatch.setattr(families, "sweep", lambda *args, **kwargs: pytest.fail("swept"))
        assert main(["sweep", "C5_8", binding, "--method", "formula"]) == 2
        message = f"range {binding!r} holds more than {sys.maxsize} values"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_c5_1_skips_p_zero(self, capsys):
        code, payload = run_json(capsys, ["sweep", "C5_1", "p=0..1", "q=1"])
        assert code == 0
        assert [r["verdict"] for r in payload] == ["skipped", "pass"]
        assert payload[0]["error"] == "C5_1 needs p,q >= 1, got p=0, q=1"

    def test_skipped_points_do_not_fail_run(self, capsys):
        code, payload = run_json(
            capsys, ["sweep", "C5_3", "m=2..3", "t=1..2", "--method", "formula"]
        )
        assert code == 0
        assert sorted(r["verdict"] for r in payload) == ["pass", "pass", "pass", "skipped"]

    @pytest.mark.parametrize("argv,params", [
        (["C5_4", f"p={BIG}", "q=1"], {"p": BIG, "q": 1}),
        (["C5_8", f"m={HUGE}", "--method", "formula"], {"m": HUGE}),
    ], ids=["C5_4-10**400", "C5_8-10**160-formula"])
    def test_a_parameter_too_large_for_a_float_is_a_skipped_point(self, capsys, monkeypatch,
                                                                  argv, params):
        # the order of C is an exact int at any parameter size, so the dense
        # cap refuses the point before anything takes a float square root
        monkeypatch.setenv("SPECTRAL_MAX_ORDER", "100")
        code, payload = run_json(capsys, ["sweep", *argv])
        assert code == 1
        assert [(r["verdict"], r["parameters"]) for r in payload] == [("skipped", params)]
        assert payload[0]["error"] == OVER_CAP[argv[0]] + CAP_100

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

    @pytest.mark.parametrize("value,message", [
        ("abc", "SPECTRAL_MAX_ORDER must be a positive integer, got 'abc'"),
        ("0", "SPECTRAL_MAX_ORDER must be >= 1, got 0"),
    ], ids=["abc", "0"])
    @pytest.mark.parametrize("argv", [["sweep", "C6_1", "k=1..2"], ["verify", "C6_1", "k=1"]],
                             ids=["sweep", "verify"])
    def test_malformed_cap_setting_is_a_usage_error(self, capsys, monkeypatch, argv, value,
                                                    message):
        # a sweep used to report the setting once per point as an "error"
        monkeypatch.setenv("SPECTRAL_MAX_ORDER", value)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value,argv,code,err", [
        ("abc", ["verify", "C6_1", "k=1"], 2,
         "error: SPECTRAL_MAX_ORDER must be a positive integer, got 'abc'\n"),
        ("3", ["energy", "{k3}", "--method", "oracle"], 0, ""),
    ], ids=["malformed", "below-the-stock-orders"])
    def test_the_cap_setting_is_read_only_when_a_command_needs_it(self, k3_file, value, argv,
                                                                  code, err):
        # importing the package builds no graph, so the stock bases (orders 4
        # and 5) and the cap setting wait until a command needs them
        child = run_module([a.format(k3=k3_file) for a in argv], SPECTRAL_MAX_ORDER=value)
        assert (child.returncode, child.stderr) == (code, err)
        if code == 0:
            assert json.loads(child.stdout)["oracle_energy"] == pytest.approx(4.0, abs=1e-10)

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

    @pytest.mark.parametrize("exc,detail", [
        (MemoryError("Unable to allocate 7.45 GiB for an array"),
         "Unable to allocate 7.45 GiB for an array"),
        (MemoryError(), "an allocation failed"),
    ], ids=["numpy-message", "bare"])
    @pytest.mark.parametrize("argv", [
        ["verify", "C5_4", "p=1", "q=2", "--method", "oracle"],
        ["energy", "{k3}", "--apply", "split:2,1"],
        ["construct", "split:2,1", "{k3}"],
    ], ids=["verify", "energy", "construct"])
    def test_out_of_memory_exits_2_with_one_line(self, capsys, monkeypatch, k3_file, argv,
                                                 exc, detail):
        def build(*args):
            raise exc

        monkeypatch.setattr(operators, "generalized_splitting", build)
        assert main([a.format(k3=k3_file) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: out of memory: {detail}\n"

    @pytest.mark.parametrize("argv,message", [
        (["construct", f"split:{BIG},1", "{c4}"],
         f"splitting(p={BIG},q=1) would have order {4 * (BIG + 1)}"),
        (["energy", "{c4}", "--apply", f"shadow-split:1,{BIG}"],
         f"shadow-splitting(c=1,k={BIG}) would have order {4 * (BIG + 1)}"),
        (["verify", "C5_4", f"p={BIG}", "q=1"], OVER_CAP["C5_4"]),
        (["verify", "C5_8", f"m={HUGE}", "--method", "formula"], OVER_CAP["C5_8"]),
    ], ids=["construct", "energy", "verify", "verify-C5_8-formula"])
    def test_a_parameter_too_large_for_a_float_exits_2_with_one_line(self, capsys, monkeypatch,
                                                                      c4_file, argv, message):
        # the order of C is an exact int, so the one line is the dense cap's
        monkeypatch.setenv("SPECTRAL_MAX_ORDER", "100")
        assert main([a.format(c4=c4_file) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}{CAP_100}\n"

    @pytest.mark.parametrize("argv,message", [
        (["gen", "union"], "union needs at least one member spec, e.g. complete:7"),
        (["gen", "union", "complete:1:2"],
         "generator complete takes 1 size argument(s), got 'complete:1:2'"),
        (["verify", "C5_4", "p=1", "p=2"], "duplicate parameter 'p'"),
        (["sweep", "C5_4", "p=1", "p=2", "q=1"], "duplicate parameter 'p'"),
        (["sweep", "C5_4", "p1..3", "q=1"],
         "range binding must look like name=RANGE, got 'p1..3'"),
    ], ids=["union-empty", "union-arity", "verify-duplicate", "sweep-duplicate", "sweep-range"])
    def test_malformed_arguments_exit_2_with_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    # each pair is checked and parsed before the next: the first faulty pair's
    # message wins over a later pair's duplicate name or malformed shape
    @pytest.mark.parametrize("argv,message", [
        (["verify", "C5_4", "p=x", "p=1"], "invalid literal for int() with base 10: 'x'"),
        (["verify", "C5_4", "q", "p=x", "p=1"],
         "parameter binding must look like name=value, got 'q'"),
        (["verify", "C5_4", "p=1", "p=2", "=3"], "duplicate parameter 'p'"),
        (["sweep", "C5_4", "p=3..1", "p=1", "q=1"], "empty range 'p=3..1'"),
        (["sweep", "C5_4", "p=1,x", "p", "q=1"], "invalid literal for int() with base 10: 'x'"),
        (["sweep", "C5_4", "p=1", "p=2..1", "q"], "duplicate parameter 'p'"),
    ], ids=["verify-value", "verify-shape", "verify-duplicate", "sweep-empty", "sweep-value",
            "sweep-duplicate"])
    def test_the_first_faulty_binding_is_the_one_reported(self, capsys, argv, message):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

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
