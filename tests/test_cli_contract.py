"""The command line's contract on `verify`, `sweep`, `energy --apply` and
`spectrum --apply`, under drawn parameters.

Whatever the parameters, no exception escapes `cli.main`: exit 0 or 1 prints
one JSON document and nothing on stderr, exit 2 prints nothing on stdout and
one `error:` line on stderr. A parameter too large for a float, or for the
square of one, is refused by the dense cap like any other point over it: a
sweep point whose planned order exceeds the cap is `skipped`, never `error`,
and `verify` of it exits 2 naming the cap. A one-value sweep binding is
spelt as a list or as a one-value range. Each draw also runs one extra sweep
with a binding the parser refuses by name: a reversed range, or one of more
values than a list can hold. `energy --apply` and `spectrum --apply` of
each command-line operator on C4 exit 0 with `order_matches` true under the
cap, and 2 naming the cap above it or naming the operator for a parameter
below 1. The draw is derandomized, so the sample is the same on every run.
"""

import contextlib
import io
import itertools
import json
import os
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import OPERATORS, cycle_graph, encode_graph6
from graphenergy.cli import main
from graphenergy.families import FAMILIES, METHODS, family_ids

CAP = 200
STOCK_ORDERS = {"C5_1": 5}  # the 4-leaf star and C4 + K1; every other stock base is C4
# small values, both sides of the cap over a C4 base and of the cap itself, and
# values too large for an int64, a float's square and a float
VALUES = [-1, 0, 1, 2, CAP // 4 - 1, CAP // 4, CAP // 4 + 1, CAP - 1, CAP, CAP + 1,
          10 ** 18, 10 ** 160, 10 ** 400]
# a refused binding's spelling from its first drawn value, and its message.
# A range of 10**19 values is refused before it is allocated; no width from
# 10**6 to sys.maxsize is drawn, because such a range is materialized before
# its first point runs
REFUSED = {
    "reversed": (lambda value: f"{value + 1}..{value}", "empty range {!r}"),
    "wide": (lambda value: f"{value}..{value + 10 ** 19 - 1}",
             f"range {{!r}} holds more than {sys.maxsize} values"),
}


def planned_orders(family_id: str, params: dict[str, int]) -> list[int] | None:
    """The orders of the base union and the members an in-domain point plans,
    or None out of the family's domain."""
    family = FAMILIES[family_id]
    if family.domain(**params) is not None:
        return None
    if family.complete_parts is not None:
        parts = family.complete_parts(**params)
        base = sum(n * r for n, r in parts)
        bases = [r for _, r in parts] + [base]
    else:
        base = STOCK_ORDERS.get(family_id, 4)
        bases = []
    return bases + [OPERATORS[name].dimension(*args) * base
                    for name, *args in family.members(**params)]


def run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"SPECTRAL_MAX_ORDER": str(CAP)}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    else:
        assert err == "", argv
        json.loads(out)
    return code, out, err


@pytest.mark.parametrize("family_id", family_ids())
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_and_sweep_keep_the_contract(family_id, data):
    names = FAMILIES[family_id].param_names
    method = data.draw(st.sampled_from(METHODS))
    grid = {name: data.draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=2,
                                     unique=True)) for name in names}
    bindings = {name: f"{name}={values[0]}..{values[0]}"
                if len(values) == 1 and data.draw(st.booleans())
                else f"{name}={','.join(map(str, values))}" for name, values in grid.items()}

    code, out, _ = run(["sweep", family_id, *bindings.values(), "--method", method])
    assert code in (0, 1)
    for report in json.loads(out):
        orders = planned_orders(family_id, report["parameters"])
        if orders is not None and max(orders) > CAP:
            assert report["verdict"] == "skipped", report
            assert f"exceeding the dense cap of {CAP} " in report["error"]
        assert report["verdict"] != "error", report

    if names:
        name = data.draw(st.sampled_from(names))
        spell, message = REFUSED[data.draw(st.sampled_from(sorted(REFUSED)))]
        refused = {**bindings, name: f"{name}={spell(grid[name][0])}"}
        code, _, err = run(["sweep", family_id, *refused.values(), "--method", method])
        assert (code, err) == (2, f"error: {message.format(refused[name])}\n")

    point = {name: values[0] for name, values in grid.items()}
    code, _, err = run(["verify", family_id, *(f"{n}={v}" for n, v in point.items()),
                        "--method", method])
    orders = planned_orders(family_id, point)
    if orders is not None and max(orders) > CAP:
        assert code == 2 and f"exceeding the dense cap of {CAP} " in err, err


@pytest.fixture(scope="module")
def c4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "c4.g6"
    path.write_bytes(encode_graph6(cycle_graph(4)) + b"\n")
    return str(path)


def apply_points(name: str) -> dict[str, list[tuple[int, ...]]]:
    """Every tuple of `VALUES` as the operator's parameters, by what applying
    it to C4 must do: "below" when a parameter is < 1, "over" when the
    member's order exceeds the cap, else "in"."""
    op, points = OPERATORS[name], {"below": [], "over": [], "in": []}
    for args in itertools.product(VALUES, repeat=len(op.params)):
        kind = ("below" if min(args) < 1 else "over" if op.dimension(*args) * 4 > CAP
                else "in")
        points[kind].append(args)
    return points


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", [op.name for op in OPERATORS.values() if op.cli])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_energy_and_spectrum_apply_keep_the_contract(c4_file, name, method, data):
    for kind, points in apply_points(name).items():
        args = data.draw(st.sampled_from(points))
        command = data.draw(st.sampled_from(["energy", "spectrum"]))
        code, out, err = run([command, c4_file, "--apply", f"{name}:{','.join(map(str, args))}",
                              "--method", method])
        if kind == "below":
            assert (code, err.startswith(f"error: {name} needs ")) == (2, True), err
        elif kind == "over":
            assert code == 2 and f"exceeding the dense cap of {CAP} " in err, err
        else:
            assert (code, json.loads(out)["order_matches"]) == (0, True), out
