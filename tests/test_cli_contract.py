"""The command line's contract on `verify` and `sweep`, under drawn parameters.

Whatever the parameters, no exception escapes `cli.main`: exit 0 or 1 prints
one JSON document and nothing on stderr, exit 2 prints nothing on stdout and
one `error:` line on stderr. A parameter too large for a float, or for the
square of one, is refused by the dense cap like any other point over it: a
sweep point whose planned order exceeds the cap is `skipped`, never `error`,
and `verify` of it exits 2 naming the cap. The draw is derandomized, so the
sample is the same on every run.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy import OPERATORS
from graphenergy.cli import main
from graphenergy.families import FAMILIES, METHODS, family_ids

CAP = 200
STOCK_ORDERS = {"C5_1": 5}  # the 4-leaf star and C4 + K1; every other stock base is C4
# small values, both sides of the cap over a C4 base and of the cap itself, and
# values too large for an int64, a float's square and a float
VALUES = [-1, 0, 1, 2, CAP // 4 - 1, CAP // 4, CAP // 4 + 1, CAP - 1, CAP, CAP + 1,
          10 ** 18, 10 ** 160, 10 ** 400]


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

    code, out, _ = run(["sweep", family_id, *(f"{n}={','.join(map(str, v))}"
                                              for n, v in grid.items()), "--method", method])
    assert code in (0, 1)
    for report in json.loads(out):
        orders = planned_orders(family_id, report["parameters"])
        if orders is not None and max(orders) > CAP:
            assert report["verdict"] == "skipped", report
            assert f"exceeding the dense cap of {CAP} " in report["error"]
        assert report["verdict"] != "error", report

    point = {name: values[0] for name, values in grid.items()}
    code, _, err = run(["verify", family_id, *(f"{n}={v}" for n, v in point.items()),
                        "--method", method])
    orders = planned_orders(family_id, point)
    if orders is not None and max(orders) > CAP:
        assert code == 2 and f"exceeding the dense cap of {CAP} " in err, err
