"""Golden CLI outputs: byte-exact stdout, stderr and exit code per invocation.

`cli_golden.json` holds what each case in `CASES` printed when the file was
recorded, and a truncated SHA-256 of the graph6 bytes of every member that
`instantiate_family` builds for each spec in `LAYOUT_SPECS`. The cases cover
`verify` on every family (JSON and `--table`), `sweep` on every family with
passes, failures, out-of-domain skips and over-cap skips (the cap forced with
SPECTRAL_MAX_ORDER), `construct`, `energy --apply` and `spectrum --apply` for
every CLI operator, and the operator error messages. Input files are written
to a temporary directory; its path reads `{tmp}` in the recorded text.

The recorded floats carry LAPACK's last bits, which depend on the SIMD kernel
OpenBLAS picks for the CPU and on its thread count. So every case runs in one
child process, `python tests/test_cli_golden.py --print`, under `PINNED_BLAS`:
the SSE3 kernel, which any x86-64 runner executes, on one thread. The child puts
the graphenergy package this module imported first on its path, so it runs
the same source as the tests. The layout digests do not touch BLAS and are
taken in-process.

Regenerate the file with `PYTHONPATH=src python tests/test_cli_golden.py`
only when an output is meant to change; it records the cases through the same
child and prints to stderr the ids of the cases the re-record added, removed
or changed, and whether the layouts changed. For a changed case it also says
whether only numbers changed, and by how much at most, so that a re-record
that moves last digits can be audited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import graphenergy
from graphenergy import (
    FamilySpec,
    canonical_equienergetic_pair,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    path_graph,
    random_graph,
)
from graphenergy.cli import main
from graphenergy.graphs import MAX_ORDER_ENV_VAR

from conftest import instantiate_family

GOLDEN = Path(__file__).with_name("cli_golden.json")

# the OpenBLAS kernel and thread count every recorded case runs under
PINNED_BLAS = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}

# name -> graph written to {tmp}/<name>.g6
INPUTS = {
    "c4": cycle_graph(4),
    "k3": complete_graph(3),
    "r6": random_graph(6, 0.5, seed=11),
    "star": canonical_equienergetic_pair()[0],
    "c4k1": canonical_equienergetic_pair()[1],
    "p5": path_graph(5),
    "k4": complete_graph(4),
}

VERIFY_POINTS = [
    ["C5_1", "p=1", "q=2"],
    ["C5_1", "p=2", "q=1", "--base", "{r6}", "--base2", "{r6}"],
    ["C5_1", "p=1", "q=1", "--base", "{c4k1}", "--base2", "{p5}"],
    ["C5_2", "t=1", "m=1", "k=1"],
    ["C5_2", "t=1", "m=1", "k=-1"],
    ["C5_3", "m=2", "t=1"],
    ["C5_3", "m=2", "t=1", "--base", "{r6}"],
    ["C5_4", "p=1", "q=2"],
    ["C5_4", "p=2", "q=5"],
    ["C5_5", "c=1", "k=2"],
    ["C5_5", "c=2", "k=3", "--base", "{r6}"],
    ["C5_6"],
    ["C5_6", "--base", "{k3}"],
    ["C5_7", "m=1"],
    ["C5_7", "m=1", "--base", "{r6}"],
    ["C5_8", "m=1"],
    ["C5_9", "t=1"],
    ["C5_9", "t=1", "--base", "{k3}"],
    ["C6_1", "k=1"],
    ["C6_1", "k=2"],
    ["C6_2", "t=1"],
    ["C6_3", "t=1"],
]

# (argv after "sweep", SPECTRAL_MAX_ORDER or None)
SWEEP_POINTS = [
    (["C5_1", "p=1..2", "q=1..2"], None),
    (["C5_1", "p=1", "q=1..3", "--base", "{c4k1}", "--base2", "{star}"], "16"),
    (["C5_1", "p=1", "q=1", "--base", "{k3}", "--base2", "{c4}"], None),
    (["C5_1", "p=1", "q=1..2", "--base", "{c4k1}", "--base2", "{p5}"], None),
    (["C5_2", "t=0..2", "m=1", "k=-1,1"], "900"),
    (["C5_3", "m=1..4", "t=1..2"], "70"),
    (["C5_4", "p=0..2", "q=2..6"], "24"),
    (["C5_5", "c=0..2", "k=1..4", "--base", "{r6}"], "36"),
    (["C5_6"], None),
    (["C5_6"], "11"),
    (["C5_6", "--base", "{r6}"], None),
    (["C5_7", "m=0..3"], "80"),
    (["C5_8", "m=0..2"], "100"),
    (["C5_9", "t=0..2"], "100"),
    (["C5_9", "t=1", "--base", "{r6}"], None),
    (["C6_1", "k=0..3"], "60"),
    (["C6_2", "t=0..2"], "100"),
    (["C6_3", "t=0..2"], "200"),
]

CLI_OPERATORS = ["split:2,2", "split:1,3", "shadow-split:2,3", "shadow-split:1,1",
                 "shadow:3", "shadow:1", "splitting:2", "splitting:1"]

OPERATOR_ERRORS = [
    ["construct", "corona:2", "{c4}"],
    ["construct", "split:2", "{c4}"],
    ["construct", "split:1,2,3", "{c4}"],
    ["construct", "shadow-split:2", "{c4}"],
    ["construct", "shadow:1,2", "{c4}"],
    ["construct", "splitting", "{c4}"],
    ["construct", "kron:1", "{c4}", "--with", "{k3}"],
    ["construct", "split:a,b", "{c4}"],
    ["construct", "split:0,1", "{c4}"],
    ["construct", "shadow-split:1,0", "{c4}"],
    ["construct", "shadow:0", "{c4}"],
    ["construct", "splitting:0", "{c4}"],
    ["construct", "kron", "{c4}"],
    ["energy", "{c4}", "--apply", "kron"],
    ["energy", "{c4}", "--apply", "kron", "--method", "oracle"],
    ["spectrum", "{c4}", "--apply", "kron"],
    ["energy", "{c4}", "--apply", "corona:1"],
    ["spectrum", "{c4}", "--apply", "shadow:1,1"],
    ["energy", "{c4}", "--apply", "split:0,2"],
    ["energy", "{c4}", "--method", "formula"],
    ["spectrum", "{c4}", "--method", "both"],
    ["verify", "C6_1", "k=1", "--base", "{c4}"],
    ["verify", "C5_1", "p=1", "q=1", "--base", "{c4}"],
    ["verify", "C5_6", "--base", "{c4}", "--base2", "{c4}"],
    ["verify", "C6_2", "t=1", "--base", "{c4}", "--base2", "{c4}"],
    ["verify", "C5_6", "--base2", "{c4}"],
    ["verify", "C5_3", "m=1", "t=1"],
    ["verify", "C5_2", "t=1", "m=1"],
    ["sweep", "C5_2", "t=1", "m=1"],
    ["sweep", "C6_1", "k=3..1"],
]

# (SPECTRAL_MAX_ORDER, argv): each builder's own over-cap message
OVER_CAP = [
    ("15", ["construct", "split:2,2", "{c4}"]),
    ("15", ["construct", "shadow-split:2,3", "{c4}"]),
    ("11", ["construct", "shadow:3", "{c4}"]),
    ("11", ["construct", "splitting:2", "{c4}"]),
    ("11", ["construct", "kron", "{c4}", "--with", "{k3}"]),
    ("11", ["energy", "{c4}", "--apply", "splitting:2", "--method", "oracle"]),
    ("11", ["spectrum", "{c4}", "--apply", "shadow:3"]),
]


def _cases() -> list[tuple[str, list[str], str | None]]:
    """(id, argv, SPECTRAL_MAX_ORDER or None) for every recorded invocation."""
    cases = []
    for point in VERIFY_POINTS:
        for extra in ([], ["--table"]):
            cases.append(["verify", *point, *extra])
    cases.append(["verify", "C5_8", "m=1", "--method", "formula"])
    cases.append(["verify", "C5_9", "t=1", "--method", "oracle", "--table"])
    cases.append(["verify", "C5_4", "p=2", "q=5", "--method", "oracle"])
    out = [(" ".join(argv), argv, None) for argv in cases]
    for point, cap in SWEEP_POINTS:
        for extra in ([], ["--table"]):
            argv = ["sweep", *point, *extra]
            out.append((" ".join(argv) + (f" [cap {cap}]" if cap else ""), argv, cap))
    for argv in (["sweep", "C5_5", "c=1..2", "k=2,4", "--method", "formula"],
                 ["sweep", "C5_1", "p=0..1", "q=1"]):
        out.append((" ".join(argv), argv, None))
    for spec in CLI_OPERATORS:
        for base in ("{c4}", "{r6}"):
            for argv in (["construct", spec, base],
                         ["energy", base, "--apply", spec],
                         ["energy", base, "--apply", spec, "--method", "formula"],
                         ["spectrum", base, "--apply", spec],
                         ["spectrum", base, "--apply", spec, "--method", "formula"]):
                out.append((" ".join(argv), argv, None))
    for argv in (["construct", "kron", "{c4}", "--with", "{k3}"],
                 ["construct", "kron", "{r6}", "--with", "{c4}"],
                 ["construct", "split:2,1", "{r6}", "--format", "mtx"],
                 ["construct", "shadow:2", "{r6}", "-o", "{tmp}/out.edges"],
                 ["energy", "{r6}", "--method", "oracle"],
                 ["spectrum", "{r6}", "--method", "oracle"]):
        out.append((" ".join(argv), argv, None))
    for argv in OPERATOR_ERRORS:
        out.append((" ".join(argv), argv, None))
    for cap, argv in OVER_CAP:
        out.append((" ".join(argv) + f" [cap {cap}]", argv, cap))
    return out


LAYOUT_SPECS = [
    FamilySpec("C5_1", {"p": 2, "q": 3}),
    FamilySpec("C5_1", {"p": 1, "q": 2}, base_pair=(random_graph(5, 0.5, seed=3),
                                                   random_graph(5, 0.6, seed=4))),
    FamilySpec("C5_2", {"t": 1, "m": 1, "k": -1}),
    FamilySpec("C5_3", {"m": 2, "t": 1}),
    FamilySpec("C5_4", {"p": 2, "q": 3}),
    FamilySpec("C5_5", {"c": 2, "k": 1}),
    FamilySpec("C5_6", {}),
    FamilySpec("C5_7", {"m": 1}),
    FamilySpec("C5_8", {"m": 1}),
    FamilySpec("C5_9", {"t": 1}),
    FamilySpec("C6_1", {"k": 2}),
    FamilySpec("C6_2", {"t": 1}),
    FamilySpec("C6_3", {"t": 1}),
]
LAYOUT_BASES = {
    "r5": random_graph(5, 0.5, seed=5),
    "p3+k2": disjoint_union([path_graph(3), complete_graph(2)]),
}


def _layout_specs() -> list[tuple[str, FamilySpec]]:
    """Every catalog spec, plus each single-base family on two asymmetric bases
    (so a permuted vertex layout changes the bytes)."""
    out = []
    for spec in LAYOUT_SPECS:
        params = " ".join(f"{k}={v}" for k, v in spec.parameters.items())
        label = "pair" if spec.base_pair is not None else "default"
        out.append((f"{spec.corollary_id} {params} [{label}]", spec))
        if spec.corollary_id[:2] == "C5" and spec.corollary_id != "C5_1":
            for name, base in LAYOUT_BASES.items():
                out.append((f"{spec.corollary_id} {params} [{name}]",
                            FamilySpec(spec.corollary_id, spec.parameters, base=base)))
    return out


def layout_digests() -> dict[str, list[str]]:
    return {
        label: [hashlib.sha256(encode_graph6(g)).hexdigest()[:16]
                for g in instantiate_family(spec)]
        for label, spec in _layout_specs()
    }


@contextlib.contextmanager
def _max_order(cap: str | None):
    saved = os.environ.get(MAX_ORDER_ENV_VAR)
    if cap is not None:
        os.environ[MAX_ORDER_ENV_VAR] = cap
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(MAX_ORDER_ENV_VAR, None)
        else:
            os.environ[MAX_ORDER_ENV_VAR] = saved


def write_inputs(directory: Path) -> None:
    for name, g in INPUTS.items():
        (directory / f"{name}.g6").write_bytes(encode_graph6(g) + b"\n")


def run_case(directory: Path, argv: list[str], cap: str | None) -> dict:
    """Run one invocation in-process; paths under `directory` read `{tmp}`."""
    tmp = str(directory)
    names = {name: f"{tmp}/{name}.g6" for name in INPUTS}
    concrete = [a.replace("{tmp}", tmp).format(**names) if "{" in a else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with _max_order(cap), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(concrete)
        except SystemExit as exc:
            code = exc.code
    written = Path(tmp, "out.edges")
    result = {
        "exit": code,
        "stdout": stdout.getvalue().replace(tmp, "{tmp}"),
        "stderr": stderr.getvalue().replace(tmp, "{tmp}"),
    }
    if written.exists():
        result["written"] = written.read_text()
        written.unlink()
    return result


def record_cases(directory: Path) -> dict:
    write_inputs(directory)
    return {case_id: {"argv": argv, "cap": cap, **run_case(directory, argv, cap)}
            for case_id, argv, cap in _cases()}


def pinned_cases() -> dict:
    """Every case, recorded by one child process under `PINNED_BLAS`."""
    source = str(Path(graphenergy.__file__).resolve().parent.parent)
    env = dict(os.environ, **PINNED_BLAS, PYTHONPATH=os.pathsep.join(
        [source] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.run([sys.executable, __file__, "--print"], env=env,
                           capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"the golden child exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout)


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def numeric_change(old: dict, new: dict) -> float | None:
    """The largest absolute difference between the numbers of two recordings
    of one case, or None if anything else differs: a byte outside a number,
    the count of numbers, or a value that is not text (the exit code)."""
    if old.keys() != new.keys():
        return None
    largest = 0.0
    for key, was in old.items():
        now = new[key]
        if not (isinstance(was, str) and isinstance(now, str)):
            if was != now:
                return None
            continue
        if _NUMBER.split(was) != _NUMBER.split(now):
            return None
        for a, b in zip(_NUMBER.findall(was), _NUMBER.findall(now)):
            largest = max(largest, abs(float(a) - float(b)))
    return largest


def record_diff(old: dict, new: dict) -> list[str]:
    """What a re-record changes: the ids of added, removed and changed cases,
    for each changed case whether only numbers changed and by how much at
    most, and whether the layout digests changed."""
    lines = [f"added: {case_id}" for case_id in new["cases"] if case_id not in old["cases"]]
    lines += [f"removed: {case_id}" for case_id in old["cases"] if case_id not in new["cases"]]
    for case_id, case in new["cases"].items():
        if case_id in old["cases"] and case != old["cases"][case_id]:
            change = numeric_change(old["cases"][case_id], case)
            lines.append(f"changed: {case_id} (" + (
                "not numbers only" if change is None
                else f"numbers only, largest change {change:.1e}") + ")")
    lines.append("layouts: " + ("changed" if new["layouts"] != old["layouts"] else "unchanged"))
    return lines


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def recorded():
    return pinned_cases()


def test_every_case_is_recorded(golden):
    assert [case_id for case_id, _, _ in _cases()] == list(golden["cases"])
    assert len(golden["cases"]) > 200


@pytest.mark.parametrize("case_id,argv,cap", _cases(), ids=[c[0] for c in _cases()])
def test_output_matches_the_golden_bytes(golden, recorded, case_id, argv, cap):
    want = golden["cases"][case_id]
    assert (want["argv"], want["cap"]) == (argv, cap)
    assert recorded[case_id] == want


def test_member_layouts_match_the_golden_digests(golden):
    assert layout_digests() == golden["layouts"]


def test_record_diff_names_every_changed_case():
    old = {"cases": {"a": {"exit": 0}, "b": {"exit": 0}, "c": {"exit": 0}},
           "layouts": {"x": ["0"]}}
    new = {"cases": {"a": {"exit": 0}, "c": {"exit": 1}, "d": {"exit": 0}},
           "layouts": {"x": ["0"]}}
    assert record_diff(old, new) == ["added: d", "removed: b",
                                     "changed: c (not numbers only)",
                                     "layouts: unchanged"]
    assert record_diff(new, {**new, "layouts": {}})[-1] == "layouts: changed"


def test_record_diff_tells_number_changes_from_other_changes():
    def diff(stdout, code=0):
        old = {"exit": 0, "stdout": '{"energy": 1949.9999999999836, "order": 976}\n'}
        return record_diff({"cases": {"c": old}, "layouts": {}},
                           {"cases": {"c": {"exit": code, "stdout": stdout}},
                            "layouts": {}})[0]
    assert diff('{"energy": 1950.0, "order": 976}\n') == \
        "changed: c (numbers only, largest change 1.6e-11)"
    assert diff('{"energy": 1950.0, "order": 977}\n') == \
        "changed: c (numbers only, largest change 1.0e+00)"
    for other in (diff('{"energy": 1950.0, "order": 976, "n": 1}\n'),
                  diff('{"energy": 1949.9999999999836, "order":976}\n'),
                  diff('{"energy": 1949.9999999999836, "order": 976}\n', code=1)):
        assert other == "changed: c (not numbers only)"


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        with tempfile.TemporaryDirectory() as scratch:
            print(json.dumps(record_cases(Path(scratch))))
        sys.exit(0)
    data = {"cases": pinned_cases(), "layouts": layout_digests()}
    previous = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
                else {"cases": {}, "layouts": {}})
    for line in record_diff(previous, data):
        print(line, file=sys.stderr)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=False) + "\n")
    print(f"wrote {len(data['cases'])} cases and {len(data['layouts'])} layouts to {GOLDEN}",
          file=sys.stderr)
