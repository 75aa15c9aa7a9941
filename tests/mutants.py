"""Fault injection: each mutant is one known fault that a named test subset must catch.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named mutants only

For each mutant the script copies `src/` to a temporary directory, replaces
one exact snippet in one module of the copy, and runs the mutant's tests
serially against the copy. The mutant is killed when pytest reports a
failing test (exit status 1). The script exits 1 if any mutant survives, if
any snippet does not occur exactly once in its module, if a mutated module
does not compile (under -x pytest counts a test module that fails to import
as a failing test, so such a mutant would pass for killed), or if pytest
ends any other way (an interrupt, a usage error), and 0 when every mutant is
killed. It uses only the standard library and is not collected by pytest:
the tier-1 suite it runs is the ground truth, and this checks that the suite
can fail. A survivor means a test is missing: add the test, keep the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a file under src/graphenergy/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "complete-energy-2r", "operators.py",
        "lambda r: 2.0 * (r - 1),  # E(K_r)",
        "lambda r: 2.0 * r,  # E(K_r)",
        ("tests/test_operator_table.py::test_factor_is_the_papers_formula_exactly",),
    ),
    Mutant(
        "target-one-order-up", "families.py",
        "target = _complete_energy(plan.order) if",
        "target = _complete_energy(plan.order + 1) if",
        ("tests/test_families.py::TestBorderenergeticVerification",),
    ),
    Mutant(
        "kron-pattern-unchecked", "operators.py",
        "    if pattern.max() > 1:\n"
        '        raise ValueError("adjacency entries must be 0 or 1")\n',
        "",
        ("tests/test_operator_table.py"
         "::test_a_bad_coefficient_matrix_fails_the_check_of_the_built_graph",),
    ),
    Mutant(
        "twin-weights-k", "spectral.py",
        "first, weights = first[order], np.sqrt(counts[order])",
        "first, weights = first[order], counts[order]",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "twin-zeros-dropped", "spectral.py",
        "np.concatenate([np.linalg.eigvalsh(a), np.zeros(zeros)])",
        "np.concatenate([np.linalg.eigvalsh(a)])",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "twin-counts-unordered", "spectral.py",
        "first, weights = first[order], np.sqrt(counts[order])",
        "first, weights = first[order], np.sqrt(counts)",
        ("tests/test_spectral.py",),
    ),
    # faults in the table, the validation and the codecs
    Mutant(
        "split-factor-last-bit", "operators.py",
        "return p - 1 + math.sqrt(1 + 4 * p * q)",
        "return p - 1 + math.sqrt(1 + 4 * p * q) * (1 + 2 ** -52)",
        ("tests/test_operator_table.py::test_factor_is_the_papers_formula_exactly",),
    ),
    Mutant(
        "coefficient-first-flipped", "operators.py",
        "lambda m: _split_coefficients(1, m), True,",
        "lambda m: _split_coefficients(1, m), False,",
        ("tests/test_operator_table.py",),
    ),
    Mutant(
        "domain-check-weakened", "operators.py",
        "if min(args[skip:]) < 1:",
        "if min(args[skip:]) < 0:",
        ("tests/test_operator_table.py::test_every_closed_form_rejects_a_parameter_below_one",),
    ),
    Mutant(
        "self-loops-allowed", "graphs.py",
        "if np.any(np.diagonal(a) != 0):",
        "if False:",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "lossy-cast-allowed", "graphs.py",
        "if a.dtype != np.uint8 and not np.array_equal(u, a):",
        "if False:",
        ("tests/test_graph_differential.py",),
    ),
    Mutant(
        "graph6-padding-ignored", "io.py",
        "if padding and body[-1] & ((1 << padding) - 1):",
        "if False:",
        ("tests/test_io.py",),
    ),
    # the text readers' one-pass parse, then their line loops
    Mutant(
        "duplicate-entries-accepted", "io.py",
        "if np.count_nonzero(a) != len(i):",
        "if False:",
        ("tests/test_io.py", "tests/test_codec_differential.py"),
    ),
    Mutant(
        "edge-self-loop-reaches-graph", "io.py",
        "(j < i)",
        "(j <= i)",
        ("tests/test_io.py", "tests/test_codec_differential.py"),
    ),
    Mutant(
        "duplicate-line-accepted", "io.py",
        "if a[r - 1, c - 1]:",
        "if False:",
        ("tests/test_io.py", "tests/test_codec_differential.py"),
    ),
    # one coefficient of a family's member map, and one part of a C6 base
    Mutant(
        "c5-7-map-coefficient", "families.py",
        "8 * m - 2",
        "8 * m - 3",
        ("tests/test_families.py::TestEquienergeticVerification",),
    ),
    Mutant(
        "c6-3-base-part", "families.py",
        "3 * t + 5",
        "3 * t + 4",
        ("tests/test_families.py::TestBorderenergeticVerification",),
    ),
    # the sweep's memo and its verdicts
    Mutant(
        "memo-key-without-args", "families.py",
        "memo, (self.operator.name, self.args, self.base), self.build)",
        "memo, (self.operator.name, self.base), self.build)",
        ("tests/test_sweep_memo.py",),
    ),
    Mutant(
        "memo-key-by-identity", "families.py",
        "memo, (self.operator.name, self.args, self.base), self.build)",
        "memo, (self.operator.name, self.args, id(self.base)), self.build)",
        ("tests/test_sweep_memo.py",),
    ),
    # the command line's member is built a second time for its oracle route
    Mutant(
        "member-graph-rebuilt", "families.py",
        "if graph is not None:\n                measured = _solved(memo, graph)",
        "if False:\n                measured = _solved(memo, graph)",
        ("tests/test_cli.py::TestMemberCheck",),
    ),
    Mutant(
        "linalg-error-skipped", "families.py",
        "except (OutOfDomainError, OrderCapError) as exc:",
        "except ValueError as exc:",
        ("tests/test_families.py",),
    ),
    Mutant(
        "skip-report-without-error", "families.py",
        "verdict=verdict, error=message)",
        "verdict=verdict)",
        ("tests/test_families.py::TestReportSerialization::test_skipped_report_shape",),
    ),
    # an infinite parameter escapes as OverflowError instead of being named
    Mutant(
        "non-finite-parameter-unnamed", "families.py",
        "except (OverflowError, ValueError):  # int() of inf or nan",
        "except ValueError:  # int() of inf or nan",
        ("tests/test_families.py::TestDomains::test_a_non_finite_parameter_is_refused_by_name",),
    ),
    # each check of the verdict, dropped on its own
    Mutant(
        "border-target-unchecked", "families.py",
        "groups = [(m.target_energy, m.predicted_energy, m.measured_energy) for m in members]",
        "groups = [(m.predicted_energy, m.measured_energy) for m in members]",
        ("tests/test_families.py::TestEachCheckCanFail",),
    ),
    Mutant(
        "both-routes-unchecked", "families.py",
        "groups = [(m.target_energy, m.predicted_energy, m.measured_energy) for m in members]",
        "groups = [(m.target_energy, m.predicted_energy) for m in members]",
        ("tests/test_families.py::TestEachCheckCanFail",),
    ),
    # the one agreement rule of verify, `energy` and `spectrum` passes any delta
    Mutant(
        "agreement-unchecked", "families.py",
        "all(d <= tol for d in deltas)",
        "True",
        ("tests/test_cli.py::TestMemberCheck::test_a_wrong_factor_fails_energy",
         "tests/test_cli.py::TestMemberCheck::test_wrong_closed_eigenvalues_fail_spectrum"),
    ),
    Mutant(
        "member-orders-unchecked", "families.py",
        "family.kind == BORDERENERGETIC or len({plan.order for plan in plans}) == 1",
        "True",
        ("tests/test_families.py::TestEachCheckCanFail",),
    ),
    # verdict must fail: the split entry states one base order more than it builds
    Mutant(
        "split-closed-spectrum-extra-zero", "operators.py",
        "(0.0, q - 1)",
        "(0.0, q)",
        ("tests/test_families.py::TestBuiltOrder::test_split_points_pass_under_both",),
    ),
    # verdict must fail: on C5_4's iff manifold the wrong graph has the right
    # energy, so `verify C5_4 p=P q=4P-2` still exits 0 for P = 1, 2, 3 under
    # this mutant; the spectrum check of ROADMAP item 2 is to close that gap.
    # tests/test_operators.py alone lets it survive too (71 pass): it calls
    # the builders directly, not through the table.
    Mutant(
        "split-built-as-shadow", "operators.py",
        "lambda g, p, q: generalized_splitting(g, p, q),",
        "lambda g, p, q: m_shadow(g, p + q),",
        ("tests/test_operator_table.py",),
    ),
    Mutant(
        "infinite-tolerance-accepted", "spectral.py",
        "if tolerance is not None and not 0 < tolerance < math.inf:",
        "if tolerance is not None and not 0 < tolerance:",
        ("tests/test_families.py", "tests/test_cli.py"),
    ),
    # the report writer
    Mutant(
        "json-item-separator", "jsonio.py",
        'f",\\n{inner}".join(items)',
        'f",{inner}".join(items)',
        ("tests/test_jsonio.py", "tests/test_cli_golden.py"),
    ),
    Mutant(
        "json-integral-float-no-point", "jsonio.py",
        'text += ".0"',
        "pass",
        ("tests/test_jsonio.py", "tests/test_cli_golden.py"),
    ),
    Mutant(
        "json-no-subclass-fallback", "jsonio.py",
        "kind = next((t for t in _JSON_TYPES if isinstance(obj, t)), None)",
        "kind = None",
        ("tests/test_jsonio.py", "tests/test_cli_golden.py"),
    ),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'no match', 'syntax error' or 'pytest exit N' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="graphenergy-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "graphenergy" / mutant.module
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "no match"
        mutated = text.replace(mutant.snippet, mutant.replacement)
        try:
            compile(mutated, str(path), "exec")
        except SyntaxError:
            return "syntax error"
        path.write_text(mutated)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    return {0: "survived", 1: "killed"}.get(status, f"pytest exit {status}")


def main(argv: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] or list(MUTANTS)
    width = max(len(mutant.name) for mutant in chosen)
    start = time.perf_counter()
    bad = 0
    for mutant in chosen:
        t = time.perf_counter()
        outcome = run(mutant)
        bad += outcome != "killed"
        print(f"{mutant.name:{width}} {outcome:14} {time.perf_counter() - t:6.1f} s", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
