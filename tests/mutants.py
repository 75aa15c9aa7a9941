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
    # K_r's top eigenvalue r + 1 instead of r - 1, so E(K_r) = 2r
    Mutant(
        "complete-energy-2r", "operators.py",
        "(2 * r - 2, 0, 1)",
        "(2 * r + 2, 0, 1)",
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
        "        weights = np.sqrt(counts)\n",
        "        weights = counts\n",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "twin-zeros-dropped", "spectral.py",
        "np.concatenate([np.linalg.eigvalsh(q), np.zeros(zeros)])",
        "np.concatenate([np.linalg.eigvalsh(q)])",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "twin-counts-unordered", "spectral.py",
        "return first[order], counts[order]",
        "return first[order], counts",
        ("tests/test_spectral.py",),
    ),
    # the block-twin step: Q's diagonal blocks weighted by s like the others,
    # spec(D) s times instead of s - 1, and a key blind to the diagonal block
    Mutant(
        "block-diagonal-weighted", "spectral.py",
        "    q[np.arange(m), :, np.arange(m)] = diagonal[first]\n",
        "",
        ("tests/test_spectral.py::TestBlockTwinQuotient",),
    ),
    Mutant(
        "block-spectrum-s-times", "spectral.py",
        "count - 1)",
        "count)",
        ("tests/test_spectral.py::TestBlockTwinQuotient",),
    ),
    Mutant(
        "block-key-without-diagonal", "spectral.py",
        "keys[:, :, k] = diagonal",
        "keys[:, :, k] = 0",
        ("tests/test_spectral.py::TestBlockTwinQuotient"
         "::test_blocks_that_differ_only_in_their_diagonal_block_are_not_twins",),
    ),
    # faults in the table, the validation and the codecs
    Mutant(
        "split-factor-last-bit", "operators.py",
        "return (a + b * math.sqrt(d)) / 2",
        "return (a + b * math.sqrt(d) * (1 + 2 ** -52)) / 2",
        ("tests/test_operator_table.py::test_factor_is_the_papers_formula_exactly",),
    ),
    # |x + y sqrt(d)| taken with the sign of x alone: (1 - sqrt(1 + 4pq)) / 2 counts as positive
    Mutant(
        "factor-sign-of-x-only", "operators.py",
        "sign = -1 if (x < 0 if x * x > y * y * d else y < 0) else 1",
        "sign = -1 if x < 0 else 1",
        ("tests/test_operator_table.py::test_factor_is_the_papers_formula_exactly",),
    ),
    # ROADMAP item 17: the order of C summed over float eigenvalues again, so a
    # parameter too large for a float's square raises OverflowError, an "error"
    # point, instead of meeting the dense cap
    Mutant(
        "order-through-floats", "operators.py",
        "return sum(count for _, _, count in self.spectrum(*args)[1])",
        "return len(self.coefficient_spectrum(*args))",
        ("tests/test_operator_table.py::test_the_order_of_c_is_an_exact_int_at_any_parameter_size",
         "tests/test_cli.py::TestSweep::test_a_parameter_too_large_for_a_float_is_a_skipped_point"),
    ),
    # the build reads the flag too, so only a test that compares two entries
    # (splitting(m) against split(1, m)) sees the flip
    Mutant(
        "coefficient-first-flipped", "operators.py",
        "lambda m: _split_coefficients(1, m), True,",
        "lambda m: _split_coefficients(1, m), False,",
        ("tests/test_operator_table.py",
         "tests/test_operators.py::TestGeneralizedSplitting::test_reduces_to_m_splitting"),
    ),
    # every entry built as kron(C, A), whatever side it records
    Mutant(
        "kron-side-ignored", "operators.py",
        "g.adjacency) if op.coefficient_first",
        "g.adjacency) if True",
        ("tests/test_operator_table.py"
         "::test_build_is_the_kronecker_product_on_the_recorded_side",),
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
    # graph6's decoded matrix is copied into its Graph
    Mutant(
        "graph6-matrix-copied", "io.py",
        "    return Graph._adopt(a)",
        "    return Graph(a)",
        ("tests/test_codec_differential.py::test_decode_graph6_holds_the_matrix_once",),
    ),
    # the member's block-order hint: the base order for kron(A, C) members too
    Mutant(
        "block-hint-every-operator", "families.py",
        "blocks = self.base.order if self.operator.coefficient_first else 1",
        "blocks = self.base.order",
        ("tests/test_families.py::TestBlockOrderHint",),
    ),
    # a block class's D taken as the plan's base, the memo's first entry,
    # instead of looked up by content
    Mutant(
        "block-diagonal-by-plan-base", "spectral.py",
        "spectrum = memo.get(d)",
        "spectrum = next(iter(memo.values()), None)",
        ("tests/test_spectral.py::TestBlockTwinQuotient"
         "::test_the_diagonal_blocks_come_from_the_memo_by_content",),
    ),
    # the block step taken when its quotient is not the smaller one: the
    # spectrum stays exact, only the eigensolve orders show it
    Mutant(
        "block-step-when-larger", "spectral.py",
        "if m * n >= classes:",
        "if m * n < classes:",
        ("tests/test_cli.py::TestEigensolveWork",),
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
        "token-layout-by-total", "io.py",
        "if not ((per_line == 0) | (per_line == 2)).all():",
        "if (is_break.size - breaks.size) % 2:",
        ("tests/test_io.py::TestMatrixMarket"
         "::test_rejects_a_line_of_one_token_when_the_block_holds_pairs_of_tokens",
         "tests/test_io.py::TestEdgeList"
         "::test_rejects_a_line_of_one_token_when_the_block_holds_pairs_of_tokens",
         "tests/test_io.py::TestOnePassParse"
         "::test_invalid_digit_blocks_reach_the_matrix_market_loop",
         "tests/test_io.py::TestOnePassParse"
         "::test_invalid_digit_blocks_reach_the_edge_list_loop"),
    ),
    Mutant(
        "lower-triangle-unmirrored", "io.py",
        "    a |= a.T\n    return a\n",
        "    return a\n",
        ("tests/test_io.py::TestOnePassParse::test_writer_output_skips_the_line_loops",),
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
    # the caller's bases, and the one check a base pair gets
    Mutant(
        "caller-bases-ignored", "families.py",
        "    if not bases:\n        return tuple(build() for build in family.stock)",
        "    if True:\n        return tuple(build() for build in family.stock)",
        ("tests/test_families.py::TestInstantiation::test_explicit_base",
         "tests/test_families.py::TestEquienergeticVerification::test_c5_3_worked_example",
         "tests/test_cli.py::TestVerify::test_custom_base"),
    ),
    Mutant(
        "pair-order-unchecked", "families.py",
        "if len(bases) == 2 and bases[0].order != bases[1].order:",
        "if False:",
        ("tests/test_families.py::TestBasePair::test_c5_1_rejects_mismatched_orders",
         "tests/test_cli_golden.py"),
    ),
    # the sweep's memo and its verdicts
    Mutant(
        "memo-key-without-args", "families.py",
        "memo, (self.operator.name, self.args, self.base), self.build,",
        "memo, (self.operator.name, self.base), self.build,",
        ("tests/test_sweep_memo.py",),
    ),
    Mutant(
        "memo-key-by-identity", "families.py",
        "memo, (self.operator.name, self.args, self.base), self.build,",
        "memo, (self.operator.name, self.args, id(self.base)), self.build,",
        ("tests/test_sweep_memo.py",),
    ),
    # the command line's member is built a second time for its oracle route
    Mutant(
        "member-graph-rebuilt", "families.py",
        "if graph is not None:\n"
        "                spectrum = adjacency_spectrum(graph, block_order=blocks, memo=memo)",
        "if False:\n"
        "                spectrum = adjacency_spectrum(graph, block_order=blocks, memo=memo)",
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
    # each check of the verdict, dropped on its own; the first two and the
    # built order are made per member by `MemberPlan.check`
    Mutant(
        "border-target-unchecked", "families.py",
        "else (target, predicted, measured)",
        "else (predicted, measured)",
        ("tests/test_families.py::TestEachCheckCanFail",),
    ),
    Mutant(
        "both-routes-unchecked", "families.py",
        "else (target, predicted, measured)",
        "else (target, predicted)",
        ("tests/test_families.py::TestEachCheckCanFail",),
    ),
    Mutant(
        "member-order-matches-always", "families.py",
        "built == self.order",
        "True",
        ("tests/test_families.py::TestBuiltOrder",
         "tests/test_cli.py::TestMemberCheck"
         "::test_a_member_built_at_another_order_than_planned_fails"),
    ),
    # the one agreement rule of verify, `energy` and `spectrum` passes any delta
    Mutant(
        "agreement-unchecked", "spectral.py",
        "all(d <= tol for d in deltas)",
        "True",
        ("tests/test_cli.py::TestMemberCheck::test_a_wrong_factor_fails_energy",
         "tests/test_cli.py::TestMemberCheck::test_wrong_closed_eigenvalues_fail_spectrum"),
    ),
    # spectra of unequal lengths are subtracted: a usage error, or a broadcast
    Mutant(
        "agreement-pairs-unequal-lengths", "spectral.py",
        "              if not isinstance(a, Spectrum) or len(a) == len(b)]",
        "              ]",
        ("tests/test_cli.py::TestMemberCheck::test_spectra_of_unequal_lengths_fail_spectrum",
         "tests/test_spectral.py::TestAgreement::test_spectra_pair_values_in_order"),
    ),
    # a range too long for a list reaches `list(range(...))`, whose error names nothing
    Mutant(
        "range-length-unchecked", "cli.py",
        "        if hi - lo >= sys.maxsize:\n",
        "        if False:\n",
        ("tests/test_cli.py::TestSweep::test_a_range_too_long_for_a_list_is_refused_by_name",
         "tests/test_cli_contract.py"),
    ),
    # a sweep point's parameters checked before `verify` checks them again
    Mutant(
        "sweep-checks-twice", "families.py",
        "            return verify(spec, method=method, tolerance=tolerance, _memo=memo)\n",
        "            _require_params(spec, family.param_names)\n"
        "            return verify(spec, method=method, tolerance=tolerance, _memo=memo)\n",
        ("tests/test_families.py::TestSweep::test_an_in_domain_point_checks_its_parameters_once",),
    ),
    Mutant(
        "member-orders-unchecked", "families.py",
        "family.kind == BORDERENERGETIC or len({plan.order for plan in plans}) == 1",
        "True",
        ("tests/test_families.py::TestEachCheckCanFail",),
    ),
    # verdict must fail: the split entry states one base order more than it
    # builds, and so must `energy --apply` and `spectrum --apply`
    Mutant(
        "split-closed-spectrum-extra-zero", "operators.py",
        "(0, 0, q - 1)",
        "(0, 0, q)",
        ("tests/test_families.py::TestBuiltOrder::test_split_points_pass_under_both",
         "tests/test_cli.py::TestMemberCheck"
         "::test_a_member_built_at_another_order_than_planned_fails"),
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
