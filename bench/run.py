"""graphenergy benchmark: drives `graphenergy.cli.main` in-process on one workload.

    python3 bench/run.py --workload verify-dense --seed 1 --seconds 30 --trace 0

A closed loop with one client: the next CLI invocation is sent only after the
previous one returns, and every invocation's exit code, stdout, stderr and
written files are checked against the workload's own expectation. A run
makes one checked warm-up pass, then whole passes over the op list until
`--seconds` have been measured, so every run has the same mix. Between
stretches of passes it times `setup_s` in fresh interpreters: the import of
graphenergy plus the generation of the workload's input files.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates untraced and traced passes for `--seconds` and prints the
per-layer metrics of the traced ones (see layers.py). Before the last line it
prints one JSON line of context: the seed, sample counts, the machine block,
`fail_share` (failed / attempted invocations) and the median invocation time
`op_p50_s`. Those two are not result metrics: a result metric must never be
0, and the median moves with a shared host's bursts of CPU speed by more
than a result metric's bound. The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

Inputs are generated in `.bench_work/` under the repository root and removed
at exit. The program is imported from `src/` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# graphenergy, numpy and the other bench modules are imported inside functions,
# so that a set-up probe times their import.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p90_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here (no program to import, a probe failed)."""


def import_program():
    """Import graphenergy from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import graphenergy.cli
    except ImportError as exc:
        raise BenchError(f"cannot import graphenergy from {SRC}: {exc}") from None
    origin = Path(graphenergy.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"graphenergy was imported from {origin}, not from {SRC}")
    return graphenergy.cli


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """One set-up: import graphenergy and generate the workload's input files."""
    start = time.perf_counter()
    import_program()
    import workloads
    workdir.mkdir(parents=True)
    workloads.build(workload, seed, workdir)
    return time.perf_counter() - start


def setup_time(workload: str, seed: int, workdir: Path) -> float:
    """One set-up probe, measured in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, __file__, "--setup-probe", str(workdir),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if probe.returncode != 0:
        raise BenchError(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
    return float(probe.stdout.split()[-1])


def sweep_threads(cli) -> int:
    """Threads that ran the verify calls of a 16-point `sweep` with the default
    --jobs: the value that default resolved to, up to 16."""
    import layers
    import spans

    tracer = spans.Tracer()
    with layers.instrument(tracer), contextlib.redirect_stdout(io.StringIO()):
        cli.main(["sweep", "C5_4", "p=1..2", "q=1..8"])
    return len({s.attrs["thread"] for s in tracer.spans if s.name == "families.verify"})


def machine(cli) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "sweep_jobs": sweep_threads(cli),
        "platform": platform.platform(),
    }


class Client:
    """Runs ops one at a time, timing each invocation and checking its outcome."""

    def __init__(self, cli, ops) -> None:
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0

    def execute(self, op) -> float:
        from workloads import Result

        for path in op.outputs:
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = None
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if code is None:
            problems = [f"raised: {err.getvalue().strip().splitlines()[-1]}"]
        else:
            try:
                problems = op.check(Result(code, out.getvalue(), err.getvalue()))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"FAIL {op.label}: {'; '.join(problems[:3])}", file=sys.stderr)
        return elapsed

    def passes(self, seconds: float) -> list[list[float]]:
        """Whole passes over the op list until `seconds` of them have run."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append([self.execute(op) for op in self.ops])
        return passes


def e2e_metrics(setup: list[float], passes: list[list[float]]) -> dict[str, float]:
    ops = [t for p in passes for t in p]
    rates = sorted(len(p) / sum(p) for p in passes)
    return {
        "setup_s": statistics.median(setup),
        # the lower quartile of the pass rates: on a shared host the CPU runs
        # in bursts of extra speed, which move the median rate and the median
        # invocation (op_p50_s) far more than the slow quarter of passes
        "ops_per_s": rates[len(rates) // 4],
        "op_p50_s": statistics.median(ops),
        "op_p90_s": statistics.quantiles(ops, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = import_program()
        import layers
        import spans
        import workloads

        inputs = workdir / "inputs"
        inputs.mkdir(parents=True)
        ops = workloads.build(args.workload, args.seed, inputs)
        client = Client(cli, ops)
        client.passes(0)  # checked warm-up pass
        context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "ops_per_pass": len(ops)}
        if args.trace:
            # alternate untraced and traced passes, so that drift in the
            # machine's speed cancels out of the tracing overhead
            tracer = spans.Tracer()
            untraced, traced = [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                untraced += client.passes(0)
                with layers.instrument(tracer):
                    traced += client.passes(0)
            overhead = (statistics.median(sum(p) for p in traced)
                        / statistics.median(sum(p) for p in untraced) - 1.0)
            values = layers.layer_metrics(tracer.spans, len(traced), overhead)
            units = layers.LAYER_UNITS
            missing = layers.missing_calls(args.workload, tracer.spans)
            if missing:
                print(f"FAIL traced run recorded no calls of {', '.join(missing)}",
                      file=sys.stderr)
            context.update(passes=len(traced), spans=len(tracer.spans), missing_calls=missing,
                           layer_shares=layers.layer_shares(tracer.spans))
        else:
            # set-up probes spread over the timed phase, so that they meet the
            # same changes in the machine's speed as the passes
            setup, passes = [], []
            for i in range(SETUP_REPEATS):
                setup.append(setup_time(args.workload, args.seed, workdir / f"probe{i}"))
                passes += client.passes(args.seconds / SETUP_REPEATS)
            values = e2e_metrics(setup, passes)
            units = E2E_UNITS
            missing = []
            context.update(passes=len(passes), samples={
                "setup_s": len(setup), "ops_per_s": len(passes),
                "op_p50_s": len(passes) * len(ops),
                "op_p90_s": len(passes) * len(ops), "peak_rss_mib": 1},
                op_p50_s={"value": values["op_p50_s"], "unit": "s"})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    correct = client.failed == 0 and not missing
    context.update(fail_share={"value": client.failed / client.attempted, "unit": "ratio"},
                   machine=machine(cli))
    print(json.dumps(context))
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-dense", "sweep-grid", "file-convert"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed, args.setup_probe))
            return 0
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
