"""Self-time, overlap and span-parenting arithmetic of the benchmark's tracer."""

import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
from spans import Span, Tracer, overlap, self_times, union_length  # noqa: E402


def tree():
    """sweep [0, 10] with two verify children on worker threads that overlap
    each other ([1, 4] and [3, 6]), a grandchild [2, 3] under the first, and a
    dumps child [8, 12] that outlives the sweep and is clipped to it."""
    sweep = Span("families.sweep", 0.0, 10.0)
    first = Span("families.verify", 1.0, 4.0, parent=sweep, attrs={"verdict": "pass"})
    second = Span("families.verify", 3.0, 6.0, parent=sweep, attrs={"verdict": "fail"})
    grandchild = Span("spectral.eigvalsh", 2.0, 3.0, parent=first)
    late = Span("jsonio.dumps", 8.0, 12.0, parent=sweep)
    return [sweep, first, second, grandchild, late]


def test_union_length_merges_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert union_length([(2, 3), (1, 5)], 0, 10) == 4
    assert union_length([(-5, 1), (9, 20)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    sweep, first, second, grandchild, late = tree()
    own = self_times([sweep, first, second, grandchild, late])
    assert own[id(sweep)] == pytest.approx(10 - 5 - 2)  # [1, 6] and [8, 10]
    assert own[id(first)] == pytest.approx(3 - 1)
    assert own[id(second)] == pytest.approx(3)
    assert own[id(grandchild)] == pytest.approx(1)
    assert own[id(late)] == pytest.approx(4)


def test_overlap_sums_concurrent_children():
    spans = tree()
    assert overlap([spans[0]], "families.verify", spans) == pytest.approx(0.6)
    assert overlap([], "families.verify", spans) == 0.0


def test_worker_thread_spans_are_parented_to_the_client_span():
    tracer = Tracer()
    sweep = tracer.open("families.sweep")
    seen = {}

    def worker():
        span = tracer.open("families.verify")
        inner = tracer.open("spectral.eigvalsh")
        tracer.close(inner)
        tracer.close(span)
        seen["verify"], seen["inner"] = span, inner

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(sweep)
    assert seen["verify"].parent is sweep
    assert seen["inner"].parent is seen["verify"]
    assert tracer.open("cli.main").parent is None


def test_verdicts_count_sweeps_and_standalone_verifies():
    spans = tree()
    spans[0].attrs["verdicts"] = ["pass", "fail", "skipped"]
    standalone = Span("families.verify", 20.0, 21.0)  # raised, so no verdict
    counts = layers._verdicts(spans + [standalone])
    assert counts == {"pass": 1, "fail": 1, "skipped": 1, "error": 1}


def test_layer_metrics_are_per_pass():
    spans = tree()
    spans[0].attrs["verdicts"] = ["pass", "skipped"]
    spans[3].attrs["n"] = 10
    metrics = layers.layer_metrics(spans, passes=2, overhead_share=0.1)
    assert set(metrics) == set(layers.LAYER_UNITS)
    assert metrics["families.sweep.self_s"] == pytest.approx(1.5)
    assert metrics["families.verify.calls"] == 1
    assert metrics["spectral.eigvalsh.n3_sum"] == 500
    assert metrics["families.skip_share"] == pytest.approx(0.5)
    assert metrics["families.sweep.overlap"] == pytest.approx(0.6)


def test_instrument_rebinds_every_import_site_and_restores_them():
    from graphenergy import cli, cycle_graph, families, operators, spectral

    originals = (families.adjacency_spectrum, cli.generalized_splitting,
                 operators.generalized_splitting, spectral.eigenvalues_symmetric)
    tracer = Tracer()
    with layers.instrument(tracer):
        assert families.adjacency_spectrum is not originals[0]
        assert cli.generalized_splitting is not originals[1]
        spectral.energy(cli.generalized_splitting(cycle_graph(4), 1, 1))
    names = [s.name for s in tracer.spans]
    for name in ("operators.build", "graphs.Graph", "spectral.adjacency_spectrum",
                 "spectral.eigenvalues_symmetric", "spectral.eigvalsh"):
        assert name in names
    spectrum = next(s for s in tracer.spans if s.name == "spectral.adjacency_spectrum")
    assert spectrum.attrs["n"] == 8 and spectrum.attrs["peak_ratio"] > 1
    assert (families.adjacency_spectrum, cli.generalized_splitting,
            operators.generalized_splitting, spectral.eigenvalues_symmetric) == originals


def test_missing_calls_names_each_unrecorded_layer():
    missing = layers.missing_calls("sweep-grid", tree())
    assert "cli.main" in missing and "operators.build" in missing
    assert "families.sweep" not in missing and "families.verify" not in missing
