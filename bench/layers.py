"""Per-layer spans around the public functions of each graphenergy module.

`instrument` wraps the functions from outside the package and rebinds every
place that holds them (module globals such as `families.adjacency_spectrum`
and `cli.generalized_splitting`, and the package namespace), then restores
them all. `layer_metrics` turns the recorded spans into the per-layer
metrics, each given per pass over the workload's op list.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import threading
import tracemalloc
import types
from collections import Counter, defaultdict

import numpy as np

from spans import Span, Tracer, overlap, self_times

IO_FUNCTIONS = ("decode_graph6", "encode_graph6", "read_matrix_market",
                "write_matrix_market", "read_edge_list", "write_edge_list")
BUILDERS = ("generalized_splitting", "shadow_splitting", "m_shadow", "m_splitting",
            "kronecker_product")
VERDICTS = ("pass", "fail", "skipped", "error")

LAYER_UNITS: dict[str, str] = {
    "cli.main.self_s": "s",
    **{f"io.{f}.{m}": u for f in IO_FUNCTIONS for m, u in (("self_s", "s"), ("calls", "count"))},
    "graphs.Graph.self_s": "s",
    "graphs.Graph.calls": "count",
    "operators.build.self_s": "s",
    "operators.build.calls": "count",
    "spectral.adjacency_spectrum.self_s": "s",
    "spectral.adjacency_spectrum.peak_ratio": "ratio",
    "spectral.eigenvalues_symmetric.self_s": "s",
    "spectral.eigvalsh.self_s": "s",
    "spectral.eigvalsh.calls": "count",
    "spectral.eigvalsh.n3_sum": "count",
    "families.verify.self_s": "s",
    "families.verify.calls": "count",
    "families.sweep.self_s": "s",
    "families.sweep.overlap": "ratio",
    **{f"families.verdicts.{v}": "count" for v in VERDICTS},
    "families.skip_share": "ratio",
    "jsonio.dumps.self_s": "s",
    "jsonio.dumps.bytes": "B",
    "trace.overhead_share": "ratio",
}

# spans each workload must record at least once in a traced run
EXPECTED_CALLS = {
    "verify-dense": ("cli.main", "io.decode_graph6", "graphs.Graph", "operators.build",
                     "spectral.adjacency_spectrum", "spectral.eigenvalues_symmetric",
                     "spectral.eigvalsh", "families.verify", "jsonio.dumps"),
    "sweep-grid": ("cli.main", "graphs.Graph", "operators.build",
                   "spectral.adjacency_spectrum", "spectral.eigenvalues_symmetric",
                   "spectral.eigvalsh", "families.verify", "families.sweep", "jsonio.dumps"),
    "file-convert": ("cli.main", *(f"io.{f}" for f in IO_FUNCTIONS), "graphs.Graph",
                     "operators.build"),
}


def _wrap(tracer: Tracer, name: str, fn, record=None):
    """`fn` inside a span; `record(args, result)` gives attributes for the span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if record is not None:
            span.attrs.update(record(args, result))
        return result
    return wrapper


def _spectrum_wrapper(tracer: Tracer, fn):
    """The span of adjacency_spectrum, with the tracemalloc peak of its calls on
    the client thread. tracemalloc runs only while such a call is open; calls
    on a sweep's workers are not measured, because starting and stopping
    tracemalloc while other threads allocate can crash the interpreter."""
    client = threading.get_ident()

    @functools.wraps(fn)
    def wrapper(g, *args, **kwargs):
        span = tracer.open("spectral.adjacency_spectrum")
        measured = threading.get_ident() == client and not tracemalloc.is_tracing()
        if measured:
            tracemalloc.start()
        try:
            return fn(g, *args, **kwargs)
        finally:
            if measured:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                span.attrs["peak_ratio"] = peak / (8.0 * g.order ** 2)
            span.attrs["n"] = g.order
            tracer.close(span)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap graphenergy's layer functions for the duration of the block."""
    import graphenergy
    from graphenergy import cli, families, graphs, io, jsonio, operators, spectral

    wrappers = {
        cli.main: _wrap(tracer, "cli.main", cli.main),
        families.verify: _wrap(tracer, "families.verify", families.verify,
                               lambda a, r: {"verdict": r.verdict,
                                             "thread": threading.get_ident()}),
        families.sweep: _wrap(tracer, "families.sweep", families.sweep,
                              lambda a, r: {"verdicts": [x.verdict for x in r]}),
        jsonio.dumps: _wrap(tracer, "jsonio.dumps", jsonio.dumps,
                            lambda a, r: {"bytes": len(r)}),
        spectral.adjacency_spectrum: _spectrum_wrapper(tracer, spectral.adjacency_spectrum),
        spectral.eigenvalues_symmetric: _wrap(tracer, "spectral.eigenvalues_symmetric",
                                              spectral.eigenvalues_symmetric),
        **{getattr(io, f): _wrap(tracer, f"io.{f}", getattr(io, f)) for f in IO_FUNCTIONS},
        **{getattr(operators, f): _wrap(tracer, "operators.build", getattr(operators, f))
           for f in BUILDERS},
    }
    modules = [graphenergy] + [m for name, m in sys.modules.items()
                               if name.startswith("graphenergy.")]
    saved = []
    for module in modules:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                saved.append((module, name, value))
                setattr(module, name, wrappers[value])
    eigvalsh = np.linalg.eigvalsh
    np.linalg.eigvalsh = _wrap(tracer, "spectral.eigvalsh", eigvalsh,
                               lambda a, r: {"n": a[0].shape[0]})
    graph_init = graphs.Graph.__init__
    graphs.Graph.__init__ = _wrap(tracer, "graphs.Graph", graph_init)
    try:
        yield
    finally:
        graphs.Graph.__init__ = graph_init
        np.linalg.eigvalsh = eigvalsh
        for module, name, value in saved:
            setattr(module, name, value)


def _verdicts(spans: list[Span]) -> Counter:
    """Verdicts the families layer handed out: every sweep's list, plus each
    verify called outside a sweep (a raised verify counts as an error)."""
    counts: Counter = Counter()
    for span in spans:
        if span.name == "families.sweep":
            counts.update(span.attrs.get("verdicts", ()))
        elif span.name == "families.verify" and (
                span.parent is None or span.parent.name != "families.sweep"):
            counts[span.attrs.get("verdict", "error")] += 1
    return counts


def layer_metrics(spans: list[Span], passes: int, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of a traced phase of `passes` whole passes."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        self_s[span.name] += own[id(span)]
        calls[span.name] += 1
    eig = [s for s in spans if s.name == "spectral.eigvalsh"]
    spectra = [s for s in spans
               if s.name == "spectral.adjacency_spectrum" and "peak_ratio" in s.attrs]
    largest = max((s.attrs["n"] for s in spectra), default=0)
    verdicts = _verdicts(spans)
    out = {}
    for metric in LAYER_UNITS:
        span_name, _, kind = metric.rpartition(".")
        if kind in ("self_s", "calls"):
            out[metric] = (self_s if kind == "self_s" else calls)[span_name] / passes
    out.update({
        "spectral.adjacency_spectrum.peak_ratio": statistics.median(
            [s.attrs["peak_ratio"] for s in spectra if s.attrs["n"] == largest] or [0.0]),
        "spectral.eigvalsh.n3_sum": sum(s.attrs.get("n", 0) ** 3 for s in eig) / passes,
        "families.sweep.overlap": overlap(
            [s for s in spans if s.name == "families.sweep"], "families.verify", spans),
        **{f"families.verdicts.{v}": verdicts[v] / passes for v in VERDICTS},
        "families.skip_share": verdicts["skipped"] / max(1, sum(verdicts.values())),
        "jsonio.dumps.bytes": sum(s.attrs.get("bytes", 0) for s in spans
                                  if s.name == "jsonio.dumps") / passes,
        "trace.overhead_share": overhead_share,
    })
    assert set(out) == set(LAYER_UNITS)
    return out


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's self time as a share of the summed `cli.main` durations.

    A sweep's workers run concurrently, so on sweep-grid the shares add up
    to more than 1."""
    own = self_times(spans)
    total = sum(s.duration for s in spans if s.name == "cli.main")
    shares = dict.fromkeys(("cli", "io", "graphs", "operators", "spectral", "families",
                            "jsonio"), 0.0)
    for span in spans:
        shares[span.name.split(".")[0]] += own[id(span)] / total
    shares["spectral.eigvalsh"] = sum(own[id(s)] for s in spans
                                      if s.name == "spectral.eigvalsh") / total
    return shares


def missing_calls(workload: str, spans: list[Span]) -> list[str]:
    seen = {s.name for s in spans}
    return [name for name in EXPECTED_CALLS[workload] if name not in seen]
