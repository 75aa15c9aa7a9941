"""Command-line interface.

Subcommands: gen, construct, spectrum, energy, verify, sweep, convert.
Graphs are always read from and written to files (or stdout); structured
results are emitted as deterministic JSON. Exit status is 0 when every
verification in the invocation passed, 1 when one failed, 2 on usage errors.

`energy --apply` and `spectrum --apply` report the one member check that
`verify` makes too, `families.MemberPlan.check`: `within_tolerance` (null
unless `--method both`) and `order_matches`, whether the built member has
its planned order (null without `--apply`). Either one false exits 1.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable

from . import families, jsonio
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
)
from .io import FORMATS, read_graph_text, write_graph_text
from .operators import OPERATORS, Operator, kronecker_product
# unused here, but bench/tests/test_bench_spans.py reads cli.generalized_splitting
from .operators import generalized_splitting  # noqa: F401
from .spectral import Spectrum, adjacency_spectrum, check_tolerance, verification_tolerance

_EXTENSION_FORMATS = {".g6": "graph6", ".graph6": "graph6", ".mtx": "mtx",
                      ".edges": "edges", ".txt": "edges"}


def _format_for(path: str | None, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path:
        return _EXTENSION_FORMATS.get(Path(path).suffix.lower(), "graph6")
    return "graph6"


def _read_graph(path: str, fmt: str | None) -> Graph:
    text = Path(path).read_text(encoding="ascii")
    return read_graph_text(text, _format_for(path, fmt))


def _write_graph(g: Graph, path: str | None, fmt: str | None) -> None:
    text = write_graph_text(g, _format_for(path, fmt))
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="ascii")
        print(f"wrote {path} (order {g.order}, {g.edge_count} edges)", file=sys.stderr)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


def _write_json(payload, path: str | None) -> None:
    _write_text(jsonio.dumps(payload), path)


_GENERATORS = {
    "complete": (1, lambda n: complete_graph(n)),
    "complete-bipartite": (2, lambda m, n: complete_bipartite(m, n)),
    "cycle": (1, lambda n: cycle_graph(n)),
    "path": (1, lambda n: path_graph(n)),
    "empty": (1, lambda n: empty_graph(n)),
}


def _parse_member_spec(spec: str) -> Graph:
    """Parse a colon-joined generator spec like complete:7 or complete-bipartite:2:3."""
    name, *args = spec.split(":")
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r} in {spec!r}")
    arity, fn = _GENERATORS[name]
    if len(args) != arity:
        raise ValueError(f"generator {name} takes {arity} size argument(s), got {spec!r}")
    return fn(*(int(a) for a in args))


def _operator_spec(spec: str) -> tuple[Operator | None, list[int]]:
    """An operator spec like split:2,1, as (table entry, arguments).

    `kron`, the product with the graph given by --with, is no table entry
    and comes back as None.
    """
    name, _, argtext = spec.partition(":")
    args = [int(a) for a in argtext.split(",")] if argtext else []
    arities = {op.name: len(op.params) for op in OPERATORS.values() if op.cli} | {"kron": 0}
    if name not in arities:
        raise ValueError(f"unknown operator {name!r} (expected one of {sorted(arities)})")
    if len(args) != arities[name]:
        raise ValueError(
            f"operator {name} takes {arities[name]} parameter(s), got {spec!r}"
        )
    return OPERATORS.get(name), args


def _parse_bindings(pairs: list[str], shape: str, parse: Callable[[str, str], object]) -> dict:
    """`name=value` pairs as {name: parse(value, pair)}. Each pair is checked
    and parsed before the next, so the first faulty pair's message wins."""
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"{shape}, got {pair!r}")
        if name in out:
            raise ValueError(f"duplicate parameter {name!r}")
        out[name] = parse(value, pair)
    return out


def _parse_range(value: str, pair: str) -> range | list[int]:
    """A range like 1..5 (returned as a `range`), -1,1 or 3."""
    if ".." in value:
        lo_text, _, hi_text = value.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {pair!r}")
        if hi - lo >= sys.maxsize:
            raise ValueError(f"range {pair!r} holds more than {sys.maxsize} values")
        return range(lo, hi + 1)
    return [int(v) for v in value.split(",")]


def cmd_gen(args) -> int:
    if args.family == "union":
        if not args.sizes:
            raise ValueError("union needs at least one member spec, e.g. complete:7")
        g = disjoint_union([_parse_member_spec(s) for s in args.sizes])
    else:
        arity, fn = _GENERATORS[args.family]
        if len(args.sizes) != arity:
            raise ValueError(f"{args.family} takes {arity} size argument(s)")
        g = fn(*(int(s) for s in args.sizes))
    _write_graph(g, args.output, args.format)
    return 0


def cmd_construct(args) -> int:
    op, op_args = _operator_spec(args.operator)
    if op is not None and args.with_graph:
        raise ValueError("--with applies only to kron")
    g = _read_graph(args.input, args.input_format)
    if op is not None:
        result = op.build(g, *op_args)
    elif not args.with_graph:
        raise ValueError("kron needs a second graph (--with FILE)")
    else:
        result = kronecker_product(g, _read_graph(args.with_graph, args.input_format))
    _write_graph(result, args.output, args.format)
    return 0


def _spectrum_dict(spectrum: Spectrum | None, tolerance: float) -> dict | None:
    return None if spectrum is None else {
        "values": [float(v) for v in spectrum.values],
        "multiplicities": [[value, count] for value, count in spectrum.multiplicities(tolerance)],
    }


def cmd_member(args) -> int:
    """`energy` and `spectrum` (see the module docstring). Refuses kron, and a
    formula route without an operator, before any eigensolve."""
    base = _read_graph(args.input, args.input_format)
    op, op_args = _operator_spec(args.apply) if args.apply else (None, [])
    if args.apply and op is None:
        raise ValueError("--apply does not support kron; use the construct command")
    if op is None and args.method != "oracle":
        raise ValueError(
            "the formula route needs --apply OPERATOR; a bare graph file has "
            f"no closed-form {args.command}"
        )
    spectra = args.command == "spectrum"
    plan = None if op is None else families.MemberPlan(op, tuple(op_args), base)
    g = base if plan is None else plan.build()
    tol = args.tol or verification_tolerance(g.order if plan is None else plan.order)
    if plan is None:
        solved = adjacency_spectrum(g)
        check = families.MemberCheck(None, solved.energy(), solved)
    else:
        check = plan.check(args.method, {}, tol, graph=g, structured=spectra)

    report = {"command": args.command, "input": args.input, "applied": args.apply,
              "order": g.order}
    if spectra:
        report.update(method=args.method, oracle=_spectrum_dict(check.spectrum, tol),
                      formula=_spectrum_dict(check.structured, tol), max_delta=check.delta)
    else:
        report.update(edge_count=g.edge_count, method=args.method,
                      formula_energy=check.predicted, oracle_energy=check.measured,
                      delta=check.delta)
    report.update(tolerance=tol, within_tolerance=check.within,
                  order_matches=check.order_matches)
    _write_json(report, args.output)
    return 1 if False in (check.within, check.order_matches) else 0


def _base_arguments(args) -> tuple[Graph, ...]:
    """The graphs --base and --base2 name, in that order."""
    if args.base2 and not args.base:
        raise ValueError("--base2 needs --base as well")
    bases = tuple(_read_graph(path, args.input_format) for path in (args.base, args.base2) if path)
    pair_ids = [f.family_id for f in families.FAMILIES.values() if len(f.stock) == 2]
    if len(bases) == 2 and args.family_id not in pair_ids:
        raise ValueError(f"only {', '.join(pair_ids)} takes a base pair (--base plus --base2)")
    return bases


def cmd_verify(args) -> int:
    params = _parse_bindings(args.params, "parameter binding must look like name=value",
                             lambda value, _: int(value))
    spec = families.FamilySpec(args.family_id, params, _base_arguments(args))
    report = families.verify(spec, method=args.method, tolerance=args.tol)
    if args.table:
        _write_text(report.to_table(), args.output)
    else:
        _write_json(report.to_dict(), args.output)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    ranges = _parse_bindings(args.ranges, "range binding must look like name=RANGE",
                             _parse_range)
    reports = families.sweep(args.family_id, ranges, method=args.method, tolerance=args.tol,
                             bases=_base_arguments(args))
    if args.table:
        _write_text("\n".join(r.to_table() for r in reports), args.output)
    else:
        _write_json([r.to_dict() for r in reports], args.output)
    verdicts = [r.verdict for r in reports]
    ok = "fail" not in verdicts and "error" not in verdicts and "pass" in verdicts
    return 0 if ok else 1


def cmd_convert(args) -> int:
    g = _read_graph(args.input, args.input_format)
    _write_graph(g, args.output, args.format)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="graphenergy",
        description="Graph energy toolkit: generators, splitting/shadow operators, "
        "spectra, and equal-energy family verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, json_output=False):
        what = "JSON report path" if json_output else "output graph path"
        p.add_argument("-o", "--output", help=f"{what} (default: stdout)")

    def add_format(p):
        p.add_argument("--format", choices=FORMATS,
                       help="output graph format (default: from file extension, else graph6)")

    def add_input_format(p):
        p.add_argument("--input-format", choices=FORMATS,
                       help="input graph format (default: from file extension, else graph6)")

    def add_method(p):
        p.add_argument("--method", choices=families.METHODS, default="both",
                       help="energy route(s) to evaluate (default: both)")

    def add_tol(p):
        p.add_argument("--tol", type=float,
                       help="absolute comparison tolerance (default: max(1e-8, order*1e-10))")

    p = sub.add_parser("gen", help="generate a standard graph")
    p.add_argument("family", choices=sorted(_GENERATORS) + ["union"])
    p.add_argument("sizes", nargs="*",
                   help="size arguments, or generator specs like complete:7 for union")
    add_output(p)
    add_format(p)
    p.set_defaults(fn=cmd_gen)

    specs = [f"{op.name}:{','.join(op.params).upper()}" for op in OPERATORS.values() if op.cli]
    p = sub.add_parser("construct", help="apply a graph operator to an input graph")
    p.add_argument("operator", help=f"operator spec: {' '.join(specs)} kron")
    p.add_argument("input", help="base graph file")
    p.add_argument("--with", dest="with_graph", help="second graph file (kron only)")
    add_output(p)
    add_format(p)
    add_input_format(p)
    p.set_defaults(fn=cmd_construct)

    for name, help_text in (("energy", "compute graph energy"),
                            ("spectrum", "compute the adjacency spectrum")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="graph file")
        p.add_argument("--apply", help="operator spec to apply first (enables the formula route)")
        add_method(p)
        add_tol(p)
        add_output(p, json_output=True)
        add_input_format(p)
        p.set_defaults(fn=cmd_member)

    for name, help_text, family_help, bindings, bindings_help, fn in (
        ("verify", "verify one family instance", "family id, e.g. C5_4 or C6_2",
         "params", "parameter bindings like t=1 m=2 k=-1", cmd_verify),
        ("sweep", "verify a family over a parameter grid", "family id, e.g. C6_1",
         "ranges", "parameter ranges like k=1..5 or k=-1,1", cmd_sweep),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("family_id", help=family_help)
        p.add_argument(bindings, nargs="*", help=bindings_help)
        p.add_argument("--base", help="base graph file (default: 4-cycle)")
        p.add_argument("--base2", help="second base graph file (C5_1 only)")
        add_method(p)
        add_tol(p)
        add_output(p, json_output=True)
        add_input_format(p)
        p.add_argument("--table", action="store_true",
                       help="render a plain-text table instead of JSON")
        p.set_defaults(fn=fn)

    p = sub.add_parser("convert", help="convert a graph file between formats")
    p.add_argument("input", help="graph file")
    add_output(p)
    add_format(p)
    add_input_format(p)
    p.set_defaults(fn=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_tolerance(getattr(args, "tol", None))
    except ValueError as exc:
        parser.error(f"--tol: {exc}")
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
