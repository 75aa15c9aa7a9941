"""Command-line interface.

Subcommands: gen, construct, spectrum, energy, verify, sweep, convert.
Graphs are always read from and written to files (or stdout); structured
results are emitted as deterministic JSON. Exit status is 0 when every
verification in the invocation passed, 1 when one failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import families, formulas, jsonio
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
from .operators import (
    generalized_splitting,
    kronecker_product,
    m_shadow,
    m_splitting,
    shadow_splitting,
)
from .spectral import (
    Spectrum,
    adjacency_spectrum,
    structured_spectrum,
    verification_tolerance,
)

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


def _write_json(payload, path: str | None) -> None:
    text = jsonio.dumps(payload)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


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


def _parse_operator(spec: str) -> tuple[str, list[int]]:
    name, _, argtext = spec.partition(":")
    args = [int(a) for a in argtext.split(",")] if argtext else []
    arities = {"split": 2, "shadow-split": 2, "shadow": 1, "splitting": 1, "kron": 0}
    if name not in arities:
        raise ValueError(f"unknown operator {name!r} (expected one of {sorted(arities)})")
    if len(args) != arities[name]:
        raise ValueError(
            f"operator {name} takes {arities[name]} parameter(s), got {spec!r}"
        )
    return name, args


def _apply_operator(name: str, args: list[int], g: Graph, other: Graph | None) -> Graph:
    if name == "split":
        return generalized_splitting(g, *args)
    if name == "shadow-split":
        return shadow_splitting(g, *args)
    if name == "shadow":
        return m_shadow(g, *args)
    if name == "splitting":
        return m_splitting(g, *args)
    if name == "kron":
        if other is None:
            raise ValueError("kron needs a second graph (--with FILE)")
        return kronecker_product(g, other)
    raise ValueError(f"unknown operator {name!r}")


def _operator_factor(name: str, args: list[int]) -> float:
    """Closed-form energy multiplier of an operator, where one exists."""
    if name == "split":
        return formulas.split_energy_factor(*args)
    if name == "shadow-split":
        return formulas.shadow_split_energy_factor(*args)
    if name == "shadow":
        return formulas.known_energy("shadow", *args)
    if name == "splitting":
        return formulas.split_energy_factor(1, args[0])
    raise ValueError(f"no closed-form energy factor for operator {name!r}")


def _operator_spectrum_values(name: str, args: list[int]) -> np.ndarray:
    """Closed-form coefficient spectrum of an operator, where one exists."""
    if name == "split":
        return formulas.split_coefficient_spectrum(*args).values
    if name == "shadow-split":
        return formulas.shadow_coefficient_spectrum(*args).values
    if name == "splitting":
        return formulas.split_coefficient_spectrum(1, args[0]).values
    if name == "shadow":
        m = args[0]
        return np.array([float(m)] + [0.0] * (m - 1))
    raise ValueError(f"no closed-form coefficient spectrum for operator {name!r}")


def _parse_bindings(pairs: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"parameter binding must look like name=value, got {pair!r}")
        if name in out:
            raise ValueError(f"duplicate parameter {name!r}")
        out[name] = int(value)
    return out


def _parse_ranges(pairs: list[str]) -> dict[str, list[int]]:
    """Parse name=1..5, name=-1,1, or name=3 range bindings."""
    out: dict[str, list[int]] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"range binding must look like name=RANGE, got {pair!r}")
        if name in out:
            raise ValueError(f"duplicate parameter {name!r}")
        if ".." in value:
            lo_text, _, hi_text = value.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {pair!r}")
            out[name] = list(range(lo, hi + 1))
        elif "," in value:
            out[name] = [int(v) for v in value.split(",")]
        else:
            out[name] = [int(value)]
    return out


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
    name, op_args = _parse_operator(args.operator)
    g = _read_graph(args.input, args.input_format)
    other = _read_graph(args.with_graph, args.input_format) if args.with_graph else None
    result = _apply_operator(name, op_args, g, other)
    _write_graph(result, args.output, args.format)
    return 0


def _resolve_applied(args, g: Graph) -> tuple[Graph, str | None, str | None, list[int]]:
    """Apply --apply to the input graph; returns (graph, label, op name, op args)."""
    if not args.apply:
        return g, None, None, []
    name, op_args = _parse_operator(args.apply)
    if name == "kron":
        raise ValueError("--apply does not support kron; use the construct command")
    return _apply_operator(name, op_args, g, None), args.apply, name, op_args


def cmd_energy(args) -> int:
    base = _read_graph(args.input, args.input_format)
    g, applied, op_name, op_args = _resolve_applied(args, base)
    tol = args.tol if args.tol is not None else verification_tolerance(g.order)

    formula_energy = oracle_energy = delta = None
    within = None
    if args.method in ("formula", "both"):
        if applied is None:
            raise ValueError(
                "the formula route needs --apply OPERATOR; a bare graph file has "
                "no closed-form energy"
            )
        factor = _operator_factor(op_name, op_args)
        formula_energy = factor * adjacency_spectrum(base).energy()
    if args.method in ("oracle", "both"):
        oracle_energy = adjacency_spectrum(g).energy()
    if formula_energy is not None and oracle_energy is not None:
        delta = abs(formula_energy - oracle_energy)
        within = delta <= tol

    report = {
        "command": "energy",
        "input": args.input,
        "applied": applied,
        "order": g.order,
        "edge_count": g.edge_count,
        "method": args.method,
        "formula_energy": formula_energy,
        "oracle_energy": oracle_energy,
        "delta": delta,
        "tolerance": tol,
        "within_tolerance": within,
    }
    _write_json(report, args.output)
    return 0 if within is not False else 1


def _spectrum_dict(values: np.ndarray, merge_tolerance: float) -> dict:
    spectrum = Spectrum(values, merge_tolerance)
    return {
        "values": [float(v) for v in spectrum.values],
        "multiplicities": [[value, count] for value, count in spectrum.multiplicities()],
    }


def cmd_spectrum(args) -> int:
    base = _read_graph(args.input, args.input_format)
    g, applied, op_name, op_args = _resolve_applied(args, base)
    tol = args.tol if args.tol is not None else verification_tolerance(g.order)

    oracle = formula = max_delta = None
    within = None
    oracle_values = None
    if args.method in ("oracle", "both"):
        oracle_values = adjacency_spectrum(g).values
        oracle = _spectrum_dict(oracle_values, tol)
    if args.method in ("formula", "both"):
        if applied is None:
            raise ValueError(
                "the formula route needs --apply OPERATOR; a bare graph file has "
                "no closed-form spectrum"
            )
        coeff = _operator_spectrum_values(op_name, op_args)
        structured = structured_spectrum(coeff, adjacency_spectrum(base))
        formula = _spectrum_dict(structured.values, tol)
        if oracle_values is not None:
            max_delta = float(np.max(np.abs(structured.values - oracle_values)))
            within = max_delta <= tol

    report = {
        "command": "spectrum",
        "input": args.input,
        "applied": applied,
        "order": g.order,
        "method": args.method,
        "oracle": oracle,
        "formula": formula,
        "max_delta": max_delta,
        "tolerance": tol,
        "within_tolerance": within,
    }
    _write_json(report, args.output)
    return 0 if within is not False else 1


def _base_arguments(args) -> dict:
    kwargs: dict = {}
    if args.base and args.base2:
        kwargs["base_pair"] = (
            _read_graph(args.base, args.input_format),
            _read_graph(args.base2, args.input_format),
        )
    elif args.base2:
        raise ValueError("--base2 needs --base as well")
    elif args.base:
        kwargs["base"] = _read_graph(args.base, args.input_format)
    return kwargs


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


def cmd_verify(args) -> int:
    params = _parse_bindings(args.params)
    kwargs = _base_arguments(args)
    if "base_pair" in kwargs and args.family_id != "C5_1":
        raise ValueError("only C5_1 takes a base pair (--base plus --base2)")
    if "base_pair" in kwargs:
        spec = families.FamilySpec(args.family_id, params, base_pair=kwargs["base_pair"])
    else:
        spec = families.FamilySpec(args.family_id, params, base=kwargs.get("base"))
    report = families.verify(spec, method=args.method, tolerance=args.tol)
    if args.table:
        _write_text(report.to_table(), args.output)
    else:
        _write_json(report.to_dict(), args.output)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    ranges = _parse_ranges(args.ranges)
    kwargs = _base_arguments(args)
    reports = families.sweep(
        args.family_id,
        ranges,
        method=args.method,
        base=kwargs.get("base"),
        base_pair=kwargs.get("base_pair"),
        tolerance=args.tol,
        jobs=args.jobs,
    )
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


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("construct", help="apply a graph operator to an input graph")
    p.add_argument("operator",
                   help="operator spec: split:P,Q shadow-split:C,K splitting:M shadow:M kron")
    p.add_argument("input", help="base graph file")
    p.add_argument("--with", dest="with_graph", help="second graph file (kron only)")
    add_output(p)
    add_format(p)
    add_input_format(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("energy", help="compute graph energy")
    p.add_argument("input", help="graph file")
    p.add_argument("--apply", help="operator spec to apply first (enables the formula route)")
    add_method(p)
    add_tol(p)
    add_output(p, json_output=True)
    add_input_format(p)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("spectrum", help="compute the adjacency spectrum")
    p.add_argument("input", help="graph file")
    p.add_argument("--apply", help="operator spec to apply first (enables the formula route)")
    add_method(p)
    add_tol(p)
    add_output(p, json_output=True)
    add_input_format(p)
    p.set_defaults(fn=cmd_spectrum)

    def add_table(p):
        p.add_argument("--table", action="store_true",
                       help="render a plain-text table instead of JSON")

    p = sub.add_parser("verify", help="verify one family instance")
    p.add_argument("family_id", help="family id, e.g. C5_4 or C6_2")
    p.add_argument("params", nargs="*", help="parameter bindings like t=1 m=2 k=-1")
    p.add_argument("--base", help="base graph file (default: 4-cycle)")
    p.add_argument("--base2", help="second base graph file (C5_1 only)")
    add_method(p)
    add_tol(p)
    add_output(p, json_output=True)
    add_input_format(p)
    add_table(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="verify a family over a parameter grid")
    p.add_argument("family_id", help="family id, e.g. C6_1")
    p.add_argument("ranges", nargs="*", help="parameter ranges like k=1..5 or k=-1,1")
    p.add_argument("--base", help="base graph file (default: 4-cycle)")
    p.add_argument("--base2", help="second base graph file (C5_1 only)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker threads (default: available execution units)")
    add_method(p)
    add_tol(p)
    add_output(p, json_output=True)
    add_input_format(p)
    add_table(p)
    p.set_defaults(fn=cmd_sweep)

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
    if getattr(args, "tol", None) is not None and args.tol <= 0:
        parser.error("--tol must be positive")
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
