"""Parameterized equal-energy and border-energy graph families.

Each family identifier (C5_1 .. C5_9, C6_1 .. C6_3) names a parameterized
collection of operator graphs whose energies are provably related: the C5
families produce members of equal order and equal energy, and the C6
families produce graphs whose energy matches the complete graph of the same
order, 2(N-1). Verification computes energies along two routes (closed-form
scale factors and brute-force eigensolves) and reports the comparison.

The catalog `FAMILIES` is one table: each row is a member map plus an
optional domain rule (see `Family`); the default rule is "every parameter >= 1".
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable

from .graphs import (
    Graph,
    OrderCapError,
    check_order,
    complete_graph,
    cycle_graph,
    disjoint_union,
    max_order,
    star_graph,
)
from .operators import OPERATORS, Operator
from .spectral import (
    Spectrum,
    adjacency_spectrum,
    agreement,
    check_tolerance,
    structured_spectrum,
    verification_tolerance,
)

EQUIENERGETIC = "equienergetic"
BORDERENERGETIC = "borderenergetic"

METHODS = ("formula", "oracle", "both")


# E(K_r) = 2(r - 1): the `kron-complete` entry's C is A(K_r), so its factor is E(K_r)
_complete_energy = OPERATORS["kron-complete"].factor


class OutOfDomainError(ValueError):
    """Raised when family parameters fall outside the family's domain."""


def canonical_equienergetic_pair() -> tuple[Graph, Graph]:
    """A stock equienergetic base pair for C5_1: the 4-leaf star and the
    4-cycle plus an isolated vertex (cospectral order-5 graphs)."""
    return star_graph(4), disjoint_union([cycle_graph(4), complete_graph(1)])


@dataclass(frozen=True)
class FamilySpec:
    """A family identifier with bound parameters and optional base graphs:
    `bases` replaces the family's stock (`Family.stock`) with as many graphs
    of the caller's, and is empty for the stock itself."""

    corollary_id: str
    parameters: Mapping[str, int] = field(default_factory=dict)
    bases: tuple[Graph, ...] = ()


def _solved(memo: dict, key, build: Callable[[], Graph] | None = None) -> Spectrum:
    """The Spectrum `memo` holds under `key`, eigensolving `build()`, or the
    Graph `key` itself, on a miss. A failed eigensolve stores nothing."""
    spectrum = memo.get(key)
    if spectrum is None:
        spectrum = memo[key] = adjacency_spectrum(key if build is None else build())
    return spectrum


@dataclass(frozen=True)
class MemberPlan:
    """One member: an operator with its arguments, applied to a base graph.
    `_member` makes a family's members and refuses one over the dense-order
    cap by its table label; the command line's builder names its own."""

    operator: Operator
    args: tuple[int, ...]
    base: Graph
    base_label: str = "base"
    base_energy_closed: float | None = None
    order: int = field(init=False)  # dimension of C times the base order, set once

    def __post_init__(self):
        object.__setattr__(self, "order", self.operator.dimension(*self.args) * self.base.order)

    @property
    def description(self) -> str:
        return self.operator.describe(self.args, self.base_label)

    def build(self) -> Graph:
        return self.operator.build(self.base, *self.args)

    def routes(self, method: str, memo: dict, *, graph: Graph | None = None,
               structured: bool = False) -> tuple[float | None, Spectrum | None, Spectrum | None]:
        """The routes `method` names, each None when left out: the closed-form
        energy (the factor times the base energy, closed when the plan
        carries it), the eigensolved spectrum of the member (`graph` when the
        caller built it, else built here) and, if `structured`, the member's
        spectrum from those of C and the base. Eigensolves go through `memo`
        (see `verify`); a graph the caller built is its own key."""
        predicted = measured = closed = None
        if method in ("formula", "both"):
            base_energy = self.base_energy_closed
            if base_energy is None:
                base_energy = _solved(memo, self.base).energy()
            predicted = self.operator.factor(*self.args) * base_energy
            if structured:
                closed = structured_spectrum(self.operator.coefficient_spectrum(*self.args),
                                             _solved(memo, self.base))
        if method in ("oracle", "both"):
            if graph is not None:
                measured = _solved(memo, graph)
            else:
                measured = _solved(memo, (self.operator.name, self.args, self.base), self.build)
        return predicted, measured, closed


@dataclass
class MemberReport:
    description: str
    order: int
    predicted_energy: float | None
    measured_energy: float | None
    target_energy: float | None


@dataclass
class VerificationReport:
    """Outcome of checking one family instance.

    For border-energy families each member is compared against the complete
    graph of its own order, and `target_energy` carries 2(order-1); for
    equal-energy families the members are compared against each other and
    `target_energy` is null. `orders_equal` is false when a member the oracle
    route built has another order than its plan states, and for equal-energy
    families also when the members' orders differ.

    A "skipped" or "error" report leaves every field from `tolerance` to
    `cospectral` at its default, and its `error` says why.
    """

    corollary_id: str
    kind: str
    parameters: dict[str, int]
    method: str
    tolerance: float | None = None
    members: list[MemberReport] = field(default_factory=list)
    orders_equal: bool | None = None
    energies_equal: bool | None = None
    cospectral: list[dict] | None = None
    verdict: str = field(kw_only=True)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {**vars(self), "parameters": dict(self.parameters),
                "members": [dict(vars(m)) for m in self.members]}

    def to_table(self) -> str:
        """Plain-text rendering of the same record `to_dict` serializes.

        The JSON form is the source of truth; this is display only.
        """
        params = " ".join(f"{k}={v}" for k, v in self.parameters.items()) or "-"
        head = f"{self.corollary_id} [{self.kind}]  params: {params}  verdict: {self.verdict.upper()}"
        lines = [head]
        if self.error:
            lines.append(f"  error: {self.error}")
        if self.tolerance is not None:
            lines.append(f"  tolerance: {self.tolerance:g}")
        if self.members:
            rows = [("member", "order", "predicted", "measured", "target")]
            for m in self.members:
                energies = (m.predicted_energy, m.measured_energy, m.target_energy)
                rows.append((m.description, str(m.order),
                             *("-" if e is None else f"{e:.12g}" for e in energies)))
            widths = [max(len(r[i]) for r in rows) for i in range(5)]
            for r in rows:
                lines.append(
                    "  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                )
        if self.orders_equal is not None:
            lines.append(
                f"  orders equal: {self.orders_equal}   energies equal: {self.energies_equal}"
            )
        if self.cospectral:
            flagged = ", ".join(
                f"({c['pair'][0]},{c['pair'][1]})={'yes' if c['cospectral'] else 'no'}"
                for c in self.cospectral
            )
            lines.append(f"  cospectral pairs: {flagged}")
        return "\n".join(lines) + "\n"


def _at_least_one(**params: int) -> str | None:
    """The default domain rule: every parameter >= 1. Returns why `params`
    fall outside it, or None."""
    if all(value >= 1 for value in params.values()):
        return None
    got = ", ".join(f"{name}={value}" for name, value in params.items())
    return f"needs {','.join(params)} >= 1, got {got}"


@dataclass(frozen=True)
class Family:
    """One row of the catalog. `members` maps the parameters to each member's
    (operator name, *args) with plain +, -, * and **: it checks nothing,
    raises nothing and never sees a Graph. `domain` returns why parameters
    fall outside the family's domain, or None; the default rule is "every
    parameter >= 1". `stock` holds a builder, run once on first use, per base
    graph a caller may replace; its length is how many the family takes, and
    it is empty exactly when the family gives `complete_parts`, the (count,
    order) pairs of the complete graphs whose disjoint union the base is."""

    family_id: str
    kind: str
    param_names: tuple[str, ...]
    stock: tuple[Callable[[], Graph], ...]
    summary: str
    members: Callable[..., list[tuple]]  # (**parameters) -> [(operator name, *args)]
    domain: Callable[..., str | None] = _at_least_one  # (**parameters)
    complete_parts: Callable[..., list[tuple[int, int]]] | None = None  # (**parameters)


def _require_params(spec: FamilySpec, names: tuple[str, ...]) -> dict[str, int]:
    given = set(spec.parameters)
    expected = set(names)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise ValueError(
            f"{spec.corollary_id} takes parameters {sorted(expected)}: " + ", ".join(parts)
        )
    for name in names:
        value = spec.parameters[name]
        try:
            integral = value == int(value)
        except (OverflowError, ValueError):  # int() of inf or nan
            integral = False
        if not integral:
            raise ValueError(f"parameter {name} must be an integer, got {value!r}")
    return {name: int(value) for name, value in spec.parameters.items()}


def _bases(family: Family, bases: tuple[Graph, ...]) -> tuple[Graph, ...]:
    """The base graphs the family takes: the caller's, else its stock. Raises
    ValueError when the caller gives another number than the family takes."""
    if not bases:
        return tuple(build() for build in family.stock)
    if len(bases) == len(family.stock):
        return bases
    if not family.stock:
        raise ValueError(f"{family.family_id} constructs its own base graphs")
    graphs = {1: "a single base graph", 2: "a pair"}
    takes = "a base pair" if len(family.stock) == 2 else graphs[1]
    given = graphs.get(len(bases), f"{len(bases)} base graphs")
    raise ValueError(f"{family.family_id} takes {takes}, not {given}")


def _complete_union(parts: list[tuple[int, int]]) -> tuple[Graph, str, float]:
    """The disjoint union of complete graphs given as (count, order) pairs, its
    label and its closed energy. Each order, then their total, meets the dense
    cap before any graph is built, and each pair's graph is built once."""
    for _, r in parts:
        check_order(r)
    check_order(sum(n * r for n, r in parts), "disjoint union")
    labels = [f"{n}*complete({r})" for n, r in parts]
    labels[-1] = labels[-1].removeprefix("1*")
    label = labels[0] if len(labels) == 1 else f"union({', '.join(labels)})"
    blocks = [g for n, r in parts for g in [complete_graph(r)] * n]
    graph = blocks[0] if len(blocks) == 1 else disjoint_union(blocks)
    return graph, label, sum(n * _complete_energy(r) for n, r in parts)


def _member(operator: str, base: Graph, *args: int, base_label: str = "base",
            base_energy_closed: float | None = None) -> MemberPlan:
    # `_plan` makes a family's members in order, after its domain checks
    plan = MemberPlan(OPERATORS[operator], args, base, base_label, base_energy_closed)
    check_order(plan.order, plan.operator.label_for(args))
    return plan


_stock_pair = functools.cache(canonical_equienergetic_pair)
_four_cycle = functools.cache(lambda: cycle_graph(4))

FAMILIES: dict[str, Family] = {
    f.family_id: f
    for f in (
        Family("C5_1", EQUIENERGETIC, ("p", "q"),
               (lambda: _stock_pair()[0], lambda: _stock_pair()[1]),
               "same splitting operator applied to an equienergetic base pair",
               lambda p, q: [("split", p, q)]),
        Family("C5_2", EQUIENERGETIC, ("t", "m", "k"), (_four_cycle,),
               "two splitting graphs with matched derived (p, q) parameters",
               lambda t, m, k: [
                   ("split", (5 * t - 2) ** 2 * m + k * (5 * t - 2), m),
                   ("split", 5 * t * t * m + k * t, 5 * (2 * t - 1) ** 2 * m + k * (4 * t - 2)),
               ],
               lambda t, m, k: _at_least_one(t=t, m=m) or (
                   None if k in (1, -1) else f"needs k in {{1, -1}}, got k={k}")),
        Family("C5_3", EQUIENERGETIC, ("m", "t"), (_four_cycle,),
               "two shadow-splitting graphs with complementary (c, k) parameters",
               lambda m, t: [("shadow-split", m + t, 2 * m - t),
                             ("shadow-split", 3 * m - t, t)],
               lambda m, t: None if m > t >= 1 else f"needs m > t >= 1, got m={m}, t={t}"),
        Family("C5_4", EQUIENERGETIC, ("p", "q"), (_four_cycle,),
               "splitting graph against the shadow graph of matching order "
               "(energies match exactly when q = 4p - 2)",
               lambda p, q: [("split", p, q), ("shadow", p + q)]),
        Family("C5_5", EQUIENERGETIC, ("c", "k"), (_four_cycle,),
               "shadow-splitting graph against the shadow graph of matching order "
               "(energies match exactly when k = 2c)",
               lambda c, k: [("shadow-split", c, k), ("shadow", c + k)]),
        Family("C5_6", EQUIENERGETIC, (), (_four_cycle,),
               "splitting(p=2,q=1) against the Kronecker product with complete(3)",
               lambda: [("split", 2, 1), ("kron-complete", 3)]),
        Family("C5_7", EQUIENERGETIC, ("m",), (_four_cycle,),
               "splitting graph against the Kronecker product with a balanced "
               "complete bipartite graph",
               lambda m: [("split", 2 * m, 8 * m - 2), ("kron-complete-bipartite", 5 * m - 1)]),
        Family("C5_8", EQUIENERGETIC, ("m",), (_four_cycle,),
               "splitting graph against a shadow-splitting graph of equal order",
               lambda m: [("split", 3 * m + 1, 12 * m + 2),
                          ("shadow-split", 5 * m + 1, 10 * m + 2)]),
        Family("C5_9", EQUIENERGETIC, ("t",), (_four_cycle,),
               "four mutually equienergetic operator graphs of one order",
               lambda t: [("shadow-split", 10 * t - 4, 20 * t - 8),
                          ("shadow", 30 * t - 12),
                          ("complete-bipartite-kron", 15 * t - 6),
                          ("split", 6 * t - 2, 24 * t - 10)]),
        Family("C6_1", BORDERENERGETIC, ("k",), (),
               "two splitting graphs of complete(3) with complete-graph energy",
               lambda k: [("split", k + 1, k), ("split", 9 * k + 6, k + 1)],
               complete_parts=lambda k: [(1, 3)]),
        Family("C6_2", BORDERENERGETIC, ("t",), (),
               "shadow-splitting of a complete graph with complete-graph energy",
               lambda t: [("shadow-split", (t + 1) ** 2, t * (2 * t + 1))],
               complete_parts=lambda t: [(1, 3 * t + 4)]),
        Family("C6_3", BORDERENERGETIC, ("t",), (),
               "shadow-splitting of a union of complete graphs with "
               "complete-graph energy",
               lambda t: [("shadow-split", (t + 1) ** 2, t * (2 * t + 1))],
               complete_parts=lambda t: [(t, 3 * t + 4), (1, 3 * t + 5)]),
    )
}


def family_ids() -> list[str]:
    return sorted(FAMILIES)


def get_family(corollary_id: str) -> Family:
    try:
        return FAMILIES[corollary_id]
    except KeyError:
        raise ValueError(
            f"unknown family {corollary_id!r}; known ids: {', '.join(family_ids())}"
        ) from None


def _plan(family: Family, params: dict[str, int], bases: tuple[Graph, ...]) -> list[MemberPlan]:
    """The members of one instance at checked params, made in order: the bases
    are resolved and a base pair's orders checked, then the family's domain;
    then the row's map gives each member, which goes to every base in turn."""
    bases = _bases(family, bases)
    if len(bases) == 2 and bases[0].order != bases[1].order:
        raise OutOfDomainError("the base pair must share one order")
    reason = family.domain(**params)
    if reason is not None:
        raise OutOfDomainError(f"{family.family_id} {reason}")
    if family.complete_parts is not None:
        labelled = [_complete_union(family.complete_parts(**params))]
    else:
        labels = ("first base", "second base") if len(bases) == 2 else ("base",)
        labelled = [(base, label, None) for base, label in zip(bases, labels)]
    return [_member(name, base, *args, base_label=label, base_energy_closed=closed)
            for name, *args in family.members(**params)
            for base, label, closed in labelled]


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def verify(spec: FamilySpec, method: str = "both", tolerance: float | None = None,
           *, _memo: dict | None = None) -> VerificationReport:
    """Verify one family instance and return the full report.

    method selects the energy routes: "formula" evaluates the closed-form
    scale factors, "oracle" eigensolves the constructed graphs, and "both"
    does both and additionally requires the two routes to agree per member.
    Each member's routes come from `MemberPlan.routes`; the fixed-base
    families carry their base energies in closed form.

    Eigensolved results go into `_memo`, a fresh dict unless `sweep` hands
    in the one its grid points share. It maps a base Graph to its Spectrum
    and (operator name, args, base Graph) to the member's Spectrum; a Graph
    key compares by content, so a base rebuilt at every point still hits.
    A failed eigensolve stores nothing.
    """
    _check_method(method)
    check_tolerance(tolerance)
    family = get_family(spec.corollary_id)
    params = _require_params(spec, family.param_names)
    plans = _plan(family, params, spec.bases)
    tol = tolerance if tolerance is not None else verification_tolerance(
        max(plan.order for plan in plans)
    )

    memo = {} if _memo is None else _memo
    members: list[MemberReport] = []
    spectra = []
    for plan in plans:
        predicted, spectrum, _ = plan.routes(method, memo)
        measured = None
        if spectrum is not None:
            spectra.append(spectrum)
            measured = spectrum.energy()
        target = _complete_energy(plan.order) if family.kind == BORDERENERGETIC else None
        members.append(MemberReport(plan.description, plan.order, predicted, measured, target))

    # the values present in each group must agree: a member's routes and its
    # target, and an equal-energy family's members per route
    groups = [(m.target_energy, m.predicted_energy, m.measured_energy) for m in members]
    if family.kind == EQUIENERGETIC:
        groups += [[m.predicted_energy for m in members], [m.measured_energy for m in members]]
    energies_equal = all(agreement(group, tol)[1] for group in groups)
    # a Spectrum holds one value per vertex of the built graph, quotient zeros
    # included; a borderenergetic member is matched against K_N of its own order
    orders_equal = all(len(s) == plan.order for s, plan in zip(spectra, plans)) and (
        family.kind == BORDERENERGETIC or len({plan.order for plan in plans}) == 1
    )

    cospectral = [
        {"pair": [i, j], "cospectral": agreement((spectra[i], spectra[j]), tol)[1]}
        for i, j in itertools.combinations(range(len(spectra)), 2)
    ] if spectra else None

    return VerificationReport(
        corollary_id=spec.corollary_id,
        kind=family.kind,
        parameters=params,
        method=method,
        tolerance=tol,
        members=members,
        orders_equal=orders_equal,
        energies_equal=energies_equal,
        cospectral=cospectral,
        verdict="pass" if orders_equal and energies_equal else "fail",
    )


def sweep(corollary_id: str, ranges: Mapping[str, Sequence[int]],
          method: str = "both", bases: tuple[Graph, ...] = (),
          tolerance: float | None = None, jobs: int | None = None) -> list[VerificationReport]:
    """Verify a family over a parameter grid.

    `ranges` maps every free parameter of the family to a nonempty value
    list; the grid is their cartesian product, walked in the family's
    declared parameter order. Grid points outside the family's domain (or
    beyond the dense-order cap) yield "skipped" reports instead of aborting
    the sweep; any other exception at a grid point, such as a LAPACK
    non-convergence, yields an "error" report that names it. `bases` are
    the caller's base graphs for every point, as in `FamilySpec`.

    Points run serially on the caller's thread, in grid order: a thread pool
    lost to the serial loop in 10 of 10 alternating 30 s pairs of
    `bench/run.py` on sweep-grid (2 CPUs, see CHANGES.md), because each
    point is mostly Python that holds the interpreter lock. `jobs` is
    ignored and kept only because bench/tests/test_bench_oracle.py passes
    `jobs=1`.

    One sweep call does each piece of work once: the base graphs are
    resolved once for every point, and the points share one memo of base
    and member spectra (see `verify`), so a member or base that
    recurs across the grid is eigensolved once. A failed eigensolve is not
    memoized. Nothing is shared across sweep calls.
    """
    _check_method(method)
    check_tolerance(tolerance)
    family = get_family(corollary_id)
    if set(ranges) != set(family.param_names):
        raise ValueError(
            f"{corollary_id} sweep needs ranges for exactly {list(family.param_names)}, "
            f"got {sorted(ranges)}"
        )
    values = []
    for name in family.param_names:
        seq = list(ranges[name])
        if not seq:
            raise ValueError(f"empty range for parameter {name!r}")
        values.append(seq)
    grid = itertools.product(*values)  # one empty point for a family without parameters
    # a wrong number of bases or a malformed cap setting fails the sweep, not each point
    bases = _bases(family, bases)
    max_order()
    memo: dict = {}

    def run(point) -> VerificationReport:
        params = dict(zip(family.param_names, point))
        spec = FamilySpec(corollary_id, params, bases)
        try:
            return verify(spec, method=method, tolerance=tolerance, _memo=memo)
        except (OutOfDomainError, OrderCapError) as exc:
            verdict, message = "skipped", str(exc)
        except Exception as exc:  # one failing point must not end the sweep
            verdict, message = "error", f"{type(exc).__name__}: {exc}"
        # the report echoes the checked ints, or a value that fails the check as given
        with contextlib.suppress(ValueError):
            params = _require_params(spec, family.param_names)
        return VerificationReport(corollary_id, family.kind, params, method,
                                  verdict=verdict, error=message)

    return [run(point) for point in grid]
