"""Parameterized equal-energy and border-energy graph families.

Each family identifier (C5_1 .. C5_9, C6_1 .. C6_3) names a parameterized
collection of operator graphs whose energies are provably related: the C5
families produce members of equal order and equal energy, and the C6
families produce graphs whose energy matches the complete graph of the same
order, 2(N-1). Verification computes energies along two routes (closed-form
scale factors and brute-force eigensolves) and reports the comparison.
"""

from __future__ import annotations

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
from .spectral import Spectrum, adjacency_spectrum, check_tolerance, verification_tolerance

EQUIENERGETIC = "equienergetic"
BORDERENERGETIC = "borderenergetic"

METHODS = ("formula", "oracle", "both")

# which base graphs a family takes from the caller
PAIR, SINGLE, NONE = "pair", "single", "none"


# E(K_r) = 2(r - 1): the `kron-complete` entry's C is A(K_r), so its factor is E(K_r)
_complete_energy = OPERATORS["kron-complete"].factor


class OutOfDomainError(ValueError):
    """Raised when family parameters fall outside the family's domain."""


def default_base() -> Graph:
    """Default base graph for base-parametric families: the 4-cycle."""
    return cycle_graph(4)


def canonical_equienergetic_pair() -> tuple[Graph, Graph]:
    """A stock equienergetic base pair for C5_1: the 4-leaf star and the
    4-cycle plus an isolated vertex (cospectral order-5 graphs)."""
    return star_graph(4), disjoint_union([cycle_graph(4), complete_graph(1)])


@dataclass(frozen=True)
class FamilySpec:
    """A family identifier with bound parameters and optional base graphs.

    `base` feeds the base-parametric families (ignored defaults to the
    4-cycle); `base_pair` feeds C5_1 only. The C6 families construct their
    own bases and reject caller-supplied ones.
    """

    corollary_id: str
    parameters: Mapping[str, int] = field(default_factory=dict)
    base: Graph | None = None
    base_pair: tuple[Graph, Graph] | None = None


@dataclass(frozen=True)
class MemberPlan:
    """One family member: an operator with its arguments, applied to a base
    graph. A plan over the dense-order cap raises OrderCapError."""

    operator: Operator
    args: tuple[int, ...]
    base: Graph
    base_label: str = "base"
    base_energy_closed: float | None = None
    order: int = field(init=False)  # dimension of C times the base order, set once

    def __post_init__(self):
        object.__setattr__(self, "order", self.operator.dimension(*self.args) * self.base.order)
        check_order(self.order, self.operator.label_for(self.args))

    @property
    def description(self) -> str:
        return self.operator.describe(self.args, self.base_label)

    def build(self) -> Graph:
        return self.operator.build(self.base, *self.args)


@dataclass
class MemberReport:
    description: str
    order: int
    predicted_energy: float | None
    measured_energy: float | None
    target_energy: float | None

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class VerificationReport:
    """Outcome of checking one family instance.

    For border-energy families each member is compared against the complete
    graph of its own order, and `target_energy` carries 2(order-1); for
    equal-energy families the members are compared against each other and
    `target_energy` is null. `orders_equal` is false when a member the oracle
    route built has another order than its plan states, and for equal-energy
    families also when the members' orders differ.
    """

    corollary_id: str
    kind: str
    parameters: dict[str, int]
    method: str
    tolerance: float | None
    members: list[MemberReport]
    orders_equal: bool | None
    energies_equal: bool | None
    cospectral: list[dict] | None
    verdict: str
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {**vars(self), "parameters": dict(self.parameters),
                "members": [m.to_dict() for m in self.members]}

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
                rows.append((
                    m.description,
                    str(m.order),
                    "-" if m.predicted_energy is None else f"{m.predicted_energy:.12g}",
                    "-" if m.measured_energy is None else f"{m.measured_energy:.12g}",
                    "-" if m.target_energy is None else f"{m.target_energy:.12g}",
                ))
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

    @classmethod
    def unverified(cls, corollary_id, kind, parameters, method, verdict,
                   message) -> "VerificationReport":
        """A report without members: verdict "skipped" or "error", and why."""
        return cls(
            corollary_id=corollary_id,
            kind=kind,
            parameters=dict(parameters),
            method=method,
            tolerance=None,
            members=[],
            orders_equal=None,
            energies_equal=None,
            cospectral=None,
            verdict=verdict,
            error=message,
        )


@dataclass(frozen=True)
class Family:
    family_id: str
    kind: str
    param_names: tuple[str, ...]
    base: str  # PAIR, SINGLE or NONE
    summary: str
    plan: Callable[..., list[MemberPlan]]  # (*base graphs, **parameters)


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
    out = {}
    for name in names:
        value = spec.parameters[name]
        if value != int(value):
            raise ValueError(f"parameter {name} must be an integer, got {value!r}")
        out[name] = int(value)
    return out


def _domain(condition: bool, message: str) -> None:
    if not condition:
        raise OutOfDomainError(message)


def _bases(family: Family, base: Graph | None,
           base_pair: tuple[Graph, Graph] | None) -> tuple[Graph, ...]:
    """The base graphs `family.plan` takes: the caller's, else the defaults.

    Raises ValueError when the caller gives a kind of base the family does
    not take.
    """
    name = family.family_id
    if family.base == PAIR:
        if base is not None:
            raise ValueError(f"{name} takes a base pair, not a single base graph")
        return base_pair if base_pair is not None else canonical_equienergetic_pair()
    if family.base == SINGLE:
        if base_pair is not None:
            raise ValueError(f"{name} takes a single base graph, not a pair")
        return (base if base is not None else default_base(),)
    if base is not None or base_pair is not None:
        raise ValueError(f"{name} constructs its own base graphs")
    return ()


def _member(operator: str, base: Graph, *args: int, base_label: str = "base",
            base_energy_closed: float | None = None) -> MemberPlan:
    return MemberPlan(OPERATORS[operator], args, base, base_label, base_energy_closed)


def _plan_c5_1(g1: Graph, g2: Graph, p: int, q: int) -> list[MemberPlan]:
    _domain(g1.order == g2.order, "the base pair must share one order")
    _domain(p >= 1 and q >= 1, f"C5_1 needs p,q >= 1, got p={p}, q={q}")
    return [
        _member("split", g1, p, q, base_label="first base"),
        _member("split", g2, p, q, base_label="second base"),
    ]


def _plan_c5_2(base: Graph, t: int, m: int, k: int) -> list[MemberPlan]:
    _domain(t >= 1 and m >= 1, f"C5_2 needs t,m >= 1, got t={t}, m={m}")
    _domain(k in (1, -1), f"C5_2 needs k in {{1, -1}}, got k={k}")
    p1 = (5 * t - 2) ** 2 * m + k * (5 * t - 2)
    q1 = m
    p2 = 5 * t * t * m + k * t
    q2 = 5 * (2 * t - 1) ** 2 * m + k * (4 * t - 2)
    _domain(
        min(p1, q1, p2, q2) >= 1,
        f"C5_2 derived parameters must be >= 1, got p1={p1}, q1={q1}, p2={p2}, q2={q2}",
    )
    return [_member("split", base, p1, q1), _member("split", base, p2, q2)]


def _plan_c5_3(base: Graph, m: int, t: int) -> list[MemberPlan]:
    _domain(m > t >= 1, f"C5_3 needs m > t >= 1, got m={m}, t={t}")
    return [
        _member("shadow-split", base, m + t, 2 * m - t),
        _member("shadow-split", base, 3 * m - t, t),
    ]


def _plan_c5_4(base: Graph, p: int, q: int) -> list[MemberPlan]:
    _domain(p >= 1 and q >= 1, f"C5_4 needs p,q >= 1, got p={p}, q={q}")
    return [_member("split", base, p, q), _member("shadow", base, p + q)]


def _plan_c5_5(base: Graph, c: int, k: int) -> list[MemberPlan]:
    _domain(c >= 1 and k >= 1, f"C5_5 needs c,k >= 1, got c={c}, k={k}")
    return [_member("shadow-split", base, c, k), _member("shadow", base, c + k)]


def _plan_c5_6(base: Graph) -> list[MemberPlan]:
    return [_member("split", base, 2, 1), _member("kron-complete", base, 3)]


def _plan_c5_7(base: Graph, m: int) -> list[MemberPlan]:
    _domain(m >= 1, f"C5_7 needs m >= 1, got m={m}")
    return [
        _member("split", base, 2 * m, 8 * m - 2),
        _member("kron-complete-bipartite", base, 5 * m - 1),
    ]


def _plan_c5_8(base: Graph, m: int) -> list[MemberPlan]:
    _domain(m >= 1, f"C5_8 needs m >= 1, got m={m}")
    return [
        _member("split", base, 3 * m + 1, 12 * m + 2),
        _member("shadow-split", base, 5 * m + 1, 10 * m + 2),
    ]


def _plan_c5_9(base: Graph, t: int) -> list[MemberPlan]:
    _domain(t >= 1, f"C5_9 needs t >= 1, got t={t}")
    return [
        _member("shadow-split", base, 10 * t - 4, 20 * t - 8),
        _member("shadow", base, 30 * t - 12),
        _member("complete-bipartite-kron", base, 15 * t - 6),
        _member("split", base, 6 * t - 2, 24 * t - 10),
    ]


def _plan_c6_1(k: int) -> list[MemberPlan]:
    _domain(k >= 1, f"C6_1 needs k >= 1, got k={k}")
    base = complete_graph(3)
    closed = _complete_energy(3)
    return [
        _member("split", base, k + 1, k, base_label="complete(3)", base_energy_closed=closed),
        _member("split", base, 9 * k + 6, k + 1, base_label="complete(3)",
                base_energy_closed=closed),
    ]


def _plan_c6_2(t: int) -> list[MemberPlan]:
    _domain(t >= 1, f"C6_2 needs t >= 1, got t={t}")
    r = 3 * t + 4
    return [
        _member("shadow-split", complete_graph(r), (t + 1) ** 2, t * (2 * t + 1),
                base_label=f"complete({r})", base_energy_closed=_complete_energy(r))
    ]


def _plan_c6_3(t: int) -> list[MemberPlan]:
    _domain(t >= 1, f"C6_3 needs t >= 1, got t={t}")
    small, large = 3 * t + 4, 3 * t + 5
    base = disjoint_union([complete_graph(small)] * t + [complete_graph(large)])
    closed = t * _complete_energy(small) + _complete_energy(large)
    return [
        _member("shadow-split", base, (t + 1) ** 2, t * (2 * t + 1),
                base_label=f"union({t}*complete({small}), complete({large}))",
                base_energy_closed=closed)
    ]


FAMILIES: dict[str, Family] = {
    f.family_id: f
    for f in (
        Family("C5_1", EQUIENERGETIC, ("p", "q"), PAIR,
               "same splitting operator applied to an equienergetic base pair", _plan_c5_1),
        Family("C5_2", EQUIENERGETIC, ("t", "m", "k"), SINGLE,
               "two splitting graphs with matched derived (p, q) parameters", _plan_c5_2),
        Family("C5_3", EQUIENERGETIC, ("m", "t"), SINGLE,
               "two shadow-splitting graphs with complementary (c, k) parameters", _plan_c5_3),
        Family("C5_4", EQUIENERGETIC, ("p", "q"), SINGLE,
               "splitting graph against the shadow graph of matching order "
               "(energies match exactly when q = 4p - 2)", _plan_c5_4),
        Family("C5_5", EQUIENERGETIC, ("c", "k"), SINGLE,
               "shadow-splitting graph against the shadow graph of matching order "
               "(energies match exactly when k = 2c)", _plan_c5_5),
        Family("C5_6", EQUIENERGETIC, (), SINGLE,
               "splitting(p=2,q=1) against the Kronecker product with complete(3)", _plan_c5_6),
        Family("C5_7", EQUIENERGETIC, ("m",), SINGLE,
               "splitting graph against the Kronecker product with a balanced "
               "complete bipartite graph", _plan_c5_7),
        Family("C5_8", EQUIENERGETIC, ("m",), SINGLE,
               "splitting graph against a shadow-splitting graph of equal order", _plan_c5_8),
        Family("C5_9", EQUIENERGETIC, ("t",), SINGLE,
               "four mutually equienergetic operator graphs of one order", _plan_c5_9),
        Family("C6_1", BORDERENERGETIC, ("k",), NONE,
               "two splitting graphs of complete(3) with complete-graph energy", _plan_c6_1),
        Family("C6_2", BORDERENERGETIC, ("t",), NONE,
               "shadow-splitting of a complete graph with complete-graph energy", _plan_c6_2),
        Family("C6_3", BORDERENERGETIC, ("t",), NONE,
               "shadow-splitting of a union of complete graphs with "
               "complete-graph energy", _plan_c6_3),
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


def _plan(family: Family, spec: FamilySpec) -> list[MemberPlan]:
    params = _require_params(spec, family.param_names)
    return family.plan(*_bases(family, spec.base, spec.base_pair), **params)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def verify(spec: FamilySpec, method: str = "both", tolerance: float | None = None,
           *, _memo: dict | None = None) -> VerificationReport:
    """Verify one family instance and return the full report.

    method selects the energy routes: "formula" evaluates the closed-form
    scale factors, "oracle" eigensolves the constructed graphs, and "both"
    does both and additionally requires the two routes to agree per member.
    The formula route multiplies the scale factor by the base graph's energy,
    which is itself closed-form for the fixed-base families and eigensolved
    once otherwise; it never eigensolves a constructed member.

    Eigensolved results go into `_memo`, a fresh dict unless `sweep` hands
    in the one its grid points share. It maps a base Graph to its Spectrum
    and (operator name, args, base Graph) to the member's Spectrum; a Graph
    key compares by content, so a base rebuilt at every point still hits.
    A failed eigensolve stores nothing.
    """
    _check_method(method)
    check_tolerance(tolerance)
    family = get_family(spec.corollary_id)
    plans = _plan(family, spec)
    tol = tolerance if tolerance is not None else verification_tolerance(
        max(plan.order for plan in plans)
    )

    memo = {} if _memo is None else _memo

    def solved(key, build: Callable[[], Graph]) -> Spectrum:
        spectrum = memo.get(key)
        if spectrum is None:
            spectrum = memo[key] = adjacency_spectrum(build())
        return spectrum

    members: list[MemberReport] = []
    spectra = []
    for plan in plans:
        predicted = measured = None
        if method in ("formula", "both"):
            base_energy = plan.base_energy_closed
            if base_energy is None:
                base_energy = solved(plan.base, lambda: plan.base).energy()
            predicted = plan.operator.factor(*plan.args) * base_energy
        if method in ("oracle", "both"):
            spectrum = solved((plan.operator.name, plan.args, plan.base), plan.build)
            spectra.append(spectrum)
            measured = spectrum.energy()
        target = _complete_energy(plan.order) if family.kind == BORDERENERGETIC else None
        members.append(MemberReport(plan.description, plan.order, predicted, measured, target))

    # every value present in a group must agree with every other within tol: a
    # member's routes and its target, and an equal-energy family's members per route
    groups = [(m.target_energy, m.predicted_energy, m.measured_energy) for m in members]
    if family.kind == EQUIENERGETIC:
        groups += [[m.predicted_energy for m in members], [m.measured_energy for m in members]]
    energies_equal = all(
        abs(a - b) <= tol
        for group in groups
        for a, b in itertools.combinations([v for v in group if v is not None], 2)
    )
    # a Spectrum holds one value per vertex of the built graph, quotient zeros
    # included; a borderenergetic member is matched against K_N of its own order
    orders_equal = all(len(s) == plan.order for s, plan in zip(spectra, plans)) and (
        family.kind == BORDERENERGETIC or len({plan.order for plan in plans}) == 1
    )

    cospectral = [
        {"pair": [i, j], "cospectral": spectra[i].matches(spectra[j], tol)}
        for i, j in itertools.combinations(range(len(spectra)), 2)
    ] if spectra else None

    verdict = "pass" if (orders_equal and energies_equal) else "fail"
    return VerificationReport(
        corollary_id=spec.corollary_id,
        kind=family.kind,
        parameters=dict(spec.parameters),
        method=method,
        tolerance=tol,
        members=members,
        orders_equal=orders_equal,
        energies_equal=energies_equal,
        cospectral=cospectral,
        verdict=verdict,
    )


def sweep(corollary_id: str, ranges: Mapping[str, Sequence[int]],
          method: str = "both", base: Graph | None = None,
          base_pair: tuple[Graph, Graph] | None = None,
          tolerance: float | None = None, jobs: int | None = None) -> list[VerificationReport]:
    """Verify a family over a parameter grid.

    `ranges` maps every free parameter of the family to a nonempty value
    list; the grid is their cartesian product, walked in the family's
    declared parameter order. Grid points outside the family's domain (or
    beyond the dense-order cap) yield "skipped" reports instead of aborting
    the sweep; any other exception at a grid point, such as a LAPACK
    non-convergence, yields an "error" report that names it.

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
    # a wrong kind of base or a malformed cap setting fails the sweep, not each point
    bases = _bases(family, base, base_pair)
    if family.base == SINGLE:
        (base,) = bases
    elif family.base == PAIR:
        base_pair = bases
    max_order()
    memo: dict = {}

    def run(point) -> VerificationReport:
        params = dict(zip(family.param_names, point))
        spec = FamilySpec(corollary_id, params, base=base, base_pair=base_pair)
        try:
            return verify(spec, method=method, tolerance=tolerance, _memo=memo)
        except (OutOfDomainError, OrderCapError) as exc:
            verdict, message = "skipped", str(exc)
        except Exception as exc:  # one failing point must not end the sweep
            verdict, message = "error", f"{type(exc).__name__}: {exc}"
        return VerificationReport.unverified(
            corollary_id, family.kind, params, method, verdict, message
        )

    return [run(point) for point in grid]
