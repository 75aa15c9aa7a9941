"""Workload definitions: seeded inputs, CLI op lists and the expected outcomes.

Every random input is drawn from ``numpy.random.default_rng(seed)``, so one
seed always gives the same files. The program sees only argv and those files.

Each op carries its own expectation, computed here from the paper's domains,
iff conditions and closed-form member orders, never from the program's own
verdict. ``Op.check`` returns a list of problems; an empty list means the
invocation's exit code, stdout, stderr and written files are as expected.
Expectations that take time to compute are computed at the first check (in
the warm-up pass), so that set-up time covers only the import and the inputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BASE_ORDER = 4  # the default base graph of base-parametric families is the 4-cycle
PAIR_ORDER = 5  # the stock equienergetic base pair of C5_1 has order 5
# E(C4) = |2| + |-2|, and the stock pair K(1,4) and C4 + K1 both have energy 4 too
DEFAULT_BASE_ENERGY = 4.0
BORDERENERGETIC = ("C6_1", "C6_2", "C6_3")

EDGE_PROBABILITY = 0.5
DENSE_BASE_ORDER = 40  # seeded base of `verify C5_8 m=1 --base`
DENSE_ENERGY_ORDER = 300  # seeded input of `energy --apply split:2,1`
CONVERT_ORDER = 400  # seeded input of the convert cycle
CONSTRUCT_ORDER = 100  # seeded base of `construct split:2,2`


# -- closed-form expectations -------------------------------------------------

def _c5_2_parameters(t: int, m: int, k: int) -> tuple[int, int, int, int]:
    """The derived (p1, q1, p2, q2) of the two C5_2 splitting members."""
    return ((5 * t - 2) ** 2 * m + k * (5 * t - 2), m,
            5 * t * t * m + k * t, 5 * (2 * t - 1) ** 2 * m + k * (4 * t - 2))


def _c5_2_orders(b: int, t: int, m: int, k: int) -> list[int]:
    p1, q1, p2, q2 = _c5_2_parameters(t, m, k)
    return [(p1 + q1) * b, (p2 + q2) * b]


def _c6_3_base_order(t: int) -> int:
    return t * (3 * t + 4) + 3 * t + 5


# family -> (in-domain predicate, member orders for a base of order b)
_FAMILIES: dict[str, tuple[Callable[..., bool], Callable[..., list[int]]]] = {
    "C5_1": (lambda p, q: p >= 1 and q >= 1,
             lambda b, p, q: [(p + q) * b] * 2),
    "C5_2": (lambda t, m, k: t >= 1 and m >= 1 and k in (1, -1)
             and min(_c5_2_parameters(t, m, k)) >= 1,
             _c5_2_orders),
    "C5_3": (lambda m, t: m > t >= 1, lambda b, m, t: [3 * m * b] * 2),
    "C5_4": (lambda p, q: p >= 1 and q >= 1, lambda b, p, q: [(p + q) * b] * 2),
    "C5_5": (lambda c, k: c >= 1 and k >= 1, lambda b, c, k: [(c + k) * b] * 2),
    "C5_6": (lambda: True, lambda b: [3 * b] * 2),
    "C5_7": (lambda m: m >= 1, lambda b, m: [(10 * m - 2) * b] * 2),
    "C5_8": (lambda m: m >= 1, lambda b, m: [(15 * m + 3) * b] * 2),
    "C5_9": (lambda t: t >= 1, lambda b, t: [(30 * t - 12) * b] * 4),
    "C6_1": (lambda k: k >= 1, lambda b, k: [3 * (2 * k + 1), 3 * (10 * k + 7)]),
    "C6_2": (lambda t: t >= 1,
             lambda b, t: [(3 * t + 4) * ((t + 1) ** 2 + t * (2 * t + 1))]),
    "C6_3": (lambda t: t >= 1,
             lambda b, t: [_c6_3_base_order(t) * ((t + 1) ** 2 + t * (2 * t + 1))]),
}


def expected_verdict(family: str, params: dict[str, int]) -> str:
    """The verdict the paper predicts: skipped outside the domain, fail off the
    iff manifolds of C5_4 (q = 4p - 2) and C5_5 (k = 2c), pass otherwise."""
    in_domain, _ = _FAMILIES[family]
    if not in_domain(**params):
        return "skipped"
    if family == "C5_4" and params["q"] != 4 * params["p"] - 2:
        return "fail"
    if family == "C5_5" and params["k"] != 2 * params["c"]:
        return "fail"
    return "pass"


def member_orders(family: str, params: dict[str, int], base_order: int | None = None) -> list[int]:
    """Orders of a family instance's members, in closed form."""
    if base_order is None:
        base_order = PAIR_ORDER if family == "C5_1" else BASE_ORDER
    return _FAMILIES[family][1](base_order, **params)


def split_factor(p: int, q: int) -> float:
    return p - 1 + math.sqrt(1 + 4 * p * q)


def shadow_split_factor(c: int, k: int) -> float:
    return math.sqrt(c * c + 4 * c * k)


# family -> E(member) / E(base) of its first member; at a passing point every
# member has this energy
_ENERGY_FACTORS: dict[str, Callable[..., float]] = {
    "C5_1": split_factor,
    "C5_2": lambda t, m, k: split_factor(*_c5_2_parameters(t, m, k)[:2]),
    "C5_3": lambda m, t: shadow_split_factor(m + t, 2 * m - t),
    "C5_4": split_factor,
    "C5_5": shadow_split_factor,
    "C5_6": lambda: split_factor(2, 1),
    "C5_7": lambda m: split_factor(2 * m, 8 * m - 2),
    "C5_8": lambda m: split_factor(3 * m + 1, 12 * m + 2),
    "C5_9": lambda t: 30.0 * t - 12,  # the m-shadow member, m = 30t - 12
}


def expected_energy(family: str, params: dict[str, int],
                    base_energy: float = DEFAULT_BASE_ENERGY) -> float:
    """The common energy of a passing equal-energy (C5) instance's members, in
    closed form: the family's factor times the base's energy."""
    return _ENERGY_FACTORS[family](**params) * base_energy


def split_coefficients(p: int, q: int) -> np.ndarray:
    """[[I_p, J], [J, 0_q]], whose Kronecker product with A is split(p, q) of A."""
    c = np.ones((p + q, p + q), dtype=np.uint8)
    c[:p, :p] = np.eye(p, dtype=np.uint8)
    c[p:, p:] = 0
    return c


def dense_energy(adjacency: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(adjacency.astype(np.float64))).sum())


def tolerance(order: int) -> float:
    return max(1e-8, order * 1e-10)


# -- seeded inputs and independent codecs -------------------------------------

def random_adjacency(rng: np.random.Generator, n: int) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < EDGE_PROBABILITY, k=1)
    return (upper | upper.T).astype(np.uint8)


def encode_graph6(a: np.ndarray) -> bytes:
    """graph6 bytes of an adjacency matrix (order <= 62 or <= 258047)."""
    n = a.shape[0]
    header = bytes([n + 63]) if n <= 62 else bytes(
        [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    cols, rows = np.tril_indices(n, k=-1)  # upper triangle, column by column
    bits = a[rows, cols].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=np.uint8)])
    groups = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    return header + (groups + 63).astype(np.uint8).tobytes() + b"\n"


def _upper_pairs(a: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = np.nonzero(np.triu(a, k=1))
    return list(zip(rows.tolist(), cols.tolist()))


def matrix_market_bytes(a: np.ndarray) -> bytes:
    """Matrix Market coordinate pattern symmetric text, lower triangle, 1-based."""
    pairs = _upper_pairs(a)
    head = (f"%%MatrixMarket matrix coordinate pattern symmetric\n"
            f"% undirected simple graph adjacency pattern\n"
            f"{a.shape[0]} {a.shape[0]} {len(pairs)}\n")
    return (head + "".join(f"{v + 1} {u + 1}\n" for u, v in pairs)).encode("ascii")


def edge_list_bytes(a: np.ndarray) -> bytes:
    """Edge list text: 0-based "u v" lines with u < v under an order header."""
    head = f"# undirected simple graph, 0-based vertex indices\n# order {a.shape[0]}\n"
    return (head + "".join(f"{u} {v}\n" for u, v in _upper_pairs(a))).encode("ascii")


# -- ops ----------------------------------------------------------------------

@dataclass
class Result:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    argv: list[str]
    check: Callable[[Result], list[str]]
    outputs: list[Path] = field(default_factory=list)  # removed before each invocation

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


def _exit_code(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _check_report(report: dict, family: str, params: dict[str, int],
                  base_order: int | None = None,
                  base_energy: float = DEFAULT_BASE_ENERGY) -> list[str]:
    """Problems with one verify report against the closed-form expectation.

    `base_order` and `base_energy` describe a seeded base; without one the
    family's default base is assumed."""
    want = expected_verdict(family, params)
    problems = []
    if report.get("corollary_id") != family or report.get("parameters") != params:
        problems.append(f"report for {report.get('corollary_id')} {report.get('parameters')}")
    if report.get("verdict") != want:
        problems.append(f"{family} {params}: verdict {report.get('verdict')!r}, expected {want!r}")
    members = report.get("members", [])
    if want == "skipped":
        return problems + ([f"{family} {params}: skipped with members"] if members else [])
    orders = [m["order"] for m in members]
    if orders != member_orders(family, params, base_order):
        problems.append(f"{family} {params}: orders {orders}, expected "
                        f"{member_orders(family, params, base_order)}")
    if want == "pass" and not problems:
        tol = tolerance(max(orders))
        for m in members:
            target = (2.0 * (m["order"] - 1) if family in BORDERENERGETIC
                      else expected_energy(family, params, base_energy))
            for route in ("predicted_energy", "measured_energy"):
                if abs(m[route] - target) > tol:
                    problems.append(f"{family} {params}: {route} {m[route]} is not {target}")
    return problems


def _parse_json(result: Result) -> tuple[object, list[str]]:
    try:
        return json.loads(result.stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def verify_op(family: str, params: dict[str, int], base: Path | None = None,
              base_order: int | None = None,
              base_energy: float = DEFAULT_BASE_ENERGY) -> Op:
    argv = ["verify", family, *(f"{k}={v}" for k, v in params.items())]
    if base is not None:
        argv += ["--base", str(base)]

    def check(result: Result) -> list[str]:
        want = 0 if expected_verdict(family, params) == "pass" else 1
        report, problems = _parse_json(result)
        if report is not None:
            problems += _check_report(report, family, params, base_order, base_energy)
        return _exit_code(result.code, want) + problems + (
            [f"unexpected stderr {result.stderr!r}"] if result.stderr else [])

    return Op(argv, check)


def sweep_op(family: str, ranges: dict[str, range]) -> Op:
    argv = ["sweep", family, *(f"{k}={r.start}..{r.stop - 1}" for k, r in ranges.items())]
    grid = [dict(zip(ranges, point)) for point in itertools.product(*ranges.values())]
    verdicts = [expected_verdict(family, p) for p in grid]
    want = 0 if "fail" not in verdicts and "pass" in verdicts else 1

    def check(result: Result) -> list[str]:
        reports, problems = _parse_json(result)
        if reports is not None:
            if len(reports) != len(grid):
                problems.append(f"{len(reports)} reports, expected {len(grid)}")
            for report, params in zip(reports, grid):
                problems += _check_report(report, family, params)
        return _exit_code(result.code, want) + problems + (
            [f"unexpected stderr {result.stderr!r}"] if result.stderr else [])

    return Op(argv, check)


def energy_op(path: Path, adjacency: np.ndarray, p: int, q: int) -> Op:
    n = adjacency.shape[0]

    @functools.cache
    def expectation() -> tuple[int, float]:
        return (int(np.kron(split_coefficients(p, q), adjacency).sum()) // 2,
                split_factor(p, q) * dense_energy(adjacency))

    def check(result: Result) -> list[str]:
        report, problems = _parse_json(result)
        if report is not None:
            edges, expected = expectation()
            tol = tolerance((p + q) * n)
            if (report.get("order"), report.get("edge_count")) != ((p + q) * n, edges):
                problems.append(f"order/edges {report.get('order')}/{report.get('edge_count')}")
            for route in ("formula_energy", "oracle_energy"):
                value = report.get(route)
                if not isinstance(value, float) or abs(value - expected) > tol:
                    problems.append(f"{route} {value} is not {expected}")
            if report.get("within_tolerance") is not True:
                problems.append("routes disagree")
        return _exit_code(result.code, 0) + problems

    return Op(["energy", str(path), "--apply", f"split:{p},{q}", "--method", "both"], check)


def _file_op(argv: list[str], output: Path, expect: Callable[[bytes], list[str]]) -> Op:
    def check(result: Result) -> list[str]:
        problems = _exit_code(result.code, 0)
        if result.stdout:
            problems.append(f"unexpected stdout {result.stdout[:80]!r}")
        if not result.stderr.startswith(f"wrote {output}"):
            problems.append(f"unexpected stderr {result.stderr!r}")
        if not output.exists():
            return problems + [f"{output.name} was not written"]
        return problems + expect(output.read_bytes())

    return Op(argv, check, outputs=[output])


def _exact(name: str, make: Callable[[], bytes]) -> Callable[[bytes], list[str]]:
    want = functools.cache(make)
    return lambda data: [] if data == want() else [f"{name} differs from the expected bytes"]


# -- workloads ----------------------------------------------------------------

def _write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def _verify_dense(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """Time to a verdict on the paper's families at orders 190-976, where dense
    eigvalsh dominates (default BLAS threads). C6_2 t=2 is a seventh, small op
    so that the median invocation falls inside one op's own distribution
    instead of on the gap between the third and fourth fastest."""
    base = random_adjacency(rng, DENSE_BASE_ORDER)
    graph = random_adjacency(rng, DENSE_ENERGY_ORDER)
    base_path = _write(workdir / "base40.g6", encode_graph6(base))
    graph_path = _write(workdir / "graph300.g6", encode_graph6(graph))
    return [
        verify_op("C6_2", {"t": 2}),
        verify_op("C6_2", {"t": 3}),
        verify_op("C6_2", {"t": 4}),
        verify_op("C6_3", {"t": 2}),
        verify_op("C5_9", {"t": 4}),
        verify_op("C5_8", {"m": 1}, base=base_path, base_order=DENSE_BASE_ORDER,
                  base_energy=dense_energy(base)),
        energy_op(graph_path, graph, 2, 1),
    ]


def _sweep_grid(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """136 small members (orders 12-261) through the sweep's thread pool with its
    default --jobs, including out-of-domain skips and failing negative
    controls: many tiny eigensolves, where per-call Python overhead dominates.
    It reads and writes no files."""
    return [
        sweep_op("C5_3", {"m": range(2, 10), "t": range(1, 9)}),
        sweep_op("C6_1", {"k": range(1, 9)}),
        sweep_op("C5_5", {"c": range(1, 5), "k": range(1, 9)}),
        sweep_op("C5_4", {"p": range(1, 4), "q": range(1, 11)}),
        sweep_op("C5_9", {"t": range(1, 3)}),
    ]


def _file_convert(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """Codec reads beside codec writes with no eigensolve. Order 400 keeps an op
    near 0.1 s, so a run holds hundreds of them."""
    graph = random_adjacency(rng, CONVERT_ORDER)
    base = random_adjacency(rng, CONSTRUCT_ORDER)
    g6 = encode_graph6(graph)
    g6_path = _write(workdir / "g.g6", g6)
    base_path = _write(workdir / "b.g6", encode_graph6(base))
    mtx, edges, g6_again, split = (
        workdir / name for name in ("g.mtx", "g.edges", "g2.g6", "s.mtx"))
    split_base = np.kron(split_coefficients(2, 2), base)
    return [
        _file_op(["convert", str(g6_path), "-o", str(mtx)], mtx,
                 _exact("g.mtx", lambda: matrix_market_bytes(graph))),
        _file_op(["convert", str(mtx), "-o", str(edges)], edges,
                 _exact("g.edges", lambda: edge_list_bytes(graph))),
        # the g6 -> mtx -> edges -> g6 cycle must reproduce the input bytes
        _file_op(["convert", str(edges), "-o", str(g6_again)], g6_again,
                 _exact("g2.g6", lambda: g6)),
        _file_op(["construct", "split:2,2", str(base_path), "-o", str(split)], split,
                 _exact("s.mtx", lambda: matrix_market_bytes(split_base))),
    ]


_BUILDERS = {
    "verify-dense": _verify_dense,
    "sweep-grid": _sweep_grid,
    "file-convert": _file_convert,
}

WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the seeded input files of a workload in `workdir`; return its ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, workdir)
