import itertools
import math
import operator
import re
import threading

import numpy as np
import pytest

from graphenergy import (
    OPERATORS,
    FamilySpec,
    OrderCapError,
    OutOfDomainError,
    Spectrum,
    canonical_equienergetic_pair,
    complete_graph,
    cycle_graph,
    disjoint_union,
    energy,
    family_ids,
    shadow_splitting,
    sweep,
    verify,
)
from graphenergy import families, jsonio
from graphenergy.families import FAMILIES, METHODS, get_family
from graphenergy.graphs import MAX_ORDER_ENV_VAR

from conftest import instantiate_family, split_with_one_zero_too_many, with_wrong_factor


def spec(corollary_id, *bases, **params):
    return FamilySpec(corollary_id, params, bases)


class TestRegistry:
    def test_all_twelve_families_present(self):
        assert family_ids() == [
            "C5_1", "C5_2", "C5_3", "C5_4", "C5_5", "C5_6", "C5_7", "C5_8", "C5_9",
            "C6_1", "C6_2", "C6_3",
        ]

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            get_family("C7_1")

    def test_parameter_binding_must_be_exact(self):
        with pytest.raises(ValueError, match="missing"):
            verify(spec("C5_2", t=1, m=1))
        with pytest.raises(ValueError, match="unexpected"):
            verify(spec("C5_6", t=1))

    @pytest.mark.parametrize("family_id", family_ids())
    def test_a_family_builds_its_own_base_exactly_when_it_gives_complete_parts(self,
                                                                               family_id):
        family = get_family(family_id)
        assert (family.stock == ()) == (family.complete_parts is not None)
        # without caller bases a plan's bases are the stock's graphs themselves,
        # built once on first use and not again per call
        plans = families._plan(family, in_domain_grid(family)[0], ())
        if family.stock:  # each member goes to every base in turn
            assert all(plan.base is family.stock[i % len(family.stock)]()
                       for i, plan in enumerate(plans))


class TestInstantiation:
    def test_c5_9_four_members_order_72(self):
        graphs = instantiate_family(spec("C5_9", t=1))
        assert [g.order for g in graphs] == [72, 72, 72, 72]

    def test_c6_1_first_member_order_9(self):
        graphs = instantiate_family(spec("C6_1", k=1))
        assert graphs[0].order == 9
        assert graphs[1].order == 51

    def test_c6_2_t1_order_49(self):
        graphs = instantiate_family(spec("C6_2", t=1))
        assert len(graphs) == 1
        assert graphs[0].order == 49

    def test_c6_3_t1_order_105(self):
        graphs = instantiate_family(spec("C6_3", t=1))
        assert graphs[0].order == 105

    def test_default_base_is_four_cycle(self):
        graphs = instantiate_family(spec("C5_6"))
        assert [g.order for g in graphs] == [12, 12]

    def test_explicit_base(self):
        graphs = instantiate_family(spec("C5_6", complete_graph(3)))
        assert [g.order for g in graphs] == [9, 9]

    def test_c6_families_reject_custom_base(self):
        with pytest.raises(ValueError, match="constructs its own base"):
            instantiate_family(spec("C6_1", cycle_graph(4), k=1))


class TestDomains:
    def test_c5_3_requires_m_greater_than_t(self):
        with pytest.raises(OutOfDomainError, match=r"^C5_3 needs m > t >= 1, got m=2, t=2$"):
            instantiate_family(spec("C5_3", m=2, t=2))
        with pytest.raises(OutOfDomainError):
            instantiate_family(spec("C5_3", m=1, t=0))

    def test_c5_2_k_must_be_unit(self):
        with pytest.raises(OutOfDomainError, match=r"^C5_2 needs k in \{1, -1\}, got k=2$"):
            instantiate_family(spec("C5_2", t=1, m=1, k=2))

    # the message of the default rule comes from the parameter names
    @pytest.mark.parametrize("family_id,params,message", [
        ("C5_4", {"p": 0, "q": 1}, "C5_4 needs p,q >= 1, got p=0, q=1"),
        ("C5_5", {"c": 1, "k": 0}, "C5_5 needs c,k >= 1, got c=1, k=0"),
        ("C5_7", {"m": 0}, "C5_7 needs m >= 1, got m=0"),
        ("C6_1", {"k": 0}, "C6_1 needs k >= 1, got k=0"),
        ("C6_2", {"t": 0}, "C6_2 needs t >= 1, got t=0"),
        ("C5_2", {"t": 1, "m": 0, "k": 1}, "C5_2 needs t,m >= 1, got t=1, m=0"),
    ])
    def test_positive_parameters_required(self, family_id, params, message):
        with pytest.raises(OutOfDomainError, match=f"^{re.escape(message)}$"):
            instantiate_family(FamilySpec(family_id, params))

    def test_a_fractional_parameter_is_refused(self):
        with pytest.raises(ValueError, match=r"^parameter p must be an integer, got 1\.5$"):
            verify(FamilySpec("C5_4", {"p": 1.5, "q": 1}))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
    def test_a_non_finite_parameter_is_refused_by_name(self, value):
        message = f"parameter p must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify(FamilySpec("C5_4", {"p": value, "q": 1}))
        (report,) = sweep("C5_4", {"p": [value], "q": [1]})
        assert (report.verdict, report.error) == ("error", f"ValueError: {message}")


def in_domain_grid(family) -> list[dict[str, int]]:
    """Each parameter in 1..4, except k = ±1 for C5_2, and only m > t for C5_3."""
    ranges = [(1, -1) if (family.family_id, name) == ("C5_2", "k") else range(1, 5)
              for name in family.param_names]
    points = [dict(zip(family.param_names, p)) for p in itertools.product(*ranges)]
    return [p for p in points if family.family_id != "C5_3" or p["m"] > p["t"]]


def _binary(f):
    """A Term method: `f` of this term and the other operand, at every point."""
    def method(self, other):
        left, right = self.at, other.at if isinstance(other, Term) else (lambda point: other)
        return Term(lambda point: f(left(point), right(point)))
    return method


class Term:
    """A stand-in number that knows only +, -, * and ** and their reflected
    forms. It holds the function of a parameter point that it stands for, so
    a map evaluated once on Terms can be read at any point."""

    def __init__(self, at):
        self.at = at

    __add__, __radd__ = _binary(operator.add), _binary(lambda a, b: b + a)
    __sub__, __rsub__ = _binary(operator.sub), _binary(lambda a, b: b - a)
    __mul__, __rmul__ = _binary(operator.mul), _binary(lambda a, b: b * a)
    __pow__, __rpow__ = _binary(operator.pow), _binary(lambda a, b: b ** a)
    # None makes Python refuse a comparison, a truth value and an index
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = __index__ = None


class TestMemberMaps:
    """Each row's member map is plain arithmetic on the parameters, and on
    the in-domain grid every member argument it gives is >= 1, so the
    operator table's own check never has to refuse a catalog member."""

    @pytest.mark.parametrize("family_id", family_ids())
    def test_in_domain_points_map_to_arguments_of_at_least_one(self, monkeypatch,
                                                               family_id):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "100000")  # members are planned, C6 bases built
        family = get_family(family_id)
        grid = in_domain_grid(family)
        assert grid
        for params in grid:
            members = family.members(**params)
            assert all(arg >= 1 for _, *args in members for arg in args), params
            plans = families._plan(family, params, ())
            assert {(plan.operator.name, *plan.args) for plan in plans} == set(members)

    @pytest.mark.parametrize("family_id", family_ids())
    def test_maps_are_pure(self, family_id):
        family = get_family(family_id)
        symbols = {name: Term(lambda point, name=name: point[name])
                   for name in family.param_names}
        symbolic = family.members(**symbols)
        for point in in_domain_grid(family):
            at_point = [(name, *(a.at(point) if isinstance(a, Term) else a for a in args))
                        for name, *args in symbolic]
            assert at_point == family.members(**point)
        if symbols:  # a domain rule compares, which the stand-in refuses
            pytest.raises(TypeError, family.domain, **symbols)


class TestEquienergeticVerification:
    def test_c5_2_worked_example(self):
        report = verify(spec("C5_2", t=1, m=1, k=1))
        assert report.passed
        assert [m.order for m in report.members] == [52, 52]
        for m in report.members:
            assert m.predicted_energy == pytest.approx(72.0, abs=1e-8)
            assert m.measured_energy == pytest.approx(72.0, abs=1e-8)

    def test_c5_2_negative_unit(self):
        report = verify(spec("C5_2", t=1, m=1, k=-1))
        assert report.passed
        # derived pairs (6,1) and (4,3) share the factor 10
        assert report.members[0].predicted_energy == pytest.approx(40.0, abs=1e-8)

    def test_c5_3_worked_example(self):
        report = verify(spec("C5_3", complete_graph(3), m=2, t=1))
        assert report.passed
        expected = math.sqrt(45) * 4
        for m in report.members:
            assert m.measured_energy == pytest.approx(expected, abs=1e-8)

    def test_c5_4_on_manifold(self):
        for p in (1, 2, 3):
            report = verify(spec("C5_4", p=p, q=4 * p - 2))
            assert report.passed
            assert report.members[0].predicted_energy == pytest.approx(
                (5 * p - 2) * 4.0, abs=1e-8
            )

    def test_c5_6_worked_example(self):
        report = verify(spec("C5_6"))
        assert report.passed
        assert [m.order for m in report.members] == [12, 12]
        for m in report.members:
            assert m.measured_energy == pytest.approx(16.0, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 2])
    def test_c5_7_split_matches_kron_with_balanced_bipartite(self, m):
        report = verify(spec("C5_7", m=m), method="formula")
        assert report.passed
        assert report.members[0].predicted_energy == pytest.approx((10 * m - 2) * 4.0)

    def test_c5_9_all_four_members(self):
        report = verify(spec("C5_9", t=1))
        assert report.passed
        assert len(report.members) == 4
        for m in report.members:
            assert m.measured_energy == pytest.approx(72.0, abs=1e-8)


class TestNegativeControls:
    def test_c5_4_off_manifold_fails(self):
        report = verify(spec("C5_4", p=2, q=7))
        assert report.orders_equal
        assert not report.energies_equal
        assert report.verdict == "fail"

    def test_c5_5_off_manifold_fails(self):
        report = verify(spec("C5_5", c=2, k=5))
        assert report.orders_equal
        assert not report.energies_equal
        assert not report.passed

    def test_c5_5_on_manifold_passes(self):
        for c in (1, 2, 3):
            assert verify(spec("C5_5", c=c, k=2 * c)).passed


class TestBorderenergeticVerification:
    @pytest.mark.parametrize(
        "k,orders,energies",
        [(1, (9, 51), (16.0, 100.0)), (2, (15, 81), (28.0, 160.0)),
         (3, (21, 111), (40.0, 220.0))],
    )
    def test_c6_1(self, k, orders, energies):
        report = verify(spec("C6_1", k=k), tolerance=1e-8)
        assert report.passed
        assert tuple(m.order for m in report.members) == orders
        for member, expected in zip(report.members, energies):
            assert member.target_energy == pytest.approx(expected)
            assert member.measured_energy == pytest.approx(expected, abs=1e-8)
            assert member.predicted_energy == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("t,order,expected", [(1, 49, 96.0), (2, 190, 378.0)])
    def test_c6_2(self, t, order, expected):
        report = verify(spec("C6_2", t=t), tolerance=1e-8)
        assert report.passed
        member = report.members[0]
        assert member.order == order
        assert member.measured_energy == pytest.approx(expected, abs=1e-8)

    def test_c6_3_t1(self):
        report = verify(spec("C6_3", t=1), tolerance=1e-8)
        assert report.passed
        assert report.members[0].order == 105
        assert report.members[0].measured_energy == pytest.approx(208.0, abs=1e-8)

    @pytest.mark.parametrize("family_id,params,label,order", [
        ("C6_1", {"k": 2}, "complete(3)", 3),
        ("C6_2", {"t": 2}, "complete(10)", 10),
        ("C6_3", {"t": 1}, "union(1*complete(7), complete(8))", 15),
        ("C6_3", {"t": 2}, "union(2*complete(10), complete(11))", 31),
    ])
    def test_base_and_label_come_from_the_complete_parts(self, family_id, params, label,
                                                          order):
        for plan in families._plan(get_family(family_id), params, ()):
            assert (plan.base_label, plan.base.order) == (label, order)

    @pytest.mark.parametrize("value", [1, 2, 3])
    @pytest.mark.parametrize("family_id", ["C6_1", "C6_2", "C6_3"])
    def test_closed_base_energy_and_target_are_the_eigensolved_ones(self, family_id, value):
        family = get_family(family_id)
        (name,) = family.param_names
        instance = spec(family_id, **{name: value})
        plans = families._plan(family, instance.parameters, ())
        report = verify(instance, method="formula")
        for plan, member in zip(plans, report.members, strict=True):
            assert abs(plan.base_energy_closed - energy(plan.base)) <= 1e-9 * plan.order
            target = energy(complete_graph(plan.order))
            assert abs(member.target_energy - target) <= 1e-9 * plan.order


class TestBasePair:
    def test_canonical_pair_is_equienergetic(self):
        g1, g2 = canonical_equienergetic_pair()
        assert g1.order == g2.order == 5
        assert abs(energy(g1) - energy(g2)) < 1e-10
        assert g1 != g2

    def test_c5_1_default_pair(self):
        report = verify(spec("C5_1", p=2, q=3))
        assert report.passed
        assert len({m.order for m in report.members}) == 1

    def test_c5_1_explicit_pair(self):
        pair = (complete_graph(4), complete_graph(4))
        report = verify(spec("C5_1", *pair, p=1, q=2))
        assert report.passed

    def test_shadow_splitting_preserves_pair_equienergy(self):
        # the same-operator principle holds for shadow-splitting too: equal
        # base energies give equal operator-graph energies
        g1, g2 = canonical_equienergetic_pair()
        for c, k in [(1, 1), (2, 3), (3, 2)]:
            assert abs(
                energy(shadow_splitting(g1, c, k)) - energy(shadow_splitting(g2, c, k))
            ) < 1e-8

    def test_c5_1_rejects_mismatched_orders(self):
        pair = (complete_graph(3), complete_graph(4))
        with pytest.raises(OutOfDomainError, match="share one order"):
            verify(spec("C5_1", *pair, p=1, q=1))

    def test_c5_1_needs_positive_parameters(self):
        # a sweep skips the point, as for every other family, and does not
        # report the split builder's own error
        message = "C5_1 needs p,q >= 1, got p=0, q=1"
        reports = sweep("C5_1", {"p": [0, 1], "q": [1]})
        assert [r.verdict for r in reports] == ["skipped", "pass"]
        assert reports[0].error == message
        with pytest.raises(OutOfDomainError, match=re.escape(message)):
            verify(spec("C5_1", p=0, q=1))

    def test_c5_1_rejects_single_base(self):
        with pytest.raises(ValueError, match="base pair"):
            verify(spec("C5_1", cycle_graph(4), p=1, q=1))

    def test_single_base_families_reject_pair(self):
        pair = canonical_equienergetic_pair()
        with pytest.raises(ValueError, match="single base"):
            verify(spec("C5_6", *pair))


class TestMethods:
    def test_formula_only(self):
        report = verify(spec("C5_8", m=1), method="formula")
        assert report.passed
        assert all(m.measured_energy is None for m in report.members)
        assert all(m.predicted_energy is not None for m in report.members)
        assert report.cospectral is None

    def test_oracle_only(self):
        report = verify(spec("C5_8", m=1), method="oracle")
        assert report.passed
        assert all(m.predicted_energy is None for m in report.members)
        assert report.cospectral is not None

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            verify(spec("C5_6"), method="guess")

    def test_tolerance_propagates(self):
        report = verify(spec("C5_6"), tolerance=1e-3)
        assert report.tolerance == 1e-3
        with pytest.raises(ValueError):
            verify(spec("C5_6"), tolerance=0.0)


class TestBuiltOrder:
    """A member's oracle Spectrum has one value per vertex of the graph it
    was built from, so the verdict checks that order against the plan's,
    which comes from the operator's closed spectrum."""

    SPLIT_POINTS = [spec("C5_2", t=1, m=1, k=1), spec("C5_1", p=1, q=2)]

    def test_split_points_pass_under_both(self):
        for point in self.SPLIT_POINTS:
            assert verify(point, "both").verdict == "pass"

    def test_a_closed_spectrum_with_one_zero_too_many_fails(self, monkeypatch):
        monkeypatch.setitem(OPERATORS, "split", split_with_one_zero_too_many())
        borderenergetic = spec("C6_1", k=1)
        for point in [*self.SPLIT_POINTS, borderenergetic]:
            for method in ("oracle", "both"):
                report = verify(point, method)
                assert (report.verdict, report.orders_equal) == ("fail", False)
        # the formula route builds no graph, so it has no built order to hold
        # the plan's against, and the equal-energy members still agree
        for point in self.SPLIT_POINTS:
            assert verify(point, "formula").verdict == "pass"


class TestEachCheckCanFail:
    """A fault that only one of the verdict's checks sees still fails the
    verdict: the route agreement of `both`, a borderenergetic target on
    each route, and the equal orders of equienergetic members."""

    @pytest.fixture
    def split_factor_off(self, monkeypatch):
        # the split entry's closed energy factor, wrong in its 7th digit
        monkeypatch.setitem(OPERATORS, "split", with_wrong_factor(OPERATORS["split"]))

    def test_only_both_holds_the_routes_against_each_other(self, split_factor_off):
        point = spec("C5_1", p=1, q=2)
        # both members carry the same wrong factor, so each route agrees with itself
        for method in ("formula", "oracle"):
            assert verify(point, method).passed
        report = verify(point, "both")
        assert (report.verdict, report.orders_equal) == ("fail", True)

    def test_a_wrong_factor_misses_the_target(self, split_factor_off):
        report = verify(spec("C6_1", k=1), "formula")
        assert (report.verdict, report.energies_equal) == ("fail", False)

    def test_a_wrong_eigensolve_misses_the_target(self, monkeypatch):
        solve = families.adjacency_spectrum
        monkeypatch.setattr(families, "adjacency_spectrum",
                            lambda g: Spectrum(solve(g).values * (1 + 1e-6)))
        report = verify(spec("C6_1", k=1), "oracle")
        assert (report.verdict, report.energies_equal) == ("fail", False)

    def test_equal_energies_at_unequal_orders_fail(self, monkeypatch):
        # E(base + K1) = E(base), so the members agree in energy at orders 12 and 15
        def plan(family, params, bases):
            base = cycle_graph(4)
            padded = disjoint_union([base, complete_graph(1)])
            return [families._member("split", base, 2, 1),
                    families._member("split", padded, 2, 1)]

        monkeypatch.setattr(families, "_plan", plan)
        for method in METHODS:
            report = verify(spec("C5_6"), method)
            assert (report.verdict, report.orders_equal, report.energies_equal) == (
                "fail", False, True)
            assert [m.order for m in report.members] == [12, 15]
            # spectra of unequal lengths are never cospectral, and never raise
            assert report.cospectral == (
                None if method == "formula" else [{"pair": [0, 1], "cospectral": False}])


class TestCospectralFlags:
    def test_c5_6_on_triangle_base_is_non_cospectral(self):
        # equal energies with distinct spectra at a non-bipartite base
        report = verify(spec("C5_6", complete_graph(3)))
        assert report.passed
        assert report.cospectral == [{"pair": [0, 1], "cospectral": False}]

    def test_c5_6_on_bipartite_base_is_cospectral(self):
        # a bipartite base has a sign-symmetric spectrum, which makes the two
        # members cospectral, not merely equienergetic
        report = verify(spec("C5_6", cycle_graph(4)))
        assert report.passed
        assert report.cospectral == [{"pair": [0, 1], "cospectral": True}]

    def test_c5_4_members_differ_spectrally(self):
        report = verify(spec("C5_4", p=1, q=2))
        assert report.passed
        assert report.cospectral == [{"pair": [0, 1], "cospectral": False}]


class TestPerfectSquareDiscriminants:
    def test_scale_factors_are_near_integers(self):
        cases = []
        for t in (1, 2):
            for m in (1, 2):
                for k in (1, -1):
                    p1 = (5 * t - 2) ** 2 * m + k * (5 * t - 2)
                    cases.append(OPERATORS["split"].factor(p1, m))
        for m in (1, 2, 3):
            cases.append(OPERATORS["split"].factor(2 * m, 8 * m - 2))
            cases.append(OPERATORS["split"].factor(3 * m + 1, 12 * m + 2))
            cases.append(OPERATORS["shadow-split"].factor(5 * m + 1, 10 * m + 2))
        for t in (1, 2, 3):
            cases.append(OPERATORS["shadow-split"].factor(10 * t - 4, 20 * t - 8))
            cases.append(OPERATORS["split"].factor(6 * t - 2, 24 * t - 10))
            cases.append(OPERATORS["shadow-split"].factor((t + 1) ** 2, t * (2 * t + 1)))
        for k in (1, 2, 3):
            cases.append(OPERATORS["split"].factor(k + 1, k))
            cases.append(OPERATORS["split"].factor(9 * k + 6, k + 1))
        for factor in cases:
            assert abs(factor - round(factor)) < 1e-9


class TestSweep:
    def test_c6_1_five_passes(self):
        reports = sweep("C6_1", {"k": range(1, 6)}, method="oracle")
        assert len(reports) == 5
        assert all(r.passed for r in reports)
        assert all(len(r.members) == 2 for r in reports)

    def test_c5_3_rectangular_grid_skips_out_of_domain(self):
        reports = sweep("C5_3", {"m": [2, 3, 4], "t": [1, 2, 3]}, method="formula")
        assert len(reports) == 9
        verdicts = {(r.parameters["m"], r.parameters["t"]): r.verdict for r in reports}
        assert verdicts[(2, 1)] == "pass"
        assert verdicts[(2, 2)] == "skipped"
        assert verdicts[(4, 3)] == "pass"
        assert sum(v == "pass" for v in verdicts.values()) == 6
        skipped = [r for r in reports if r.verdict == "skipped"]
        assert all(r.error for r in skipped)

    def test_off_manifold_sweep_collects_failures(self):
        reports = sweep("C5_4", {"p": [1, 2], "q": [3, 7]}, method="formula")
        assert [r.verdict for r in reports] == ["fail", "fail", "fail", "fail"]

    def test_points_run_on_the_callers_thread_in_grid_order(self, monkeypatch):
        calls = []
        real = families.verify

        def recording_verify(spec, **kwargs):
            calls.append((threading.get_ident(), dict(spec.parameters)))
            return real(spec, **kwargs)

        monkeypatch.setattr(families, "verify", recording_verify)
        reports = sweep("C5_5", {"c": [1, 2], "k": [2, 4]}, method="formula", jobs=4)
        grid = [{"c": 1, "k": 2}, {"c": 1, "k": 4}, {"c": 2, "k": 2}, {"c": 2, "k": 4}]
        assert calls == [(threading.get_ident(), point) for point in grid]
        assert [r.parameters for r in reports] == grid

    def test_an_in_domain_point_checks_its_parameters_once(self, monkeypatch):
        # `verify` checks them; the sweep checks again only for the echo of a
        # skipped or error report
        checked = []
        real = families._require_params

        def counting(spec, names):
            checked.append(dict(spec.parameters))
            return real(spec, names)

        monkeypatch.setattr(families, "_require_params", counting)
        reports = sweep("C5_5", {"c": [1, 2], "k": [2, 4]}, method="formula")
        assert [r.verdict for r in reports] == ["pass", "fail", "fail", "pass"]
        assert checked == [r.parameters for r in reports]

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            sweep("C6_1", {"k": []})

    def test_rejects_wrong_parameter_names(self):
        with pytest.raises(ValueError, match="ranges for exactly"):
            sweep("C6_1", {"t": [1]})

    def test_parameterless_family_single_point(self):
        reports = sweep("C5_6", {})
        assert len(reports) == 1
        assert reports[0].passed

    @pytest.mark.parametrize("family_id,ranges,count,message", [
        ("C6_1", {"k": [1, 2]}, 1, "C6_1 constructs its own base graphs"),
        ("C6_1", {"k": [1, 2]}, 2, "C6_1 constructs its own base graphs"),
        ("C5_6", {}, 2, "C5_6 takes a single base graph, not a pair"),
        ("C5_6", {}, 3, "C5_6 takes a single base graph, not 3 base graphs"),
        ("C5_1", {"p": [1], "q": [1]}, 1, "C5_1 takes a base pair, not a single base graph"),
        ("C5_1", {"p": [1], "q": [1]}, 3, "C5_1 takes a base pair, not 3 base graphs"),
    ])
    def test_a_wrong_number_of_bases_fails_before_any_point(self, monkeypatch, family_id,
                                                            ranges, count, message):
        bases = (cycle_graph(5),) * count
        solved, points = [], []
        monkeypatch.setattr(families, "adjacency_spectrum", solved.append)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify(FamilySpec(family_id, {name: r[0] for name, r in ranges.items()}, bases))
        monkeypatch.setattr(families, "verify", lambda spec, **kwargs: points.append(spec))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(family_id, ranges, bases=bases)
        assert (solved, points) == ([], [])

    @pytest.mark.parametrize("operator,args,context", [
        ("shadow", (3,), "shadow(m=3)"),
        ("kron-complete", (3,), "kron with complete(3)"),
        ("kron-complete-bipartite", (2,), "kron with complete-bipartite(2,2)"),
        ("complete-bipartite-kron", (2,), "kron with complete-bipartite(2,2)"),
    ])
    def test_member_over_the_cap_names_its_operator(self, monkeypatch, operator, args,
                                                    context):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "11")
        with pytest.raises(OrderCapError, match=re.escape(f"{context} would have order")):
            families._member(operator, cycle_graph(4), *args)

    def test_points_over_the_order_cap_are_skipped(self, monkeypatch):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "60")  # C6_1 members: 9, 51 | 15, 81
        reports = sweep("C6_1", {"k": [1, 2]}, method="oracle")
        assert [r.verdict for r in reports] == ["pass", "skipped"]
        assert "dense cap" in reports[1].error

    @pytest.mark.parametrize("t,refused", [
        (1000, "disjoint union would have order 3007005"),  # each part fits, the union not
        (10**6, "graph would have order 3000004"),  # the first part does not fit
        (10**12, "graph would have order 3000000000004"),  # and no list of t graphs
    ])
    def test_a_c6_3_base_over_the_cap_is_refused_before_any_graph_is_built(
            self, monkeypatch, t, refused):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "20000")
        built = []
        monkeypatch.setattr(families, "complete_graph", built.append)
        message = f"^{re.escape(refused)}, exceeding the dense cap of 20000 "
        with pytest.raises(OrderCapError, match=message):
            verify(spec("C6_3", t=t))
        (report,) = sweep("C6_3", {"t": [t]}, method="formula")
        assert (report.verdict, built) == ("skipped", [])
        assert re.match(message, report.error)


def failing_eigensolver(monkeypatch, order, exc):
    """Make the oracle route raise `exc` on graphs of the given order."""
    real = families.adjacency_spectrum

    def solve(g, *args, **kwargs):
        if g.order == order:
            raise exc
        return real(g, *args, **kwargs)

    monkeypatch.setattr(families, "adjacency_spectrum", solve)


class TestSweepErrors:
    """A failure that is neither out of domain nor over the cap is an error,
    never a quiet skip; `LinAlgError` is a `ValueError`, so it must not be
    mistaken for one."""

    @pytest.mark.parametrize("exc", [
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        RuntimeError("solver crashed"),
    ], ids=["LinAlgError", "RuntimeError"])
    def test_failing_point_is_an_error(self, monkeypatch, exc):
        failing_eigensolver(monkeypatch, 21, exc)  # C6_1 k=3 builds order 21
        reports = sweep("C6_1", {"k": [1, 2, 3, 4]}, method="oracle")
        assert [r.verdict for r in reports] == ["pass", "pass", "error", "pass"]
        error = reports[2]
        assert error.error == f"{type(exc).__name__}: {exc}"
        assert error.members == [] and error.tolerance is None
        assert not error.passed
        assert "ERROR" in error.to_table()


class TestToleranceValidation:
    """An infinite tolerance would pass every comparison and NaN would pass
    none, so both are refused, as a non-positive one is."""

    BAD = [float("inf"), float("nan"), 0.0, -1.0]

    @pytest.mark.parametrize("tolerance", BAD, ids=str)
    def test_verify_refuses(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verify(spec("C5_4", p=1, q=3), tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", BAD, ids=str)
    def test_sweep_refuses_before_any_point(self, monkeypatch, tolerance):
        points = []
        monkeypatch.setattr(families, "verify", lambda spec, **kwargs: points.append(spec))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            sweep("C5_4", {"p": [1], "q": [2, 3]}, tolerance=tolerance)
        assert points == []


class TestReportSerialization:
    def test_dict_layout_and_determinism(self):
        report = verify(spec("C6_2", t=1))
        payload = report.to_dict()
        assert list(payload) == [
            "corollary_id", "kind", "parameters", "method", "tolerance", "members",
            "orders_equal", "energies_equal", "cospectral", "verdict", "error",
        ]
        assert payload["corollary_id"] == "C6_2"
        assert payload["kind"] == "borderenergetic"
        assert payload["verdict"] == "pass"
        text_a = jsonio.dumps(payload)
        text_b = jsonio.dumps(verify(spec("C6_2", t=1)).to_dict())
        assert text_a == text_b

    def test_member_dict_fields(self):
        report = verify(spec("C5_6"))
        member = report.to_dict()["members"][0]
        assert list(member) == [
            "description", "order", "predicted_energy", "measured_energy",
            "target_energy",
        ]
        assert member["target_energy"] is None

    def test_skipped_report_shape(self):
        reports = sweep("C5_3", {"m": [1], "t": [1]})
        assert reports[0].verdict == "skipped"
        payload = reports[0].to_dict()
        assert payload["members"] == []
        assert payload["error"]

    def test_parameters_echo_the_checked_ints(self):
        def dumped(ranges):
            return jsonio.dumps([r.to_dict() for r in sweep("C6_1", ranges)])

        # k=0 is skipped, k=1 and k=2 pass
        assert dumped({"k": np.arange(0, 3)}) == dumped({"k": [0, 1, 2]})
        ints = jsonio.dumps(verify(FamilySpec("C5_4", {"q": 2, "p": 1})).to_dict())
        for p, q in [(np.int64(1), np.int64(2)), (1.0, 2.0)]:
            report = verify(FamilySpec("C5_4", {"q": q, "p": p}))
            assert jsonio.dumps(report.to_dict()) == ints  # the caller's order, as ints
        # a value that fails the integer check is echoed as given
        fractional, whole = sweep("C5_4", {"p": [1.5, 1.0], "q": [2.0]})
        assert fractional.parameters == {"p": 1.5, "q": 2.0}
        assert fractional.error == "ValueError: parameter p must be an integer, got 1.5"
        assert [type(v) for v in whole.parameters.values()] == [int, int]

    def test_table_rendering(self):
        report = verify(spec("C6_1", k=1))
        table = report.to_table()
        assert "C6_1 [borderenergetic]" in table
        assert "verdict: PASS" in table
        assert "splitting(p=2,q=1) of complete(3)" in table
        assert "16" in table and "100" in table
        # the table carries the same verdict and counts as the record
        assert table.count("\n") >= 4

    def test_table_rendering_skipped(self):
        reports = sweep("C5_3", {"m": [1], "t": [1]})
        table = reports[0].to_table()
        assert "SKIPPED" in table
        assert "error:" in table


def test_summaries_cover_all_families():
    for family in FAMILIES.values():
        assert family.summary
        assert family.kind in ("equienergetic", "borderenergetic")
