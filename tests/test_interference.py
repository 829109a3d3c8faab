"""Tests for the interference analysis (repro.staticcheck.interference).

The load-bearing property is the library-wide differential: running the
compositional certifier with the static fast path on must produce the
same verdict, bit for bit, as the pure enumerative path — and every
obligation the fast path discharged must be one the projected sweep
independently confirms. The rest covers the discharge routes and the
IF* detectors directly.
"""

import pytest

from repro.compositional import certify_compositional
from repro.core import Action, Assignment, Constraint, ConvergenceBinding
from repro.core.domains import IntegerRangeDomain
from repro.core.expr import C, V, expr_action
from repro.protocols.library import CASES
from repro.staticcheck.absint import AbstractContext
from repro.staticcheck.interference import (
    StaticDischarger,
    find_establish_failures,
    find_fault_hazards,
    find_order_conflicts,
    find_write_write_races,
    guard_negates,
    predicate_expr,
    update_exprs,
)

DESIGN_CASES = sorted(
    name for name, case in CASES.items() if case.build_design is not None
)

VERDICT_FIELDS = (
    "status", "ok", "classification", "stabilizing", "theorem", "refusal",
)


def _design(name, size=None):
    case = CASES[name]
    return case.build_design(size if size is not None else case.default_size)


class TestLibraryDifferential:
    """Static discharge must never change a verdict (acceptance bar)."""

    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_verdicts_bit_identical(self, name):
        static = certify_compositional(_design(name), semantic=True)
        swept = certify_compositional(_design(name), semantic=False)
        for field in VERDICT_FIELDS:
            assert getattr(static, field) == getattr(swept, field), (
                f"{name}: semantic flips {field}"
            )

    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_every_static_discharge_confirmed_by_sweep(self, name):
        static = certify_compositional(_design(name), semantic=True)
        swept = certify_compositional(_design(name), semantic=False)
        # The sweep run certifies, so every obligation it discharged
        # holds; the static run must cover the same obligation set.
        assert static.status == "certified"
        assert swept.status == "certified"
        static_keys = {(o.name, o.subject) for o in static.obligations}
        swept_keys = {(o.name, o.subject) for o in swept.obligations}
        assert static_keys == swept_keys
        # No obligation is enumerated-by-static: discharged_by="static"
        # entries report zero projected space.
        for obligation in static.obligations:
            if obligation.discharged_by == "static":
                assert obligation.space == 0
                assert obligation.variables == ()

    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_static_run_carries_certificates(self, name):
        certificate = certify_compositional(_design(name), semantic=True)
        statics = [
            o for o in certificate.obligations if o.discharged_by == "static"
        ]
        assert statics, f"{name}: no obligation discharged statically"
        assert certificate.static_certificates
        # One certificate per statically discharged obligation (the
        # node-level linear-order summaries aggregate several).
        assert len(certificate.static_certificates) >= len(
            [o for o in statics if o.name != "linear-order"]
        )
        for entry in certificate.static_certificates:
            assert entry.obligation in {
                "closure-preserves", "enabled-when-violated",
                "establishes-in-one-step", "merged-behaviour", "linear-order",
            }
            assert entry.cases >= 0

    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_discharge_rate_meets_the_bar(self, name):
        certificate = certify_compositional(_design(name), semantic=True)
        statics = sum(
            1 for o in certificate.obligations if o.discharged_by == "static"
        )
        assert statics / len(certificate.obligations) >= 0.30

    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_no_interference_findings_on_clean_designs(self, name):
        design = _design(name)
        context = AbstractContext(
            {n: v.domain for n, v in design.program.variables.items()}
        )
        assert find_write_write_races(
            list(design.program.actions), context
        ) == []
        assert find_order_conflicts(design, context) == []
        assert find_establish_failures(design, context) == []


BIT = IntegerRangeDomain(0, 1)


def _binding(constraint, action):
    return ConvergenceBinding(constraint=constraint, action=action)


class TestDischargeRoutes:
    def _discharger(self, design):
        return StaticDischarger(design)

    def test_negation_guard_route(self):
        design = _design("coloring-chain")
        discharger = StaticDischarger(design)
        binding = design.bindings[0]
        certificate = discharger.enabled_when_violated(binding, "b0")
        assert certificate is not None
        assert certificate.rule == "negation-guard"
        assert certificate.cases == 0

    def test_opaque_guard_is_dont_know(self):
        from repro.core.predicates import Predicate

        design = _design("coloring-chain")
        discharger = StaticDischarger(design)
        original = design.bindings[0]
        opaque = ConvergenceBinding(
            constraint=original.constraint,
            action=Action(
                "opaque",
                Predicate(lambda s: True, name="?", support=()),
                original.action.effect,
                reads=original.action.reads,
            ),
        )
        assert discharger.enabled_when_violated(opaque, "b0") is None

    def test_closure_preserves_disjoint_truth(self):
        # x-action cannot touch a y-constraint: the post-state equals the
        # pre-state on the constraint's support, so substitution proves it.
        from repro.core.candidate import CandidateTriple
        from repro.core.constraint_graph import GraphNode
        from repro.core.design import NonmaskingDesign
        from repro.core.program import Program
        from repro.core.variables import Variable

        x, yv = V("x"), V("y")
        constraint_x = Constraint("Cx", x == 0)
        constraint_y = Constraint("Cy", yv == 0)
        fix_x = expr_action("fix-x", x != 0, {"x": 0})
        fix_y = expr_action("fix-y", yv != 0, {"y": 0})
        program = Program(
            "two", [Variable("x", BIT), Variable("y", BIT)], []
        )
        invariant = ((x == C(0)) & (yv == C(0))).predicate(name="S")
        design = NonmaskingDesign(
            "two",
            CandidateTriple(program, invariant, (constraint_x, constraint_y)),
            [_binding(constraint_x, fix_x), _binding(constraint_y, fix_y)],
            [GraphNode("X", frozenset({"x"})), GraphNode("Y", frozenset({"y"}))],
        )
        discharger = StaticDischarger(design)
        certificate = discharger.closure_preserves(fix_x, constraint_y, "s")
        assert certificate is not None
        assert certificate.obligation == "closure-preserves"

    def test_establishes_constant_assignment(self):
        design = _design("leader-election-star")
        discharger = StaticDischarger(design)
        results = [
            discharger.establishes(binding, f"b{i}")
            for i, binding in enumerate(design.bindings)
        ]
        assert any(r is not None for r in results)
        for certificate in results:
            if certificate is not None:
                assert certificate.obligation == "establishes-in-one-step"

    def test_attempt_and_discharge_counters(self):
        design = _design("coloring-chain")
        discharger = StaticDischarger(design)
        assert discharger.attempts == 0
        discharger.enabled_when_violated(design.bindings[0], "b0")
        assert discharger.attempts == 1
        assert discharger.discharged == 1


class TestIdCacheEviction:
    """The class-level id-keyed caches evict their oldest entry when
    full, so objects of the current design are still cached after dead
    designs' objects have filled them."""

    CAP = 8

    @pytest.fixture
    def discharger(self, monkeypatch):
        from collections import OrderedDict

        monkeypatch.setattr(StaticDischarger, "_MEMO_CAP", self.CAP)
        for name in ("_pred_cache", "_token_cache", "_pair_keys"):
            monkeypatch.setattr(StaticDischarger, name, OrderedDict())
        return StaticDischarger(_design("coloring-chain"))

    def test_token_cache_keeps_the_newest_expressions(self, discharger):
        extra = 5
        exprs = [V("c.0") == C(value) for value in range(self.CAP + extra)]
        cache = StaticDischarger._token_cache
        for expr in exprs:
            assert discharger._component_key(expr, {}) is not None
            assert len(cache) <= self.CAP
        assert len(cache) == self.CAP
        for expr in exprs[extra:]:
            assert cache[id(expr)][0] is expr
        # ``exprs`` keeps every expression alive, so no id is recycled.
        assert all(id(expr) not in cache for expr in exprs[:extra])

    def test_predicate_and_pair_caches_stay_bounded(self, discharger):
        predicates = [
            (V("c.0") == C(value)).predicate(name=f"p{value}")
            for value in range(self.CAP + 3)
        ]
        for predicate in predicates:
            discharger._predicate_expr(predicate)
            discharger._pair_cached_key("t", (predicate,), lambda: None)
            assert len(StaticDischarger._pred_cache) <= self.CAP
            assert len(StaticDischarger._pair_keys) <= self.CAP
        newest = predicates[-1]
        assert StaticDischarger._pred_cache[id(newest)][0] is newest
        assert len(StaticDischarger._pair_keys) == self.CAP


class TestHelpers:
    def test_predicate_expr_roundtrip(self):
        expr = (V("a") == C(1)) & (V("b") != C(0))
        predicate = expr.predicate(name="p")
        recovered = predicate_expr(predicate)
        assert recovered is not None
        for a in (0, 1):
            for b in (0, 1):
                state = {"a": a, "b": b}
                assert bool(recovered(state)) == bool(predicate(state))

    def test_predicate_expr_opaque_is_none(self):
        from repro.core.predicates import Predicate

        assert predicate_expr(Predicate(lambda s: True, name="?")) is None
        assert predicate_expr(None) is None

    def test_predicate_expr_rebuilds_negation(self):
        base = (V("a") == C(1)).predicate(name="p")
        negated = ~base
        recovered = predicate_expr(negated)
        assert recovered is not None
        assert bool(recovered({"a": 0})) is True
        assert bool(recovered({"a": 1})) is False

    def test_guard_negates_by_identity_and_structure(self):
        base = (V("a") == C(1)).predicate(name="p")
        constraint = Constraint("c", base)
        assert guard_negates((~base).renamed("not p"), constraint)
        # Structural: independently built ~(a = 1).
        rebuilt = (~(V("a") == C(1))).predicate(name="g")
        assert guard_negates(rebuilt, constraint)
        # A different guard is not recognised.
        other = (V("a") == C(0)).predicate(name="g2")
        assert not guard_negates(other, constraint)

    def test_update_exprs_filters_and_degrades(self):
        action = expr_action("a", V("x") != 0, {"x": 0, "y": V("x")})
        symbolic = update_exprs(action, {"x"})
        assert set(symbolic) == {"x"}
        opaque = Action(
            "b",
            (V("x") != C(0)).predicate(name="g"),
            Assignment({"x": lambda s: 0}),
            reads=("x",),
        )
        assert update_exprs(opaque, {"x"}) is None


class TestDetectors:
    def _context(self, **domains):
        return AbstractContext(domains or {"r": BIT, "u": BIT, "v": BIT})

    def test_write_write_race_needs_distinct_processes(self):
        r = V("r")
        one = expr_action("one", r == 0, {"r": 1}, process="p1")
        two = expr_action("two", r == 0, {"r": 1}, process="p1")
        context = self._context(r=IntegerRangeDomain(0, 2))
        assert find_write_write_races([one, two], context) == []

    def test_write_write_race_found_with_witness(self):
        r = V("r")
        one = expr_action("one", r == 0, {"r": 1}, process="p1")
        two = expr_action("two", r == 0, {"r": 2}, process="p2")
        context = self._context(r=IntegerRangeDomain(0, 2))
        [(first, second, name, witness)] = find_write_write_races(
            [one, two], context
        )
        assert (first.name, second.name, name) == ("one", "two", "r")
        assert witness == {"r": 0}

    def test_same_value_writes_are_not_a_race(self):
        r = V("r")
        one = expr_action("one", r == 0, {"r": 1}, process="p1")
        two = expr_action("two", r == 0, {"r": 1}, process="p2")
        context = self._context(r=IntegerRangeDomain(0, 2))
        assert find_write_write_races([one, two], context) == []

    def test_fault_hazard_from_declared_sets(self):
        design = _design("coloring-chain")
        binding = design.bindings[0]
        guard_reads = sorted(binding.action.reads)
        outside = [
            v for v in guard_reads if v not in binding.constraint.support
        ]
        fault_var = (outside or guard_reads)[0]
        from repro.core.predicates import TRUE

        fault = Action(
            "fault", TRUE, Assignment({fault_var: 0}), reads=()
        )
        hazards = find_fault_hazards(design, [fault])
        if outside:
            assert any(b is binding for _f, b, _vars in hazards)
        else:
            assert all(b is not binding for _f, b, _vars in hazards)

    def test_no_faults_no_hazards(self):
        assert find_fault_hazards(_design("coloring-chain"), []) == []
