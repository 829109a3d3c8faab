"""The compositional certifier (:mod:`repro.compositional`).

Three layers of guarantees:

- **Soundness by agreement** — on every instance small enough for full
  exploration, a certified verdict agrees bit-for-bit with the full
  checker (``ok``, ``classification``, ``stabilizing``);
- **Scale** — a 200-node chain (``4^200`` product states) certifies in
  well under a second while both full engines refuse to even build the
  state space;
- **Refusals, never negatives** — every inapplicable situation yields a
  structured refusal naming the failed obligation, and the service's
  ``auto`` method falls back to full exploration.

Obligations are evaluated by table gathers, with the per-state loop as
the fallback; the two paths are pinned to the same certificates.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import repro
from repro import compositional
from repro.compositional import (
    DEFAULT_PROJECTION_LIMIT,
    DISCHARGE_KINDS,
    CompositionalCertificate,
    certify_compositional,
)
from repro.core.actions import Action, Assignment
from repro.core.candidate import CandidateTriple
from repro.core.constraint_graph import GraphNode
from repro.core.constraints import Constraint, ConvergenceBinding, conjunction
from repro.core.design import NonmaskingDesign
from repro.core.domains import IntegerRangeDomain
from repro.core.errors import StateSpaceTooLargeError, ValidationError
from repro.kernel.codec import PackedUnsupported
from repro.kernel.sweeps import HAVE_NUMPY, SweepUnsupported
from repro.core.expr import V, expr_action, min_
from repro.core.fingerprint import probe_states
from repro.core.predicates import TRUE, Predicate, all_of
from repro.core.program import Program
from repro.core.variables import Variable
from repro.observability import MetricsRegistry, Tracer
from repro.protocols.library import CASES
from repro.verification import VerificationService
from repro.verification.checker import _check_tolerance

DESIGN_CASES = (
    "diffusing-chain",
    "diffusing-star",
    "coloring-chain",
    "leader-election-star",
)


def _two_node_cycle() -> NonmaskingDesign:
    """A well-formed design whose constraint graph is a 2-cycle."""
    bit = IntegerRangeDomain(0, 1)
    a, b = V("a"), V("b")
    constraint_a = Constraint("Ca", a == b)
    constraint_b = Constraint("Cb", b == a)
    constraints = (constraint_a, constraint_b)
    closure = Program("cycle", [Variable("a", bit), Variable("b", bit)], [])
    candidate = CandidateTriple(
        program=closure,
        invariant=conjunction(constraints, name="S"),
        constraints=constraints,
    )
    bindings = [
        ConvergenceBinding(constraint_a, expr_action("conv_a", a != b, {"a": b})),
        ConvergenceBinding(constraint_b, expr_action("conv_b", b != a, {"b": a})),
    ]
    nodes = [GraphNode("A", frozenset({"a"})), GraphNode("B", frozenset({"b"}))]
    return NonmaskingDesign("cycle", candidate, bindings, nodes)


def _oversized_projection() -> NonmaskingDesign:
    """One binding whose own variable defeats the projection limit."""
    big = V("big")
    constraint = Constraint("Cbig", big == 0)
    closure = Program(
        "big", [Variable("big", IntegerRangeDomain(0, DEFAULT_PROJECTION_LIMIT))], []
    )
    candidate = CandidateTriple(
        program=closure,
        invariant=conjunction((constraint,), name="S"),
        constraints=(constraint,),
    )
    bindings = [
        ConvergenceBinding(constraint, expr_action("conv_big", big != 0, {"big": 0}))
    ]
    return NonmaskingDesign(
        "big", candidate, bindings, [GraphNode("BIG", frozenset({"big"}))]
    )


class TestCertification:
    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_small_library_designs_certify(self, name):
        certificate = certify_compositional(CASES[name].build_design(3))
        assert certificate.ok
        assert bool(certificate)
        assert certificate.status == "certified"
        assert certificate.theorem.startswith("Theorem")
        assert certificate.stabilizing  # all library designs have T == true
        assert certificate.obligations
        assert certificate.max_projection <= DEFAULT_PROJECTION_LIMIT
        assert "obligation" in certificate.describe()

    @pytest.mark.parametrize("size", (2, 3, 4))
    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_agrees_with_full_exploration(self, name, size):
        design = CASES[name].build_design(size)
        certificate = certify_compositional(design)
        assert certificate.ok, certificate.refusal
        full = _check_tolerance(
            design.program, design.candidate.invariant, TRUE
        )
        assert certificate.ok == full.ok
        assert certificate.classification == full.classification
        assert certificate.stabilizing == full.stabilizing

    def test_certifies_where_full_exploration_cannot(self):
        design = CASES["diffusing-chain"].build_design(200)
        # The packed engine cannot even encode 4^200 states in its code
        # range; the dict engine (and auto, which falls back to it)
        # refuses before yielding a single state.
        with pytest.raises(PackedUnsupported):
            _check_tolerance(
                design.program, design.candidate.invariant, TRUE,
                engine="packed",
            )
        for engine in ("dict", "auto"):
            with pytest.raises(StateSpaceTooLargeError):
                _check_tolerance(
                    design.program, design.candidate.invariant, TRUE,
                    engine=engine,
                )
        certificate = certify_compositional(design)
        assert certificate.ok
        assert certificate.theorem == "Theorem 1 (out-tree constraint graph)"
        assert certificate.total_states == 4 ** 200
        assert certificate.max_projection <= DEFAULT_PROJECTION_LIMIT
        assert certificate.seconds < 30.0

    def test_rejects_non_design_subject(self):
        with pytest.raises(ValidationError):
            certify_compositional("diffusing-chain")  # type: ignore[arg-type]


class TestRefusals:
    def _refusal(self, certificate: CompositionalCertificate) -> str:
        assert not certificate.ok
        assert certificate.status == "refused"
        assert certificate.refusal
        return certificate.refusal

    def test_fairness(self):
        design = CASES["diffusing-chain"].build_design(3)
        refusal = self._refusal(
            certify_compositional(design, fairness="none")
        )
        assert refusal.startswith("fairness:")

    def test_fault_span(self):
        design = CASES["diffusing-chain"].build_design(3)
        candidate = dataclasses.replace(
            design.candidate, fault_span=design.candidate.invariant
        )
        masked = NonmaskingDesign(
            design.name, candidate, list(design.bindings), list(design.nodes)
        )
        assert self._refusal(
            certify_compositional(masked)
        ).startswith("fault-span:")

    def test_graph_shape(self):
        assert self._refusal(
            certify_compositional(_two_node_cycle())
        ).startswith("graph-shape:")

    def test_projection_size(self):
        assert self._refusal(
            certify_compositional(_oversized_projection())
        ).startswith("projection-size:")

    def test_projection_limit_is_adjustable(self):
        design = _oversized_projection()
        certificate = certify_compositional(
            design, projection_limit=DEFAULT_PROJECTION_LIMIT * 2
        )
        assert certificate.ok


class TestServiceIntegration:
    def test_explicit_compositional_requires_design(self):
        program, invariant = CASES["dijkstra-ring"].build(3)
        with pytest.raises(ValidationError, match="design="):
            VerificationService().verify_tolerance(
                program, invariant, method="compositional"
            )

    def test_supplied_states_refuse_and_are_not_cached(self):
        design = CASES["diffusing-chain"].build_design(3)
        service = VerificationService()
        states = list(design.program.state_space())
        verdict = service.verify_tolerance(
            design.program,
            design.candidate.invariant,
            states=states,
            method="compositional",
            design=design,
        )
        assert not verdict.ok
        assert "supplied-states" in verdict.record["refusal"]
        assert not verdict.cached
        again = service.verify_tolerance(
            design.program,
            design.candidate.invariant,
            states=states,
            method="compositional",
            design=design,
        )
        assert not again.cached  # refusals never enter the cache

    @pytest.mark.parametrize("method", ["compositional", "auto"])
    def test_an_invariant_not_the_designs_is_never_certified(self, method):
        # The design certifies its own candidate invariant; it says
        # nothing about a request for another one (here: false).
        design = CASES["diffusing-chain"].build_design(3)
        never = Predicate(lambda s: False, name="f", support=())
        full = VerificationService().verify_tolerance(
            design.program, never, design=design, method="full"
        )
        assert not full.ok
        verdict = VerificationService().verify_tolerance(
            design.program, never, design=design, method=method
        )
        if method == "compositional":
            assert not verdict.ok and not verdict.cached
            assert verdict.record["status"] == "refused"
            assert verdict.record["refusal"].startswith("design-mismatch")
        else:
            assert verdict.record == {
                **full.record, "seconds": verdict.record["seconds"]
            }

    def test_a_span_or_program_not_the_designs_is_refused(self):
        design = CASES["diffusing-chain"].build_design(3)
        other = CASES["diffusing-chain"].build_design(4)
        service = VerificationService()
        for program, span in (
            (design.program, Predicate(lambda s: True, name="T", support=())),
            (other.program, None),
        ):
            verdict = service.verify_tolerance(
                program, design.candidate.invariant, span,
                design=design, method="compositional",
            )
            assert verdict.record["refusal"].startswith("design-mismatch")

    def test_a_content_equal_rebuild_still_certifies(self):
        design = CASES["diffusing-chain"].build_design(3)
        twin = CASES["diffusing-chain"].build_design(3)
        verdict = VerificationService().verify_tolerance(
            twin.program, twin.candidate.invariant,
            design=design, method="compositional",
        )
        assert verdict.ok and verdict.record["status"] == "certified"

    @pytest.mark.parametrize(
        "name", [name for name, case in CASES.items() if case.build_design]
    )
    def test_library_designs_still_resolve_compositional(self, name):
        verdict = repro.verify(name, size=3, service=VerificationService())
        assert verdict.ok and verdict.record["method"] == "compositional"

    @pytest.mark.parametrize("name", ["diffusing", "coloring", "leader-election"])
    def test_cli_designs_still_resolve_compositional(self, name, tmp_path):
        from repro.cli import main

        path = tmp_path / "verdict.json"
        assert main(["verify", name, "--size", "3", "--json", str(path)]) == 0
        assert json.loads(path.read_text())["record"]["method"] == "compositional"

    def test_records_stored_before_the_symmetric_count_still_serve(
        self, tmp_path
    ):
        """A stored compositional record written before ``symmetric``
        joined the record is read back and served as it is."""
        first = repro.verify(
            "diffusing-chain", size=4, service=VerificationService(tmp_path)
        )
        assert first.record["symmetric"] > 0 and not first.cached
        (path,) = [
            entry for entry in tmp_path.rglob("*.json")
            if json.loads(entry.read_text()).get("method") == "compositional"
        ]
        old = json.loads(path.read_text())
        del old["symmetric"]
        path.write_text(json.dumps(old))
        again = repro.verify(
            "diffusing-chain", size=4, service=VerificationService(tmp_path)
        )
        assert again.cached and again.ok
        assert "symmetric" not in again.record
        assert again.record["enumerated"] == first.record["enumerated"]

    def test_auto_falls_back_to_full_on_refusal(self):
        design = _two_node_cycle()
        service = VerificationService()
        verdict = service.verify_tolerance(
            design.program,
            design.candidate.invariant,
            method="auto",
            design=design,
        )
        assert verdict.record["method"] == "full"
        assert verdict.ok  # the cycle converges; only the theorems refuse

    def test_explicit_refusal_is_a_failed_verdict(self):
        design = _two_node_cycle()
        verdict = VerificationService().verify_tolerance(
            design.program,
            design.candidate.invariant,
            method="compositional",
            design=design,
        )
        assert not verdict.ok
        assert verdict.record["status"] == "refused"
        assert verdict.record["refusal"].startswith("graph-shape:")
        assert "REFUSED" in verdict.describe()


class TestObservability:
    def test_events_and_metrics(self):
        tracer = Tracer.buffered()
        metrics = MetricsRegistry()
        certificate = certify_compositional(
            CASES["diffusing-chain"].build_design(3),
            tracer=tracer,
            metrics=metrics,
        )
        assert certificate.ok
        kinds = [event.kind for event in tracer.events]
        assert kinds[0] == "compositional.start"
        assert kinds[-1] == "compositional.certified"
        report = metrics.report()
        assert report.counters["compositional.certified"] == 1
        assert report.counters["compositional.obligations"] == len(
            certificate.obligations
        )

    def test_refusal_event(self):
        tracer = Tracer.buffered()
        metrics = MetricsRegistry()
        certificate = certify_compositional(
            _two_node_cycle(), tracer=tracer, metrics=metrics
        )
        assert not certificate.ok
        assert [event.kind for event in tracer.events][-1] == (
            "compositional.refused"
        )
        assert metrics.report().counters["compositional.refused"] == 1


# ----------------------------------------------------------------------
# Table gathers versus the per-state loop
# ----------------------------------------------------------------------


def _without_seconds(certificate: CompositionalCertificate) -> dict:
    record = certificate.to_json()
    del record["seconds"]
    for obligation in record["obligations"]:
        del obligation["seconds"]
    return record


def _untabulated(*args):
    raise SweepUnsupported("forced per-state loop")


def _record(design, **options) -> dict:
    """The certificate minus ``seconds``, plus the projected-states count."""
    metrics = MetricsRegistry()
    record = _without_seconds(
        certify_compositional(design, metrics=metrics, **options)
    )
    record["projected_states"] = metrics.report().counters[
        "compositional.projected_states"
    ]
    return record


def _certify_both_ways(monkeypatch, design, **options):
    """``(table-path record, loop record, loop calls on the table path)``."""
    looped = []
    real_loop = compositional._Projector._looped_failure

    def spy(self, *args):
        looped.append(args)
        return real_loop(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(compositional._Projector, "_looped_failure", spy)
        table = _record(design, **options)
        table_loops = len(looped)
        patch.setattr(compositional, "_gathered_failure", _untabulated)
        loop = _record(design, **options)
    return table, loop, table_loops


def _bits(*names: str, hi: int = 1) -> list[Variable]:
    return [Variable(name, IntegerRangeDomain(0, hi)) for name in names]


def _design(variables, constraints, bindings, nodes, closure_actions=()):
    closure = Program("broken", variables, list(closure_actions))
    candidate = CandidateTriple(
        program=closure,
        invariant=conjunction(constraints, name="S"),
        constraints=tuple(constraints),
    )
    nodes = [GraphNode(name, frozenset(names)) for name, names in nodes]
    return NonmaskingDesign("broken", candidate, bindings, nodes)


def _copy_edge(closure_actions=(), guard=None, effect=None, hi=1):
    """Nodes ``A -> B`` with ``Cb: b == a``, repaired by ``conv_b``."""
    a, b = V("a"), V("b")
    constraint = Constraint("Cb", b == a)
    action = expr_action(
        "conv_b", guard if guard is not None else b != a, effect or {"b": a}
    )
    return _design(
        _bits("a", "b", hi=hi),
        [constraint],
        [ConvergenceBinding(constraint, action)],
        [("A", {"a"}), ("B", {"b"})],
        closure_actions,
    )


def _closure_breaks_constraint():
    a = V("a")
    return _copy_edge(closure_actions=[expr_action("flip_a", a == 0, {"a": 1})])


def _guard_misses_violation():
    a, b = V("a"), V("b")
    return _copy_edge(guard=(b != a) & (a == 0))


def _repair_misses_constraint():
    b = V("b")
    return _copy_edge(guard=b != V("a"), effect={"b": (b + 1) % 3}, hi=2)


def _merged_breaks_neighbour():
    """``conv_b`` fires inside ``Cb`` and moves ``b`` away from ``c``."""
    a, b, c = V("a"), V("b"), V("c")
    own = Constraint("Cb", (b == a) | (b == 2))
    downstream = Constraint("Cc", c == b)
    variables = [
        Variable("a", IntegerRangeDomain(0, 1)),
        *_bits("b", "c", hi=2),
    ]
    bindings = [
        ConvergenceBinding(own, expr_action("conv_b", (b != a) | (b != 2), {"b": 2})),
        ConvergenceBinding(downstream, expr_action("conv_c", c != b, {"c": b})),
    ]
    nodes = [("A", {"a"}), ("B", {"b"}), ("C", {"c"})]
    return _design(variables, [own, downstream], bindings, nodes)


def _no_linear_order():
    """Two repairs of ``c`` that each break the other's constraint."""
    a, b, c = V("a"), V("b"), V("c")
    from_a = Constraint("Ca", c == a)
    from_b = Constraint("Cb", c == b)
    bindings = [
        ConvergenceBinding(from_a, expr_action("conv_ca", c != a, {"c": a})),
        ConvergenceBinding(from_b, expr_action("conv_cb", c != b, {"c": b})),
    ]
    nodes = [("A", {"a"}), ("B", {"b"}), ("C", {"c"})]
    return _design(_bits("a", "b", "c"), [from_a, from_b], bindings, nodes)


#: (design builder, exact refusal) for each swept obligation kind.
BROKEN_DESIGNS = {
    "closure-preserves": (
        _closure_breaks_constraint,
        "closure-preserves: flip_a preserves Cb: fails at {'a': 0, 'b': 0}",
    ),
    "enabled-when-violated": (
        _guard_misses_violation,
        "enabled-when-violated: Cb violated => conv_b enabled: "
        "fails at {'a': 1, 'b': 0}",
    ),
    "establishes-in-one-step": (
        _repair_misses_constraint,
        "establishes-in-one-step: conv_b establishes Cb: "
        "fails at {'a': 0, 'b': 1}",
    ),
    "merged-behaviour": (
        _merged_breaks_neighbour,
        "merged-behaviour: conv_b preserves Cc given Cb: "
        "fails at {'a': 0, 'b': 0, 'c': 0}",
    ),
    "linear-order": (
        _no_linear_order,
        "linear-order: node 'C': no linear order among ['Ca', 'Cb'] in which "
        "each action preserves the constraints of its predecessors",
    ),
}


@pytest.fixture(params=["table", "loop"])
def path(request, monkeypatch):
    """Run the test once on the default path and once on the forced loop."""
    if request.param == "loop":
        monkeypatch.setattr(compositional, "_gathered_failure", _untabulated)
    return request.param


class TestTableGathers:
    # n=12: "x.10" sorts before "x.9", so renamed twin predicates list
    # their supports in different orders; shared truth tables must not
    # mix them up.
    @pytest.mark.parametrize("size", (2, 3, 5, 12))
    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_table_path_matches_the_loop(self, monkeypatch, name, size):
        design = CASES[name].build_design(size)
        table, loop, table_loops = _certify_both_ways(
            monkeypatch, design, semantic=False
        )
        assert table == loop
        if HAVE_NUMPY:
            # Every library design is written in the expression DSL, so
            # no obligation of theirs needs the loop.
            assert table_loops == 0

    @pytest.mark.parametrize("kind", sorted(BROKEN_DESIGNS))
    @pytest.mark.parametrize("semantic", (True, False))
    def test_refusal_names_the_first_failing_state(self, path, kind, semantic):
        build, refusal = BROKEN_DESIGNS[kind]
        certificate = certify_compositional(build(), semantic=semantic)
        assert certificate.status == "refused"
        assert certificate.refusal == refusal

    def test_linear_order_pair_fails_at_its_first_state(self, path):
        design = _no_linear_order()
        projector = compositional._Projector(design, DEFAULT_PROJECTION_LIMIT)
        repair = design.bindings[1].action
        constraint = design.bindings[0].constraint
        codec = projector.codec(
            repair.reads | repair.writes | constraint.support, subject="pair"
        )
        context = ((constraint.predicate, True),)
        failure = projector.first_failure(
            codec, repair, context, constraint.predicate
        )
        assert dict(failure) == {"a": 0, "b": 1, "c": 0}
        assert projector.projected_states == codec.size

    @pytest.mark.parametrize("kind", sorted(BROKEN_DESIGNS))
    def test_refusals_agree_both_ways(self, monkeypatch, kind):
        build, _refusal = BROKEN_DESIGNS[kind]
        table, loop, _loops = _certify_both_ways(monkeypatch, build(), semantic=False)
        assert table == loop

    def test_out_of_domain_write_takes_the_loop(self, monkeypatch):
        a, b = V("a"), V("b")
        # Enabled only where Cb is already violated, so the escape to
        # a == 2 never reaches the preservation check.
        bump = expr_action("bump_a", (a == 1) & (b == 0), {"a": a + 1})
        design = _copy_edge(closure_actions=[bump])
        table, loop, table_loops = _certify_both_ways(
            monkeypatch, design, semantic=False
        )
        assert table == loop
        assert table["status"] == "certified"
        swept = [
            ob for ob in table["obligations"]
            if ob["subject"] == "bump_a preserves Cb"
        ]
        assert swept == [
            {
                "name": "closure-preserves",
                "subject": "bump_a preserves Cb",
                "variables": ["a", "b"],
                "space": 4,
                "checked": 4,
                "discharged_by": "enumerated",
            }
        ]
        if HAVE_NUMPY:
            assert table_loops == 1  # only bump_a's obligation

    def test_opaque_guard_lying_off_the_battery_is_refused(self, path):
        names = ("a", "b", "c")
        variables = [Variable(name, IntegerRangeDomain(0, 9)) for name in names]
        battery = probe_states(Program("probe", variables, []))
        seen = {(state["a"], state["b"]) for state in battery}
        hidden = next(
            (x, y)
            for x in range(10)
            for y in range(10)
            if x != y and (x, y) not in seen
        )

        def guard(state):
            if (state["a"], state["b"]) == hidden:
                return state["c"] == 0  # undeclared, never probed
            return state["b"] != state["a"]

        a = V("a")
        constraint = Constraint("Cb", V("b") == a)
        action = Action(
            "conv_b",
            Predicate(guard, name="b != a", support={"a", "b"}),
            Assignment({"b": a}),
            reads={"a", "b"},
        )
        design = _design(
            variables,
            [constraint],
            [ConvergenceBinding(constraint, action)],
            [("A", {"a"}), ("B", {"b"}), ("C", {"c"})],
        )
        certificate = certify_compositional(design, semantic=False)
        assert certificate.refusal == (
            "support-honesty: Cb violated => conv_b enabled: a callable read "
            "a variable outside the projection (state has no variable 'c'); "
            "declared supports are not truthful"
        )


# ----------------------------------------------------------------------
# Renamed twins share one sweep
# ----------------------------------------------------------------------


def _unshared(monkeypatch, design, **options) -> dict:
    """The certificate record with sweep sharing forced off."""
    with monkeypatch.context() as patch:
        patch.setattr(compositional._Projector, "sweep_key", lambda *args: None)
        return _record(design, **options)


def _twins_as_swept(shared: dict, unshared: dict) -> tuple[dict, int]:
    """``shared`` with each symmetric twin put back as its sweep.

    Also checks that each twin's counterpart was swept and returns how
    many twins there were.
    """
    assert len(shared["obligations"]) == len(unshared["obligations"])
    twins = 0
    restored = dict(shared, obligations=[])
    for mine, theirs in zip(shared["obligations"], unshared["obligations"]):
        if mine["discharged_by"] == "symmetric":
            twins += 1
            assert theirs["discharged_by"] == "enumerated"
            assert mine["checked"] == 0
            mine = dict(mine, discharged_by="enumerated", checked=theirs["checked"])
        restored["obligations"].append(mine)
    # Twins skip their sweeps, so they project fewer states.
    restored["projected_states"] = unshared["projected_states"]
    return restored, twins


def _fresh_design(family: str, size: int) -> NonmaskingDesign:
    """A newly built design (the library's builders are memoized)."""
    from repro.protocols.coloring import build_coloring_design
    from repro.protocols.diffusing import build_diffusing_design
    from repro.protocols.leader_election import build_leader_election_design
    from repro.topology import chain_tree, star_tree

    if family == "diffusing-chain":
        return build_diffusing_design(chain_tree(size))
    if family == "diffusing-star":
        return build_diffusing_design(star_tree(size))
    if family == "coloring-chain":
        return build_coloring_design(chain_tree(size), k=3)
    return build_leader_election_design(star_tree(size))


def _copy_chain(size: int, *, edge: int = -1, action_cap: int = 2,
                constraint_escape: int = 3, source_hi: int = 2,
                opaque: bool = False):
    """``x.0 -> x.1 -> ... -> x.size`` over ``{0, 1, 2}``, each ``x.i``
    repaired to ``min(x.(i-1), 2)``, i.e. copied.

    ``C.i`` is ``x.i == x.(i-1) or x.(i-1) == 3`` (the escape never
    holds). Edge ``edge`` alone may differ by one constant (the action's
    cap, the constraint's escape, the top of its source's domain) or
    carry an opaque-lambda constraint.
    """
    variables = _bits(*(f"x.{i}" for i in range(size + 1)), hi=2)
    if edge > 0:
        variables[edge - 1] = Variable(
            f"x.{edge - 1}", IntegerRangeDomain(0, source_hi)
        )
    constraints, bindings = [], []
    for i in range(1, size + 1):
        here, before = V(f"x.{i}"), V(f"x.{i - 1}")
        escape = constraint_escape if i == edge else 3
        cap = action_cap if i == edge else 2
        predicate = ((here == before) | (before == escape)).predicate(name=f"C.{i}")
        if opaque and i == edge:
            names = (f"x.{i}", f"x.{i - 1}")
            predicate = Predicate(
                lambda state, names=names: (
                    state[names[0]] == state[names[1]] or state[names[1]] == 3
                ),
                name=f"C.{i}",
                support=set(names),
            )
        constraint = Constraint(f"C.{i}", predicate)
        constraints.append(constraint)
        bindings.append(
            ConvergenceBinding(
                constraint,
                expr_action(f"conv.{i}", here != before, {f"x.{i}": min_(before, cap)}),
            )
        )
    nodes = [(f"X{i}", {f"x.{i}"}) for i in range(size + 1)]
    return _design(variables, constraints, bindings, nodes)


def _fires_conv3(subject: str) -> bool:
    return subject.startswith("conv.3 ")


def _reads_c3(subject: str) -> bool:
    return "C.3" in subject.split()


class TestSymmetricTwins:
    @pytest.mark.parametrize("semantic", (True, False))
    @pytest.mark.parametrize("size", (2, 3, 4, 5, 6))
    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_library_certificates_match_unshared(
        self, monkeypatch, name, size, semantic
    ):
        design = CASES[name].build_design(size)
        shared = _record(design, semantic=semantic)
        unshared = _unshared(monkeypatch, design, semantic=semantic)
        restored, twins = _twins_as_swept(shared, unshared)
        assert restored == unshared
        if not semantic and size >= 4:
            assert twins > 0

    @pytest.mark.parametrize("semantic", (True, False))
    @pytest.mark.parametrize(
        "family, size",
        [
            ("diffusing-chain", 12),
            ("diffusing-star", 3),
            ("diffusing-star", 10),  # refused: projection-size
            ("coloring-chain", 15),
            ("leader-election-star", 8),
        ],
    )
    def test_certify_large_families_match_unshared(
        self, monkeypatch, family, size, semantic
    ):
        design = _fresh_design(family, size)
        shared = _record(design, semantic=semantic)
        unshared = _unshared(monkeypatch, design, semantic=semantic)
        restored, twins = _twins_as_swept(shared, unshared)
        assert restored == unshared
        if family == "diffusing-star" and size == 10:
            assert shared["refusal"].startswith("projection-size:")
        if not semantic or family in ("diffusing-chain", "leader-election-star"):
            assert twins > 0

    def test_twins_skip_their_sweeps(self):
        metrics = MetricsRegistry()
        certificate = certify_compositional(
            _copy_chain(6), semantic=False, metrics=metrics
        )
        assert certificate.ok
        kinds = [ob.discharged_by for ob in certificate.obligations]
        # Four classes: enabled-when-violated, establishes, and the two
        # merged-behaviour pairs (own constraint, next edge's).
        assert kinds.count("enumerated") == 4
        # Support honesty and the decomposition are read off the trees.
        assert kinds.count("structural") == 2
        assert kinds.count("symmetric") == 23 - 4
        swept = sum(
            ob.space for ob in certificate.obligations
            if ob.discharged_by == "enumerated" and ob.space
        )
        counters = metrics.report().counters
        classified = counters["compositional.projected_states"] - swept
        assert 0 < classified <= certificate.max_projection
        for ob in certificate.obligations:
            if ob.discharged_by == "symmetric":
                assert ob.checked == 0
                assert ob.space == 3 ** len(ob.variables)
        assert "symmetric" in certificate.describe()

    @pytest.mark.parametrize(
        "variant, changed, refusal",
        [
            ({"action_cap": 1}, _fires_conv3,
             "establishes-in-one-step: conv.3 establishes C.3: "
             "fails at {'x.2': 2, 'x.3': 0}"),
            ({"constraint_escape": 2}, _reads_c3,
             "merged-behaviour: conv.3 preserves C.4 given C.3: "
             "fails at {'x.2': 2, 'x.3': 0, 'x.4': 0}"),
            ({"source_hi": 4}, _fires_conv3,
             "establishes-in-one-step: conv.3 establishes C.3: "
             "fails at {'x.2': 4, 'x.3': 0}"),
            ({"action_cap": 3}, _fires_conv3, ""),
            ({"constraint_escape": 4}, _reads_c3, ""),
        ],
    )
    @pytest.mark.parametrize("path_kind", ("table", "loop"))
    def test_one_differing_edge_is_swept(
        self, monkeypatch, variant, changed, refusal, path_kind
    ):
        """Edge 3 differs from its twins by one constant: every obligation
        that reads the changed part is swept, and the verdict, refusal
        and witness are those of the unshared certificate."""
        if path_kind == "loop":
            monkeypatch.setattr(compositional, "_gathered_failure", _untabulated)
        design = _copy_chain(6, edge=3, **variant)
        certificate = certify_compositional(design, semantic=False)
        assert certificate.refusal == refusal
        shared = _without_seconds(certificate)
        unshared = _unshared(monkeypatch, _copy_chain(6, edge=3, **variant), semantic=False)
        del unshared["projected_states"]
        for record in (shared, unshared):
            for ob in record["obligations"]:
                if ob["discharged_by"] == "symmetric":
                    ob.update(discharged_by="enumerated", checked=ob["space"])
        assert shared == unshared
        touched = [ob for ob in certificate.obligations if changed(ob.subject)]
        # A refusal is the failed sweep of the differing edge itself.
        assert touched or changed(refusal.split(": ")[1])
        for ob in touched:
            assert ob.discharged_by == "enumerated", ob.subject

    @pytest.mark.parametrize("path_kind", ("table", "loop"))
    def test_an_opaque_constraint_never_shares(self, monkeypatch, path_kind):
        if path_kind == "loop":
            monkeypatch.setattr(compositional, "_gathered_failure", _untabulated)
        opaque = certify_compositional(_copy_chain(6, edge=3, opaque=True), semantic=False)
        plain = certify_compositional(_copy_chain(6), semantic=False)
        assert opaque.ok and plain.ok
        for mine, theirs in zip(opaque.obligations, plain.obligations):
            assert (mine.name, mine.subject) == (theirs.name, theirs.subject)
            if _reads_c3(mine.subject):
                assert mine.discharged_by == "enumerated", mine.subject
                assert theirs.discharged_by == "symmetric", theirs.subject
        design = _copy_chain(6, edge=3, opaque=True)
        projector = compositional._Projector(design, DEFAULT_PROJECTION_LIMIT)
        edge = design.bindings[2]
        assert projector.sweep_key(
            "establishes-in-one-step",
            edge.action.reads | edge.action.writes | edge.constraint.support,
            edge.action,
            (),
            edge.constraint.predicate,
        ) is None

    def test_keys_cover_everything_the_outcome_reads(self):
        """Flipping any one input of a sweep's outcome changes its key."""
        a, b = V("a"), V("b")
        constraint = Constraint("Cb", b == a)
        design = _design(
            _bits("a", "b", "c") + [Variable("d", IntegerRangeDomain(0, 2))],
            [constraint],
            [ConvergenceBinding(constraint, expr_action("conv_b", b != a, {"b": a}))],
            [("A", {"a"}), ("B", {"b"}), ("C", {"c"}), ("D", {"d"})],
        )
        projector = compositional._Projector(design, DEFAULT_PROJECTION_LIMIT)
        post = (b == a).predicate(name="post")
        given = (a == 0).predicate(name="given")
        copy = expr_action("copy", b != a, {"b": a})
        copy_and_set = expr_action("copy", b != a, {"b": a, "c": 1})

        def key(action=copy, context=((given, True),), variables="abc"):
            return projector.sweep_key(
                "closure-preserves", frozenset(variables), action, context, post
            )

        base = key()
        assert base is not None and base == key()
        assert key(context=((given, False),)) != base
        assert key(context=()) != base
        assert key(action=None) != base
        # ``c`` is written but ``post`` never reads it.
        assert key(action=copy_and_set) != base
        # The domains of projected variables no tree mentions count too:
        # ``c`` ranges over {0, 1}, ``d`` over {0, 1, 2}.
        assert key(variables="abd") != base
        assert key(variables="ab") != base
        # A tree reading outside the projection gets no key.
        assert key(variables="bc") is None
        assert projector.sweep_key(
            "establishes-in-one-step", frozenset({"a", "b", "c"}), copy,
            ((given, True),), post,
        ) != base

    def test_sharing_works_on_the_per_state_loop(self, path):
        certificate = certify_compositional(_copy_chain(6), semantic=False)
        kinds = [ob.discharged_by for ob in certificate.obligations]
        assert kinds.count("symmetric") == 19

    def test_linear_order_with_shared_pairs_is_not_static(self, monkeypatch):
        """A node whose pair sweeps are all twins of another node's still
        found its order by sweeping, so it never claims ``static``."""
        domain = IntegerRangeDomain(0, 2)
        names = ("a1", "b1", "d1", "a2", "b2", "d2")
        variables = [Variable(name, domain) for name in names]
        constraints, bindings = [], []
        for target, sources in (("d1", ("a1", "b1")), ("d2", ("a2", "b2"))):
            d = V(target)
            for source in sources:
                constraint = Constraint(f"C{source}", d >= V(source))
                constraints.append(constraint)
                bindings.append(
                    ConvergenceBinding(
                        constraint,
                        expr_action(
                            f"raise_{source}", d < V(source), {target: V(source)}
                        ),
                    )
                )
        design = _design(
            variables,
            constraints,
            bindings,
            [(name.upper(), {name}) for name in names],
        )
        monkeypatch.setattr(
            compositional.StaticDischarger, "order_preserves", lambda *a: None
        )
        pairs = []
        real_sweep = compositional._sweep

        def spy(name, *args, **kwargs):
            obligation = real_sweep(name, *args, **kwargs)
            if name == "linear-order":
                pairs.append(obligation.discharged_by)
            return obligation

        monkeypatch.setattr(compositional, "_sweep", spy)
        certificate = certify_compositional(design)
        assert certificate.ok, certificate.refusal
        assert certificate.theorem.startswith("Theorem 2")
        assert pairs.count("enumerated") and pairs.count("symmetric")
        orders = [
            ob for ob in certificate.obligations if ob.name == "linear-order"
        ]
        assert [ob.discharged_by for ob in orders] == ["enumerated"] * 2


class TestWriteIndex:
    @pytest.mark.parametrize("size", (2, 3, 5))
    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_pairs_and_disjoint_counts_match_all_pairs(self, name, size):
        """Walking the constraints each action's writes meet visits the
        same pairs, in the same order, as testing every pair."""
        design = CASES[name].build_design(size)
        constraints = design.candidate.constraints
        closure, merged = [], []
        closure_disjoint = merged_disjoint = 0
        for action in design.candidate.program.actions:
            for constraint in constraints:
                if action.writes & constraint.support:
                    closure.append(f"{action.name} preserves {constraint.name}")
                else:
                    closure_disjoint += 1
        for binding in design.bindings:
            for other in constraints:
                if binding.action.writes & other.support:
                    merged.append(
                        f"{binding.action.name} preserves {other.name} "
                        f"given {binding.constraint.name}"
                    )
                else:
                    merged_disjoint += 1
        certificate = certify_compositional(design, semantic=False)
        assert certificate.ok

        def pairs(kind: str) -> tuple[list[str], int]:
            visited, disjoint = [], 0
            for ob in certificate.obligations:
                if ob.name != kind:
                    continue
                if ob.discharged_by == "disjoint-writes":
                    disjoint = ob.checked
                else:
                    visited.append(ob.subject)
            return visited, disjoint

        assert pairs("closure-preserves") == (closure, closure_disjoint)
        assert pairs("merged-behaviour") == (merged, merged_disjoint)


# ----------------------------------------------------------------------
# Support honesty and decomposition from trusted trees
# ----------------------------------------------------------------------

#: The obligations the trees may answer instead of the probe battery.
TREE_ANSWERED = ("support-honesty", "invariant-decomposition")


def _probes_only(monkeypatch):
    """Force every tree route back onto the probe battery."""
    monkeypatch.setattr(
        compositional.Canonicalizer, "trusted_expr", lambda self, predicate: None
    )


def _comparable(certificate: CompositionalCertificate) -> dict:
    """The certificate minus ``seconds`` and minus how the tree-answered
    obligations were discharged."""
    record = _without_seconds(certificate)
    for ob in record["obligations"]:
        if ob["name"] in TREE_ANSWERED:
            del ob["discharged_by"], ob["checked"]
    return record


def _both_routes(monkeypatch, build):
    """``(tree-route certificate, probe-route certificate)`` of ``build()``."""
    trees = certify_compositional(build())
    with monkeypatch.context() as patch:
        _probes_only(patch)
        probes = certify_compositional(build())
    return trees, probes


_EXPRS = {
    "eq": (lambda h, b: h == b, lambda h, b: h != b),
    "ge": (lambda h, b: h >= b, lambda h, b: h < b),
}


def _constraint_predicate(template, form, here, before, spare):
    """One constraint predicate over ``here``/``before`` in a given form;
    ``lying``/``claims`` also read ``spare``, outside their support."""
    make, _negate = _EXPRS[template]
    h, b = V(here), V(before)
    support = {here, before}
    holds = make(h, b)
    if form == "lowered":
        return holds.predicate(name=f"C.{here}")
    if form == "negated":
        return ~(_EXPRS[template][1](h, b).predicate())
    if form == "split":
        return holds.predicate() & (b >= 0).predicate()
    if form == "all_of":
        return all_of([holds.predicate()])
    if form == "narrow":
        return holds.predicate().with_support({here})
    honest = Predicate(lambda s: bool(holds(s)), name="c", support=support)
    if form == "opaque":
        return honest
    lying = Predicate(
        lambda s: bool(holds(s)) and s[spare] >= 0, name="c", support=support
    )
    if form == "lying":
        return lying
    assert form == "claims"
    return Predicate(lying._fn, name="c", support=support,
                     parts=("all", (holds.predicate(),)))


def _guard(form, template, predicate, here, before, spare):
    negate = _EXPRS[template][1]
    violated = negate(V(here), V(before))
    support = {here, before}
    if form == "not":
        return ~predicate
    if form == "lowered":
        return violated.predicate()
    if form == "conj":
        return violated.predicate() & (V(before) >= 0).predicate()
    if form == "opaque":
        return Predicate(lambda s: bool(violated(s)), name="g", support=support)
    assert form == "claims"
    return Predicate(lambda s: bool(violated(s)) and s[spare] >= 0, name="g",
                     support=support, parts=("not", (predicate,)))


@st.composite
def _tree_designs(draw):
    """A chain ``x.0 -> ... -> x.n``, node ``i`` also holding a spare
    ``z.i``, with every constraint, guard, effect and ``S`` drawn in
    trusted, opaque or lying forms (returned as a builder, so each call
    builds fresh objects)."""
    size = draw(st.integers(1, 3))
    template = draw(st.sampled_from(sorted(_EXPRS)))
    # Honest forms are listed twice: a lie anywhere ends the example.
    c_forms = draw(st.lists(
        st.sampled_from(("lowered", "negated", "split", "all_of", "opaque") * 2
                        + ("narrow", "lying", "claims")),
        min_size=size, max_size=size,
    ))
    g_forms = draw(st.lists(
        st.sampled_from(("not", "lowered", "conj", "opaque") * 2 + ("claims",)),
        min_size=size, max_size=size,
    ))
    effects = draw(st.lists(
        st.sampled_from(("copy", "opaque") * 2 + ("lying", "spare")),
        min_size=size, max_size=size,
    ))
    extra_reads = draw(st.lists(
        st.sampled_from((False,) * 4 + (True,)), min_size=size, max_size=size
    ))
    s_form = draw(st.sampled_from(
        ("same", "fresh", "reordered", "subset", "claims", "lying")
    ))

    def build():
        spares = [f"z.{i}" for i in range(1, size + 1)]
        variables = _bits(*(f"x.{i}" for i in range(size + 1)), *spares, hi=2)
        constraints, bindings, fresh = [], [], []
        for i in range(1, size + 1):
            here, before, spare = f"x.{i}", f"x.{i - 1}", f"z.{i}"
            form = c_forms[i - 1]
            names = (template, form, here, before, spare)
            predicate = _constraint_predicate(*names)
            fresh.append(_constraint_predicate(*names))
            constraint = Constraint(f"C.{i}", predicate)
            guard = _guard(g_forms[i - 1], template, predicate, here, before,
                           spare)
            rhs = {
                "copy": V(before),
                "spare": V(spare),  # read unless z.i is declared
                "opaque": lambda s, b=before: s[b],
                "lying": lambda s, b=before, z=spare: s[b] + 0 * s[z],
            }[effects[i - 1]]
            reads = {here, before} | ({spare} if extra_reads[i - 1] else set())
            action = Action(f"conv.{i}", guard, Assignment({here: rhs}),
                            reads=reads)
            constraints.append(constraint)
            bindings.append(ConvergenceBinding(constraint, action))
        predicates = [c.predicate for c in constraints]
        union = frozenset().union(*(c.support for c in constraints))
        invariant = {
            "same": lambda: all_of(predicates, name="S"),
            "fresh": lambda: all_of(fresh, name="S"),
            "reordered": lambda: all_of(predicates[::-1], name="S"),
            "subset": lambda: all_of(predicates[:-1] or predicates, name="S"),
            "claims": lambda: Predicate(
                lambda s: all(p(s) for p in predicates), name="S",
                support=union, parts=("all", tuple(predicates)),
            ),
            "lying": lambda: Predicate(
                lambda s: True, name="S", support=union,
                parts=("all", tuple(predicates)),
            ),
        }[s_form]()
        candidate = CandidateTriple(
            program=Program("tree", variables, []),
            invariant=invariant,
            constraints=tuple(constraints),
        )
        nodes = [GraphNode("X0", frozenset({"x.0"}))] + [
            GraphNode(f"X{i}", frozenset({f"x.{i}", f"z.{i}"}))
            for i in range(1, size + 1)
        ]
        return NonmaskingDesign("tree", candidate, bindings, nodes)

    return build


class TestTreeRoutes:
    @pytest.mark.parametrize("size", (3, 4, 5, 6))
    @pytest.mark.parametrize("name", DESIGN_CASES)
    def test_library_designs_answer_from_trees(self, monkeypatch, name, size):
        trees, probes = _both_routes(
            monkeypatch, lambda: CASES[name].build_design(size)
        )
        assert _comparable(trees) == _comparable(probes)
        answered = [ob for ob in trees.obligations if ob.name in TREE_ANSWERED]
        assert [ob.name for ob in answered] == list(TREE_ANSWERED)
        for ob in answered:
            assert (ob.discharged_by, ob.checked) == ("structural", 0)
        for ob in probes.obligations:
            if ob.name in TREE_ANSWERED:
                assert (ob.discharged_by, ob.checked) == ("enumerated", 32)

    def test_foreign_function_claiming_all_of_takes_the_probes(self):
        a, b = V("a"), V("b")
        constraint = Constraint("Cb", b == a)
        conv = expr_action("conv_b", b != a, {"b": a})

        def design(fn):
            candidate = CandidateTriple(
                program=Program("claims", _bits("a", "b"), []),
                invariant=Predicate(fn, name="S", support={"a", "b"},
                                    parts=("all", (constraint.predicate,))),
                constraints=(constraint,),
            )
            nodes = [GraphNode("A", frozenset({"a"})),
                     GraphNode("B", frozenset({"b"}))]
            return NonmaskingDesign(
                "claims", candidate, [ConvergenceBinding(constraint, conv)], nodes
            )

        honest = certify_compositional(design(lambda s: s["a"] == s["b"]))
        assert honest.ok
        (decomposition,) = [
            ob for ob in honest.obligations
            if ob.name == "invariant-decomposition"
        ]
        assert (decomposition.discharged_by, decomposition.checked) == (
            "enumerated", 32,
        )
        lying = certify_compositional(design(lambda s: True))
        assert lying.refusal.startswith("invariant-decomposition: invariant 'S' "
                                        "disagrees")

    def test_s_beyond_the_constraints_takes_the_probes(self, monkeypatch):
        a, b, c = V("a"), V("b"), V("c")
        first, second = Constraint("Cb", b == a), Constraint("Cc", c == b)

        def design(operands):
            candidate = CandidateTriple(
                program=Program("partial", _bits("a", "b", "c"), []),
                invariant=all_of(operands, name="S"),
                constraints=(first, second),
            )
            bindings = [
                ConvergenceBinding(first, expr_action("conv_b", b != a, {"b": a})),
                ConvergenceBinding(second, expr_action("conv_c", c != b, {"c": b})),
            ]
            nodes = [GraphNode(n.upper(), frozenset({n})) for n in "abc"]
            return NonmaskingDesign("partial", candidate, bindings, nodes)

        # Reordered, with a fresh copy of one constraint: the same trees.
        whole = _both_routes(
            monkeypatch,
            lambda: design([second.predicate, (b == a).predicate(name="Cb")]),
        )
        assert whole[0].ok and _comparable(whole[0]) == _comparable(whole[1])
        # One operand more than the constraints: a stronger S.
        stronger = _both_routes(
            monkeypatch,
            lambda: design(
                [first.predicate, second.predicate, (a == 0).predicate()]
            ),
        )
        for certificate in stronger:
            assert certificate.refusal.startswith(
                "invariant-decomposition: invariant 'S' disagrees"
            )

    def test_lying_combinator_guard_is_caught_by_the_probes(self):
        a, b = V("a"), V("b")
        constraint = Constraint("Cb", b == a)
        guard = Predicate(lambda s: s["b"] != s["a"] and s["c"] >= 0,
                          name="g", support={"a", "b"},
                          parts=("not", (constraint.predicate,)))
        action = Action("conv_b", guard, Assignment({"b": a}), reads={"a", "b"})
        design = _design(
            _bits("a", "b", "c"), [constraint],
            [ConvergenceBinding(constraint, action)],
            [("A", {"a"}), ("B", {"b"}), ("C", {"c"})],
        )
        certificate = certify_compositional(design)
        assert certificate.refusal.startswith(
            "support-honesty: action 'conv_b' consults variables outside"
        )

    @seed(1994)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_tree_designs())
    def test_tree_and_probe_routes_agree(self, monkeypatch, build):
        trees, probes = _both_routes(monkeypatch, build)
        assert trees.status == probes.status
        assert trees.refusal == probes.refusal
        assert _comparable(trees) == _comparable(probes)


class TestDischargeKinds:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown discharge kind"):
            compositional.Obligation("x", "y", (), 0, 0, "guessed", 0.0)

    def test_every_emitted_kind_is_counted(self):
        service = VerificationService()
        emitted = set()
        designs = [CASES[name].build_design(4) for name in DESIGN_CASES]
        designs += [build() for build, _refusal in BROKEN_DESIGNS.values()]
        for design in designs:
            for semantic in (True, False):
                certificate = certify_compositional(design, semantic=semantic)
                counts = certificate.counts()
                assert list(counts) == list(DISCHARGE_KINDS)
                assert sum(counts.values()) == len(certificate.obligations)
                emitted |= {k for k, n in counts.items() if n}
            verdict = service.verify_tolerance(
                design.program, design.candidate.invariant, design=design,
                method="compositional",
            )
            record = verdict.record
            assert record["obligations"] == sum(
                record[field] for field in DISCHARGE_KINDS.values()
            )
        assert emitted == set(DISCHARGE_KINDS)
