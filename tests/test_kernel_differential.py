"""Differential tests: packed engine vs dict engine, verdict for verdict.

The packed kernel's contract is *bit-identical* results — the same
``ToleranceReport`` (including closure witnesses and convergence
counterexamples in the same order), the same transition systems, and the
same error messages — across the whole protocol library and a set of
crafted failing instances that exercise every counterexample path.
"""

import pytest

from repro.core import (
    Action,
    Assignment,
    FALSE,
    IntegerDomain,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    Variable,
)
from repro.core.predicates import TRUE
from repro.kernel import PackedUnsupported
from repro.protocols.library import build_case, case_names
from repro.verification.checker import _check_tolerance as check_tolerance
from repro.verification.explorer import build_transition_system


def _both(program, invariant, fault_span, states=None, *, fairness="weak"):
    """Run both engines and assert the reports are equal; return one."""
    states = list(states) if states is not None else None
    dict_report = check_tolerance(
        program,
        invariant,
        fault_span,
        states,
        fairness=fairness,
        engine="dict",
    )
    packed_report = check_tolerance(
        program,
        invariant,
        fault_span,
        states,
        fairness=fairness,
        engine="packed",
    )
    assert packed_report == dict_report
    return dict_report


@pytest.mark.parametrize("name", case_names())
def test_library_stabilization_reports_identical(name):
    program, invariant = build_case(name)
    report = _both(program, invariant, TRUE)
    assert report.ok, f"{name} should verify"


@pytest.mark.parametrize("name", case_names())
def test_library_transition_systems_identical(name):
    program, _ = build_case(name)
    states = list(program.state_space())
    packed = build_transition_system(program, states, engine="packed")
    plain = build_transition_system(program, states, engine="dict")
    assert len(packed) == len(plain)
    assert list(packed.states) == list(plain.states)
    assert packed.edges == plain.edges
    assert packed.escapes == plain.escapes


def test_explicit_state_list_exercises_subset_path():
    # Passing the state list (instead of None) routes the packed engine
    # through its encode/memoize path rather than the full-space sweep.
    program, invariant = build_case("diffusing-chain")
    report = _both(program, invariant, TRUE, program.state_space())
    assert report.ok


def _counter(hi=3) -> Program:
    inc = Action(
        "inc",
        Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
        process="p",
    )
    reset = Action(
        "reset",
        Predicate(lambda s: s["n"] == hi, name=f"n = {hi}", support=("n",)),
        Assignment({"n": 0}),
        reads=("n",),
        process="p",
    )
    return Program(
        "counter", [Variable("n", IntegerRangeDomain(0, hi), process="p")], [inc, reset]
    )


class TestFailingVerdictsIdentical:
    def test_s_closure_witnesses(self):
        # S = (n = 0) is not closed: 0 --inc--> 1 is the witness.
        program = _counter()
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        report = _both(program, invariant, TRUE)
        assert not report.ok
        assert not report.s_closure.ok
        witness = report.s_closure.witnesses[0]
        assert witness.before == State({"n": 0})
        assert witness.action_name == "inc"
        assert witness.after == State({"n": 1})

    def test_convergence_cycle_counterexample_weak(self):
        # The counter loops forever; S = FALSE makes every state bad, so
        # the single always-enabled cycle is a weak-fairness trap.
        program = _counter()
        report = _both(program, FALSE, TRUE)
        assert not report.ok
        assert report.convergence.counterexample is not None
        assert report.convergence.counterexample.kind == "cycle"

    def test_convergence_cycle_counterexample_unfair(self):
        program = _counter()
        report = _both(program, FALSE, TRUE, fairness="none")
        assert not report.ok
        assert report.convergence.counterexample is not None
        assert report.convergence.counterexample.kind == "cycle"

    def test_convergence_deadlock_counterexample(self):
        # Only a decrement: n = 0 is a deadlock outside S = (n = 2).
        dec = Action(
            "dec",
            Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
            Assignment({"n": lambda s: s["n"] - 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "dec-only", [Variable("n", IntegerRangeDomain(0, 2), process="p")], [dec]
        )
        invariant = Predicate(lambda s: s["n"] == 2, name="n = 2", support=("n",))
        report = _both(program, invariant, TRUE)
        assert not report.ok
        assert report.convergence.counterexample is not None
        assert report.convergence.counterexample.kind == "deadlock"
        assert report.convergence.counterexample.states == (State({"n": 0}),)

    def test_unclosed_fault_span_fails_without_counterexample(self):
        # T = (n <= 1) is not closed (1 --inc--> 2): convergence relative
        # to T is undefined and reported failed, on both engines.
        program = _counter()
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        report = _both(program, invariant, span)
        assert not report.ok
        assert not report.t_closure.ok
        assert report.convergence.counterexample is None

    def test_strict_subset_of_closed_span_raises_identically(self):
        # T = TRUE is closed but the supplied states miss a successor:
        # both engines must refuse with the same message.
        program = _counter()
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        subset = [State({"n": 0}), State({"n": 1})]
        with pytest.raises(ValueError) as dict_error:
            check_tolerance(program, invariant, TRUE, subset, engine="dict")
        with pytest.raises(ValueError) as packed_error:
            check_tolerance(program, invariant, TRUE, subset, engine="packed")
        assert str(packed_error.value) == str(dict_error.value)

    def test_raw_successor_t_closure_witness(self):
        # The increment overflows its domain at n = 3; T = (n <= 3) fails
        # on the raw successor State(n=4), producing identical witnesses.
        inc = Action(
            "inc",
            Predicate(lambda s: True, name="true", support=()),
            Assignment({"n": lambda s: s["n"] + 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "overflowing",
            [Variable("n", IntegerRangeDomain(0, 3), process="p")],
            [inc],
        )
        span = Predicate(lambda s: s["n"] <= 3, name="n <= 3", support=("n",))
        report = _both(program, FALSE, span)
        assert not report.t_closure.ok
        witness = report.t_closure.witnesses[0]
        assert witness.before == State({"n": 3})
        assert witness.after == State({"n": 4})


class TestAutoEngine:
    def test_auto_matches_dict_on_unpackable_program(self):
        count = Action(
            "count",
            Predicate(lambda s: s["n"] < 3, name="n < 3", support=("n",)),
            Assignment({"n": lambda s: s["n"] + 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "unbounded",
            [Variable("n", IntegerDomain(), process="p")],
            [count],
        )
        invariant = Predicate(lambda s: s["n"] == 3, name="n = 3", support=("n",))
        states = [State({"n": v}) for v in range(4)]
        auto = check_tolerance(program, invariant, TRUE, states)
        plain = check_tolerance(program, invariant, TRUE, states, engine="dict")
        assert auto == plain
        with pytest.raises(PackedUnsupported):
            check_tolerance(program, invariant, TRUE, states, engine="packed")


class TestServiceAndBatch:
    def test_service_records_match_across_engines(self):
        from repro.verification.service import VerificationService

        program, invariant = build_case("coloring-chain")
        packed = VerificationService().verify_tolerance(
            program, invariant, engine="packed", case="c"
        )
        plain = VerificationService().verify_tolerance(
            program, invariant, engine="dict", case="c"
        )
        assert packed.record["engine"] == "packed"
        assert plain.record["engine"] == "dict"
        ignore = ("engine", "seconds")
        assert {k: v for k, v in packed.record.items() if k not in ignore} == {
            k: v for k, v in plain.record.items() if k not in ignore
        }
        assert packed.report == plain.report
