"""Tests for the exact convergence-time analysis (random-daemon chain).

These exercise :func:`repro.quantitative.hitting_times` against
closed-form answers and against simulation.
"""

import math

import pytest

from repro.quantitative import hitting_times
from repro.core import (
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    Variable,
)

TARGET = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))


def program_with(actions, hi=3) -> Program:
    return Program("p", [Variable("n", IntegerRangeDomain(0, hi))], actions)


def dec() -> Action:
    return Action(
        "dec",
        Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
        Assignment({"n": lambda s: s["n"] - 1}),
        reads=("n",),
    )


def jump() -> Action:
    return Action(
        "jump",
        Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
        Assignment({"n": 0}),
        reads=("n",),
    )


class TestExactValues:
    def test_deterministic_countdown(self):
        program = program_with([dec()])
        result = hitting_times(program, program.state_space(), TARGET)
        # From n, exactly n steps.
        for n in range(4):
            assert result.expectation_of(State({"n": n})) == pytest.approx(n)
        assert result.maximum == pytest.approx(3)
        assert result.mean == pytest.approx((0 + 1 + 2 + 3) / 4)

    def test_uniform_choice_halves(self):
        # With dec and jump both enabled: E[n] = 1 + (E[n-1] + 0)/2.
        program = program_with([dec(), jump()])
        result = hitting_times(program, program.state_space(), TARGET)
        expected = {0: 0.0, 1: 1.0, 2: 1.5, 3: 1.75}
        for n, value in expected.items():
            assert result.expectation_of(State({"n": n})) == pytest.approx(value)

    def test_geometric_self_loop(self):
        # n=1 with a self-loop and an exit: E = 1 + E/2 => E = 2.
        spin = Action(
            "spin",
            Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",)),
            Assignment({"n": 1}),
            reads=("n",),
        )
        exit_action = Action(
            "exit",
            Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",)),
            Assignment({"n": 0}),
            reads=("n",),
        )
        program = program_with([spin, exit_action], hi=1)
        result = hitting_times(program, program.state_space(), TARGET)
        assert result.expectation_of(State({"n": 1})) == pytest.approx(2.0)


class TestInfiniteExpectations:
    def test_deadlock_outside_target_is_infinite(self):
        program = program_with([])  # nothing moves
        result = hitting_times(program, program.state_space(), TARGET)
        assert math.isinf(result.expectation_of(State({"n": 2})))
        assert result.expectation_of(State({"n": 0})) == 0.0
        assert math.isinf(result.mean)
        assert not result.all_finite

    def test_possible_wandering_into_dead_region_is_infinite(self):
        # From 2 the chain may go to 1 (then 0) or to 3 (stuck).
        split = Action(
            "up",
            Predicate(lambda s: s["n"] == 2, name="n = 2", support=("n",)),
            Assignment({"n": 3}),
            reads=("n",),
        )
        down = Action(
            "down",
            Predicate(lambda s: 0 < s["n"] <= 2, name="0 < n <= 2", support=("n",)),
            Assignment({"n": lambda s: s["n"] - 1}),
            reads=("n",),
        )
        program = program_with([split, down])
        result = hitting_times(program, program.state_space(), TARGET)
        assert math.isinf(result.expectation_of(State({"n": 3})))
        assert math.isinf(result.expectation_of(State({"n": 2})))
        # n = 1 only goes down: finite.
        assert result.expectation_of(State({"n": 1})) == pytest.approx(1.0)


class TestAgainstSimulation:
    def test_matches_simulated_mean_for_dijkstra_ring(self):
        from repro.protocols.token_ring import build_dijkstra_ring
        from repro.scheduler import RandomScheduler
        from repro.simulation import stabilization_trials

        program, spec = build_dijkstra_ring(3, 4)
        exact = hitting_times(program, program.state_space(), spec)
        stats = stabilization_trials(
            program, spec, lambda s: RandomScheduler(s),
            trials=600, max_steps=5000, base_seed=3,
        )
        assert stats.all_stabilized
        assert stats.steps.mean == pytest.approx(exact.mean, rel=0.15)

    def test_non_closed_states_rejected(self):
        program = program_with([dec()])
        with pytest.raises(ValueError, match="not closed"):
            hitting_times(program, [State({"n": 3})], TARGET)
