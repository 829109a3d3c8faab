"""Unit tests for the packed exploration kernel (:mod:`repro.kernel`)."""

import pickle

import pytest

from repro.core import (
    Action,
    Assignment,
    IntegerDomain,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    StateSpaceTooLargeError,
    UnknownStateError,
    Variable,
)
from repro.core.expr import C, V, ite, min_
from repro.core.state import enumerate_states
from repro.kernel import (
    DigitStateView,
    PackedUnsupported,
    StateCodec,
    action_supports_ok,
    build_packed_system,
    compile_expr,
    compile_predicate_fn,
    compile_program,
    explore_packed,
    kernel_supported,
)
from repro.kernel.compile import probe_battery
from repro.verification.explorer import build_transition_system, explore


def _two_var_program() -> Program:
    """Two coupled counters: a on 0..2, b on 0..3."""
    bump_a = Action(
        "bump.a",
        Predicate(lambda s: s["a"] < s["b"], name="a < b", support=("a", "b")),
        Assignment({"a": lambda s: s["a"] + 1}),
        reads=("a", "b"),
        process="p",
    )
    reset_b = Action(
        "reset.b",
        Predicate(lambda s: s["b"] == 3, name="b = 3", support=("b",)),
        Assignment({"b": 0}),
        reads=("b",),
        process="q",
    )
    return Program(
        "two-var",
        [
            Variable("a", IntegerRangeDomain(0, 2), process="p"),
            Variable("b", IntegerRangeDomain(0, 3), process="q"),
        ],
        [bump_a, reset_b],
    )


class TestStateCodec:
    def test_codes_enumerate_in_state_space_order(self):
        program = _two_var_program()
        codec = StateCodec.for_program(program)
        states = list(enumerate_states(program.variables.values()))
        assert codec.size == len(states) == 12
        for k, state in enumerate(states):
            assert codec.encode_state(state) == k
            assert codec.decode_state(k) == state

    def test_decode_digits_round_trip(self):
        codec = StateCodec.for_program(_two_var_program())
        for code in range(codec.size):
            digits = codec.decode_digits(code)
            assert sum(d * w for d, w in zip(digits, codec.weights)) == code

    def test_infinite_domain_unsupported(self):
        program = Program(
            "unbounded",
            [Variable("n", IntegerDomain(), process="p")],
            [],
        )
        assert not kernel_supported(program)
        with pytest.raises(PackedUnsupported):
            StateCodec.for_program(program)

    def test_out_of_domain_state_unsupported(self):
        codec = StateCodec.for_program(_two_var_program())
        with pytest.raises(PackedUnsupported):
            codec.encode_state(State({"a": 99, "b": 0}))
        with pytest.raises(PackedUnsupported):
            codec.encode_state(State({"a": 0}))


class TestCompileExpr:
    def test_expr_matches_state_evaluation(self):
        codec = StateCodec.for_program(_two_var_program())
        expression = ite(V("a") < V("b"), V("a") + 1, min_(V("b"), C(2)))
        compiled = compile_expr(expression, codec)
        assert compiled is not None
        for code in range(codec.size):
            state = codec.decode_state(code)
            assert compiled(codec.decode_values(code)) == expression(state)

    def test_unknown_variable_compiles_to_none(self):
        codec = StateCodec.for_program(_two_var_program())
        assert compile_expr(V("missing") + 1, codec) is None

    def test_opaque_predicate_evaluates_through_view(self):
        codec = StateCodec.for_program(_two_var_program())
        view = DigitStateView(codec)
        predicate = Predicate(
            lambda s: s["a"] + s["b"] >= 3, name="a+b >= 3", support=("a", "b")
        )
        evaluate = compile_predicate_fn(predicate, codec, view)
        for code in range(codec.size):
            state = codec.decode_state(code)
            assert evaluate(codec.decode_values(code)) == predicate(state)

    def test_view_raises_like_state_on_unknown_name(self):
        codec = StateCodec.for_program(_two_var_program())
        view = DigitStateView(codec)
        view.values = codec.decode_values(0)
        from repro.core.errors import UnknownVariableError

        with pytest.raises(UnknownVariableError):
            view["missing"]


class TestRWGate:
    def test_honest_declarations_pass(self):
        program = _two_var_program()
        battery = probe_battery(program)
        for action in program.actions:
            assert action_supports_ok(action, battery)

    def test_undeclared_read_fails_gate(self):
        # The guard declares no support, so only probe inference can
        # notice it actually consults b.
        lying = Action(
            "lying",
            Predicate(lambda s: s["b"] == 0, name="b = 0"),
            Assignment({"a": 0}),
            reads=("a",),
            process="p",
        )
        program = Program(
            "liar",
            [
                Variable("a", IntegerRangeDomain(0, 2), process="p"),
                Variable("b", IntegerRangeDomain(0, 3), process="p"),
            ],
            [lying],
        )
        assert not action_supports_ok(lying, probe_battery(program))
        # The kernel falls back to per-state evaluation, never the table.
        kernel = compile_program(program)
        assert kernel.actions[0].mode == "fallback"

    def test_fallback_action_still_correct(self):
        lying = Action(
            "lying",
            Predicate(lambda s: s["b"] == 0, name="b = 0"),
            Assignment({"a": 0}),
            reads=("a",),
            process="p",
        )
        program = Program(
            "liar",
            [
                Variable("a", IntegerRangeDomain(0, 2), process="p"),
                Variable("b", IntegerRangeDomain(0, 3), process="p"),
            ],
            [lying],
        )
        states = list(program.state_space())
        packed = build_packed_system(program, states)
        plain = build_transition_system(program, states, engine="dict")
        assert packed.edges == plain.edges


class TestCompiledSuccessors:
    def test_successors_match_dict_engine(self):
        program = _two_var_program()
        kernel = compile_program(program)
        codec = kernel.codec
        for code, digits, values in kernel.iter_space():
            state = codec.decode_state(code)
            for action, compiled in zip(program.actions, kernel.actions):
                successor = compiled.successor(code, list(digits), list(values))
                if not action.guard(state):
                    assert successor is None
                    continue
                expected = action.effect.apply(state)
                if isinstance(successor, State):
                    # The written value left its domain (a = 3): the raw
                    # dict-engine State is reported instead of a code.
                    assert successor == expected
                else:
                    assert successor == codec.encode_state(expected)

    def test_kernel_cached_per_program(self):
        program = _two_var_program()
        assert compile_program(program) is compile_program(program)


class TestPackedTransitionSystem:
    def test_matches_dict_system(self):
        program = _two_var_program()
        states = list(program.state_space())
        packed = build_packed_system(program, states)
        plain = build_transition_system(program, states, engine="dict")
        assert (packed.engine, plain.engine) == ("packed", "dict")
        assert len(packed) == len(plain)
        assert list(packed.states) == list(plain.states)
        # One CSR form: the engines agree array for array.
        assert list(packed.offsets) == list(plain.offsets)
        assert list(packed.targets) == list(plain.targets)
        assert list(packed.action_ids) == list(plain.action_ids)
        assert packed.action_names == plain.action_names
        assert packed.edges == plain.edges
        assert packed.escapes == plain.escapes
        for position in range(len(plain)):
            assert packed.successors(position) == plain.successors(position)
            assert packed.index_of(states[position]) == plain.index_of(
                states[position]
            )

    def test_escapes_match_on_non_closed_subset(self):
        program = _two_var_program()
        subset = [s for s in program.state_space() if s["a"] < 2]
        packed = build_packed_system(program, subset)
        plain = build_transition_system(program, subset, engine="dict")
        assert packed.escapes == plain.escapes
        assert packed.edges == plain.edges

    def test_index_of_unknown_state_message_parity(self):
        program = _two_var_program()
        states = list(program.state_space())
        packed = build_packed_system(program, states)
        plain = build_transition_system(program, states, engine="dict")
        missing = State({"a": 99, "b": 99})
        with pytest.raises(UnknownStateError) as packed_error:
            packed.index_of(missing)
        with pytest.raises(UnknownStateError) as plain_error:
            plain.index_of(missing)
        assert str(packed_error.value) == str(plain_error.value)

    def test_satisfying_returns_memoized_tuple(self):
        program = _two_var_program()
        states = list(program.state_space())
        predicate = Predicate(lambda s: s["a"] == 0, name="a = 0", support=("a",))
        packed = build_packed_system(program, states)
        plain = build_transition_system(program, states, engine="dict")
        assert isinstance(packed.satisfying(predicate), tuple)
        assert packed.satisfying(predicate) == plain.satisfying(predicate)
        assert packed.satisfying(predicate) is packed.satisfying(predicate)
        assert plain.satisfying(predicate) is plain.satisfying(predicate)

    def test_pickle_round_trip(self):
        program = _two_var_program()
        states = list(program.state_space())
        packed = build_packed_system(program, states)
        clone = pickle.loads(pickle.dumps(packed))
        assert list(clone.states) == list(packed.states)
        assert clone.edges == packed.edges
        assert clone.escapes == packed.escapes


class TestExplorePacked:
    def test_matches_dict_explore(self):
        program = _two_var_program()
        roots = [State({"a": 0, "b": 0})]
        packed = explore_packed(program, roots)
        plain = explore(program, roots, engine="dict")
        assert list(packed.states) == list(plain.states)
        assert packed.edges == plain.edges

    def test_max_states_message_parity(self):
        program = _two_var_program()
        roots = [State({"a": 0, "b": 3})]
        with pytest.raises(StateSpaceTooLargeError) as packed_error:
            explore_packed(program, roots, max_states=2)
        with pytest.raises(StateSpaceTooLargeError) as plain_error:
            explore(program, roots, max_states=2, engine="dict")
        assert str(packed_error.value) == str(plain_error.value)

    def test_out_of_domain_successor_unsupported(self):
        overflow = Action(
            "overflow",
            Predicate(lambda s: True, name="true", support=()),
            Assignment({"n": lambda s: s["n"] + 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "overflowing",
            [Variable("n", IntegerRangeDomain(0, 2), process="p")],
            [overflow],
        )
        with pytest.raises(PackedUnsupported):
            explore_packed(program, [State({"n": 2})])


class TestEngineDispatch:
    def test_auto_picks_packed_for_finite_programs(self):
        program = _two_var_program()
        states = list(program.state_space())
        assert build_transition_system(program, states).engine == "packed"
        assert (
            build_transition_system(program, states, engine="packed").engine
            == "packed"
        )
        assert (
            build_transition_system(program, states, engine="dict").engine
            == "dict"
        )

    def test_auto_falls_back_on_infinite_domains(self):
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
        states = [State({"n": v}) for v in range(4)]
        system = build_transition_system(program, states)
        assert system.engine == "dict"
        with pytest.raises(PackedUnsupported):
            build_transition_system(program, states, engine="packed")

    def test_unknown_engine_rejected(self):
        from repro.core.errors import ValidationError

        program = _two_var_program()
        with pytest.raises(ValidationError, match="unknown engine"):
            build_transition_system(program, [], engine="vectorized")
