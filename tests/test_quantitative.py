"""The quantitative tolerance analysis: ``repro.quantitative``.

The load-bearing test here is differential: the CSR value iteration of
:func:`hitting_times` must agree with the historical dense linear solve
(:func:`dense_hitting_times`) within :data:`DENSE_AGREEMENT_RTOL` on
every library protocol, under both engines — including where both
report ``math.inf``. On top of that the suite pins:

- bit-parity of the pure-Python scalar sweep against the vectorized
  numpy sweep (``FORCE_SCALAR``);
- the adversarial game value dominating the random-daemon expectation,
  and its kernel-peel path equal (``==``, ``inf`` included) to the
  pure-Python attractor walk on the library and on random CSR graphs;
- fault-rate weighting (named fault actions are downweighted);
- the :class:`QuantitativeReport` schema and Verdict conformance;
- structured refusals (``memory_budget``, ``fault_rate <= 0``,
  ``method="compositional"``) and the quantify-aware cache keys of the
  verification service.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
import repro.quantitative as quantitative
from repro.core import (
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    Variable,
)
from repro.core.errors import ValidationError
from repro.protocols.library import CASES, build_case
from repro.protocols.token_ring import build_dijkstra_ring
from repro.quantitative import (
    DEFAULT_FAULT_RATE,
    DENSE_AGREEMENT_RTOL,
    HAVE_NUMPY,
    QuantitativeReport,
    QuantitativeUnsupported,
    dense_hitting_times,
    hitting_times,
    quantify,
    worst_case_steps,
)
from repro.verification.explorer import build_transition_system
from repro.verification.service import VerificationService, tolerance_fingerprint

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

if HAVE_NUMPY:
    import numpy as np

#: Small instances of every registered protocol — the differential bar
#: is "every library protocol", kept at toy sizes so the dense reference
#: (O(states^3)) stays fast.
LIBRARY = [
    ("diffusing-chain", 3),
    ("diffusing-star", 3),
    ("dijkstra-ring", 3),
    ("coloring-chain", 3),
    ("leader-election-star", 3),
    ("spanning-tree-path", 3),
    ("matching-cycle", 3),
    ("mis-cycle", 3),
    ("mp-token-ring", 2),
    ("reset-chain", 2),
    ("graph-coloring-cycle", 3),
    ("four-state-line", 3),
]


def _case(name, size):
    program, invariant = build_case(name, size)
    states = list(program.state_space())
    return program, invariant, states


TARGET = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))


def _counter(actions, hi=3):
    return Program("q", [Variable("n", IntegerRangeDomain(0, hi))], actions)


def _dec():
    return Action(
        "dec",
        Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
        Assignment({"n": lambda s: s["n"] - 1}),
        reads=("n",),
    )


def _fault_up(hi=2):
    return Action(
        "fault_up",
        Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
    )


class TestLibraryDifferential:
    """CSR value iteration == dense solve, across the whole library."""

    @needs_numpy
    @pytest.mark.parametrize("name,size", LIBRARY, ids=[n for n, _ in LIBRARY])
    @pytest.mark.parametrize("engine", ["packed", "dict"])
    def test_matches_dense_solve(self, name, size, engine):
        program, invariant, states = _case(name, size)
        fast = hitting_times(program, states, invariant, engine=engine)
        dense = dense_hitting_times(program, states, invariant)
        assert len(fast.expectations) == len(dense.expectations)
        for got, want in zip(fast.expectations, dense.expectations):
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=DENSE_AGREEMENT_RTOL)
        assert fast.converged

    @pytest.mark.parametrize("name,size", LIBRARY, ids=[n for n, _ in LIBRARY])
    def test_adversarial_dominates_random_daemon(self, name, size):
        # The max-player game value is an upper bound on the uniform
        # average, state by state (inductively: max >= mean).
        program, invariant, states = _case(name, size)
        mean = hitting_times(program, states, invariant)
        worst = worst_case_steps(program, states, invariant)
        for value, bound in zip(mean.expectations, worst):
            if math.isinf(value):
                assert math.isinf(bound)
            else:
                assert bound >= value - 1e-9

    @pytest.mark.parametrize("name,size", LIBRARY[:4], ids=[n for n, _ in LIBRARY[:4]])
    def test_engines_agree(self, name, size):
        program, invariant, states = _case(name, size)
        packed = hitting_times(program, states, invariant, engine="packed")
        plain = hitting_times(program, states, invariant, engine="dict")
        for a, b in zip(packed.expectations, plain.expectations):
            if math.isinf(a) or math.isinf(b):
                assert math.isinf(a) and math.isinf(b)
            else:
                assert a == pytest.approx(b, rel=DENSE_AGREEMENT_RTOL)


class TestScalarVectorParity:
    """The pure-Python sweep is bit-compatible with the numpy sweep."""

    @needs_numpy
    @pytest.mark.parametrize(
        "name,size", LIBRARY[:6], ids=[n for n, _ in LIBRARY[:6]]
    )
    def test_bit_identical_expectations(self, name, size, monkeypatch):
        program, invariant, states = _case(name, size)
        vector = hitting_times(program, states, invariant)
        monkeypatch.setattr(quantitative, "FORCE_SCALAR", True)
        scalar = hitting_times(program, states, invariant)
        # Bit-compatible by construction (same accumulation order, same
        # stopping rule in python floats) — so ==, not approx.
        assert scalar.expectations == vector.expectations
        assert scalar.iterations == vector.iterations

    @needs_numpy
    def test_quantify_reports_agree_across_paths(self, monkeypatch):
        program, invariant, _ = _case("dijkstra-ring", 3)
        vector = quantify(program, invariant)
        monkeypatch.setattr(quantitative, "FORCE_SCALAR", True)
        scalar = quantify(program, invariant)
        skip = {"seconds", "path"}
        for key, value in vector.to_json().items():
            if key not in skip:
                assert scalar.to_json()[key] == value
        assert scalar.path != vector.path or scalar.path == "dict"


def _csr_of(rows):
    """``(offsets, targets)`` lists of a graph given as successor rows."""
    offsets = [0]
    targets = []
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    return offsets, targets


@st.composite
def _csr_graphs(draw):
    """Small random graphs as ``(rows, is_target, code dtype)``.

    A row may be empty (a deadlock), name its own state (a self-loop) or
    repeat a successor (parallel edges); the target mask may be all or
    nothing as well as random.
    """
    n = draw(st.integers(0, 9))
    rows = [
        draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)
    ]
    is_target = draw(
        st.one_of(
            st.just([True] * n),
            st.just([False] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    dtype = draw(st.sampled_from(["int16", "int32", "int64"]))
    return rows, is_target, dtype


class TestAdversarialParity:
    """The kernel-peel game value equals the pure-Python attractor walk.

    Exact float equality, ``math.inf`` included: the vector path's value
    is the peel round, an integer, and the scalar path sums ``1.0``s.
    """

    @staticmethod
    def _both_paths(program, invariant, states, engine, monkeypatch):
        system = build_transition_system(program, states, engine=engine)
        vector = worst_case_steps(program, states, invariant, system=system)
        monkeypatch.setattr(quantitative, "FORCE_SCALAR", True)
        scalar = worst_case_steps(program, states, invariant, system=system)
        assert vector == scalar
        return vector

    @needs_numpy
    @pytest.mark.parametrize("name,size", LIBRARY, ids=[n for n, _ in LIBRARY])
    @pytest.mark.parametrize("engine", ["packed", "dict"])
    def test_library(self, name, size, engine, monkeypatch):
        program, invariant, states = _case(name, size)
        self._both_paths(program, invariant, states, engine, monkeypatch)

    @needs_numpy
    @pytest.mark.parametrize("engine", ["packed", "dict"])
    def test_trapping_ring(self, engine, monkeypatch):
        # K = 2 counters are too few for a 4-ring: the adversary keeps
        # half the states cycling outside S forever.
        program, invariant = build_dijkstra_ring(4, 2)
        states = list(program.state_space())
        values = self._both_paths(
            program, invariant, states, engine, monkeypatch
        )
        assert any(math.isinf(v) for v in values)
        assert any(not math.isinf(v) for v in values)

    @pytest.mark.parametrize("force_scalar", [False, True])
    def test_known_values(self, force_scalar, monkeypatch):
        # 0: target (its own edge to 5 does not count); 1 -> 0;
        # 2 -> 1, 0, 0 (parallel edges); 3: deadlock; 4 -> 3 or 0;
        # 5 -> 5 (self-loop) or 0.
        rows = [[5], [0], [1, 0, 0], [], [3, 0], [5, 0]]
        offsets, targets = _csr_of(rows)
        is_target = [True, False, False, False, False, False]
        monkeypatch.setattr(quantitative, "FORCE_SCALAR", force_scalar)
        values = quantitative._adversarial_values(
            len(rows), offsets, targets, is_target
        )
        assert values == [0.0, 1.0, 2.0, math.inf, math.inf, math.inf]

    @needs_numpy
    @settings(max_examples=300, deadline=None)
    @given(_csr_graphs())
    @example(([[]], [False], "int64"))  # a lone deadlock
    @example(([[0]], [False], "int16"))  # a lone self-loop
    @example(([[1, 1], []], [False, True], "int32"))  # parallel edges
    @example(([[1], [0, 0]], [True, True], "int64"))  # all targets
    @example(([[1], [0, 0]], [False, False], "int64"))  # no target
    @example(([], [], "int16"))  # no states
    def test_random_graphs(self, graph):
        rows, is_target, dtype = graph
        offsets, targets = _csr_of(rows)
        n = len(rows)
        scalar = quantitative._adversarial_scalar(
            n, offsets, targets, is_target
        )
        # Lists, as the dict engine hands them over, and narrow arrays,
        # as the packed kernel does.
        assert quantitative._adversarial_vector(
            n, offsets, targets, is_target
        ) == scalar
        assert quantitative._adversarial_vector(
            n,
            np.asarray(offsets, dtype=np.int32),
            np.asarray(targets, dtype=dtype),
            np.asarray(is_target, dtype=bool),
        ) == scalar


class TestInfinitePropagation:
    def test_doomed_states_are_inf_on_both_paths(self, monkeypatch):
        # From n=3 a deadlocking branch exists: stuck() disables
        # everything at n=2, so n>=2 never reaches the target.
        stuck_guard = Predicate(lambda s: s["n"] == 3, name="n = 3", support=("n",))
        drop = Action("drop", stuck_guard, Assignment({"n": 2}), reads=("n",))
        program = _counter([drop])
        result = hitting_times(program, program.state_space(), TARGET)
        assert result.expectation_of(State({"n": 0})) == 0.0
        assert math.isinf(result.expectation_of(State({"n": 2})))
        assert math.isinf(result.expectation_of(State({"n": 3})))
        assert math.isinf(result.maximum)
        assert not result.all_finite
        monkeypatch.setattr(quantitative, "FORCE_SCALAR", True)
        again = hitting_times(program, program.state_space(), TARGET)
        assert again.expectations == result.expectations

    @needs_numpy
    def test_dense_reference_agrees_on_inf(self):
        stuck_guard = Predicate(lambda s: s["n"] == 3, name="n = 3", support=("n",))
        drop = Action("drop", stuck_guard, Assignment({"n": 2}), reads=("n",))
        program = _counter([drop])
        states = list(program.state_space())
        fast = hitting_times(program, states, TARGET)
        dense = dense_hitting_times(program, states, TARGET)
        assert [math.isinf(x) for x in fast.expectations] == [
            math.isinf(x) for x in dense.expectations
        ]

    def test_finite_mean_with_infinite_worst_case(self):
        # A self-loop keeps the expectation finite (geometric, E = 2)
        # but hands the adversary an infinite schedule.
        at_one = Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",))
        spin = Action("spin", at_one, Assignment({"n": 1}), reads=("n",))
        exit_action = Action("exit", at_one, Assignment({"n": 0}), reads=("n",))
        program = _counter([spin, exit_action], hi=1)
        report = quantify(program, TARGET)
        assert report.mean_steps == pytest.approx(1.0)  # mean over {0, 1}
        assert math.isinf(report.worst_case_steps)
        assert report.doomed_states == 0
        assert not report.ok  # converges in expectation, not worst case

    def test_non_closed_state_set_is_rejected(self):
        program = _counter([_dec()])
        subset = [State({"n": 2}), State({"n": 1})]  # 1 -> 0 escapes
        with pytest.raises(ValueError, match="not closed"):
            hitting_times(program, subset, TARGET)


class TestFaultWeighting:
    def test_fault_prefix_is_downweighted(self):
        # dec vs fault_up at n=1: uniform E1 = 1 + (E0 + E2)/2 with
        # E2 = 1 + E1 gives E1 = 3; at rate 0.1 the fault edge carries
        # weight 0.1, so E1 = 1.2 (and E2 = E1 + 1).
        program = _counter([_dec(), _fault_up()], hi=2)
        report = quantify(program, TARGET, fault_rate=0.1)
        assert report.mean_steps == pytest.approx((0 + 3 + 4) / 3)
        assert report.weighted_mean_steps == pytest.approx((0 + 1.2 + 2.2) / 3)
        assert report.weighted_mean_steps < report.mean_steps
        assert report.fault_rate == 0.1

    def test_fault_actions_override_beats_name_prefix(self):
        program = _counter([_dec(), _fault_up()], hi=2)
        # Declaring *dec* the fault makes recovery the rare action.
        report = quantify(program, TARGET, fault_rate=0.1,
                          fault_actions=("dec",))
        assert report.weighted_mean_steps > report.mean_steps

    def test_no_fault_edges_means_weighted_equals_uniform(self):
        program = _counter([_dec()])
        report = quantify(program, TARGET)
        assert report.weighted_mean_steps == report.mean_steps

    def test_fault_rate_must_be_positive(self):
        program = _counter([_dec()])
        with pytest.raises(ValidationError, match="fault_rate"):
            quantify(program, TARGET, fault_rate=0.0)


class TestReport:
    def test_schema_and_verdict_protocol(self):
        program, invariant, _ = _case("coloring-chain", 3)
        report = quantify(program, invariant)
        assert isinstance(report, repro.Verdict)
        assert report.ok and bool(report)
        payload = report.to_json()
        assert list(payload) == [
            "case", "ok", "engine", "path", "states", "target_states",
            "span_states", "doomed_states", "escape_probability",
            "mean_steps", "max_steps", "worst_case_steps",
            "weighted_mean_steps", "fault_rate", "score", "iterations",
            "converged", "tol", "seconds",
        ]
        assert QuantitativeReport.from_record(payload) == report
        assert 0.0 <= report.score < 1.0
        assert "score" in report.describe()
        assert payload == json.loads(json.dumps(payload))

    def test_exports_are_public(self):
        assert repro.quantify is quantify
        assert repro.hitting_times is hitting_times
        assert repro.QuantitativeReport is QuantitativeReport
        assert "quantify" in repro.__all__
        assert "hitting_times" in repro.__all__
        assert "QuantitativeReport" in repro.__all__

    def test_score_as_documented(self):
        # dec plus n = 1 -> n := 2: the random daemon converges from
        # everywhere (E = 0, 3, 4, 5; mean 3), but the adversary bounces
        # 1 -> 2 -> 1 forever. escape counts only doomed states, so it
        # stays 0 with an infinite worst case, and the normalization
        # divides by the span size (4), not by the worst case:
        # score = 3 / (3 + 4).
        at_one = Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",))
        bounce = Action("bounce", at_one, Assignment({"n": 2}), reads=("n",))
        report = quantify(_counter([_dec(), bounce]), TARGET)
        assert report.escape_probability == 0.0
        assert math.isinf(report.worst_case_steps)
        assert report.ok is False
        assert report.score == pytest.approx(3 / 7)

    @needs_numpy
    def test_int16_space_through_its_last_state(self, monkeypatch):
        # 2^15 states keep int16 codes; under halving, state 32767 is
        # the last the adversarial peel and the reverse BFS reach.
        halve = Action(
            "halve",
            Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
            Assignment({"n": lambda s: s["n"] // 2}),
            reads=("n",),
        )
        program = _counter([halve], hi=(1 << 15) - 1)
        vector = quantify(program, TARGET)
        monkeypatch.setattr(quantitative, "FORCE_SCALAR", True)
        scalar = quantify(program, TARGET)
        assert vector.path.startswith("vector")
        assert vector.worst_case_steps == scalar.worst_case_steps == 15.0
        assert vector.escape_probability == scalar.escape_probability == 0.0
        assert vector.ok and scalar.ok

    def test_span_escape_probability(self):
        # Within the full space the span is everything, so nothing
        # escapes; a genuine fault span exercises the escape term.
        program, invariant, states = _case("dijkstra-ring", 3)
        report = quantify(program, invariant, states=states)
        assert report.escape_probability == 0.0
        # With no fault span supplied the span defaults to TRUE, so it
        # covers the whole space.
        assert report.span_states == report.states
        assert 0 < report.target_states < report.states


class TestShardedAndBudgeted:
    @needs_numpy
    def test_sharded_full_space_matches_enumerated(self):
        program, invariant, states = _case("dijkstra-ring", 3)
        sharded = quantify(program, invariant, shards=2)
        enumerated = quantify(program, invariant, states=states)
        assert sharded.path.startswith("vector")
        assert sharded.states == enumerated.states
        assert sharded.mean_steps == pytest.approx(
            enumerated.mean_steps, rel=DENSE_AGREEMENT_RTOL
        )
        assert sharded.worst_case_steps == enumerated.worst_case_steps

    @needs_numpy
    def test_memory_budget_refusal_is_structured(self):
        program, invariant, _ = _case("dijkstra-ring", 3)
        with pytest.raises(QuantitativeUnsupported, match="memory_budget"):
            quantify(program, invariant, shards=1, memory_budget=64)

    def test_dense_requires_numpy(self, monkeypatch):
        monkeypatch.setattr(quantitative, "_np", None)
        monkeypatch.setattr(quantitative, "HAVE_NUMPY", False)
        program = _counter([_dec()])
        with pytest.raises(QuantitativeUnsupported, match="numpy"):
            dense_hitting_times(program, list(program.state_space()), TARGET)


class TestServiceIntegration:
    def test_quantify_key_is_distinct(self):
        program, invariant, _ = _case("coloring-chain", 3)
        plain = tolerance_fingerprint(
            program, invariant, None, fairness="weak", method="full"
        )
        quant = tolerance_fingerprint(
            program, invariant, None, fairness="weak", method="full",
            quantify=True,
        )
        other_rate = tolerance_fingerprint(
            program, invariant, None, fairness="weak", method="full",
            quantify=True, fault_rate=0.5,
        )
        assert len({plain, quant, other_rate}) == 3

    def test_facade_attaches_quantitative_report(self):
        service = VerificationService()
        verdict = repro.verify("coloring-chain", size=3, quantify=True,
                               service=service)
        assert verdict.ok
        report = verdict.quantitative
        assert isinstance(report, QuantitativeReport)
        assert report.ok
        assert "quantitative tolerance" in verdict.describe()
        # The plain verdict neither collides with nor inherits it.
        plain = repro.verify("coloring-chain", size=3, service=service)
        assert plain.cached is False
        assert plain.quantitative is None
        again = repro.verify("coloring-chain", size=3, quantify=True,
                             service=service)
        assert again.cached is True
        assert again.quantitative == report

    def test_quantitative_survives_the_disk_cache(self, tmp_path):
        first = VerificationService(cache_dir=tmp_path)
        hot = repro.verify("coloring-chain", size=3, quantify=True,
                           service=first)
        second = VerificationService(cache_dir=tmp_path)
        warm = repro.verify("coloring-chain", size=3, quantify=True,
                            service=second)
        assert warm.cached and warm.cache_layer == "disk"
        assert warm.quantitative == hot.quantitative

    def test_compositional_is_rejected(self):
        with pytest.raises(ValidationError, match="compositional"):
            repro.verify("diffusing-chain", size=3, quantify=True,
                         method="compositional",
                         service=VerificationService())

    def test_record_roundtrips_infinity(self, tmp_path):
        # json.dump writes the Infinity literal; the disk tier must hand
        # back math.inf, not a string.
        at_one = Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",))
        spin = Action("spin", at_one, Assignment({"n": 1}), reads=("n",))
        exit_action = Action("exit", at_one, Assignment({"n": 0}), reads=("n",))
        program = _counter([spin, exit_action], hi=1)
        service = VerificationService(cache_dir=tmp_path)
        service.verify_tolerance(program, TARGET, quantify=True)
        warm = VerificationService(cache_dir=tmp_path).verify_tolerance(
            program, TARGET, quantify=True
        )
        assert warm.cached
        assert math.isinf(warm.quantitative.worst_case_steps)
