"""The quantitative tolerance analysis: ``repro.quantitative``.

The analysis has one path, numpy's, and is pinned against oracles
rather than against a twin implementation:

- the CSR value iteration of :func:`hitting_times` must agree with the
  dense linear solve (:func:`dense_hitting_times`) within
  :data:`DENSE_AGREEMENT_RTOL` on every library protocol, under both
  engines — including where both report ``math.inf``;
- the kernel-peel game value must equal (``==``, ``inf`` included) the
  pure-Python attractor walk kept here as :func:`adversarial_oracle`, on
  the library and on random CSR graphs with narrow code dtypes;
- the one solver (level order where the Kahn peel reaches, Jacobi
  elsewhere) must match the dense solve, the scalar doomed-state
  classification and a brute-force longest path on random programs of
  four kinds: acyclic, with cycles, with deadlocks, and with a fault
  span and fault actions — and reusing a verdict's peel levels must
  change nothing;
- hand-computed values (fault-rate weighting, the score, infinities).

On top of that the suite pins the :class:`QuantitativeReport` schema and
Verdict conformance, structured refusals (``memory_budget``,
``fault_rate <= 0``, ``method="compositional"``, a missing numpy), the
quantify-aware cache keys of the verification service, and that a
service ``quantify=True`` request sweeps the state space once and
reports what a standalone :func:`quantify` reports.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
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
from repro.core.predicates import TRUE
from repro.kernel import compile_program
from repro.kernel.verify import check_tolerance_swept, vectorized_csr
from repro.observability.metrics import MetricsRegistry
from repro.protocols.library import build_case
from repro.protocols.token_ring import build_dijkstra_ring
from repro.quantitative import (
    DENSE_AGREEMENT_RTOL,
    QuantitativeReport,
    QuantitativeUnsupported,
    dense_hitting_times,
    hitting_times,
    quantify,
    worst_case_steps,
)
from repro.verification.explorer import build_transition_system
from repro.verification.service import VerificationService, tolerance_fingerprint

np = pytest.importorskip("numpy")

SRC = Path(__file__).resolve().parent.parent / "src"

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


def _without_seconds(record):
    return {key: value for key, value in record.items() if key != "seconds"}


class TestScalarVectorParity:
    """The scalar and the vectorized packed sweep feed identical solves.

    A service ``quantify=True`` request solves over the CSR its verdict
    swept: the scalar sweep's ``array`` buffers on small spaces, the
    vectorized sweep's numpy arrays (narrow dtypes) on large ones. The
    reports must be bit-identical, ``seconds`` aside — so ``==``, not
    approx.
    """

    @staticmethod
    def _reports(program, invariant):
        scalar_report, scalar = check_tolerance_swept(program, invariant, TRUE)
        vector_report, vector = check_tolerance_swept(
            program, invariant, TRUE, shards=1
        )
        assert not scalar.vectorized and vector.vectorized
        assert scalar_report == vector_report
        return [
            _without_seconds(quantify(program, invariant, system=csr).to_json())
            for csr in (scalar, vector)
        ]

    @pytest.mark.parametrize(
        "name,size", LIBRARY[:6], ids=[n for n, _ in LIBRARY[:6]]
    )
    def test_bit_identical_expectations(self, name, size):
        program, invariant = build_case(name, size)
        scalar, vector = self._reports(program, invariant)
        assert scalar == vector

    def test_quantify_reports_agree_across_paths(self):
        # ... and both equal the report over a transition system built
        # by the ordinary engine.
        program, invariant, states = _case("dijkstra-ring", 3)
        built = quantify(
            program, invariant,
            system=build_transition_system(program, states, engine="packed"),
        )
        scalar, vector = self._reports(program, invariant)
        assert scalar == vector == _without_seconds(built.to_json())


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


def adversarial_oracle(n, offsets, targets, is_target):
    """The game value by a pure-Python attractor walk: the oracle.

    Max-player value iteration in attractor order. A state joins the
    finite region only once *every* enabled transition leads into it
    (the adversary picks the worst), at which point its value is
    ``1 + max`` over the successors — all already final. States the
    adversary can keep outside the target (a cycle avoiding it, or a
    deadlock) never join and stay ``math.inf``.
    """
    predecessors = [[] for _ in range(n)]
    remaining = [0] * n
    for source in range(n):
        if is_target[source]:
            continue
        remaining[source] = offsets[source + 1] - offsets[source]
        for k in range(offsets[source], offsets[source + 1]):
            predecessors[targets[k]].append(source)
    values = [math.inf] * n
    best = [0.0] * n
    queue = [i for i in range(n) if is_target[i]]
    for i in queue:
        values[i] = 0.0
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        reached = values[node] + 1.0
        for back in predecessors[node]:
            if best[back] < reached:
                best[back] = reached
            remaining[back] -= 1
            if remaining[back] == 0:
                values[back] = best[back]
                queue.append(back)
    return values


def _oracle_of_system(system, target):
    """:func:`adversarial_oracle` over a built transition system."""
    offsets, targets = _csr_of(
        [[destination for _name, destination in row] for row in system.edges]
    )
    is_target = [target(state) for state in system.states]
    return adversarial_oracle(len(system), offsets, targets, is_target)


class TestAdversarialParity:
    """The kernel-peel game value equals the attractor-walk oracle.

    Exact float equality, ``math.inf`` included: the peel's value is its
    round, an integer, and the oracle sums ``1.0``s.
    """

    @staticmethod
    def _against_oracle(program, invariant, states, engine):
        system = build_transition_system(program, states, engine=engine)
        values = worst_case_steps(program, states, invariant, system=system)
        assert list(values) == _oracle_of_system(system, invariant)
        return values

    @pytest.mark.parametrize("name,size", LIBRARY, ids=[n for n, _ in LIBRARY])
    @pytest.mark.parametrize("engine", ["packed", "dict"])
    def test_library(self, name, size, engine):
        program, invariant, states = _case(name, size)
        self._against_oracle(program, invariant, states, engine)

    @pytest.mark.parametrize("engine", ["packed", "dict"])
    def test_trapping_ring(self, engine):
        # K = 2 counters are too few for a 4-ring: the adversary keeps
        # half the states cycling outside S forever.
        program, invariant = build_dijkstra_ring(4, 2)
        states = list(program.state_space())
        values = self._against_oracle(program, invariant, states, engine)
        assert any(math.isinf(v) for v in values)
        assert any(not math.isinf(v) for v in values)

    @pytest.mark.parametrize("narrow", [False, True])
    def test_known_values(self, narrow):
        # 0: target (its own edge to 5 does not count); 1 -> 0;
        # 2 -> 1, 0, 0 (parallel edges); 3: deadlock; 4 -> 3 or 0;
        # 5 -> 5 (self-loop) or 0.
        rows = [[5], [0], [1, 0, 0], [], [3, 0], [5, 0]]
        offsets, targets = _csr_of(rows)
        is_target = [True, False, False, False, False, False]
        if narrow:  # as the packed kernel hands them over
            offsets = np.asarray(offsets, dtype=np.int32)
            targets = np.asarray(targets, dtype=np.int16)
            is_target = np.asarray(is_target, dtype=bool)
        values = quantitative._adversarial_values(
            len(rows), offsets, targets, is_target
        ).tolist()
        expected = [0.0, 1.0, 2.0, math.inf, math.inf, math.inf]
        assert values == expected
        assert adversarial_oracle(len(rows), offsets, targets, is_target) == expected

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
        oracle = adversarial_oracle(n, offsets, targets, is_target)
        # Lists, as the dict engine hands them over, and narrow arrays,
        # as the packed kernel does.
        assert quantitative._adversarial_values(
            n, offsets, targets, is_target
        ).tolist() == oracle
        assert quantitative._adversarial_values(
            n,
            np.asarray(offsets, dtype=np.int32),
            np.asarray(targets, dtype=dtype),
            np.asarray(is_target, dtype=bool),
        ).tolist() == oracle


def _graph_program(rows, fault_slots=frozenset()):
    """A one-variable program whose transition graph is ``rows``.

    Action ``k`` moves state ``s`` to ``rows[s][k]`` (when ``s`` has a
    ``k``-th successor); it is named ``fault{k}`` for the slots in
    ``fault_slots``, ``step{k}`` otherwise. Codes equal states, so the
    CSR rows are ``rows`` in action order.
    """
    width = max((len(row) for row in rows), default=0)
    actions = [
        Action(
            f"fault{k}" if k in fault_slots else f"step{k}",
            Predicate(
                lambda s, k=k: len(rows[s["n"]]) > k,
                name=f"degree > {k}",
                support=("n",),
            ),
            Assignment({"n": lambda s, k=k: rows[s["n"]][k]}),
            reads=("n",),
        )
        for k in range(width)
    ]
    return _counter(actions, hi=len(rows) - 1)


def _member_of(flags, name):
    return Predicate(lambda s: flags[s["n"]], name=name, support=("n",))


@st.composite
def _solver_cases(draw):
    """``(kind, rows, is_target, in_span, fault_slots)`` of four kinds.

    ``acyclic``: every non-target edge leads to a lower state and state
    0 is a target; ``cycles``: any edges, every state enabled;
    ``deadlocks``: rows may be empty; ``span``: any edges plus a fault
    span (closed or not) and fault-named actions. ``in_span`` is
    ``None`` outside the ``span`` kind.
    """
    kind = draw(st.sampled_from(["acyclic", "cycles", "deadlocks", "span"]))
    n = draw(st.integers(1, 8))
    is_target = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = []
    for state in range(n):
        if kind == "acyclic" and state > 0 and not is_target[state]:
            row = draw(st.lists(st.integers(0, state - 1), min_size=1, max_size=3))
        else:
            least = 0 if kind in ("deadlocks", "acyclic") else 1
            row = draw(st.lists(st.integers(0, n - 1), min_size=least, max_size=3))
        rows.append(row)
    if kind == "acyclic":
        is_target[0] = True
    in_span = None
    fault_slots = frozenset()
    if kind == "span":
        in_span = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if draw(st.booleans()):  # close it under the program
            frontier = [state for state in range(n) if in_span[state]]
            while frontier:
                for successor in rows[frontier.pop()]:
                    if not in_span[successor]:
                        in_span[successor] = True
                        frontier.append(successor)
        fault_slots = frozenset(draw(st.sets(st.integers(0, 2))))
    return kind, rows, is_target, in_span, fault_slots


def _longest_path(rows, is_target):
    """Brute-force game value: the longest path into the target.

    0 on the target, ``inf`` where a path reaches a cycle or a deadlock
    outside it, else ``1 +`` the successors' maximum.
    """
    memo = {}

    def value(state, path):
        if is_target[state]:
            return 0.0
        if state in path or not rows[state]:
            return math.inf
        if state not in memo:
            path.add(state)
            memo[state] = 1.0 + max(value(t, path) for t in rows[state])
            path.discard(state)
        return memo[state]

    return [value(state, set()) for state in range(len(rows))]


def _dense_weighted(rows, is_target, doomed, weight_of):
    """Dense reference of the weighted chain: ``weight_of(k)`` per slot."""
    transient = [
        s for s in range(len(rows)) if not is_target[s] and not doomed[s]
    ]
    position = {s: k for k, s in enumerate(transient)}
    values = [math.inf if doomed[s] else 0.0 for s in range(len(rows))]
    if transient:
        matrix = np.eye(len(transient))
        for k, s in enumerate(transient):
            total = sum(weight_of(slot) for slot in range(len(rows[s])))
            for slot, t in enumerate(rows[s]):
                if t in position:
                    matrix[k, position[t]] -= weight_of(slot) / total
        solution = np.linalg.solve(matrix, np.ones(len(transient)))
        for k, s in enumerate(transient):
            values[s] = float(solution[k])
    return values


def _close(got, want):
    if math.isinf(want):
        return math.isinf(got)
    return got == pytest.approx(want, rel=DENSE_AGREEMENT_RTOL)


class TestOneSolver:
    """The one solver against the dense solve and brute force."""

    @seed(1994)
    @settings(max_examples=200, deadline=None)
    @given(_solver_cases())
    @example(  # a closed span with a gap: span positions are not codes
        (
            "span",
            [[0], [1], [3], [0]],
            [True, False, False, False],
            [True, False, True, True],
            frozenset({0}),
        )
    )
    def test_matches_references(self, case):
        kind, rows, is_target, in_span, fault_slots = case
        n = len(rows)
        program = _graph_program(rows, fault_slots)
        states = list(program.state_space())
        target = _member_of(is_target, "S")
        span = TRUE if in_span is None else _member_of(in_span, "T")
        offsets, targets = _csr_of(rows)
        doomed = quantitative._classify_scalar(n, offsets, targets, is_target)
        longest = _longest_path(rows, is_target)

        fast = hitting_times(program, states, target)
        dense = dense_hitting_times(program, states, target)
        assert [math.isinf(x) for x in fast.expectations] == doomed
        assert all(
            _close(got, want)
            for got, want in zip(fast.expectations, dense.expectations)
        )
        assert list(worst_case_steps(program, states, target)) == longest

        rows_in_span = [
            s for s in range(n) if in_span is None or in_span[s]
        ]
        doomed_span = sum(doomed[s] for s in rows_in_span)
        weighted = _dense_weighted(
            rows, is_target, doomed,
            lambda slot: 0.1 if slot in fault_slots else 1.0,
        )
        for report in (
            quantify(program, target, span),
            quantify(program, target, span, shards=1),
        ):
            assert report.doomed_states == doomed_span
            assert report.escape_probability == (
                doomed_span / len(rows_in_span) if rows_in_span else 0.0
            )
            assert report.worst_case_steps == max(
                (longest[s] for s in rows_in_span), default=0.0
            )
            if not doomed_span and rows_in_span:
                assert _close(
                    report.mean_steps,
                    sum(dense.expectations[s] for s in rows_in_span)
                    / len(rows_in_span),
                )
                assert _close(
                    report.weighted_mean_steps,
                    sum(weighted[s] for s in rows_in_span) / len(rows_in_span),
                )
            if kind == "acyclic":
                assert report.iterations == 0

        # A vectorized verdict hands its peel levels over; reusing them
        # must give exactly the standalone (self-peeling) report.
        _report, csr = check_tolerance_swept(program, target, span, shards=1)
        if csr.levels is not None:
            bad = [
                s for s in rows_in_span if not is_target[s]
            ]
            assert all(
                csr.levels[s] + 1 == longest[s]
                if csr.levels[s] >= 0
                else math.isinf(longest[s])
                for s in bad
            )
            reused = quantify(program, target, span, system=csr)
            standalone = quantify(program, target, span, shards=1)
            assert _without_seconds(reused.to_json()) == _without_seconds(
                standalone.to_json()
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_case("diffusing-chain", 5),
            lambda: build_dijkstra_ring(5, 2),
        ],
        ids=["positive", "cycles"],
    )
    def test_verdict_levels_match_a_standalone_peel(self, build):
        program, invariant = build()
        _report, csr = check_tolerance_swept(program, invariant, TRUE, shards=1)
        assert csr.levels is not None
        reused = quantify(program, invariant, system=csr)
        standalone = quantify(program, invariant, shards=1)
        assert _without_seconds(reused.to_json()) == _without_seconds(
            standalone.to_json()
        )


class TestInfinitePropagation:
    def test_doomed_states_are_inf_on_both_paths(self):
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
        # The dict engine's CSR feeds the same solve: bit-identical.
        again = hitting_times(program, program.state_space(), TARGET, engine="dict")
        assert again.expectations == result.expectations

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

    def test_int16_space_through_its_last_state(self):
        # 2^15 states keep int16 codes; under halving, state 32767 is
        # the last the adversarial peel and the reverse BFS reach.
        halve = Action(
            "halve",
            Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
            Assignment({"n": lambda s: s["n"] // 2}),
            reads=("n",),
        )
        program = _counter([halve], hi=(1 << 15) - 1)
        report = quantify(program, TARGET)
        assert report.path == "vector"
        assert report.worst_case_steps == 15.0
        assert report.escape_probability == 0.0
        assert report.ok
        system = build_transition_system(program, program.state_space())
        assert list(
            worst_case_steps(program, (), TARGET, system=system)
        ) == _oracle_of_system(system, TARGET)

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


class TestResidentEstimate:
    """``memory_budget=`` is checked against bytes that cover the solve."""

    @pytest.mark.parametrize("faults", [False, True], ids=["uniform", "faults"])
    @pytest.mark.parametrize("levels", [True, False], ids=["verdict", "own-peel"])
    @pytest.mark.parametrize(
        "name,size", [("diffusing-chain", 7), ("dijkstra-ring", 6)]
    )
    def test_traced_peak_stays_within_the_charged_bytes(
        self, name, size, levels, faults
    ):
        program, invariant = build_case(name, size)
        if levels:
            _report, csr = check_tolerance_swept(program, invariant, TRUE)
            assert csr.levels is not None
        else:
            csr = vectorized_csr(
                compile_program(program), invariant, TRUE, shards=None
            )
        assert csr.vectorized
        options = {"fault_actions": {program.actions[0].name}} if faults else {}
        quantify(program, invariant, system=csr, **options)  # lazy imports
        metrics = MetricsRegistry()
        tracemalloc.start()
        try:
            quantify(program, invariant, system=csr, metrics=metrics, **options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        charged = metrics.report().counters["quantitative.mem.bytes"]
        # The CSR was resident before tracing began; the rest is the solve.
        swept = sum(
            array.nbytes
            for array in (csr.s_mask, csr.offsets, csr.targets, csr.action_ids)
        )
        assert peak <= charged - swept


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


def _sparse_ladder():
    """2048 states and 48 actions, one of them enabled per state.

    The materialized-sweep estimate counts every action on every state,
    so a budget between it and the value iteration's resident bytes
    makes the boolean verdict stream while quantify still fits.
    """
    actions = [
        Action(
            f"step{k}",
            Predicate(
                lambda s, k=k: s["n"] > 0 and s["n"] % 48 == k,
                name=f"n > 0 and n % 48 = {k}",
                support=("n",),
            ),
            Assignment({"n": lambda s: s["n"] - 1}),
            reads=("n",),
        )
        for k in range(48)
    ]
    return _counter(actions, hi=2047)


class TestOneSweepPerRequest:
    """A service quantify request reuses its verdict's sweep."""

    @staticmethod
    def _service_and_standalone(program, invariant, **options):
        metrics = MetricsRegistry()
        verdict = VerificationService(metrics=metrics).verify_tolerance(
            program, invariant, quantify=True, **options
        )
        standalone = quantify(
            program, invariant, case=verdict.record["case"], **options
        )
        assert _without_seconds(verdict.record["quantitative"]) == (
            _without_seconds(standalone.to_json())
        )
        return verdict, metrics.report().counters

    @pytest.mark.parametrize("name,size", LIBRARY, ids=[n for n, _ in LIBRARY])
    def test_record_matches_standalone_on_the_library(self, name, size):
        program, invariant = build_case(name, size)
        self._service_and_standalone(program, invariant)

    @pytest.mark.parametrize(
        "name,size,options",
        [
            ("diffusing-chain", 7, {}),
            ("dijkstra-ring", 5, {"shards": 2}),
        ],
        ids=["diffusing-chain7", "dijkstra-ring5-shards2"],
    )
    def test_record_matches_standalone_vectorized(self, name, size, options):
        program, invariant = build_case(name, size)
        _, counters = self._service_and_standalone(program, invariant, **options)
        assert counters["kernel.sweep.vectorized"] == options.get("shards", 1)

    def test_record_matches_standalone_when_the_verdict_streams(self):
        _, counters = self._service_and_standalone(
            _sparse_ladder(), TARGET, memory_budget=300_000
        )
        assert counters["kernel.mem.streaming"] == 1

    def test_one_reverse_csr_and_no_jacobi_on_a_positive_request(self):
        # The verdict's peel builds the request's only reverse CSR; the
        # solver reads its levels and solves everything in level order.
        metrics = MetricsRegistry()
        program, invariant = build_case("diffusing-chain", 7)
        verdict = VerificationService(metrics=metrics).verify_tolerance(
            program, invariant, quantify=True
        )
        assert verdict.ok and verdict.quantitative.ok
        counters = metrics.report().counters
        assert counters["kernel.sweep.vectorized"] == 1
        assert counters["kernel.reverse_csr"] == 1
        assert counters["quantitative.sweeps"] == 0
        assert verdict.quantitative.iterations == 0

    def test_one_merged_sweep_on_a_vectorized_space(self, monkeypatch):
        import repro.kernel.shard as shard

        calls = []
        sweep_merged = shard.sweep_merged

        def counting(*args, **kwargs):
            calls.append(1)
            return sweep_merged(*args, **kwargs)

        monkeypatch.setattr(shard, "sweep_merged", counting)
        program, invariant = build_case("diffusing-chain", 7)
        verdict = VerificationService().verify_tolerance(
            program, invariant, quantify=True
        )
        assert verdict.ok and verdict.quantitative.ok
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name,size", [("diffusing-chain", 4), ("reset-chain", 3)]
    )
    def test_no_second_build_on_a_small_packed_space(
        self, name, size, monkeypatch
    ):
        import repro.verification.explorer as explorer

        calls = []
        build = explorer.build_transition_system

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(explorer, "build_transition_system", counting)
        program, invariant = build_case(name, size)
        verdict = VerificationService().verify_tolerance(
            program, invariant, quantify=True, engine="packed"
        )
        assert verdict.record["engine"] == "packed"
        assert verdict.quantitative.engine == "packed"
        assert calls == []


_NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any ``import numpy`` now fails
sys.path.insert(0, sys.argv[1])
from repro.protocols.library import build_case
from repro.quantitative import QuantitativeUnsupported
from repro.verification.service import VerificationService

program, invariant = build_case("dijkstra-ring", 3)
service = VerificationService()
plain = service.verify_tolerance(program, invariant)
assert plain.ok and plain.record["engine"] == "packed", plain.record
try:
    service.verify_tolerance(program, invariant, quantify=True)
except QuantitativeUnsupported as error:
    print(error)
else:
    raise SystemExit("quantify=True ran without numpy")
"""


class TestNumpyRequired:
    def test_quantify_refuses_and_verdicts_still_work_without_numpy(self):
        completed = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(SRC)],
            env=os.environ, capture_output=True, text=True, timeout=300,
            check=True,
        )
        assert "numpy" in completed.stdout

    @pytest.mark.parametrize(
        "entry",
        [
            lambda program: quantify(program, TARGET),
            lambda program: hitting_times(program, program.state_space(), TARGET),
            lambda program: worst_case_steps(
                program, program.state_space(), TARGET
            ),
        ],
        ids=["quantify", "hitting_times", "worst_case_steps"],
    )
    def test_every_entry_point_refuses(self, entry, monkeypatch):
        monkeypatch.setattr(quantitative, "HAVE_NUMPY", False)
        with pytest.raises(QuantitativeUnsupported, match="numpy"):
            entry(_counter([_dec()]))
