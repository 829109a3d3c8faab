"""Kernel v2 tests: vectorized sweeps, code ranges, and engine parity.

Three layers:

- unit tests for the array primitives in :mod:`repro.kernel.sweeps`
  (closure scan, deadlock scan, Kahn acyclicity peel, frontier BFS, CSR
  fragment merging) against hand-built CSR graphs, plus properties of
  the shared Kahn peel on random graphs at every code dtype: its levels
  are the longest path to an exit, every acyclicity check built on it
  agrees with Tarjan's SCCs, and each verdict step's numpy primitive
  returns what its numpy-free twin returns;
- differential tests pinning the vectorized full-space path (forced by
  lowering ``VECTOR_MIN_STATES``) and the multi-range path bit-identical to
  the scalar packed sweep across the protocol library and crafted
  failing instances;
- engine-parity tests at the ``max_states`` boundary and pool-robustness
  tests for the ``BrokenProcessPool`` sequential fallback.
"""

import multiprocessing
import os
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Action,
    Assignment,
    FALSE,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    Variable,
)
from repro.core.errors import StateSpaceTooLargeError
from repro.core.predicates import TRUE
from repro.kernel import sweeps
from repro.kernel.shard import plan_shards
from repro.kernel.verify import check_tolerance_packed, check_tolerance_swept
from repro.observability.metrics import MetricsRegistry
from repro.protocols.library import build_case, case_names
from repro.protocols.token_ring import build_dijkstra_ring
from repro.verification import convergence
from repro.verification.checker import _check_tolerance as check_tolerance
from repro.verification.convergence import _strongly_connected_components

needs_numpy = pytest.mark.skipif(
    not sweeps.HAVE_NUMPY, reason="numpy is not installed"
)

if sweeps.HAVE_NUMPY:
    import numpy as np


# ----------------------------------------------------------------------
# Array primitives over hand-built CSR graphs
# ----------------------------------------------------------------------


def _csr(edges, n):
    """Build (offsets, targets) from {source: [targets...]}."""
    offsets = [0]
    targets = []
    for source in range(n):
        targets.extend(edges.get(source, []))
        offsets.append(len(targets))
    return (
        np.asarray(offsets, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
    )


@needs_numpy
class TestClosureScan:
    def test_closed_set(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [2]}, 3)
        mask = np.array([True, True, False])
        ok, checked, witnesses = sweeps.closure_scan(mask, offsets, targets)
        assert ok and checked == 2 and witnesses == []

    def test_failing_edges_in_order(self):
        # 0 -> 2 and 1 -> 2 leave the set {0, 1}.
        offsets, targets = _csr({0: [1, 2], 1: [2]}, 3)
        mask = np.array([True, True, False])
        ok, checked, witnesses = sweeps.closure_scan(mask, offsets, targets)
        assert not ok
        assert witnesses == [1, 2]  # CSR edge indices, edge order
        assert checked == 2

    def test_early_exit_checked_matches_scalar_walk(self):
        # Six failing edges from six sources: the scalar walk stops after
        # the fifth witness, having examined five sources.
        offsets, targets = _csr({i: [6] for i in range(6)}, 7)
        mask = np.array([True] * 6 + [False])
        ok, checked, witnesses = sweeps.closure_scan(mask, offsets, targets)
        assert not ok
        assert len(witnesses) == 5
        assert checked == 5


@needs_numpy
class TestDeadlockAndAcyclicity:
    def test_first_bad_deadlock(self):
        offsets, targets = _csr({0: [1]}, 3)
        bad = np.array([True, True, True])
        # States 1 and 2 both deadlock; the scan reports the first.
        assert sweeps.first_bad_deadlock(bad, offsets) == 1

    def test_no_deadlock(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [0]}, 3)
        assert sweeps.first_bad_deadlock(np.ones(3, dtype=bool), offsets) is None

    def test_acyclic_chain_peels(self):
        offsets, targets = _csr({0: [1], 1: [2], 2: [3]}, 4)
        bad = np.array([True, True, True, False])
        levels = sweeps.bad_region_acyclic(bad, offsets, targets)
        assert levels.tolist() == [2, 1, 0, -1]
        assert _all_bad_peel(bad, offsets, targets)

    def test_cycle_is_detected(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [0]}, 3)
        bad = np.ones(3, dtype=bool)
        levels = sweeps.bad_region_acyclic(bad, offsets, targets)
        assert levels.tolist() == [-1, -1, -1]
        assert not _all_bad_peel(bad, offsets, targets)

    def test_self_loop_is_a_cycle(self):
        offsets, targets = _csr({1: [1]}, 2)
        bad = np.array([False, True])
        assert not _all_bad_peel(bad, offsets, targets)

    def test_edges_through_good_states_do_not_count(self):
        # 0 -> 1 -> 0 would be a cycle, but 1 is good: the bad region
        # {0} only has the outgoing edge and is acyclic.
        offsets, targets = _csr({0: [1], 1: [0]}, 2)
        bad = np.array([True, False])
        assert sweeps.bad_region_acyclic(bad, offsets, targets).tolist() == [0, -1]

    def test_deadlock_never_peels(self):
        # 1 is a bad deadlock: it never peels, and neither does 0, which
        # can be steered into it despite its exit to the good state 2.
        offsets, targets = _csr({0: [1, 2]}, 3)
        bad = np.array([True, True, False])
        levels = sweeps.bad_region_acyclic(bad, offsets, targets)
        assert levels.tolist() == [-1, -1, -1]


@needs_numpy
class TestFrontierReach:
    def test_reaches_closure_of_roots(self):
        offsets, targets = _csr({0: [1], 1: [2], 3: [4]}, 5)
        visited = sweeps.frontier_reach(offsets, targets, [0], 5)
        assert visited.tolist() == [True, True, True, False, False]

    def test_multiple_roots_and_cycles(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [2], 4: [3]}, 5)
        visited = sweeps.frontier_reach(offsets, targets, [1, 4], 5)
        assert visited.tolist() == [True, True, False, True, True]

    def test_no_roots(self):
        offsets, targets = _csr({}, 3)
        assert not sweeps.frontier_reach(offsets, targets, [], 3).any()

    def test_int16_targets_reach_the_last_state(self):
        # State 32767 joins the (int16) frontier in the last round.
        n = 1 << 15
        children = {v: [2 * v, 2 * v + 1] for v in range(1, n // 2)}
        offsets, targets = _csr(children, n)
        visited = sweeps.frontier_reach(
            offsets, targets.astype(np.int16), [1], n
        )
        assert visited.tolist() == [False] + [True] * (n - 1)


#: The code dtypes the kernel narrows its CSR arrays to.
CODE_DTYPES = ["int16", "int32", "int64"]


@st.composite
def _region_graphs(draw):
    """``(n, region, edges)``: a random graph and a region mask.

    Edges may be self-loops or parallel, and may leave the region.
    """
    n = draw(st.integers(0, 10))
    region = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=25)) if n else []
    return n, region, edges


def _edge_arrays(edges, dtype):
    sources = np.asarray([s for s, _ in edges], dtype=dtype)
    sinks = np.asarray([t for _, t in edges], dtype=dtype)
    return sources, sinks


def _longest_path_to_exit(n, region, edges):
    """Plain-Python peel levels: a region state's longest path to a state
    with no out-edge, or -1 when some path from it reaches a cycle or
    leaves the region."""
    successors = [[] for _ in range(n)]
    for source, sink in edges:
        successors[source].append(sink)
    memo = {}

    def level(node, path):
        if not region[node] or node in path:
            return None
        if node not in memo:
            path.add(node)
            best = 0
            for successor in successors[node]:
                below = level(successor, path)
                if below is None:
                    best = None
                    break
                best = max(best, below + 1)
            path.discard(node)
            memo[node] = best
        return memo[node]

    levels = [level(node, set()) for node in range(n)]
    return [-1 if value is None else value for value in levels]


def _kahn_levels(region, sources, sinks):
    """The round each state peels in (:func:`sweeps.kahn_peel`), -1 if never."""
    levels = [-1] * region.size
    for level, frontier in enumerate(sweeps.kahn_peel(region, sources, sinks)):
        for state in frontier.tolist():
            levels[state] = level
    return levels


def _bad_region_levels(n, bad, edges):
    """Plain-Python levels of :func:`sweeps.bad_region_acyclic`.

    The longest path to an exit over the bad→bad edges, where only bad
    states with some out-edge can peel: a good state, a bad deadlock and
    every state that can reach a bad cycle or deadlock get -1.
    """
    outdegree = [0] * n
    for source, _ in edges:
        outdegree[source] += 1
    region = [bad[node] and outdegree[node] > 0 for node in range(n)]
    internal = [(s, t) for s, t in edges if bad[s] and bad[t]]
    return _longest_path_to_exit(n, region, internal)


def _all_bad_peel(bad, offsets, targets):
    """The verdict's test: no bad state is left at level -1."""
    levels = sweeps.bad_region_acyclic(bad, offsets, targets)
    return bool((levels[bad] >= 0).all())


def _acyclic_by_scc(n, bad, edges):
    """Whether the bad-induced subgraph is acyclic, by Tarjan's SCCs."""
    internal = {node: [] for node in range(n) if bad[node]}
    for source, sink in edges:
        if bad[source] and bad[sink]:
            internal[source].append(sink)
    components = _strongly_connected_components(list(internal), internal)
    return all(
        len(component) == 1 and component[0] not in internal[component[0]]
        for component in components
    )


def _csr_of_edges(n, edges, dtype):
    rows = {}
    for source, sink in edges:
        rows.setdefault(source, []).append(sink)
    offsets, targets = _csr(rows, n)
    offset_dtype = np.int64 if dtype == "int64" else np.int32
    return offsets.astype(offset_dtype), targets.astype(dtype)


@needs_numpy
class TestKahnPeel:
    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    @settings(max_examples=100, deadline=None)
    @given(_region_graphs())
    def test_levels_are_longest_path_to_exit(self, dtype, graph):
        n, region, edges = graph
        # The peel's contract: every edge source lies in the region.
        edges = [(s, t) for s, t in edges if region[s]]
        levels = _kahn_levels(
            np.asarray(region, dtype=bool), *_edge_arrays(edges, dtype)
        )
        assert levels == _longest_path_to_exit(n, region, edges)

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    @settings(max_examples=100, deadline=None)
    @given(_region_graphs())
    def test_bad_region_acyclic_matches_scc(self, dtype, graph):
        n, bad, edges = graph
        offsets, targets = _csr_of_edges(n, edges, dtype)
        bad_mask = np.asarray(bad, dtype=bool)
        levels = sweeps.bad_region_acyclic(bad_mask, offsets, targets)
        assert levels.tolist() == _bad_region_levels(n, bad, edges)
        deadlocked = any(
            bad[node] and offsets[node] == offsets[node + 1]
            for node in range(n)
        )
        assert _all_bad_peel(bad_mask, offsets, targets) == (
            _acyclic_by_scc(n, bad, edges) and not deadlocked
        )

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    @settings(max_examples=100, deadline=None)
    @given(_region_graphs(), st.integers(1, 4))
    def test_shard_peels_then_exchange_match_scc(self, dtype, graph, shards):
        # The streaming path's two steps: a peel per shard that keeps
        # boundary sinks alive, then the global edge-list exchange.
        n, bad, edges = graph
        bad_mask = np.asarray(bad, dtype=bool)
        internal = [(s, t) for s, t in edges if bad[s] and bad[t]]
        resolved = np.zeros(n, dtype=bool)
        kept = []
        for lo, hi in plan_shards(n, shards):
            sources, sinks = _edge_arrays(
                [(s, t) for s, t in internal if lo <= s < hi], dtype
            )
            drained, sources, sinks = sweeps.peel_shard_edges(
                lo, hi, bad_mask[lo:hi], sources, sinks
            )
            resolved[lo:hi] = drained
            kept.extend(zip(sources.tolist(), sinks.tolist()))
        alive = [(s, t) for s, t in kept if not resolved[t]]
        assert sweeps.edge_list_acyclic(
            *_edge_arrays(alive, dtype), bad_mask & ~resolved
        ) == _acyclic_by_scc(n, bad, edges)

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    def test_empty_region(self, dtype):
        offsets, targets = _csr_of_edges(3, [(0, 1), (1, 2)], dtype)
        bad = np.zeros(3, dtype=bool)
        assert sweeps.bad_region_acyclic(bad, offsets, targets).tolist() == [-1] * 3
        assert _all_bad_peel(bad, offsets, targets)
        sources, sinks = _edge_arrays([], dtype)
        assert _kahn_levels(bad, sources, sinks) == [-1] * 3
        assert sweeps.edge_list_acyclic(sources, sinks, bad)

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    def test_region_without_edges_peels_in_round_zero(self, dtype):
        region = np.array([True, False, True])
        sources, sinks = _edge_arrays([], dtype)
        assert _kahn_levels(region, sources, sinks) == [0, -1, 0]
        # Over a CSR the same states are bad deadlocks: they never peel.
        offsets, targets = _csr_of_edges(3, [], dtype)
        levels = sweeps.bad_region_acyclic(region, offsets, targets)
        assert levels.tolist() == [-1, -1, -1]

    def test_no_states(self):
        empty = np.zeros(0, dtype=bool)
        sources, sinks = _edge_arrays([], "int16")
        assert _kahn_levels(empty, sources, sinks) == []
        offsets, targets = _csr_of_edges(0, [], "int16")
        assert sweeps.bad_region_acyclic(empty, offsets, targets).size == 0

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    def test_long_chain_levels(self, dtype):
        n = 1000
        region = np.ones(n, dtype=bool)
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        levels = _kahn_levels(region, *_edge_arrays(edges, dtype))
        assert levels == list(range(n - 1, -1, -1))
        # Over a CSR the chain's last state is the good exit.
        bad = region.copy()
        bad[n - 1] = False
        offsets, targets = _csr_of_edges(n, edges, dtype)
        levels = sweeps.bad_region_acyclic(bad, offsets, targets)
        assert levels.tolist() == list(range(n - 2, -1, -1)) + [-1]
        offsets, targets = _csr_of_edges(n, edges + [(n - 2, 1)], dtype)
        assert not _all_bad_peel(bad, offsets, targets)

    def test_int16_codes_up_to_the_last_state(self):
        # A 2^15-state space keeps int16 codes. Halving edges peel state
        # 32767 in the last round, so that frontier holds the dtype's
        # maximum, where adding 1 would wrap to -32768.
        n = 1 << 15
        edges = [(v, v // 2) for v in range(1, n)]
        levels = _kahn_levels(
            np.ones(n, dtype=bool), *_edge_arrays(edges, "int16")
        )
        assert levels == [v.bit_length() for v in range(n)]
        offsets, targets = _csr_of_edges(n, edges, "int16")
        bad = np.ones(n, dtype=bool)
        bad[0] = False
        levels = sweeps.bad_region_acyclic(bad, offsets, targets)
        assert levels.tolist() == [-1] + [
            v.bit_length() - 1 for v in range(1, n)
        ]
        assert not _all_bad_peel(
            bad, *_csr_of_edges(n, edges + [(1, n - 1)], "int16")
        )


def _reachable(n, roots, edges):
    """The rows reachable from ``roots`` (a 0/1 list), roots included."""
    successors = [[] for _ in range(n)]
    for source, sink in edges:
        successors[source].append(sink)
    seen = [bool(root) for root in roots]
    stack = [row for row in range(n) if seen[row]]
    while stack:
        for sink in successors[stack.pop()]:
            if not seen[sink]:
                seen[sink] = True
                stack.append(sink)
    return seen


#: The ``array`` typecode of each numpy code dtype.
_TYPECODES = {"int16": "h", "int32": "i", "int64": "q"}


def _listed(value):
    """A primitive's result as plain Python values, for comparison."""
    if value is None or isinstance(value, (bool, int)):
        return value
    return [int(item) for item in value]


def _assert_backends_agree(n, region, edges, dtype):
    """Each verdict step's numpy primitive and its numpy-free twin agree.

    ``region`` is ``S``; ``T`` is everything ``S`` reaches (closed, as
    the carve requires) or ``TRUE`` (``None``). Both sequences run the
    verdict's steps on their own outputs, the way ``check_tolerance_swept``
    chains them.
    """
    offsets, targets = _csr_of_edges(n, edges, dtype)
    ids = np.arange(targets.size, dtype=np.int16) % 3
    s_mask = np.asarray(region, dtype=bool)
    buffers = (
        array("i" if offsets.dtype == np.int32 else "q", offsets.tolist()),
        array(_TYPECODES[dtype], targets.tolist()),
        array("h", ids.tolist()),
    )
    s_bytes = bytearray(region)
    every = len(edges) + 1
    for limit in (5, every):
        vector = sweeps.closure_scan(s_mask, offsets, targets, max_witnesses=limit)
        scalar = sweeps.scalar_closure_scan(
            s_bytes, *buffers[:2], max_witnesses=limit
        )
        assert scalar == vector
    for span in (None, _reachable(n, region, edges)):
        t_mask = None if span is None else np.asarray(span, dtype=bool)
        t_bytes = None if span is None else bytearray(span)
        assert sweeps.scalar_count_rows(s_bytes) == sweeps.count_rows(s_mask)
        if span is not None:
            assert sweeps.scalar_count_rows(t_bytes, s_bytes) == (
                sweeps.count_rows(t_mask, s_mask)
            )
        vector = sweeps.carve_span(s_mask, t_mask, offsets, targets, ids)
        scalar = sweeps.scalar_carve_span(s_bytes, t_bytes, *buffers)
        assert [_listed(part) for part in scalar] == [
            _listed(part) for part in vector
        ]
        (rows, bad, span_offsets, span_targets, _), scalar_carve = vector, scalar
        scalar_bad, scalar_offsets, scalar_targets = scalar_carve[1:4]
        assert sweeps.scalar_first_bad_deadlock(
            scalar_bad, scalar_offsets
        ) == sweeps.first_bad_deadlock(bad, span_offsets)
        levels = sweeps.bad_region_acyclic(bad, span_offsets, span_targets)
        scalar_levels = sweeps.scalar_peel(
            scalar_bad, scalar_offsets, scalar_targets
        )
        assert list(scalar_levels) == levels.tolist()
        assert sweeps.scalar_unpeeled_rows(
            scalar_bad, scalar_levels
        ) == sweeps.unpeeled_rows(bad, levels)
        if rows is not None:
            assert list(
                sweeps.scalar_levels_by_row(scalar_levels, scalar_carve[0], n)
            ) == sweeps.levels_by_row(levels, rows, n).tolist()


@needs_numpy
class TestBackendParity:
    """The numpy and numpy-free forms of every verdict step agree."""

    @pytest.mark.parametrize("dtype", CODE_DTYPES)
    @settings(max_examples=100, deadline=None)
    @given(_region_graphs())
    @example((0, [], []))
    @example((3, [True, False, False], [(0, 1), (0, 2), (1, 1)]))
    # Seven failing edges, two of them from row 0: the early exit stops
    # the walk at row 3, with rows 4 and 5 unchecked.
    @example((7, [True] * 6 + [False], [(0, 6)] + [(i, 6) for i in range(6)]))
    def test_random_graphs(self, dtype, graph):
        _assert_backends_agree(*graph, dtype)

    def test_int16_space_with_an_edge_into_its_last_state(self):
        # 2^15 rows keep int16 codes: span rows, targets and levels all
        # reach 32767, the dtype's maximum.
        n = 1 << 15
        region = [True] * n
        region[0] = False
        edges = [(1, n - 1), (n - 1, 0), (2, 2), (3, 1)]
        _assert_backends_agree(n, region, edges, "int16")
        region = [False] * n
        region[1] = True
        _assert_backends_agree(n, region, edges, "int16")


class TestPlanShards:
    def test_auto_single_shard_below_threshold(self):
        assert plan_shards(1000) == [(0, 1000)]

    def test_explicit_shards_partition_contiguously(self):
        ranges = plan_shards(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

    def test_shards_clamped_to_size(self):
        assert plan_shards(2, 100) == [(0, 1), (1, 2)]
        assert plan_shards(5, 0) == [(0, 5)]

    def test_empty_space(self):
        assert plan_shards(0) == []

    def test_auto_large_space_targets_shard_size(self):
        ranges = plan_shards(1 << 23)
        assert 1 < len(ranges) <= 64
        assert ranges[0][0] == 0 and ranges[-1][1] == 1 << 23


# ----------------------------------------------------------------------
# Differential: vectorized (and sharded) vs scalar packed sweep
# ----------------------------------------------------------------------


def _force_vectorized(monkeypatch):
    monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 0)


def _force_scalar(monkeypatch):
    monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 1 << 62)


def _packed_report(program, invariant, fault_span, *, fairness="weak", **kw):
    return check_tolerance_packed(
        program, invariant, fault_span, fairness=fairness, **kw
    )


@needs_numpy
@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("fairness", ["weak", "none"])
def test_library_vectorized_matches_scalar(name, fairness, monkeypatch):
    program, invariant = build_case(name)
    _force_scalar(monkeypatch)
    scalar = _packed_report(program, invariant, TRUE, fairness=fairness)
    _force_vectorized(monkeypatch)
    vectorized = _packed_report(program, invariant, TRUE, fairness=fairness)
    sharded = _packed_report(
        program, invariant, TRUE, fairness=fairness, shards=3
    )
    assert vectorized == scalar
    assert sharded == scalar


@needs_numpy
@pytest.mark.parametrize("name", case_names())
def test_library_sharded_matches_unsharded(name, monkeypatch):
    program, invariant = build_case(name)
    _force_vectorized(monkeypatch)
    unsharded = _packed_report(program, invariant, TRUE, shards=1)
    sharded = _packed_report(program, invariant, TRUE, shards=4)
    assert sharded == unsharded


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


@needs_numpy
class TestFailingVerdictsVectorized:
    """Counterexample paths: witnesses, deadlocks, cycles, open spans."""

    @pytest.fixture(autouse=True)
    def _vectorize(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def _both(self, program, invariant, fault_span, *, fairness="weak"):
        _force_scalar(self.monkeypatch)
        scalar = _packed_report(
            program, invariant, fault_span, fairness=fairness
        )
        _force_vectorized(self.monkeypatch)
        vectorized = _packed_report(
            program, invariant, fault_span, fairness=fairness
        )
        sharded = _packed_report(
            program, invariant, fault_span, fairness=fairness, shards=3
        )
        assert vectorized == scalar
        assert sharded == scalar
        return scalar

    def test_s_closure_witness_order_and_checked(self):
        program = _counter()
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        report = self._both(program, invariant, TRUE)
        assert not report.s_closure.ok
        witness = report.s_closure.witnesses[0]
        assert witness.before == State({"n": 0})
        assert witness.action_name == "inc"
        assert witness.after == State({"n": 1})

    def test_cycle_counterexamples(self):
        program = _counter()
        for fairness in ("weak", "none"):
            report = self._both(program, FALSE, TRUE, fairness=fairness)
            assert report.convergence.counterexample.kind == "cycle"

    def test_deadlock_counterexample(self):
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
        report = self._both(program, invariant, TRUE)
        assert report.convergence.counterexample.kind == "deadlock"
        assert report.convergence.counterexample.states == (State({"n": 0}),)

    def test_unclosed_span_fails_without_counterexample(self):
        program = _counter()
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert not report.t_closure.ok
        assert report.convergence.counterexample is None

    def test_implication_failure(self):
        program = _counter()
        invariant = Predicate(lambda s: s["n"] <= 2, name="n <= 2", support=("n",))
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert not report.implication_ok

    def test_nontrivial_closed_span(self):
        # T = (n >= 1) is closed under inc/reset-to-1 and S = (n = hi).
        hi = 3
        inc = Action(
            "inc",
            Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
            Assignment({"n": lambda s: s["n"] + 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "climber",
            [Variable("n", IntegerRangeDomain(0, hi), process="p")],
            [inc],
        )
        invariant = Predicate(lambda s: s["n"] == hi, name="n = hi", support=("n",))
        span = Predicate(lambda s: s["n"] >= 1, name="n >= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert report.ok
        assert not report.stabilizing


@needs_numpy
@pytest.mark.parametrize("fairness", ["weak", "none"])
def test_bad_deadlock_is_decided_before_the_peel_on_both_backends(fairness):
    # T = (n <= 2) is closed and holds two bad states: n = 2 steps to
    # n = 1, which is a deadlock. The deadlock scan answers on both
    # backends, so no state reaches Tarjan and no levels are kept.
    down = Action(
        "down",
        Predicate(lambda s: s["n"] > 1, name="n > 1", support=("n",)),
        Assignment({"n": lambda s: s["n"] - 1}),
        reads=("n",),
        process="p",
    )
    program = Program(
        "stuck", [Variable("n", IntegerRangeDomain(0, 3), process="p")], [down]
    )
    invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
    span = Predicate(lambda s: s["n"] <= 2, name="n <= 2", support=("n",))
    reports = []
    for options, vectorized in (({}, False), ({"shards": 1}, True)):
        metrics = MetricsRegistry()
        report, csr = check_tolerance_swept(
            program, invariant, span, fairness=fairness, metrics=metrics,
            **options,
        )
        counters = metrics.report().counters
        assert csr.vectorized == vectorized
        assert csr.levels is None
        assert counters["kernel.converge.tarjan"] == 0
        reports.append(report)
    assert reports[0] == reports[1] == check_tolerance(
        program, invariant, span, fairness=fairness, engine="dict"
    )
    assert reports[0].convergence.bad_states == 2
    assert reports[0].convergence.counterexample.kind == "deadlock"
    assert reports[0].convergence.counterexample.states == (State({"n": 1}),)


@needs_numpy
class TestPeeledHandOff:
    """A negative verdict hands Tarjan only the bad states that never peel.

    The vectorized verdict's counterexample must still be the dict
    engine's, state for state, under both fairness modes.
    """

    @pytest.mark.parametrize("fairness", ["weak", "none"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_half_k_rings_match_the_dict_engine(self, n, fairness, monkeypatch):
        # K = n // 2 counters are too few: the ring can cycle outside S.
        program, invariant = build_dijkstra_ring(n, n // 2)
        _force_vectorized(monkeypatch)
        metrics = MetricsRegistry()
        report = _packed_report(
            program, invariant, TRUE, fairness=fairness, metrics=metrics
        )
        assert metrics.report().counters["kernel.sweep.vectorized"] == 1
        assert not report.ok
        assert report.convergence.counterexample.kind == "cycle"
        assert report == check_tolerance(
            program, invariant, TRUE, fairness=fairness, engine="dict"
        )

    @pytest.mark.parametrize("fairness", ["weak", "none"])
    def test_always_enabled_exit_into_a_peeled_state(self, fairness, monkeypatch):
        # S is n = 0. State 1 peels (down leads into S); 2 and 3 spin
        # into each other, and ``leave``, enabled at both, leads into the
        # peeled state 1. Weak fairness must fire ``leave``, so the spin
        # cycle is no trap -- which the hand-off only sees if it still
        # reads the edges into peeled states.
        def action(name, sources, successor):
            return Action(
                name,
                Predicate(
                    lambda s: s["n"] in sources,
                    name=f"n in {sorted(sources)}",
                    support=("n",),
                ),
                Assignment({"n": successor}),
                reads=("n",),
                process="p",
            )

        program = Program(
            "spin-or-leave",
            [Variable("n", IntegerRangeDomain(0, 3), process="p")],
            [
                action("down", {1}, lambda s: 0),
                action("spin", {2, 3}, lambda s: 5 - s["n"]),
                action("leave", {2, 3}, lambda s: 1),
            ],
        )
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        candidates = []
        tarjan = convergence._strongly_connected_components

        def recording(node_ids, successors):
            candidates.append(list(node_ids))
            return tarjan(node_ids, successors)

        monkeypatch.setattr(
            convergence, "_strongly_connected_components", recording
        )
        _force_vectorized(monkeypatch)
        report = _packed_report(program, invariant, TRUE, fairness=fairness)
        assert candidates == [[2, 3]]  # state 1 peeled away
        assert report.convergence.bad_states == 3
        assert report.convergence.ok == (fairness == "weak")
        assert report == check_tolerance(
            program, invariant, TRUE, fairness=fairness, engine="dict"
        )


@needs_numpy
def test_raw_successors_fall_back_to_scalar(monkeypatch):
    # The increment overflows its domain: raw successor states are
    # outside the vectorized fragment, so forcing vectorization must
    # still produce the scalar sweep's exact witnesses.
    inc = Action(
        "inc",
        Predicate(lambda s: True, name="true", support=()),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
        process="p",
    )
    program = Program(
        "overflowing", [Variable("n", IntegerRangeDomain(0, 3), process="p")], [inc]
    )
    span = Predicate(lambda s: s["n"] <= 3, name="n <= 3", support=("n",))
    _force_scalar(monkeypatch)
    scalar = _packed_report(program, FALSE, span)
    _force_vectorized(monkeypatch)
    vectorized = _packed_report(program, FALSE, span)
    assert vectorized == scalar
    assert vectorized.t_closure.witnesses[0].after == State({"n": 4})


@needs_numpy
def test_opaque_predicate_without_support_falls_back(monkeypatch):
    program = _counter()
    # No declared support and no symbolic source: the mask compiler must
    # refuse, and the scalar sweep must give the same report.
    opaque = Predicate(lambda s: s["n"] == 0, name="opaque")
    _force_scalar(monkeypatch)
    scalar = _packed_report(program, opaque, TRUE)
    _force_vectorized(monkeypatch)
    assert _packed_report(program, opaque, TRUE) == scalar


@needs_numpy
def test_int16_space_verifies_through_its_last_state(monkeypatch):
    # One variable spanning a 2^15-state space: int16 codes, a radix
    # past int16's maximum, and a bad region whose Kahn peel reaches
    # state 32767 only in its last round.
    hi = (1 << 15) - 1
    halve = Action(
        "halve",
        Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
        Assignment({"n": lambda s: s["n"] // 2}),
        reads=("n",),
        process="p",
    )
    program = Program(
        "halving", [Variable("n", IntegerRangeDomain(0, hi), process="p")], [halve]
    )
    invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
    _force_scalar(monkeypatch)
    scalar = _packed_report(program, invariant, TRUE)
    _force_vectorized(monkeypatch)
    from repro.observability.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    assert _packed_report(program, invariant, TRUE, metrics=metrics) == scalar
    assert metrics.report().counters["kernel.sweep.vectorized"] >= 1
    metrics = MetricsRegistry()
    streamed = _packed_report(
        program, invariant, TRUE, shards=3, memory_budget=1024, metrics=metrics
    )
    assert streamed == scalar
    assert metrics.report().counters["kernel.mem.streaming"] == 1
    assert scalar.ok


@needs_numpy
def test_sweep_events_and_counters(monkeypatch):
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracer import Tracer

    program, invariant = build_case("dijkstra-ring")
    _force_vectorized(monkeypatch)
    tracer = Tracer.buffered()
    metrics = MetricsRegistry()
    check_tolerance_packed(
        program, invariant, TRUE, shards=3, tracer=tracer, metrics=metrics
    )
    kinds = [event.kind for event in tracer.events]
    assert "kernel.sweep.vectorized" in kinds
    assert "kernel.shard.merged" in kinds
    report = metrics.report()
    assert report.counters["kernel.sweep.vectorized"] == 3
    assert report.counters["kernel.shard.merged"] == 3


# ----------------------------------------------------------------------
# Engine parity at the max_states boundary
# ----------------------------------------------------------------------


class TestMaxStatesParity:
    """Both engines agree — verdict or identical error — at the limit."""

    def test_at_exactly_max_states_both_verify(self):
        program, invariant = build_case("coloring-chain")
        size = len(list(program.state_space()))
        dict_report = check_tolerance(
            program, invariant, TRUE, engine="dict", max_states=size
        )
        packed_report = check_tolerance(
            program, invariant, TRUE, engine="packed", max_states=size
        )
        assert packed_report == dict_report
        assert packed_report.total_states == size

    def test_one_below_max_states_identical_error(self):
        program, invariant = build_case("coloring-chain")
        size = len(list(program.state_space()))
        with pytest.raises(StateSpaceTooLargeError) as dict_error:
            check_tolerance(
                program, invariant, TRUE, engine="dict", max_states=size - 1
            )
        with pytest.raises(StateSpaceTooLargeError) as packed_error:
            check_tolerance(
                program, invariant, TRUE, engine="packed", max_states=size - 1
            )
        assert str(packed_error.value) == str(dict_error.value)

    def test_service_threads_max_states_through(self):
        from repro.verification.service import VerificationService

        program, invariant = build_case("coloring-chain")
        size = len(list(program.state_space()))
        for engine in ("dict", "packed"):
            with pytest.raises(StateSpaceTooLargeError):
                VerificationService().verify_tolerance(
                    program,
                    invariant,
                    engine=engine,
                    case="boundary",
                    max_states=size - 1,
                )

    def test_raised_limit_allows_larger_spaces(self):
        # A limit above the instance is as good as the default.
        program, invariant = build_case("coloring-chain")
        report = check_tolerance(
            program, invariant, TRUE, engine="packed", max_states=10**9
        )
        assert report.ok


# ----------------------------------------------------------------------
# Pool robustness: BrokenProcessPool degrades to sequential
# ----------------------------------------------------------------------


def _build_case_killing_workers(name):
    """Builder that hard-kills any pool worker that runs it."""
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(1)
    return build_case(name)


def _build_case_ignoring(arg):
    """Builder whose argument only matters for pickling."""
    return build_case("coloring-chain")


class TestBrokenPoolFallback:
    def test_run_batch_falls_back_sequentially(self):
        from repro.verification.parallel import VerificationTask, run_batch

        tasks = [
            VerificationTask(
                case=f"killer-{index}",
                builder=f"{__name__}:_build_case_killing_workers",
                args=("coloring-chain",),
            )
            for index in range(2)
        ]
        records = run_batch(tasks, workers=2)
        assert len(records) == 2
        assert all(record["ok"] for record in records)
        assert all(
            record["worker"] == "MainProcess" for record in records
        )

    def test_unpicklable_probe_task_degrades(self):
        # An unpicklable first task defeats the representative probe and
        # the whole batch runs sequentially in-process.
        from repro.verification.parallel import VerificationTask, run_batch

        bad = VerificationTask(
            case="unpicklable-arg",
            builder=f"{__name__}:_build_case_ignoring",
            args=(lambda: None,),  # closures do not pickle
        )
        records = run_batch([bad], workers=2)
        assert records[0]["ok"]
        assert records[0]["worker"] == "MainProcess"

    def test_unpicklable_task_past_the_probe_degrades(self):
        # The probe only checks tasks[0]; a later unpicklable task fails
        # at submit time and the pool degrades to the sequential rerun.
        from repro.verification.parallel import VerificationTask, run_batch

        good = VerificationTask(
            case="picklable",
            builder=f"{__name__}:_build_case_ignoring",
            args=("anything",),
        )
        bad = VerificationTask(
            case="unpicklable-arg",
            builder=f"{__name__}:_build_case_ignoring",
            args=(lambda: None,),
        )
        records = run_batch([good, bad], workers=2)
        assert len(records) == 2
        assert all(record["ok"] for record in records)


# ----------------------------------------------------------------------
# Sharding plumbing: service and CLI
# ----------------------------------------------------------------------


@needs_numpy
def test_service_shards_do_not_change_record(monkeypatch):
    from repro.verification.service import VerificationService

    _force_vectorized(monkeypatch)
    program, invariant = build_case("dijkstra-ring")
    plain = VerificationService().verify_tolerance(
        program, invariant, engine="packed", case="s"
    )
    sharded = VerificationService().verify_tolerance(
        program, invariant, engine="packed", case="s", shards=4
    )
    assert sharded.report == plain.report
    ignore = ("seconds",)
    assert {k: v for k, v in sharded.record.items() if k not in ignore} == {
        k: v for k, v in plain.record.items() if k not in ignore
    }


@needs_numpy
def test_shards_hit_the_service_cache(monkeypatch, tmp_path):
    # shards= is deliberately NOT part of the cache key: a sharded run
    # re-answers an unsharded run's cached verdict and vice versa.
    from repro.verification.service import VerificationService

    _force_vectorized(monkeypatch)
    program, invariant = build_case("dijkstra-ring")
    service = VerificationService(cache_dir=str(tmp_path))
    first = service.verify_tolerance(
        program, invariant, engine="packed", case="c", shards=3
    )
    second = service.verify_tolerance(
        program, invariant, engine="packed", case="c"
    )
    assert not first.cached
    assert second.cached
