"""Convergence checking.

Convergence (Section 3): every computation of the program that starts at
any state where ``T`` holds reaches a state where ``S`` holds. On a finite
instance this is decidable from the transition graph of the ``T``-states:

- A **deadlock** outside ``S`` (a ``T ∧ ¬S`` state with no enabled action)
  violates convergence — the maximal finite computation ends outside ``S``.
- An infinite computation avoiding ``S`` exists iff the subgraph induced
  by the ``¬S`` states contains a cycle that the daemon can follow:

  * Under **no fairness** ("none"), any cycle among ``¬S`` states is a
    violation: the daemon may loop on it forever.
  * Under **weak fairness** ("weak" — the paper's computation model),
    a cycle is followable iff it lies in a strongly connected component
    ``C`` of the ``¬S`` subgraph such that every action enabled at *all*
    states of ``C`` has some transition inside ``C``. If instead some
    action is enabled throughout ``C`` but all its transitions leave
    ``C``, weak fairness forces the computation out of ``C`` (and out of
    any subset of ``C``, since the action is enabled there too); such a
    component cannot trap a fair computation. Conversely, when every
    always-enabled action has an internal transition, a walk that
    traverses all of ``C``'s internal transitions infinitely often is
    fair and never reaches ``S``. The SCC test is therefore exact.

The checker returns concrete counterexamples (a deadlock state, or the
states of a followable cycle) so a failed design can be debugged.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress

from repro.core.errors import ValidationError
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.verification.explorer import TransitionSystem, build_transition_system

__all__ = [
    "ConvergenceCounterexample",
    "ConvergenceResult",
    "check_convergence",
    "worst_case_convergence_steps",
]

FAIRNESS_MODES = ("none", "weak")


@dataclass(frozen=True)
class ConvergenceCounterexample:
    """Why convergence fails: a deadlock state or a followable cycle."""

    kind: str  # "deadlock" or "cycle"
    states: tuple[State, ...]

    def describe(self) -> str:
        if self.kind == "deadlock":
            return f"deadlock outside the target at {self.states[0]!r}"
        lines = [f"followable cycle of {len(self.states)} states outside the target:"]
        lines.extend(f"  {state!r}" for state in self.states[:10])
        if len(self.states) > 10:
            lines.append(f"  ... and {len(self.states) - 10} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of a convergence check."""

    ok: bool
    fairness: str
    span_states: int
    bad_states: int
    counterexample: ConvergenceCounterexample | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        verdict = "converges" if self.ok else "does NOT converge"
        base = (
            f"{verdict} under {self.fairness!r} fairness "
            f"({self.span_states} span states, {self.bad_states} outside target)"
        )
        if self.counterexample is None:
            return base
        return f"{base}\n{self.counterexample.describe()}"


def _strongly_connected_components(
    node_ids: Sequence[int],
    successors: dict[int, list[int]],
) -> list[list[int]]:
    """Iterative Tarjan SCC over the given nodes."""
    index_counter = 0
    stack: list[int] = []
    on_stack: set[int] = set()
    indices: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    components: list[list[int]] = []

    for root in node_ids:
        if root in indices:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_cursor = work.pop()
            if child_cursor == 0:
                indices[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children = successors.get(node, [])
            for position in range(child_cursor, len(children)):
                child = children[position]
                if child not in indices:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], indices[child])
            if recursed:
                continue
            if lowlink[node] == indices[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def _internal_successors(
    ts: TransitionSystem,
    bad: list[int],
    bad_set: set[int],
) -> dict[int, list[int]]:
    """Per-bad-state successors staying inside the bad region."""
    offsets, targets = ts.offsets, ts.targets
    return {
        position: [
            targets[k]
            for k in range(offsets[position], offsets[position + 1])
            if targets[k] in bad_set
        ]
        for position in bad
    }


def _labelled_edges(ts: TransitionSystem, node: int) -> list[tuple[str, int]]:
    """``(action_name, target)`` pairs of one state, read from the CSR."""
    names, action_ids, targets = ts.action_names, ts.action_ids, ts.targets
    return [
        (names[action_ids[k]], targets[k])
        for k in range(ts.offsets[node], ts.offsets[node + 1])
    ]


def _component_has_internal_edge(
    component: list[int],
    successors: dict[int, list[int]],
) -> bool:
    members = set(component)
    if len(component) > 1:
        return True
    node = component[0]
    return node in successors and node in successors[node] and node in members


def _find_cycle_in_component(
    component: list[int],
    successors: dict[int, list[int]],
) -> list[int]:
    """A concrete cycle inside a nontrivial SCC, as a list of node ids."""
    members = set(component)
    start = component[0]
    # DFS until we revisit a node on the current path.
    path: list[int] = [start]
    position_on_path = {start: 0}
    while True:
        node = path[-1]
        advanced = False
        for child in successors.get(node, []):
            if child not in members:
                continue
            if child in position_on_path:
                return path[position_on_path[child] :]
            path.append(child)
            position_on_path[child] = len(path) - 1
            advanced = True
            break
        if not advanced:
            # Within an SCC every node has an internal successor, so this
            # is unreachable; guard against malformed input anyway.
            raise ValidationError("component is not strongly connected")


def _validate_fairness(fairness: str) -> None:
    if fairness not in FAIRNESS_MODES:
        raise ValidationError(
            f"unknown fairness mode {fairness!r}; expected one of {FAIRNESS_MODES}"
        )


def check_convergence(
    program: Program,
    span_states: Iterable[State],
    target: Predicate,
    *,
    fairness: str = "weak",
    system: TransitionSystem | None = None,
) -> ConvergenceResult:
    """Decide whether every computation from ``span_states`` reaches ``target``.

    Args:
        program: The program under test.
        span_states: The extension of the fault-span ``T`` on this finite
            instance. Must be closed under the program (checked; a
            transition escaping the set raises :class:`ValidationError`
            since convergence is only defined relative to a closed span).
        target: The invariant ``S``.
        fairness: ``"weak"`` (the paper's computation model) or ``"none"``
            (arbitrary daemon; the Section 8 remark).
        system: Optionally a prebuilt transition system over exactly the
            span states, to share work across checks.
    """
    _validate_fairness(fairness)
    ts = system if system is not None else build_transition_system(program, span_states)
    if ts.escapes:
        index, action_name, successor = ts.escapes[0]
        raise ValidationError(
            "span is not closed under the program: "
            f"{ts.states[index]!r} --{action_name}--> {successor!r} leaves the span"
        )
    # satisfying() is memoized on the system, so the tolerance checker's
    # earlier invariant evaluations are reused here.
    return _converge(ts, ts.satisfying(target), fairness)


def _converge(
    ts: TransitionSystem,
    good_positions: Iterable[int],
    fairness: str,
    *,
    candidates: list[int] | None = None,
    bad_count: int | None = None,
) -> ConvergenceResult:
    """The convergence verdict over a closed span system.

    ``good_positions`` are the positions where the target holds; the
    packed sweeps pass them straight from their membership masks.

    ``candidates``, when given, replace the bad positions the analysis
    walks, and ``bad_count`` is then the true number of bad states
    (``good_positions`` is not read). The vectorized kernel passes the
    bad states its Kahn peel left behind, in ascending order. A peeled
    state reaches only peeled states, so it lies on no cycle, and
    Tarjan's DFS order among the remaining states is unchanged: the
    counterexample is the one the whole bad region would give. Weak
    fairness reads each component's labelled edges from ``ts``, so an
    action whose transitions lead into peeled states still counts.
    """
    _validate_fairness(fairness)
    if candidates is None:
        good = set(good_positions)
        bad = [position for position in range(len(ts)) if position not in good]
        bad_count = len(bad)
    else:
        bad = candidates
    bad_set = set(bad)

    offsets = ts.offsets
    for position in bad:
        if offsets[position] == offsets[position + 1]:
            return ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=len(ts),
                bad_states=bad_count,
                counterexample=ConvergenceCounterexample(
                    kind="deadlock", states=(ts.states[position],)
                ),
            )

    internal = _internal_successors(ts, bad, bad_set)

    components = _strongly_connected_components(bad, internal)
    for component in components:
        if not _component_has_internal_edge(component, internal):
            continue
        if fairness == "none":
            cycle = _find_cycle_in_component(component, internal)
            return ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=len(ts),
                bad_states=bad_count,
                counterexample=ConvergenceCounterexample(
                    kind="cycle",
                    states=tuple(ts.states[node] for node in cycle),
                ),
            )
        members = set(component)
        edges = {node: _labelled_edges(ts, node) for node in component}
        enabled_sets = [{name for name, _ in edges[node]} for node in component]
        always_enabled = set.intersection(*enabled_sets)
        internal_actions = {
            name
            for node in component
            for name, target_index in edges[node]
            if target_index in members
        }
        if always_enabled <= internal_actions:
            # Emit an actual followable cycle, not the whole component:
            # ``describe()`` claims a cycle, so the listed states must
            # form one. Prefer a cycle along always-enabled actions (a
            # weakly-fair daemon can repeat it verbatim); when those
            # edges do not close a cycle on their own, any internal
            # cycle of the component still witnesses the trap.
            cycle = None
            if always_enabled:
                restricted = {
                    node: [
                        target_index
                        for name, target_index in edges[node]
                        if target_index in members and name in always_enabled
                    ]
                    for node in component
                }
                if all(restricted[node] for node in component):
                    try:
                        cycle = _find_cycle_in_component(component, restricted)
                    except ValidationError:
                        cycle = None
            if cycle is None:
                cycle = _find_cycle_in_component(component, internal)
            return ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=len(ts),
                bad_states=bad_count,
                counterexample=ConvergenceCounterexample(
                    kind="cycle",
                    states=tuple(ts.states[node] for node in cycle),
                ),
            )
    return ConvergenceResult(
        ok=True,
        fairness=fairness,
        span_states=len(ts),
        bad_states=bad_count,
    )


def worst_case_convergence_steps(
    program: Program,
    span_states: Iterable[State],
    target: Predicate,
    *,
    system: TransitionSystem | None = None,
) -> int | None:
    """The exact worst-case number of steps to reach ``target``.

    Defined when the program converges under an arbitrary daemon, i.e.
    when the ``¬target`` subgraph is acyclic: the answer is then the
    longest path through ``¬target`` states (an adversarial daemon can
    force exactly this many steps, and no more). Returns ``None`` when
    the program does not converge that way: the subgraph has a cycle,
    on which an unfair daemon can postpone convergence forever, or a
    ``¬target`` state is deadlocked, where every computation ends.
    """
    from repro.kernel.sweeps import scalar_peel

    ts = system if system is not None else build_transition_system(program, span_states)
    bad = bytearray(b"\x01") * len(ts)
    for position in ts.satisfying(target):
        bad[position] = 0
    # The Kahn peel of the ¬target rows: a row's level is the longest
    # path through ¬target rows after it, and -1 marks a deadlock or a
    # row on (or leading only into) a cycle.
    levels = scalar_peel(bad, ts.offsets, ts.targets)
    worst = 0
    for position in compress(range(len(ts)), bad):
        if levels[position] < 0:
            return None
        worst = max(worst, levels[position] + 1)
    return worst
