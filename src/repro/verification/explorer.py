"""State-space exploration.

Builds explicit transition systems for finite instances: either over a
supplied state set (typically the full space or the fault-span extension)
or by reachability from a set of roots. The transition system is the
shared substrate of the closure and convergence checkers.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.errors import StateSpaceTooLargeError, UnknownStateError
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import DEFAULT_MAX_STATES, State

__all__ = [
    "ENGINES",
    "Transition",
    "TransitionSystem",
    "build_transition_system",
    "explore",
    "validate_engine",
]


@dataclass(frozen=True)
class Transition:
    """One edge of the transition system: ``source --action--> target``."""

    source: int
    action_name: str
    target: int


@dataclass
class TransitionSystem:
    """An explicit-state transition graph.

    States are indexed densely; ``edges[i]`` lists the outgoing
    ``(action_name, target_index)`` pairs of state ``i``. ``escapes``
    records transitions whose target fell outside the supplied state set —
    nonempty escapes mean the set was not closed under the program, which
    the closure checker reports with witnesses.
    """

    states: list[State]
    edges: list[list[tuple[str, int]]]
    escapes: list[tuple[int, str, State]] = field(default_factory=list)

    def index_of(self, state: State) -> int:
        """The dense index of ``state``.

        Raises:
            UnknownStateError: if the state is not part of this system.
        """
        try:
            return self._index[state]
        except KeyError:
            raise UnknownStateError(
                f"state {state!r} is not among the {len(self.states)} states "
                "of this transition system"
            ) from None

    def __post_init__(self) -> None:
        self._index: dict[State, int] = {
            state: position for position, state in enumerate(self.states)
        }
        # satisfying() memo: id(predicate) -> (predicate, indices). The
        # predicate object is kept alive so its id cannot be recycled.
        self._satisfying_cache: dict[int, tuple[Predicate, tuple[int, ...]]] = {}

    def __getstate__(self) -> dict:
        # The index is rebuilt and the satisfying() memo (which holds
        # unpicklable predicate callables) is dropped on unpickling.
        return {
            "states": self.states,
            "edges": self.edges,
            "escapes": self.escapes,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def __len__(self) -> int:
        return len(self.states)

    def successors(self, index: int) -> list[tuple[str, int]]:
        return self.edges[index]

    def satisfying(self, predicate: Predicate) -> tuple[int, ...]:
        """Indices of states where ``predicate`` holds.

        The result is computed once per predicate object and memoized —
        verification passes query the same invariant/fault-span predicates
        repeatedly over the same system. The tuple is immutable, so the
        memoized value cannot be corrupted by callers.
        """
        cached = self._satisfying_cache.get(id(predicate))
        if cached is not None:
            return cached[1]
        result = tuple(
            position
            for position, state in enumerate(self.states)
            if predicate(state)
        )
        self._satisfying_cache[id(predicate)] = (predicate, result)
        return result


#: Valid values of the ``engine`` switch on exploration entry points.
ENGINES = ("auto", "packed", "dict")


def validate_engine(engine: str) -> None:
    """Raise :class:`~repro.core.errors.ValidationError` unless ``engine``
    is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        from repro.core.errors import ValidationError

        raise ValidationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )


def build_transition_system(
    program: Program,
    states: Iterable[State],
    *,
    engine: str = "auto",
) -> TransitionSystem:
    """The transition graph of ``program`` over exactly ``states``.

    Transitions leaving the set are recorded in ``escapes`` rather than
    silently dropped.

    Args:
        engine: ``"packed"`` builds a flat-array
            :class:`~repro.kernel.engine.PackedTransitionSystem` (same
            interface, raises
            :class:`~repro.kernel.codec.PackedUnsupported` when a domain
            is infinite or a state cannot be packed); ``"dict"`` forces
            this module's dict-backed system; ``"auto"`` (default) tries
            packed and falls back to dict.
    """
    validate_engine(engine)
    state_list = list(states)
    if engine != "dict":
        from repro.kernel.codec import PackedUnsupported
        from repro.kernel.engine import build_packed_system

        try:
            return build_packed_system(program, state_list)
        except PackedUnsupported:
            if engine == "packed":
                raise
    index = {state: position for position, state in enumerate(state_list)}
    edges: list[list[tuple[str, int]]] = []
    escapes: list[tuple[int, str, State]] = []
    for position, state in enumerate(state_list):
        outgoing: list[tuple[str, int]] = []
        for action, successor in program.successors(state):
            target = index.get(successor)
            if target is None:
                escapes.append((position, action.name, successor))
            else:
                outgoing.append((action.name, target))
        edges.append(outgoing)
    return TransitionSystem(states=state_list, edges=edges, escapes=escapes)


def explore(
    program: Program,
    roots: Iterable[State],
    *,
    max_states: int = DEFAULT_MAX_STATES,
    engine: str = "auto",
) -> TransitionSystem:
    """The transition graph reachable from ``roots`` (BFS).

    Args:
        engine: As in :func:`build_transition_system`; ``"auto"`` falls
            back to the dict engine when the program, a root, or a
            reached successor cannot be packed.

    Raises:
        StateSpaceTooLargeError: if more than ``max_states`` states become
            reachable.
    """
    validate_engine(engine)
    root_list = list(roots)
    if engine != "dict":
        from repro.kernel.codec import PackedUnsupported
        from repro.kernel.engine import explore_packed

        try:
            return explore_packed(program, root_list, max_states=max_states)
        except PackedUnsupported:
            if engine == "packed":
                raise
    roots = root_list
    state_list: list[State] = []
    index: dict[State, int] = {}
    root_count = 0

    def intern(state: State) -> int:
        position = index.get(state)
        if position is None:
            if len(state_list) >= max_states:
                raise StateSpaceTooLargeError(
                    f"state space reachable from {root_count} root state(s) "
                    f"exceeds {max_states} states"
                )
            position = len(state_list)
            index[state] = position
            state_list.append(state)
        return position

    for state in roots:
        root_count += 1
        intern(state)
    edges: list[list[tuple[str, int]]] = []
    cursor = 0
    while cursor < len(state_list):
        state = state_list[cursor]
        outgoing = [
            (action.name, intern(successor))
            for action, successor in program.successors(state)
        ]
        edges.append(outgoing)
        cursor += 1
    return TransitionSystem(states=state_list, edges=edges)
