"""State-space exploration.

Builds explicit transition systems for finite instances: either over a
supplied state set (typically the full space or the fault-span extension)
or by reachability from a set of roots. The transition system is the
shared substrate of the closure and convergence checkers. Both engines
build the one :class:`TransitionSystem` type: the dict engine here, from
:meth:`~repro.core.program.Program.successors`, and the packed kernel
(:mod:`repro.kernel.engine`) from packed state codes.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.core.errors import StateSpaceTooLargeError, UnknownStateError
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import DEFAULT_MAX_STATES, State

__all__ = [
    "ENGINES",
    "TransitionSystem",
    "build_transition_system",
    "explore",
    "validate_engine",
]


class _DecodedStates(Sequence):
    """Lazy, cached ``Sequence[State]`` over an array of packed codes.

    The cache is a dict keyed by index, so a sparse consumer of a huge
    space (a witness decode out of 10^8 states) pays per state touched,
    not per state stored.
    """

    __slots__ = ("_codec", "_codes", "_cache")

    def __init__(self, codec, codes) -> None:
        self._codec = codec
        self._codes = codes
        self._cache: dict[int, State] = {}

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = int(index)
        if index < 0:
            index += len(self._codes)
        state = self._cache.get(index)
        if state is None:
            state = self._codec.decode_state(int(self._codes[index]))
            self._cache[index] = state
        return state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, Sequence)) and not isinstance(
            other, (str, bytes)
        ):
            return len(self) == len(other) and all(
                self[i] == other[i] for i in range(len(self))
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class TransitionSystem:
    """An explicit-state transition graph in CSR form.

    States are indexed densely. The outgoing edges of state ``i`` are
    ``targets[offsets[i]:offsets[i + 1]]`` (state positions), fired by
    ``action_names[action_ids[k]]``, in program action order.
    ``escapes`` records ``(source, action_name, state)`` transitions
    whose target fell outside the supplied state set — nonempty escapes
    mean the set was not closed under the program, which the closure
    checker reports with witnesses.

    A packed system also carries its ``codec`` and the packed ``codes``
    of its states: ``index_of`` and ``satisfying`` then work on codes
    without building a :class:`State`, and ``states`` (when not
    supplied) decodes them lazily. ``engine`` names the representation.
    """

    def __init__(
        self,
        states: Sequence[State] | None,
        offsets,
        targets,
        action_ids,
        action_names: tuple[str, ...],
        escapes: list[tuple[int, str, State]] | None = None,
        *,
        codec=None,
        codes=None,
    ) -> None:
        self.states: Sequence[State] = (
            states if states is not None else _DecodedStates(codec, codes)
        )
        self.offsets = offsets
        self.targets = targets
        self.action_ids = action_ids
        self.action_names = action_names
        self.escapes: list[tuple[int, str, State]] = (
            escapes if escapes is not None else []
        )
        self.codec = codec
        self.codes = codes
        self._edges: list[list[tuple[str, int]]] | None = None
        self._index: dict[Any, int] | None = None
        # satisfying() memo: id(predicate) -> (predicate, indices). The
        # predicate object is kept alive so its id cannot be recycled.
        self._satisfying_cache: dict[int, tuple[Predicate, tuple[int, ...]]] = {}

    @property
    def engine(self) -> str:
        """``"packed"`` when the system carries packed codes, else ``"dict"``."""
        return "dict" if self.codec is None else "packed"

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def edges(self) -> list[list[tuple[str, int]]]:
        """Per-state ``(action_name, target)`` lists, built on first use.

        A read-only view of the CSR arrays for consumers that walk the
        graph state by state; the checkers read the arrays directly.
        """
        if self._edges is None:
            names = self.action_names
            offsets = self.offsets
            targets = self.targets
            action_ids = self.action_ids
            self._edges = [
                [
                    (names[action_ids[k]], targets[k])
                    for k in range(offsets[i], offsets[i + 1])
                ]
                for i in range(len(self))
            ]
        return self._edges

    def successors(self, index: int) -> list[tuple[str, int]]:
        return self.edges[index]

    def index_of(self, state: State) -> int:
        """The dense index of ``state``.

        Raises:
            UnknownStateError: if the state is not part of this system.
        """
        if self._index is None:
            keys = self.states if self.codec is None else self.codes
            # Last occurrence wins on both engines.
            self._index = {key: position for position, key in enumerate(keys)}
        key: Any = state
        if self.codec is not None:
            from repro.kernel.codec import PackedUnsupported

            try:
                key = self.codec.encode_state(state)
            except PackedUnsupported:
                key = None
        position = self._index.get(key)
        if position is None:
            raise UnknownStateError(
                f"state {state!r} is not among the {len(self)} states "
                "of this transition system"
            )
        return position

    def satisfying(self, predicate: Predicate) -> tuple[int, ...]:
        """Indices of states where ``predicate`` holds.

        The result is computed once per predicate object and memoized —
        verification passes query the same invariant/fault-span predicates
        repeatedly over the same system. The tuple is immutable, so the
        memoized value cannot be corrupted by callers. A packed system
        evaluates over decoded value lists, so no :class:`State` is built.
        """
        cached = self._satisfying_cache.get(id(predicate))
        if cached is not None:
            return cached[1]
        if self.codec is None:
            result = tuple(
                position
                for position, state in enumerate(self.states)
                if predicate(state)
            )
        else:
            from repro.kernel.compile import DigitStateView, compile_predicate_fn

            evaluate = compile_predicate_fn(
                predicate, self.codec, DigitStateView(self.codec)
            )
            decode_values = self.codec.decode_values
            result = tuple(
                position
                for position, code in enumerate(self.codes)
                if evaluate(decode_values(code))
            )
        self._satisfying_cache[id(predicate)] = (predicate, result)
        return result

    def __getstate__(self) -> dict:
        # Lazy views (edges, index, decoded states) are rebuilt on demand
        # and the satisfying() memo (which holds unpicklable predicate
        # callables) is dropped; a packed system re-decodes its states.
        return {
            "states": self.states if self.codec is None else None,
            "offsets": self.offsets,
            "targets": self.targets,
            "action_ids": self.action_ids,
            "action_names": self.action_names,
            "escapes": self.escapes,
            "codec": self.codec,
            "codes": self.codes,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


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


def _dict_system(
    program: Program,
    state_list: list[State],
    resolve: Callable[[State], int | None],
) -> TransitionSystem:
    """The dict engine's CSR over ``state_list``, row by row.

    ``resolve`` maps a successor to its position, or ``None`` to record
    an escape; it may append to ``state_list`` while the rows are built
    (reachability), so the loop runs until every listed state has a row.
    """
    action_id = {id(action): k for k, action in enumerate(program.actions)}
    offsets = array("q", [0])
    targets = array("q")
    action_ids = array("h")
    escapes: list[tuple[int, str, State]] = []
    position = 0
    while position < len(state_list):
        for action, successor in program.successors(state_list[position]):
            target = resolve(successor)
            if target is None:
                escapes.append((position, action.name, successor))
            else:
                targets.append(target)
                action_ids.append(action_id[id(action)])
        offsets.append(len(targets))
        position += 1
    return TransitionSystem(
        state_list,
        offsets,
        targets,
        action_ids,
        tuple(action.name for action in program.actions),
        escapes,
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
        engine: ``"packed"`` builds the system from packed codes
            (:func:`~repro.kernel.engine.build_packed_system`; raises
            :class:`~repro.kernel.codec.PackedUnsupported` when a domain
            is infinite or a state cannot be packed); ``"dict"`` forces
            this module's builder; ``"auto"`` (default) tries packed and
            falls back to dict.
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
    return _dict_system(program, state_list, index.get)


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

    for state in root_list:
        root_count += 1
        intern(state)
    return _dict_system(program, state_list, intern)
