"""The packed exploration engine.

:class:`PackedKernel` is a compiled form of one
:class:`~repro.core.program.Program`: a :class:`StateCodec`, one
:class:`~repro.kernel.compile.CompiledAction` per action, and shared
evaluation scratch. Kernels are cached per program object (weakly, so
they die with the program) because compilation pays a probe battery per
action for the RW soundness gate.

:class:`PackedTransitionSystem` is the flat-array counterpart of
:class:`~repro.verification.explorer.TransitionSystem` and implements
the same interface — ``states``, ``edges``, ``escapes``, ``index_of``,
``successors``, ``satisfying``, ``len()``, pickling — so every consumer
(convergence, liveness, fairness-free checks, DOT/Markov analysis)
works on either engine unchanged. Internally it stores only integers:
packed state codes plus a CSR edge list (``offsets``/``targets``/
``action_ids``); ``State`` objects are decoded lazily and cached, so a
pass that never looks at a state never builds one.
"""

from __future__ import annotations

import itertools
import time
import weakref
from array import array
from collections.abc import Iterable, Sequence
from typing import Any
from weakref import WeakKeyDictionary

from repro.core.errors import StateSpaceTooLargeError, UnknownStateError
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import DEFAULT_MAX_STATES, State
from repro.kernel.codec import PackedUnsupported, StateCodec
from repro.kernel.compile import (
    CompiledAction,
    DigitStateView,
    compile_action,
    compile_predicate_fn,
    probe_battery,
)

__all__ = [
    "PackedKernel",
    "PackedTransitionSystem",
    "build_packed_system",
    "compile_program",
    "explore_packed",
    "kernel_supported",
]

#: Packed codes live in ``array('q')`` buffers; larger spaces cannot.
_MAX_CODE = 2**62

#: Per-program kernel cache. Weak keys: a kernel dies with its program.
_KERNELS: "WeakKeyDictionary[Program, PackedKernel]" = WeakKeyDictionary()


def kernel_supported(program: Program) -> bool:
    """Whether the packed engine can represent ``program`` at all."""
    return all(
        variable.domain.is_finite for variable in program.variables.values()
    )


class PackedKernel:
    """A program compiled for packed-state exploration."""

    __slots__ = (
        "_program",
        "codec",
        "view",
        "actions",
        "action_names",
        "build_seconds",
    )

    def __init__(self, program: Program) -> None:
        started = time.perf_counter()
        # Weak: the kernel cache is keyed weakly by the program, and a
        # strong back-reference would keep every compiled program alive.
        self._program = weakref.ref(program)
        self.codec = StateCodec.for_program(program)
        if self.codec.size > _MAX_CODE:
            raise PackedUnsupported(
                f"state space of {self.codec.size} states exceeds the packed "
                "engine's 2^62 code range"
            )
        self.view = DigitStateView(self.codec)
        battery = probe_battery(program)
        self.actions: tuple[CompiledAction, ...] = tuple(
            compile_action(action, self.codec, self.view, battery)
            for action in program.actions
        )
        self.action_names: tuple[str, ...] = tuple(
            action.name for action in program.actions
        )
        self.build_seconds = time.perf_counter() - started

    @property
    def program(self) -> Program:
        return self._program()

    def modes(self) -> dict[str, int]:
        """How many actions compiled to each successor mode."""
        counts = {"table": 0, "direct": 0, "fallback": 0}
        for action in self.actions:
            counts[action.mode] += 1
        return counts

    def table_entries(self) -> int:
        """Total memoized successor-table entries across all actions.

        Successor tables fill lazily, so the *growth* of this number
        across a sweep is the number of table misses — the hot loop
        itself maintains no counters (see ``kernel.*`` metrics in
        :mod:`repro.kernel.verify`).
        """
        return sum(
            len(action._table) for action in self.actions if action.mode == "table"
        )

    def predicate_fn(self, predicate: Predicate):
        """A ``values -> bool`` evaluator for ``predicate``."""
        return compile_predicate_fn(predicate, self.codec, self.view)

    def iter_space(self):
        """Yield ``(code, digits, values)`` over the full space in code order.

        Codes count ``0 .. size-1`` — the codec's digit layout matches
        :func:`~repro.core.state.enumerate_states`, so no state is ever
        encoded or decoded here; two lockstep ``itertools.product``
        drives supply the digit and value tuples directly.
        """
        digit_ranges = [range(radix) for radix in self.codec.radices]
        pairs = zip(
            itertools.product(*digit_ranges),
            itertools.product(*self.codec.domain_values),
        )
        return ((code, digits, values) for code, (digits, values) in enumerate(pairs))

    def iter_range(self, lo: int, hi: int):
        """Yield ``(code, digits, values)`` over ``lo .. hi-1`` in code order.

        The contiguous-range counterpart of :meth:`iter_space` for shard
        workers: one decode seeds the odometer at ``lo``, then digits and
        values advance in place (the yielded lists are shared and mutated
        between yields, exactly like the compiled actions expect).
        """
        codec = self.codec
        radices = codec.radices
        domain_values = codec.domain_values
        last = len(radices) - 1
        digits = codec.decode_digits(lo)
        values = [
            domain_values[position][digit]
            for position, digit in enumerate(digits)
        ]

        def generate():
            for code in range(lo, hi):
                yield code, digits, values
                position = last
                while position >= 0:
                    digit = digits[position] + 1
                    if digit < radices[position]:
                        digits[position] = digit
                        values[position] = domain_values[position][digit]
                        break
                    digits[position] = 0
                    values[position] = domain_values[position][0]
                    position -= 1

        return generate()

    def analyze_code(self, code: int) -> tuple[list[int], list[Any]]:
        """The digit and value lists of one packed code."""
        digits = self.codec.decode_digits(code)
        domain_values = self.codec.domain_values
        values = [
            domain_values[position][digit] for position, digit in enumerate(digits)
        ]
        return digits, values


def compile_program(
    program: Program, *, tracer=None, metrics=None
) -> PackedKernel:
    """The (cached) packed kernel of ``program``.

    On a fresh build, reports it through the optional observability
    hooks: a ``kernel.build`` trace event and a ``kernel.build`` timer.

    Raises:
        PackedUnsupported: if any domain is infinite or the space
            exceeds the 2^62 code range.
    """
    kernel = _KERNELS.get(program)
    if kernel is None:
        kernel = PackedKernel(program)
        _KERNELS[program] = kernel
        if metrics is not None:
            metrics.timer("kernel.build").record(kernel.build_seconds)
        if tracer is not None:
            from repro.observability.events import KERNEL_BUILD

            modes = kernel.modes()
            tracer.emit(
                KERNEL_BUILD,
                program=program.name,
                states=kernel.codec.size,
                variables=len(kernel.codec.names),
                actions_table=modes["table"],
                actions_direct=modes["direct"],
                actions_fallback=modes["fallback"],
                build_seconds=kernel.build_seconds,
            )
    return kernel


class _DecodedStates(Sequence):
    """Lazy, cached ``Sequence[State]`` over an array of packed codes.

    Without a preset the cache is a dict keyed by index, so a sparse
    consumer of a huge space (a witness decode out of 10^8 states) pays
    per state touched, not per state stored.
    """

    __slots__ = ("_codec", "_codes", "_preset", "_cache")

    def __init__(self, codec: StateCodec, codes, preset=None) -> None:
        self._codec = codec
        self._codes = codes
        self._preset: list[State] | None = (
            list(preset) if preset is not None else None
        )
        self._cache: dict[int, State] = {}

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if self._preset is not None:
            return self._preset[index]
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


class PackedTransitionSystem:
    """A transition system backed by flat integer arrays.

    Same interface as
    :class:`~repro.verification.explorer.TransitionSystem`; state ``i``
    is ``codes[i]`` decoded on demand, and the outgoing edges of state
    ``i`` are ``targets[offsets[i]:offsets[i+1]]`` (positions) labelled
    by ``action_names[action_ids[k]]``.
    """

    def __init__(
        self,
        codec: StateCodec,
        codes,
        offsets,
        targets,
        action_ids,
        action_names: tuple[str, ...],
        escapes: list[tuple[int, str, State]] | None = None,
        states: Sequence[State] | None = None,
    ) -> None:
        self.codec = codec
        self.codes = codes
        self.offsets = offsets
        self.targets = targets
        self.action_ids = action_ids
        self.action_names = action_names
        self.escapes: list[tuple[int, str, State]] = (
            escapes if escapes is not None else []
        )
        self._states = _DecodedStates(codec, codes, preset=states)
        self._edges: list[list[tuple[str, int]]] | None = None
        self._code_index: dict[int, int] | None = None
        self._pred_view: DigitStateView | None = None
        # Same memo contract as TransitionSystem.satisfying: the
        # predicate object is kept alive so its id cannot be recycled.
        self._satisfying_cache: dict[int, tuple[Predicate, tuple[int, ...]]] = {}

    @property
    def states(self) -> Sequence[State]:
        return self._states

    @property
    def edges(self) -> list[list[tuple[str, int]]]:
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
                for i in range(len(self.codes))
            ]
        return self._edges

    def __len__(self) -> int:
        return len(self.codes)

    def successors(self, index: int) -> list[tuple[str, int]]:
        return self.edges[index]

    def index_of(self, state: State) -> int:
        """The dense index of ``state``.

        Raises:
            UnknownStateError: if the state is not part of this system.
        """
        if self._code_index is None:
            self._code_index = {
                code: position for position, code in enumerate(self.codes)
            }
        position: int | None
        try:
            position = self._code_index.get(self.codec.encode_state(state))
        except PackedUnsupported:
            position = None
        if position is None:
            raise UnknownStateError(
                f"state {state!r} is not among the {len(self.codes)} states "
                "of this transition system"
            )
        return position

    def satisfying(self, predicate: Predicate) -> tuple[int, ...]:
        """Indices of states where ``predicate`` holds.

        Computed once per predicate object and memoized, like the dict
        engine — but evaluated over decoded value lists, so no
        :class:`State` is built.
        """
        cached = self._satisfying_cache.get(id(predicate))
        if cached is not None:
            return cached[1]
        if self._pred_view is None:
            self._pred_view = DigitStateView(self.codec)
        evaluate = compile_predicate_fn(predicate, self.codec, self._pred_view)
        decode_values = self.codec.decode_values
        result = tuple(
            position
            for position, code in enumerate(self.codes)
            if evaluate(decode_values(code))
        )
        self._satisfying_cache[id(predicate)] = (predicate, result)
        return result

    def __getstate__(self) -> dict:
        # Lazy caches (decoded states, edges, code index, satisfying
        # memo) are rebuilt on demand after unpickling.
        return {
            "codec": self.codec,
            "codes": self.codes,
            "offsets": self.offsets,
            "targets": self.targets,
            "action_ids": self.action_ids,
            "action_names": self.action_names,
            "escapes": self.escapes,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["codec"],
            state["codes"],
            state["offsets"],
            state["targets"],
            state["action_ids"],
            state["action_names"],
            state["escapes"],
        )


def build_packed_system(
    program: Program,
    states: Iterable[State],
    *,
    kernel: PackedKernel | None = None,
) -> PackedTransitionSystem:
    """Packed counterpart of :func:`~repro.verification.explorer.build_transition_system`.

    Raises:
        PackedUnsupported: if the program or any supplied state cannot
            be packed.
    """
    kernel = kernel if kernel is not None else compile_program(program)
    codec = kernel.codec
    state_list = list(states)
    codes = array("q", (codec.encode_state(state) for state in state_list))
    index: dict[int, int] = {}
    for position, code in enumerate(codes):
        index[code] = position  # last occurrence wins, like the dict engine
    offsets = array("q", [0])
    targets = array("q")
    action_ids = array("h")
    escapes: list[tuple[int, str, State]] = []
    actions = kernel.actions
    for position, code in enumerate(codes):
        digits, values = kernel.analyze_code(code)
        for action_id, action in enumerate(actions):
            successor = action.successor(code, digits, values)
            if successor is None:
                continue
            if type(successor) is int:
                target = index.get(successor)
                if target is None:
                    escapes.append(
                        (position, action.name, codec.decode_state(successor))
                    )
                else:
                    targets.append(target)
                    action_ids.append(action_id)
            else:
                escapes.append((position, action.name, successor))
        offsets.append(len(targets))
    return PackedTransitionSystem(
        codec,
        codes,
        offsets,
        targets,
        action_ids,
        kernel.action_names,
        escapes,
        states=state_list,
    )


def explore_packed(
    program: Program,
    roots: Iterable[State],
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> PackedTransitionSystem:
    """Packed counterpart of :func:`~repro.verification.explorer.explore` (BFS).

    Raises:
        PackedUnsupported: if the program, a root, or a reached
            successor cannot be packed (a successor leaving its
            variable's domain).
        StateSpaceTooLargeError: if more than ``max_states`` states
            become reachable.
    """
    kernel = compile_program(program)
    codec = kernel.codec
    code_list: list[int] = []
    index: dict[int, int] = {}
    root_count = 0

    def intern(code: int) -> int:
        position = index.get(code)
        if position is None:
            if len(code_list) >= max_states:
                raise StateSpaceTooLargeError(
                    f"state space reachable from {root_count} root state(s) "
                    f"exceeds {max_states} states"
                )
            position = len(code_list)
            index[code] = position
            code_list.append(code)
        return position

    for state in roots:
        root_count += 1
        intern(codec.encode_state(state))
    offsets = array("q", [0])
    targets = array("q")
    action_ids = array("h")
    actions = kernel.actions
    cursor = 0
    while cursor < len(code_list):
        code = code_list[cursor]
        digits, values = kernel.analyze_code(code)
        for action_id, action in enumerate(actions):
            successor = action.successor(code, digits, values)
            if successor is None:
                continue
            if type(successor) is not int:
                raise PackedUnsupported(
                    f"action {action.name!r} produced a successor outside "
                    "the finite domains during exploration"
                )
            targets.append(intern(successor))
            action_ids.append(action_id)
        offsets.append(len(targets))
        cursor += 1
    return PackedTransitionSystem(
        codec,
        array("q", code_list),
        offsets,
        targets,
        action_ids,
        kernel.action_names,
    )
