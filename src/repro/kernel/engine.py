"""The packed exploration engine.

:class:`PackedKernel` is a compiled form of one
:class:`~repro.core.program.Program`: a :class:`StateCodec`, one
:class:`~repro.kernel.compile.CompiledAction` per action, and shared
evaluation scratch. Kernels are cached per program object (weakly, so
they die with the program) because compilation pays a probe battery per
action for the RW soundness gate.

:func:`build_packed_system` and :func:`explore_packed` are the packed
builders of the one
:class:`~repro.verification.explorer.TransitionSystem` type: they store
only integers — the packed state codes plus the CSR edge arrays — and
``State`` objects are decoded lazily, so a pass that never looks at a
state never builds one.
"""

from __future__ import annotations

import itertools
import time
import weakref
from array import array
from collections.abc import Callable, Iterable
from typing import Any
from weakref import WeakKeyDictionary

from repro.core.errors import StateSpaceTooLargeError
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
from repro.verification.explorer import TransitionSystem

__all__ = [
    "PackedKernel",
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


def _packed_system(
    kernel: PackedKernel,
    codes,
    resolve: Callable[[Any, Any], int | None],
    states: list[State] | None = None,
) -> TransitionSystem:
    """The packed CSR over ``codes``, row by row.

    ``resolve(successor, action)`` maps a successor — a code, or a raw
    :class:`State` when a written value left its domain — to its
    position, or ``None`` to record an escape; it may append to
    ``codes`` while the rows are built (reachability), so the loop runs
    until every listed code has a row.
    """
    codec = kernel.codec
    offsets = array("q", [0])
    targets = array("q")
    action_ids = array("h")
    escapes: list[tuple[int, str, State]] = []
    position = 0
    while position < len(codes):
        code = codes[position]
        digits, values = kernel.analyze_code(code)
        for action_id, action in enumerate(kernel.actions):
            successor = action.successor(code, digits, values)
            if successor is None:
                continue
            target = resolve(successor, action)
            if target is not None:
                targets.append(target)
                action_ids.append(action_id)
            elif type(successor) is int:
                escapes.append((position, action.name, codec.decode_state(successor)))
            else:
                escapes.append((position, action.name, successor))
        offsets.append(len(targets))
        position += 1
    return TransitionSystem(
        states,
        offsets,
        targets,
        action_ids,
        kernel.action_names,
        escapes,
        codec=codec,
        codes=codes if isinstance(codes, array) else array("q", codes),
    )


def build_packed_system(
    program: Program,
    states: Iterable[State],
    *,
    kernel: PackedKernel | None = None,
) -> TransitionSystem:
    """Packed builder behind :func:`~repro.verification.explorer.build_transition_system`.

    Raises:
        PackedUnsupported: if the program or any supplied state cannot
            be packed.
    """
    kernel = kernel if kernel is not None else compile_program(program)
    state_list = list(states)
    codes = array("q", (kernel.codec.encode_state(state) for state in state_list))
    # Last occurrence wins, like the dict engine; a raw State successor
    # is never a key, so it escapes.
    index = {code: position for position, code in enumerate(codes)}
    return _packed_system(
        kernel, codes, lambda successor, _action: index.get(successor), state_list
    )


def explore_packed(
    program: Program,
    roots: Iterable[State],
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> TransitionSystem:
    """Packed builder behind :func:`~repro.verification.explorer.explore` (BFS).

    Raises:
        PackedUnsupported: if the program, a root, or a reached
            successor cannot be packed (a successor leaving its
            variable's domain).
        StateSpaceTooLargeError: if more than ``max_states`` states
            become reachable.
    """
    kernel = compile_program(program)
    code_list: list[int] = []
    index: dict[int, int] = {}
    root_count = 0

    def intern(code, action=None) -> int:
        if type(code) is not int:
            raise PackedUnsupported(
                f"action {action.name!r} produced a successor outside "
                "the finite domains during exploration"
            )
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
        intern(kernel.codec.encode_state(state))
    return _packed_system(kernel, code_list, intern)
