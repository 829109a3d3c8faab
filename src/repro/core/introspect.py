"""Read/write-set inference for guards, statements and predicates.

The paper's side conditions (Section 4) are stated over the *true* read
and write sets of actions — the action on edge ``v -> w`` reads only
``vars(v) | vars(w)`` and writes only ``vars(w)`` — but the core model
takes guards and right-hand sides as opaque Python callables and trusts
the developer-declared sets. This module recovers the true sets:

- **symbolically**, when a callable carries its own structure — a
  :class:`~repro.core.predicates.Predicate` lowered from the expression
  DSL keeps its :class:`~repro.core.expr.BoolExpr` in ``source``, and an
  expression right-hand side answers ``variables()`` directly. Symbolic
  inference is *exact*.
- **by probing**, for plain callables: the callable is evaluated against
  a battery of sampled states wrapped in a :class:`RecordingState` proxy
  that records every variable access. Probing *under-approximates* —
  a data-dependent read (a short-circuited branch never taken on any
  probe state) can be missed — so every access it does record is real,
  but absence of a record proves nothing. Diagnostics built on top
  (:mod:`repro.staticcheck`) only report in the sound direction.

The result of inference is an :class:`InferredSupport` — the per-action
row of the support tables :mod:`repro.staticcheck` builds.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.state import State

if TYPE_CHECKING:  # avoid an import cycle: actions imports this module
    from repro.core.actions import Action, Assignment
    from repro.core.predicates import Predicate

__all__ = [
    "RecordingState",
    "InferredSupport",
    "METHOD_SYMBOLIC",
    "METHOD_PROBE",
    "METHOD_MIXED",
    "callable_location",
    "infer_predicate_reads",
    "infer_effect_support",
    "infer_action_support",
]

#: Every consulted part answered ``variables()`` — the sets are exact.
METHOD_SYMBOLIC = "symbolic"
#: Every consulted part was probed — the read set may under-approximate.
METHOD_PROBE = "probe"
#: Some parts symbolic, some probed.
METHOD_MIXED = "mixed"


class RecordingState(Mapping[str, Any]):
    """A read-recording view of a state.

    Implements the ``Mapping`` protocol over a base state; every key
    access (``state[name]`` or ``name in state``) is added to
    ``accessed``. Guards and right-hand sides take any mapping, so they
    evaluate against the proxy unchanged.
    """

    __slots__ = ("_base", "accessed")

    def __init__(self, base: Mapping[str, Any]) -> None:
        self._base = base
        self.accessed: set[str] = set()

    def __getitem__(self, name: str) -> Any:
        self.accessed.add(name)
        return self._base[name]

    def __contains__(self, name: object) -> bool:
        if isinstance(name, str):
            self.accessed.add(name)
        return name in self._base

    def __iter__(self) -> Iterator[str]:
        # Iterating is reading every variable.
        self.accessed.update(self._base)
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)


@dataclass(frozen=True)
class InferredSupport:
    """The inferred read/write sets of one action (or predicate).

    Attributes:
        reads: Every variable inference saw read. Exact under
            :data:`METHOD_SYMBOLIC`; a lower bound under
            :data:`METHOD_PROBE` (see the module docstring).
        writes: Every variable the statement produced a value for on some
            probe state (empty for predicates).
        method: How the sets were obtained — one of
            :data:`METHOD_SYMBOLIC`, :data:`METHOD_PROBE`,
            :data:`METHOD_MIXED`.
        probes: Number of states probed (0 for purely symbolic inference).
    """

    reads: frozenset[str]
    writes: frozenset[str]
    method: str
    probes: int

    @property
    def exact(self) -> bool:
        """Whether ``reads`` is the exact read set (symbolic inference)."""
        return self.method == METHOD_SYMBOLIC


def callable_location(obj: Any) -> str | None:
    """Best-effort ``file.py:lineno`` of a callable, for diagnostics.

    Unwraps :class:`~repro.core.predicates.Predicate` objects to their
    evaluation function. Returns ``None`` for builtins and non-callables.
    """
    fn = getattr(obj, "_fn", obj)
    code = getattr(fn, "__code__", None)
    if code is None:
        call = getattr(type(fn), "__call__", None)
        code = getattr(call, "__code__", None)
    if code is None:
        return None
    return f"{Path(code.co_filename).name}:{code.co_firstlineno}"


def _symbolic_variables(obj: Any) -> frozenset[str] | None:
    """``obj.variables()`` when ``obj`` is a symbolic expression."""
    probe = getattr(obj, "variables", None)
    if callable(probe):
        try:
            return frozenset(probe())
        except TypeError:
            return None
    return None


def _record_call(fn: Any, state: State, accessed: set[str]) -> None:
    """Evaluate ``fn`` on a recording view of ``state``, keeping accesses.

    A callable may legitimately raise on an arbitrary sampled state (a
    right-hand side that assumes its guard); the accesses made before the
    exception are still real reads, so they are kept and the exception is
    swallowed.
    """
    proxy = RecordingState(state)
    try:
        fn(proxy)
    except Exception:
        pass
    accessed.update(proxy.accessed)


def infer_predicate_reads(
    predicate: "Predicate", states: Sequence[State]
) -> InferredSupport:
    """Infer the read set of a predicate.

    Uses the symbolic ``source`` expression when the predicate is the
    DSL's own lowering of it (:func:`repro.core.fingerprint.is_trusted`);
    otherwise probes the evaluation function against ``states``, since
    any other predicate's ``source`` is a record its function need not
    obey.
    """
    from repro.core.fingerprint import is_trusted

    source = getattr(predicate, "source", None)
    symbolic = (
        _symbolic_variables(source)
        if source is not None and is_trusted(predicate)
        else None
    )
    if symbolic is not None:
        return InferredSupport(
            reads=symbolic, writes=frozenset(), method=METHOD_SYMBOLIC, probes=0
        )
    accessed: set[str] = set()
    for state in states:
        _record_call(predicate, state, accessed)
    return InferredSupport(
        reads=frozenset(accessed),
        writes=frozenset(),
        method=METHOD_PROBE,
        probes=len(states),
    )


def infer_effect_support(
    effect: "Assignment", states: Sequence[State]
) -> InferredSupport:
    """Infer the read and write sets of a statement.

    Reads come from symbolic right-hand sides where available and from a
    recording probe otherwise. Writes are the keys the statement actually
    produced when evaluated on the probe states — normally identical to
    ``effect.writes``, but a subclass with an inconsistent ``writes``
    declaration is caught this way.
    """
    reads: set[str] = set()
    probed = False
    symbolic = True
    for rhs in effect.updates.values():
        variables = _symbolic_variables(rhs)
        if variables is not None:
            reads.update(variables)
        elif callable(rhs):
            symbolic = False
            probed = True
        else:
            pass  # plain constant: reads nothing
    writes: set[str] = set()
    if probed or type(effect).writes is not _base_assignment_writes():
        for state in states:
            proxy = RecordingState(state)
            try:
                produced = effect.evaluate(proxy)
            except Exception:
                produced = {}
            reads.update(proxy.accessed)
            writes.update(produced)
    else:
        writes.update(effect.writes)
    # Symbolic rhs accesses were recorded by the probe too; dedupe is free.
    if probed:
        method = METHOD_MIXED if any(
            _symbolic_variables(rhs) is not None for rhs in effect.updates.values()
        ) else METHOD_PROBE
        probes = len(states)
    else:
        method = METHOD_SYMBOLIC if symbolic else METHOD_PROBE
        probes = 0
    return InferredSupport(
        reads=frozenset(reads),
        writes=frozenset(writes),
        method=method,
        probes=probes,
    )


def _base_assignment_writes():
    from repro.core.actions import Assignment

    return Assignment.writes


def infer_action_support(action: "Action", states: Sequence[State]) -> InferredSupport:
    """Infer the full read/write sets of a guarded action.

    Reads are the union of the guard's and the statement's inferred
    reads; writes are the statement's inferred writes. The ``method`` is
    :data:`METHOD_SYMBOLIC` only when both parts were exact.
    """
    guard = infer_predicate_reads(action.guard, states)
    effect = infer_effect_support(action.effect, states)
    if guard.method == effect.method:
        method = guard.method
    elif METHOD_PROBE in (guard.method, effect.method) or METHOD_MIXED in (
        guard.method,
        effect.method,
    ):
        method = METHOD_MIXED
    else:
        method = METHOD_SYMBOLIC
    return InferredSupport(
        reads=guard.reads | effect.reads,
        writes=effect.writes,
        method=method,
        probes=max(guard.probes, effect.probes),
    )
