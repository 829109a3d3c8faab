"""Full T-tolerance verification.

Combines the closure and convergence checkers into the paper's definition
(Section 3): a program ``p`` is **T-tolerant for S** iff

- Closure: both ``S`` and ``T`` are closed in ``p``;
- Convergence: every computation of ``p`` from a ``T``-state reaches an
  ``S``-state;

and additionally checks the standing assumption ``S => T``. The report
classifies the tolerance as *masking* (``S == T`` extensionally),
*nonmasking*, and flags the *stabilizing* special case (``T`` holds at
every state of the instance).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.verification.closure import ClosureResult, check_closure
from repro.verification.convergence import ConvergenceResult, check_convergence
from repro.verification.explorer import build_transition_system, validate_engine

__all__ = ["ToleranceReport"]


@dataclass(frozen=True)
class ToleranceReport:
    """The verdict of a full T-tolerant-for-S verification."""

    ok: bool
    implication_ok: bool
    s_closure: ClosureResult
    t_closure: ClosureResult
    convergence: ConvergenceResult
    classification: str  # "masking", "nonmasking"
    stabilizing: bool
    total_states: int

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        verdict = "T-tolerant for S" if self.ok else "NOT T-tolerant for S"
        kind = self.classification + (" (stabilizing)" if self.stabilizing else "")
        lines = [
            f"{verdict} [{kind}] over {self.total_states} states",
            f"  S => T: {'ok' if self.implication_ok else 'FAIL'}",
            f"  closure of S: {'ok' if self.s_closure.ok else 'FAIL'}",
            f"  closure of T: {'ok' if self.t_closure.ok else 'FAIL'}",
            f"  convergence: {self.convergence.describe()}",
        ]
        for result in (self.s_closure, self.t_closure):
            for witness in result.witnesses:
                lines.append(f"    {result.predicate_name}: {witness.describe()}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """JSON-able summary (the same fields the service records)."""
        return {
            "ok": self.ok,
            "implication_ok": self.implication_ok,
            "s_closure_ok": self.s_closure.ok,
            "t_closure_ok": self.t_closure.ok,
            "convergence_ok": self.convergence.ok,
            "classification": self.classification,
            "stabilizing": self.stabilizing,
            "total_states": self.total_states,
            "span_states": self.convergence.span_states,
            "bad_states": self.convergence.bad_states,
            "fairness": self.convergence.fairness,
        }


def _check_tolerance(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate,
    states: Iterable[State] | None = None,
    *,
    fairness: str = "weak",
    engine: str = "auto",
    max_states: int | None = None,
    memory_budget: int | None = None,
    tracer=None,
    metrics=None,
) -> ToleranceReport:
    """Verify that ``program`` is ``fault_span``-tolerant for ``invariant``.

    Args:
        program: The augmented program (closure plus convergence actions).
        invariant: ``S``.
        fault_span: ``T``.
        states: The full state set of the finite instance (or any superset
            of the ``T``-extension); the checker filters to ``T``-states
            for the convergence phase. ``None`` means the program's full
            state space — the packed engine then sweeps it in a single
            enumeration pass without materializing ``State`` objects.
        fairness: Computation model for convergence (``"weak"`` is the
            paper's; ``"none"`` checks the stronger unfair guarantee).
        max_states: Full-space size guard (``None`` means
            :data:`~repro.core.state.DEFAULT_MAX_STATES`). Threaded to
            both engines with identical comparisons and messages, so
            dict and packed agree — verdict or error — at the boundary.
        memory_budget: Peak-bytes target for the packed engine's
            full-space sweep; above it the streaming count-only path
            runs (see :func:`~repro.kernel.verify.check_tolerance_packed`).
            Never changes results; ignored by the dict engine.
        engine: ``"packed"`` runs the flat-array kernel
            (:mod:`repro.kernel`) and raises
            :class:`~repro.kernel.codec.PackedUnsupported` when the
            instance cannot be packed; ``"dict"`` forces the original
            dict-backed path; ``"auto"`` (default) tries packed, falls
            back to dict. Verdicts and counterexamples are identical
            either way.
        tracer: Optional :class:`~repro.observability.trace.Tracer`
            receiving ``kernel.build`` events (packed engine only).
        metrics: Optional metrics registry receiving ``kernel.*``
            counters (packed engine only).
    """
    validate_engine(engine)
    if engine != "dict":
        from repro.kernel.codec import PackedUnsupported
        from repro.kernel.verify import check_tolerance_packed

        if states is not None:
            states = list(states)
        try:
            return check_tolerance_packed(
                program,
                invariant,
                fault_span,
                states,
                fairness=fairness,
                max_states=max_states,
                memory_budget=memory_budget,
                tracer=tracer,
                metrics=metrics,
            )
        except PackedUnsupported:
            if engine == "packed":
                raise
    if states is not None:
        all_states = list(states)
    else:
        from repro.core.state import DEFAULT_MAX_STATES

        limit = DEFAULT_MAX_STATES if max_states is None else max_states
        all_states = list(program.state_space(max_states=limit))
    implication_ok = all(
        fault_span(state) for state in all_states if invariant(state)
    )
    s_closure = check_closure(invariant, program, all_states)
    t_closure = check_closure(fault_span, program, all_states)

    span_states = [state for state in all_states if fault_span(state)]
    system = build_transition_system(program, span_states, engine="dict")
    if system.escapes:
        if t_closure.ok:
            # T-states stepping outside the supplied set even though T is
            # closed: the caller gave a strict subset of the instance.
            raise ValueError(
                "the supplied states do not contain every successor of a "
                "T-state; pass the full extension of T on this instance"
            )
        # T is not closed, so convergence relative to T is undefined;
        # report it failed without a cycle counterexample.
        convergence = ConvergenceResult(
            ok=False,
            fairness=fairness,
            span_states=len(span_states),
            bad_states=sum(1 for state in span_states if not invariant(state)),
        )
    else:
        convergence = check_convergence(
            program, span_states, invariant, fairness=fairness, system=system
        )

    masking = all(invariant(state) == fault_span(state) for state in all_states)
    stabilizing = len(span_states) == len(all_states)
    return ToleranceReport(
        ok=implication_ok and s_closure.ok and t_closure.ok and convergence.ok,
        implication_ok=implication_ok,
        s_closure=s_closure,
        t_closure=t_closure,
        convergence=convergence,
        classification="masking" if masking else "nonmasking",
        stabilizing=stabilizing,
        total_states=len(all_states),
    )
