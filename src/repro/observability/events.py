"""Structured trace events and the event taxonomy.

Every instrumented component of the library reports what it did as a
:class:`TraceEvent` — an immutable, timestamped, JSON-able record with a
namespaced ``kind`` and free-form ``fields``. The taxonomy below is the
complete vocabulary emitted by the built-in instrumentation; sinks and
analysis code can rely on these exact strings (``docs/OBSERVABILITY.md``
documents the fields each kind carries).

Event kinds are plain strings, namespaced ``component.what``:

- simulation engine: :data:`RUN_START`, :data:`ACTION_FIRED`,
  :data:`FAULT_INJECTED`, :data:`TARGET_ESTABLISHED`,
  :data:`TARGET_VIOLATED`, :data:`CONSTRAINT_ESTABLISHED`,
  :data:`CONSTRAINT_VIOLATED`, :data:`RUN_FINISH`;
- schedulers: :data:`SCHEDULER_STEP`;
- verification service: :data:`CACHE_HIT`, :data:`CACHE_MISS`;
- batch verification: :data:`BATCH_START`, :data:`WORKER_TASK_START`,
  :data:`WORKER_TASK_FINISH`, :data:`BATCH_FINISH`;
- protocol linter: :data:`LINT_START`, :data:`LINT_DIAGNOSTIC`,
  :data:`LINT_FINISH`;
- abstract interpreter: :data:`ABSINT_TRANSFER`, :data:`ABSINT_FINISH`;
- interference analysis: :data:`INTERFERENCE_DISCHARGED`,
  :data:`INTERFERENCE_FINISH`;
- packed exploration kernel: :data:`KERNEL_BUILD`, :data:`KERNEL_SWEEP`,
  :data:`KERNEL_SHARD_MERGED`, :data:`KERNEL_MEM`;
- quantitative tolerance: :data:`QUANTITATIVE_SOLVE`;
- compositional certifier: :data:`COMPOSITIONAL_START`,
  :data:`COMPOSITIONAL_CERTIFIED`, :data:`COMPOSITIONAL_REFUSED`;
- verification daemon: :data:`SERVICE_REQUEST_START`,
  :data:`SERVICE_REQUEST_FINISH`, :data:`SERVICE_REQUEST_DEDUPED`,
  :data:`SERVICE_BATCH_DISPATCH`;
- verdict store: :data:`STORE_HIT`, :data:`STORE_MISS`,
  :data:`STORE_EVICT`.

Custom emitters are free to add their own kinds; the constants exist so
the built-in ones are greppable and typo-proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ABSINT_FINISH",
    "ABSINT_TRANSFER",
    "ACTION_FIRED",
    "BATCH_FINISH",
    "BATCH_START",
    "CACHE_HIT",
    "CACHE_MISS",
    "COMPOSITIONAL_CERTIFIED",
    "COMPOSITIONAL_REFUSED",
    "COMPOSITIONAL_START",
    "CONSTRAINT_ESTABLISHED",
    "CONSTRAINT_VIOLATED",
    "EVENT_KINDS",
    "FAULT_INJECTED",
    "INTERFERENCE_DISCHARGED",
    "INTERFERENCE_FINISH",
    "KERNEL_BUILD",
    "KERNEL_MEM",
    "KERNEL_SHARD_MERGED",
    "KERNEL_SWEEP",
    "LINT_DIAGNOSTIC",
    "LINT_FINISH",
    "LINT_START",
    "QUANTITATIVE_SOLVE",
    "RUN_FINISH",
    "RUN_START",
    "SCHEDULER_STEP",
    "SERVICE_BATCH_DISPATCH",
    "SERVICE_REQUEST_DEDUPED",
    "SERVICE_REQUEST_FINISH",
    "SERVICE_REQUEST_START",
    "STORE_EVICT",
    "STORE_HIT",
    "STORE_MISS",
    "TARGET_ESTABLISHED",
    "TARGET_VIOLATED",
    "TraceEvent",
    "WORKER_TASK_FINISH",
    "WORKER_TASK_START",
]

#: A simulation run began (program, scheduler, step budget).
RUN_START = "run.start"
#: A simulation run ended (steps, faults, stabilization indices).
RUN_FINISH = "run.finish"
#: The scheduler executed program action(s) at a step.
ACTION_FIRED = "action.fired"
#: A fault scenario applied a fault before a program step.
FAULT_INJECTED = "fault.injected"
#: The run's target predicate (usually the invariant ``S``) began to hold.
TARGET_ESTABLISHED = "target.established"
#: The target predicate stopped holding (a fault, or transit through ``T``).
TARGET_VIOLATED = "target.violated"
#: A watched constraint predicate began to hold (``watch=`` on the engine).
CONSTRAINT_ESTABLISHED = "constraint.established"
#: A watched constraint predicate stopped holding.
CONSTRAINT_VIOLATED = "constraint.violated"
#: A daemon chose among the enabled actions at a step.
SCHEDULER_STEP = "scheduler.step"
#: The verification service answered from its cache (memory or disk).
CACHE_HIT = "cache.hit"
#: The verification service had to compute a fresh record.
CACHE_MISS = "cache.miss"
#: A batch verification job started (cases, workers).
BATCH_START = "batch.start"
#: One batch task began (only observable for in-process execution).
WORKER_TASK_START = "worker.task.start"
#: One batch task finished (worker identity, wall-clock).
WORKER_TASK_FINISH = "worker.task.finish"
#: A batch verification job finished (wall-clock, cache totals).
BATCH_FINISH = "batch.finish"
#: The linter began analysing a subject (subject, probe count).
LINT_START = "lint.start"
#: The linter recorded one finding (code, severity, subject, message).
LINT_DIAGNOSTIC = "lint.diagnostic"
#: The linter finished a subject (finding counts, wall-clock).
LINT_FINISH = "lint.finish"
#: The abstract interpreter analysed one action's transfer function
#: (subject, guard satisfiability, proofs attempted).
ABSINT_TRANSFER = "staticcheck.absint.transfer"
#: The abstract-interpretation pass finished (actions analysed, proofs).
ABSINT_FINISH = "staticcheck.absint.finish"
#: One proof obligation was discharged statically (obligation, subject,
#: rule, truth-table rows).
INTERFERENCE_DISCHARGED = "staticcheck.interference.discharged"
#: The interference pass finished (pairs examined, findings).
INTERFERENCE_FINISH = "staticcheck.interference.finish"
#: The packed kernel compiled a program (codec size, action modes, time).
KERNEL_BUILD = "kernel.build"
#: A vectorized full-space sweep ran (states, shard count, edge count).
KERNEL_SWEEP = "kernel.sweep.vectorized"
#: Per-shard CSR fragments were merged into one system (shard count).
KERNEL_SHARD_MERGED = "kernel.shard.merged"
#: A full-space sweep accounted its memory (path, peak bytes, code dtype
#: width, streaming flag, transfer mode: "pickle" through the pool or
#: "inline").
KERNEL_MEM = "kernel.mem.sweep"
#: The quantitative analyzer solved one instance (case, states, span
#: and doomed counts, value-iteration sweeps, execution path, engine,
#: wall-clock).
QUANTITATIVE_SOLVE = "quantitative.solve"
#: The compositional certifier began on a design (design, fairness).
COMPOSITIONAL_START = "compositional.start"
#: Every obligation discharged: a certificate was emitted (theorem,
#: obligation count, largest projection).
COMPOSITIONAL_CERTIFIED = "compositional.certified"
#: An obligation could not be discharged locally (the named refusal);
#: callers fall back to full exploration.
COMPOSITIONAL_REFUSED = "compositional.refused"
#: The daemon accepted one HTTP request (endpoint, fingerprint prefix).
SERVICE_REQUEST_START = "service.request.start"
#: The daemon answered one HTTP request (status, wall-clock, cache layer).
SERVICE_REQUEST_FINISH = "service.request.finish"
#: An in-flight duplicate coalesced onto an earlier request's future.
SERVICE_REQUEST_DEDUPED = "service.request.deduped"
#: The daemon flushed a batch of cache-missing requests onto the pool.
SERVICE_BATCH_DISPATCH = "service.batch.dispatch"
#: The verdict store answered from its warm or disk tier.
STORE_HIT = "store.hit"
#: The verdict store had no (readable) entry for the fingerprint.
STORE_MISS = "store.miss"
#: The verdict store evicted an LRU entry to stay inside its budget.
STORE_EVICT = "store.evict"

#: Every kind the built-in instrumentation emits.
EVENT_KINDS: tuple[str, ...] = (
    RUN_START,
    RUN_FINISH,
    ACTION_FIRED,
    FAULT_INJECTED,
    TARGET_ESTABLISHED,
    TARGET_VIOLATED,
    CONSTRAINT_ESTABLISHED,
    CONSTRAINT_VIOLATED,
    SCHEDULER_STEP,
    CACHE_HIT,
    CACHE_MISS,
    BATCH_START,
    WORKER_TASK_START,
    WORKER_TASK_FINISH,
    BATCH_FINISH,
    LINT_START,
    LINT_DIAGNOSTIC,
    LINT_FINISH,
    ABSINT_TRANSFER,
    ABSINT_FINISH,
    INTERFERENCE_DISCHARGED,
    INTERFERENCE_FINISH,
    KERNEL_BUILD,
    KERNEL_SWEEP,
    KERNEL_SHARD_MERGED,
    KERNEL_MEM,
    QUANTITATIVE_SOLVE,
    COMPOSITIONAL_START,
    COMPOSITIONAL_CERTIFIED,
    COMPOSITIONAL_REFUSED,
    SERVICE_REQUEST_START,
    SERVICE_REQUEST_FINISH,
    SERVICE_REQUEST_DEDUPED,
    SERVICE_BATCH_DISPATCH,
    STORE_HIT,
    STORE_MISS,
    STORE_EVICT,
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured event.

    Attributes:
        seq: Position in the emitting tracer's stream (0-based, dense).
        time: Tracer-clock timestamp (``time.perf_counter`` by default, so
            differences are wall-clock seconds; absolute values are only
            meaningful within one process).
        kind: Namespaced event kind — one of :data:`EVENT_KINDS` for the
            built-in instrumentation.
        fields: Kind-specific payload. Values must be JSON-able for the
            JSONL sink; the built-in instrumentation sticks to strings,
            numbers, booleans and tuples of strings. The names ``seq``,
            ``time`` and ``kind`` are reserved (they would collide in the
            flattened form).
    """

    seq: int
    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """The flattened JSON-able form used by the JSONL sink."""
        return {"seq": self.seq, "time": self.time, "kind": self.kind, **self.fields}

    def __str__(self) -> str:
        payload = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.seq:>5} {self.time:12.6f}] {self.kind} {payload}".rstrip()
