"""Packed-engine T-tolerance verification.

``check_tolerance_packed`` reproduces the dict engine of
:func:`repro.verification.checker._check_tolerance` bit-for-bit — same
verdicts, same closure witnesses in the same order, same error messages
— but runs on packed codes:

- With ``states=None`` (the common service path) the full state space is
  swept **once**: one pass computes the ``S``/``T`` membership masks and
  the complete successor graph as flat arrays. The dict engine walks the
  space four times (implication, two closures, span construction) and
  re-executes every action per walk.
- Both closure checks then run over the cached graph without calling a
  single guard again, and the ``T``-span transition system is carved out
  of the same arrays. Convergence is decided by a Kahn peel of the bad
  span states (:func:`~repro.kernel.sweeps.scalar_peel` on the scalar
  loop); only the bad states that never peel reach the exact SCC
  analysis (:func:`check_convergence`), for its counterexample.
- :func:`check_tolerance_swept` also returns that full-space graph as a
  :class:`FullSpaceCSR`, so a caller that needs more than the verdict
  (``quantify=True``) reuses the sweep instead of repeating it.

With numpy available, full-space sweeps of large instances dispatch to
the vectorized kernel (:mod:`repro.kernel.sweeps`, optionally sharded
over a process pool via :mod:`repro.kernel.shard`) through
:func:`vectorized_csr`, the one gate of that path; instances outside
the vectorized fragment — and every run without numpy — take the scalar
loop below, whose results the vectorized path reproduces bit-for-bit.

Successor values that leave their variable's domain are kept as raw
:class:`State` markers inside the graph so closure witnesses and escape
lists match the dict engine exactly.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import compress
from typing import Any

from repro.core.errors import StateSpaceTooLargeError
from repro.core.predicates import TRUE, Predicate
from repro.core.program import Program
from repro.core.state import DEFAULT_MAX_STATES, State
from repro.kernel import sweeps
from repro.kernel.engine import PackedKernel, compile_program
from repro.verification.checker import ToleranceReport
from repro.verification.closure import ClosureResult, ClosureWitness
from repro.verification.convergence import (
    ConvergenceCounterexample,
    ConvergenceResult,
    _converge,
)
from repro.verification.explorer import TransitionSystem

__all__ = [
    "FullSpaceCSR",
    "check_tolerance_packed",
    "check_tolerance_swept",
    "vectorized_csr",
]

#: Mirrors ``check_closure``'s default ``max_witnesses``.
_MAX_WITNESSES = 5

#: ``bytes.translate`` table turning a 0/1 membership mask into its
#: complement.
_NEGATE = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True)
class FullSpaceCSR:
    """The full-space successor graph one packed verify swept.

    Row ``i`` is the state with code ``i``; its successor codes are
    ``targets[offsets[i]:offsets[i + 1]]`` in action order, produced by
    ``action_ids``. ``t_mask`` is ``None`` when ``T`` is ``TRUE``. The
    vectorized sweep holds numpy arrays, the scalar sweep (``shards ==
    0``) its ``array``/``bytearray`` buffers. It lives for one request:
    never put it on a cached report, in a record, or in a pickle.

    ``levels`` are the verdict's Kahn peel levels
    (:func:`~repro.kernel.sweeps.bad_region_acyclic`, or its numpy-free
    twin :func:`~repro.kernel.sweeps.scalar_peel` on the scalar sweep),
    indexed by code: the round each bad ``T``-state peels in, ``-1`` for
    a bad state that never peels and for every good or non-span state.
    Both sweeps set them whenever the verdict ran the peel, and leave
    them ``None`` on a bad deadlock or when ``T`` is not closed, so a
    quantify request over this CSR reads them instead of peeling again.
    """

    s_mask: Any
    t_mask: Any
    offsets: Any
    targets: Any
    action_ids: Any
    action_names: tuple[str, ...]
    #: Shards the vectorized sweep ran over; 0 for the scalar sweep.
    shards: int = 0
    #: How shard fragments reached the merge ("pickle" or "inline").
    transfer: str | None = None
    levels: Any = None

    @property
    def vectorized(self) -> bool:
        return self.shards > 0


def check_tolerance_packed(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate,
    states: Iterable[State] | None = None,
    **options: Any,
) -> ToleranceReport:
    """Packed counterpart of :func:`~repro.verification.checker._check_tolerance`:
    the report of :func:`check_tolerance_swept` (which documents the options)."""
    return check_tolerance_swept(
        program, invariant, fault_span, states, **options
    )[0]


def check_tolerance_swept(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate,
    states: Iterable[State] | None = None,
    *,
    fairness: str = "weak",
    max_states: int | None = None,
    shards: int | None = None,
    memory_budget: int | None = None,
    tracer=None,
    metrics=None,
) -> tuple[ToleranceReport, FullSpaceCSR | None]:
    """The packed verdict, plus the full-space graph it swept.

    The graph is ``None`` when there is none to reuse: supplied
    ``states``, a verdict the streaming path answered, or a successor
    outside its variable's domain (the space is then not closed).

    Args:
        states: The state set, or ``None`` for the program's full state
            space (the fast path: codes are enumerated, never encoded).
        max_states: Full-space size guard; ``None`` means
            :data:`~repro.core.state.DEFAULT_MAX_STATES`. Uses the same
            comparison and message as
            :func:`~repro.core.state.enumerate_states`, so both engines
            agree — verdict or identical error — at the boundary.
        shards: Shard count for the vectorized full-space sweep
            (``None`` = auto heuristic, see
            :func:`~repro.kernel.shard.plan_shards`). Sharding never
            changes results; it is ignored on the scalar fallback paths.
        memory_budget: Peak-bytes target for the vectorized full-space
            sweep. When the materialized CSR estimate exceeds it, the
            streaming count-only verdict path runs instead (peak memory
            O(shard), not O(space)), falling back to the materialized
            sweep the moment a witness must be decoded. Never changes
            results — it is a memory/latency trade, so it is *not* part
            of any cache key. ``None`` (the default) never streams;
            scalar paths ignore it.

    Raises:
        PackedUnsupported: if the program or a supplied state cannot be
            packed; ``engine="auto"`` callers catch this and fall back.
    """
    kernel = compile_program(program, tracer=tracer, metrics=metrics)
    table_entries_before = kernel.table_entries() if metrics is not None else 0
    codec = kernel.codec
    if states is None:
        # Same guard (comparison and message) as ``enumerate_states`` on
        # the dict path, with the caller's limit threaded through.
        limit = DEFAULT_MAX_STATES if max_states is None else max_states
        if codec.size > limit:
            raise StateSpaceTooLargeError(
                f"state space has {codec.size} states, above the limit of "
                f"{limit}"
            )
        swept = _vectorized_full_space(
            kernel,
            program,
            invariant,
            fault_span,
            fairness=fairness,
            shards=shards,
            memory_budget=memory_budget,
            tracer=tracer,
            metrics=metrics,
        )
        if swept is not None:
            _note_sweep_metrics(
                kernel, metrics, table_entries_before, codec.size
            )
            return swept
    s_fn = kernel.predicate_fn(invariant)
    # TRUE is the stabilization fault-span; skip 1 call/state for it.
    t_always = fault_span is TRUE
    t_fn = None if t_always else kernel.predicate_fn(fault_span)
    successor_fns = tuple(
        (action_id, action.successor)
        for action_id, action in enumerate(kernel.actions)
    )
    names = kernel.action_names
    # Successor buffers: ``entries[offsets[i]:offsets[i+1]]`` are state
    # ``i``'s successors in action order; entry ``-(k+1)`` is ``raws[k]``,
    # a successor carrying an out-of-domain value (kept inline so
    # escape/witness order is identical to the dict engine). 32-bit
    # whenever ``size * n_actions`` fits (which bounds codes, edge counts
    # and raw sentinels alike), else 64-bit; never int16, because
    # sentinels count edges, not codes.
    edge_bound = codec.size * max(1, len(kernel.actions))
    typecode = "i" if edge_bound <= 2**31 - 1 else "q"
    offsets = array(typecode, [0])
    entries = array(typecode)
    action_ids = array("h")
    raws: list[State] = []
    entries_append = entries.append
    ids_append = action_ids.append
    offsets_append = offsets.append

    def sweep_row(code: int, digits, values) -> None:
        """Append one state's successors and close its CSR row."""
        for action_id, successor_fn in successor_fns:
            successor = successor_fn(code, digits, values)
            if successor is None:
                continue
            if type(successor) is int:
                entries_append(successor)
            else:
                entries_append(-len(raws) - 1)
                raws.append(successor)
            ids_append(action_id)
        offsets_append(len(entries))

    if states is None:
        # Full space (scalar sweep): position == code, membership masks
        # are per-code. The size guard already ran above.
        count = codec.size
        state_list: list[State] | None = None
        codes = None
        s_mask = bytearray(count)
        t_mask = bytearray(b"\x01") * count if t_always else bytearray(count)
        for code, digits, values in kernel.iter_space():
            if s_fn(values):
                s_mask[code] = 1
            if not t_always and t_fn(values):
                t_mask[code] = 1
            sweep_row(code, digits, values)

        def position_state(position: int) -> State:
            return codec.decode_state(position)

        def code_of(position: int) -> int:
            return position

        def code_holds(mask, memo, fn, code: int) -> bool:
            return bool(mask[code])

        s_memo = t_memo = None
    else:
        state_list = list(states)
        codes = array(
            codec.code_typecode,
            (codec.encode_state(state) for state in state_list),
        )
        count = len(codes)
        s_mask = bytearray(count)
        t_mask = bytearray(count)
        # Successor codes may fall outside the supplied set; predicate
        # values of such codes are memoized per code.
        s_memo: dict[int, bool] = {}
        t_memo: dict[int, bool] = {}
        for position, code in enumerate(codes):
            digits, values = kernel.analyze_code(code)
            s_value = bool(s_fn(values))
            t_value = True if t_always else bool(t_fn(values))
            s_mask[position] = s_value
            t_mask[position] = t_value
            s_memo[code] = s_value
            t_memo[code] = t_value
            sweep_row(code, digits, values)

        def position_state(position: int) -> State:
            return state_list[position]

        def code_of(position: int) -> int:
            return codes[position]

        def code_holds(mask, memo, fn, code: int) -> bool:
            try:
                return memo[code]
            except KeyError:
                value = bool(fn(codec.decode_values(code)))
                memo[code] = value
                return value

    implication_ok = t_always or all(
        t_mask[position] for position in range(count) if s_mask[position]
    )

    def closure(mask, memo, fn, predicate: Predicate) -> ClosureResult:
        checked = 0
        witnesses: list[ClosureWitness] = []
        for position in range(count):
            if not mask[position]:
                continue
            checked += 1
            for k in range(offsets[position], offsets[position + 1]):
                entry = entries[k]
                if entry >= 0:
                    if code_holds(mask, memo, fn, entry):
                        continue
                    after = codec.decode_state(entry)
                else:
                    after = raws[-entry - 1]
                    if predicate(after):
                        continue
                witnesses.append(
                    ClosureWitness(
                        before=position_state(position),
                        action_name=names[action_ids[k]],
                        after=after,
                    )
                )
                if len(witnesses) >= _MAX_WITNESSES:
                    return ClosureResult(
                        predicate_name=predicate.name,
                        ok=False,
                        checked=checked,
                        witnesses=tuple(witnesses),
                    )
        return ClosureResult(
            predicate_name=predicate.name,
            ok=not witnesses,
            checked=checked,
            witnesses=tuple(witnesses),
        )

    s_closure = closure(s_mask, s_memo, s_fn, invariant)
    if t_always:
        # TRUE holds on every successor (raw or not): the walk cannot
        # produce a witness, and ``checked`` is the full state count.
        t_closure = ClosureResult(
            predicate_name=fault_span.name, ok=True, checked=count, witnesses=()
        )
    else:
        t_closure = closure(t_mask, t_memo, t_fn, fault_span)

    # ------------------------------------------------------------------
    # Carve the T-span transition system out of the cached graph.
    # ------------------------------------------------------------------
    if t_always:
        span_positions: Sequence[int] = range(count)
    else:
        span_positions = [
            position for position in range(count) if t_mask[position]
        ]
    span_count = len(span_positions)

    if states is None:
        # Full space: a successor code *is* a position, membership is a
        # mask lookup.
        if span_count == count:
            span_of = None  # identity
        else:
            span_of = array(codec.code_typecode, [-1]) * count
            for new_position, position in enumerate(span_positions):
                span_of[position] = new_position

        def span_target(entry_code: int) -> int | None:
            if not t_mask[entry_code]:
                return None
            return entry_code if span_of is None else span_of[entry_code]

    else:
        # Subset: membership is "equals one of the supplied T-states",
        # resolved through a last-occurrence-wins code index exactly
        # like the dict engine's ``{state: position}`` map.
        span_index = {}
        for new_position, position in enumerate(span_positions):
            span_index[codes[position]] = new_position

        def span_target(entry_code: int) -> int | None:
            return span_index.get(entry_code)

    if states is None and span_count == count and not raws:
        # Stabilizing full-space case: reuse the arrays wholesale.
        span_codes = array(codec.code_typecode, range(count))
        span_offsets, span_targets, span_action_ids = offsets, entries, action_ids
        span_escapes: list[tuple[int, str, State]] = []
        span_states = None
    else:
        span_codes = array(
            codec.code_typecode,
            (code_of(position) for position in span_positions),
        )
        span_offsets = array(offsets.typecode, [0])
        span_targets = array(codec.code_typecode)
        span_action_ids = array("h")
        span_escapes = []
        span_states = (
            None
            if state_list is None
            else [state_list[position] for position in span_positions]
        )
        for new_position, position in enumerate(span_positions):
            for k in range(offsets[position], offsets[position + 1]):
                entry = entries[k]
                if entry >= 0:
                    target = span_target(entry)
                    if target is not None:
                        span_targets.append(target)
                        span_action_ids.append(action_ids[k])
                        continue
                    escape_state = codec.decode_state(entry)
                else:
                    escape_state = raws[-entry - 1]
                span_escapes.append(
                    (new_position, names[action_ids[k]], escape_state)
                )
            span_offsets.append(len(span_targets))

    # The invariant was already evaluated on every span state: the bad
    # span positions come straight from the mask.
    if span_count == count:
        bad = s_mask.translate(_NEGATE)
    else:
        bad = bytearray(not s_mask[position] for position in span_positions)
    bad_count = bad.count(1)
    levels = None  # per span position, once the peel has run
    handed = 0
    if span_escapes:
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
            span_states=span_count,
            bad_states=bad_count,
        )
    else:
        # The vectorized verdict's prefilter, without numpy: when every
        # bad state peels, convergence holds under any fairness and no
        # SCC analysis runs; otherwise only the bad states that never
        # peeled (deadlocks among them) are candidates.
        levels = sweeps.scalar_peel(bad, span_offsets, span_targets)
        stuck = [
            position
            for position in compress(range(span_count), bad)
            if levels[position] < 0
        ]
        if not stuck:
            convergence = ConvergenceResult(
                ok=True,
                fairness=fairness,
                span_states=span_count,
                bad_states=bad_count,
            )
        else:
            handed = len(stuck)
            convergence = check_convergence(
                TransitionSystem(
                    span_states, span_offsets, span_targets, span_action_ids,
                    names, codec=codec, codes=span_codes,
                ),
                fairness,
                stuck,
                bad_count,
            )
    _note_tarjan(metrics, handed)
    # The levels a quantify request over this CSR reads, indexed by code:
    # only where the vectorized path keeps them (a full space with no raw
    # successor, T closed, no bad deadlock).
    csr_levels = None
    if (
        states is None
        and not raws
        and levels is not None
        and not _deadlocked(convergence)
    ):
        if span_count == count:
            csr_levels = levels
        else:
            csr_levels = array(levels.typecode, [-1]) * count
            for position, level in zip(span_positions, levels):
                csr_levels[position] = level

    masking = s_mask == t_mask
    stabilizing = span_count == count
    _note_sweep_metrics(kernel, metrics, table_entries_before, count)
    span_shared = span_offsets is offsets
    peak_bytes = (
        len(s_mask)
        + len(t_mask)
        + _buffer_bytes(offsets)
        + _buffer_bytes(entries)
        + _buffer_bytes(action_ids)
        + _buffer_bytes(span_codes)
        + (
            0
            if span_shared
            else _buffer_bytes(span_offsets)
            + _buffer_bytes(span_targets)
            + _buffer_bytes(span_action_ids)
        )
        + len(bad)
        + (0 if levels is None else _buffer_bytes(levels))
        + (
            0
            if csr_levels is None or csr_levels is levels
            else _buffer_bytes(csr_levels)
        )
    )
    _note_memory_metrics(
        metrics,
        tracer,
        path="scalar",
        peak_bytes=peak_bytes,
        code_bytes=entries.itemsize,
    )
    report = ToleranceReport(
        ok=implication_ok and s_closure.ok and t_closure.ok and convergence.ok,
        implication_ok=implication_ok,
        s_closure=s_closure,
        t_closure=t_closure,
        convergence=convergence,
        classification="masking" if masking else "nonmasking",
        stabilizing=stabilizing,
        total_states=count,
    )
    if states is not None or raws:
        return report, None
    return report, FullSpaceCSR(
        s_mask, None if t_always else t_mask, offsets, entries, action_ids,
        names, levels=csr_levels,
    )


def check_convergence(
    span: TransitionSystem,
    fairness: str,
    candidates: list[int],
    bad_count: int,
) -> ConvergenceResult:
    """The exact convergence verdict over a span the kernel carved.

    The scalar engines' SCC analysis
    (:func:`repro.verification.convergence.check_convergence`), with the
    bad states the verdict's Kahn peel left behind as the only
    ``candidates`` (see :func:`~repro.verification.convergence._converge`).
    A module-level name, so the kernel's convergence phase can be timed
    on its own (``perfbench``'s ``kernel.converge`` span).
    """
    return _converge(
        span, (), fairness, candidates=candidates, bad_count=bad_count
    )


def _deadlocked(convergence: ConvergenceResult) -> bool:
    counterexample = convergence.counterexample
    return counterexample is not None and counterexample.kind == "deadlock"


def _note_tarjan(metrics, handed: int) -> None:
    """Count the bad states one packed verdict handed to the exact SCC
    analysis (``kernel.converge.tarjan``): 0 whenever the peel decided."""
    if metrics is not None:
        metrics.counter("kernel.converge.tarjan").add(handed)


def _note_sweep_metrics(
    kernel: PackedKernel, metrics, table_entries_before: int, count: int
) -> None:
    """Fold one full sweep into the ``kernel.*`` counters.

    Successor tables fill lazily, so misses are the sweep's table
    growth; every action ran (scalar) or was resolved (vectorized)
    exactly once per state.
    """
    if metrics is None:
        return
    modes = kernel.modes()
    misses = kernel.table_entries() - table_entries_before
    calls = count * modes["table"]
    metrics.counter("kernel.table_hits").add(calls - misses)
    metrics.counter("kernel.table_misses").add(misses)
    metrics.counter("kernel.direct_evals").add(
        count * (modes["direct"] + modes["fallback"])
    )
    if modes["fallback"]:
        metrics.counter("kernel.fallback_actions").add(modes["fallback"])


def _buffer_bytes(buffer) -> int:
    """Resident bytes of an ``array`` buffer."""
    return buffer.itemsize * len(buffer)


def _note_memory_metrics(
    metrics,
    tracer,
    *,
    path: str,
    peak_bytes: int,
    code_bytes: int,
    streaming: bool = False,
    transfer: str | None = None,
) -> None:
    """Fold one sweep's memory profile into ``kernel.mem.*``.

    ``peak_bytes`` is deterministic accounting over the arrays the sweep
    actually held (not process RSS, which the benchmarks measure
    separately): masks + CSR/graph buffers on materialized paths, masks
    + the largest shard's transients + retained boundary edges on the
    streaming path. Counters accumulate across sweeps, like every other
    ``kernel.*`` counter in a RunReport.
    """
    if metrics is not None:
        metrics.counter("kernel.mem.peak_bytes").add(int(peak_bytes))
        metrics.counter("kernel.mem.code_bytes").add(int(code_bytes))
        if streaming:
            metrics.counter("kernel.mem.streaming").add(1)
    if tracer is not None:
        from repro.observability.events import KERNEL_MEM

        tracer.emit(
            KERNEL_MEM,
            path=path,
            peak_bytes=int(peak_bytes),
            code_bytes=int(code_bytes),
            streaming=streaming,
            transfer=transfer,
        )


def _emit_sweep(tracer, program: Program, states: int, shards: int, edges: int):
    if tracer is None:
        return
    from repro.observability.events import KERNEL_SHARD_MERGED, KERNEL_SWEEP

    tracer.emit(
        KERNEL_SWEEP, program=program.name, states=states, shards=shards,
        edges=edges,
    )
    if shards > 1:
        tracer.emit(KERNEL_SHARD_MERGED, shards=shards)


def _mask_report(
    s_mask, t_mask, s_closure, t_closure, convergence, span_count: int
) -> ToleranceReport:
    """The report of a numpy full-space sweep (vectorized or streaming)."""
    import numpy as np

    count = s_mask.size
    implication_ok = t_mask is None or not bool(np.any(s_mask & ~t_mask))
    if t_mask is None:
        masking = bool(s_mask.all())
    else:
        masking = bool(np.array_equal(s_mask, t_mask))
    return ToleranceReport(
        ok=implication_ok and s_closure.ok and t_closure.ok and convergence.ok,
        implication_ok=implication_ok,
        s_closure=s_closure,
        t_closure=t_closure,
        convergence=convergence,
        classification="masking" if masking else "nonmasking",
        stabilizing=span_count == count,
        total_states=count,
    )


def _materialized_bytes(plan, size: int) -> int:
    """Upper bound on the materialized sweep's resident bytes.

    Masks, offsets, and the worst-case edge arrays (every action enabled
    on every state) at the plan's dtypes. The streaming decision
    compares this against the memory budget *before* sweeping, so it
    must not depend on anything the sweep would compute.
    """
    edges = size * max(1, plan.n_actions)
    masks = size * (1 if plan.t_node is None else 2)
    return (
        masks
        + (size + 1) * plan.offset_dtype.itemsize
        + edges * (plan.code_dtype.itemsize + 2)
    )


def vectorized_csr(
    kernel: PackedKernel,
    invariant: Predicate,
    fault_span: Predicate,
    *,
    shards: int | None,
    metrics=None,
    streamed=None,
):
    """The full space as a vectorized (optionally sharded) CSR, or ``None``.

    The one gate of the vectorized sweep. It returns ``None``, and the
    caller stays on its scalar route, when numpy is missing, when the
    space is too small to pay numpy's fixed overhead (unless ``shards``
    was requested explicitly), or when any construct falls outside the
    vectorized fragment (:class:`~repro.kernel.sweeps.SweepUnsupported`,
    raised while planning or while sweeping).

    ``streamed(plan, ranges)``, when given, runs inside the same gate
    before the CSR is materialized; a result other than ``None`` is
    returned in the CSR's place (the verify's streaming verdict).
    """
    from repro.kernel import shard as sharding

    size = kernel.codec.size
    if not sweeps.HAVE_NUMPY:
        return None
    if shards is None and size < sweeps.VECTOR_MIN_STATES:
        return None
    try:
        plan = sweeps.SweepPlan(
            kernel,
            invariant,
            None if fault_span is TRUE else fault_span,
        )
        ranges = sharding.plan_shards(size, shards)
        if streamed is not None:
            result = streamed(plan, ranges)
            if result is not None:
                return result
        merged, transfer = sharding.sweep_merged(plan, ranges, metrics=metrics)
    except sweeps.SweepUnsupported:
        return None
    return FullSpaceCSR(
        *merged, kernel.action_names, shards=len(ranges), transfer=transfer
    )


def _vectorized_full_space(
    kernel: PackedKernel,
    program: Program,
    invariant: Predicate,
    fault_span: Predicate,
    *,
    fairness: str,
    shards: int | None,
    memory_budget: int | None = None,
    tracer=None,
    metrics=None,
) -> tuple[ToleranceReport, FullSpaceCSR | None] | None:
    """The vectorized (optionally sharded) full-space verdict.

    Returns ``None`` when :func:`vectorized_csr` keeps the instance on
    the scalar sweep. The produced report is bit-identical to the scalar
    sweep's — same verdicts, witness order, counterexamples and counts —
    which the differential suite pins.

    When ``memory_budget`` is set and the materialized estimate exceeds
    it, the streaming count-only path runs first; it returns ``None``
    exactly when the verdict needs decoded witnesses (closure violations
    or a bad cycle), in which case the materialized sweep below produces
    them. A streamed verdict has no CSR to hand on.
    """

    def streamed(plan, ranges):
        if (
            memory_budget is None
            or _materialized_bytes(plan, kernel.codec.size) <= memory_budget
        ):
            return None
        return _streaming_full_space(
            kernel, program, invariant, fault_span, plan, ranges,
            fairness=fairness, tracer=tracer, metrics=metrics,
        )

    csr = vectorized_csr(
        kernel, invariant, fault_span,
        shards=shards, metrics=metrics, streamed=streamed,
    )
    if csr is None:
        return None
    if isinstance(csr, ToleranceReport):
        return csr, None  # streamed: no CSR to hand on
    import numpy as np

    s_mask, t_mask = csr.s_mask, csr.t_mask
    offsets, targets, action_ids = csr.offsets, csr.targets, csr.action_ids
    codec = kernel.codec
    names = kernel.action_names
    count = codec.size
    _emit_sweep(tracer, program, count, csr.shards, int(offsets[-1]))
    mem_bytes = (
        s_mask.nbytes
        + (0 if t_mask is None else t_mask.nbytes)
        + offsets.nbytes
        + targets.nbytes
        + action_ids.nbytes
    )

    def decode(code) -> State:
        return codec.decode_state(int(code))

    def closure_result(mask, predicate: Predicate) -> ClosureResult:
        ok, checked, witness_edges = sweeps.closure_scan(
            mask, offsets, targets, max_witnesses=_MAX_WITNESSES
        )
        witnesses = tuple(
            ClosureWitness(
                before=decode(
                    np.searchsorted(offsets, k, side="right") - 1
                ),
                action_name=names[action_ids[k]],
                after=decode(targets[k]),
            )
            for k in witness_edges
        )
        return ClosureResult(
            predicate_name=predicate.name,
            ok=ok,
            checked=checked,
            witnesses=witnesses,
        )

    s_closure = closure_result(s_mask, invariant)
    if t_mask is None:
        # TRUE holds on every successor: the scan cannot produce a
        # witness, and ``checked`` is the full state count.
        t_closure = ClosureResult(
            predicate_name=fault_span.name, ok=True, checked=count, witnesses=()
        )
    else:
        t_closure = closure_result(t_mask, fault_span)

    # ------------------------------------------------------------------
    # Convergence over the T-span.
    # ------------------------------------------------------------------
    levels = None  # per span position, once the peel has run
    handed = 0
    if t_mask is None:
        span_rows = None
        span_count = count
        span_offsets, span_targets, span_ids = offsets, targets, action_ids
        bad_mask = ~s_mask
    else:
        span_rows = np.flatnonzero(t_mask)
        span_count = int(span_rows.size)
    if t_mask is not None and not t_closure.ok:
        # T is not closed (on the full space every closure witness is an
        # escaping edge), so convergence relative to T is undefined;
        # report it failed without a cycle counterexample — exactly the
        # scalar engines' escape branch.
        convergence = ConvergenceResult(
            ok=False,
            fairness=fairness,
            span_states=span_count,
            bad_states=int(np.count_nonzero(t_mask & ~s_mask)),
        )
    else:
        if t_mask is not None:
            # Carve the span-induced CSR; T is closed, so every edge out
            # of a T-state stays inside the span.
            span_of = np.cumsum(t_mask, dtype=np.int64) - 1
            degrees = np.diff(offsets)
            keep = np.repeat(t_mask, degrees)
            span_targets = span_of[targets[keep]]
            span_ids = action_ids[keep]
            span_offsets = np.empty(span_count + 1, dtype=np.int64)
            span_offsets[0] = 0
            np.cumsum(degrees[span_rows], out=span_offsets[1:])
            bad_mask = ~s_mask[span_rows]
            mem_bytes += (
                span_of.nbytes
                + span_targets.nbytes
                + span_ids.nbytes
                + span_offsets.nbytes
            )
        bad_count = int(np.count_nonzero(bad_mask))
        deadlock = sweeps.first_bad_deadlock(bad_mask, span_offsets)
        if deadlock is not None:
            state = decode(
                deadlock if span_rows is None else span_rows[deadlock]
            )
            convergence = ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=span_count,
                bad_states=bad_count,
                counterexample=ConvergenceCounterexample(
                    kind="deadlock", states=(state,)
                ),
            )
        else:
            levels = sweeps.bad_region_acyclic(
                bad_mask, span_offsets, span_targets, metrics=metrics
            )
            stuck = bad_mask & (levels < 0)
            if not stuck.any():
                # No bad deadlock and no bad cycle: convergence holds
                # under any fairness, with no SCC analysis and no span
                # system.
                convergence = ConvergenceResult(
                    ok=True,
                    fairness=fairness,
                    span_states=span_count,
                    bad_states=bad_count,
                )
            else:
                # A bad cycle exists somewhere: hand the span to the
                # exact checker for the scalar engines' counterexample.
                # Only the bad states that never peeled can lie on a
                # cycle, so only they are Tarjan candidates; the span
                # system stays whole, so weak fairness still sees every
                # labelled edge, peeled sinks included.
                span_codes = (
                    np.arange(count, dtype=np.int64)
                    if span_rows is None
                    else span_rows
                )
                candidates = np.flatnonzero(stuck).tolist()
                handed = len(candidates)
                convergence = check_convergence(
                    TransitionSystem(
                        None, span_offsets, span_targets, span_ids, names,
                        codec=codec, codes=span_codes,
                    ),
                    fairness,
                    candidates,
                    bad_count,
                )
    _note_tarjan(metrics, handed)

    if levels is not None:
        if span_rows is not None:
            span_levels = levels
            levels = np.full(count, -1, dtype=span_levels.dtype)
            levels[span_rows] = span_levels
        mem_bytes += levels.nbytes
        csr = replace(csr, levels=levels)
    _note_memory_metrics(
        metrics,
        tracer,
        path="vectorized",
        peak_bytes=mem_bytes,
        code_bytes=targets.dtype.itemsize,
        transfer=csr.transfer,
    )
    return _mask_report(
        s_mask, t_mask, s_closure, t_closure, convergence, span_count
    ), csr


def _streaming_full_space(
    kernel: PackedKernel,
    program: Program,
    invariant: Predicate,
    fault_span: Predicate,
    plan,
    ranges: list[tuple[int, int]],
    *,
    fairness: str,
    tracer=None,
    metrics=None,
) -> ToleranceReport | None:
    """The streaming count-only verdict path (kernel v3).

    Sweeps shard-at-a-time and never materializes the CSR: a mask pass
    answers implication, closure (ok case), span classification, and the
    counts; a column pass reduces each shard's successor columns in
    place — closure violations, span out-degrees, and the bad→bad edges
    — then frees them before the next shard, so peak memory is O(shard)
    plus the boundary edges the shard-local Kahn peels could not drain
    (:func:`~repro.kernel.sweeps.peel_shard_edges`); a final
    boundary-frontier exchange (:func:`~repro.kernel.sweeps.edge_list_acyclic`)
    finishes the peel globally.

    Every produced report is bit-identical to the materialized sweep's.
    That is possible precisely because this path only runs to completion
    when no witness must be decoded: the moment one is needed — a
    closure violation (witness states) or a surviving bad cycle (the
    exact SCC counterexample) — it returns ``None`` and the caller
    materializes. The one decoded state it ever produces is a bad
    deadlock, which is a single ``decode_state`` of the lowest bad
    zero-degree code — the same state the materialized scan reports.
    """
    import numpy as np

    codec = kernel.codec
    count = codec.size
    code_dtype = plan.code_dtype

    s_mask = np.empty(count, dtype=bool)
    t_mask = None if plan.t_node is None else np.empty(count, dtype=bool)
    for lo, hi in ranges:
        s_part, t_part = plan.mask_range(lo, hi)
        s_mask[lo:hi] = s_part
        if t_mask is not None:
            t_mask[lo:hi] = t_part

    bad_full = ~s_mask if t_mask is None else (t_mask & ~s_mask)
    span_count = count if t_mask is None else int(np.count_nonzero(t_mask))
    bad_count = int(np.count_nonzero(bad_full))

    resolved = np.zeros(count, dtype=bool)
    kept_sources: list = []
    kept_sinks: list = []
    retained_bytes = 0
    shard_peak = 0
    total_edges = 0
    deadlock_code: int | None = None

    for lo, hi in ranges:
        ctx, columns = plan.column_range(lo, hi)
        n = hi - lo
        degrees = np.zeros(n, dtype=np.int16)
        s_src = s_mask[lo:hi]
        t_src = None if t_mask is None else t_mask[lo:hi]
        bad_src = bad_full[lo:hi]
        shard_sources: list = []
        shard_sinks: list = []
        for action_id in range(plan.n_actions):
            enabled, successors = columns[action_id]
            # Any closure violation means decoded witnesses: materialize.
            if bool(np.any(s_src & enabled & ~s_mask[successors])):
                return None
            if t_src is not None and bool(
                np.any(t_src & enabled & ~t_mask[successors])
            ):
                return None
            degrees += enabled
            if deadlock_code is None:
                edge_rows = np.flatnonzero(
                    bad_src & enabled & bad_full[successors]
                )
                if edge_rows.size:
                    shard_sources.append(ctx.codes[edge_rows])
                    shard_sinks.append(successors[edge_rows])
        total_edges += int(degrees.sum(dtype=np.int64))
        if deadlock_code is None:
            # T is closed on every success path, so a bad state's span
            # out-degree is simply its enabled count; shards ascend, so
            # the first candidate is the materialized scan's deadlock.
            candidates = np.flatnonzero(bad_src & (degrees == 0))
            if candidates.size:
                deadlock_code = lo + int(candidates[0])
                shard_sources = []
                shard_sinks = []
        if deadlock_code is None:
            if shard_sources:
                sources = np.concatenate(shard_sources)
                sinks = np.concatenate(shard_sinks)
            else:
                sources = np.empty(0, dtype=code_dtype)
                sinks = np.empty(0, dtype=code_dtype)
            drained, sources, sinks = sweeps.peel_shard_edges(
                lo, hi, bad_src, sources, sinks, metrics=metrics
            )
            resolved[lo:hi] = drained
            kept_sources.append(sources)
            kept_sinks.append(sinks)
            retained_bytes += sources.nbytes + sinks.nbytes
        shard_peak = max(
            shard_peak, n * (2 + plan.n_actions * (1 + code_dtype.itemsize))
        )
        del ctx, columns

    s_closure = ClosureResult(
        predicate_name=invariant.name,
        ok=True,
        checked=int(np.count_nonzero(s_mask)),
        witnesses=(),
    )
    t_closure = ClosureResult(
        predicate_name=fault_span.name,
        ok=True,
        checked=count if t_mask is None else int(np.count_nonzero(t_mask)),
        witnesses=(),
    )

    if deadlock_code is not None:
        convergence = ConvergenceResult(
            ok=False,
            fairness=fairness,
            span_states=span_count,
            bad_states=bad_count,
            counterexample=ConvergenceCounterexample(
                kind="deadlock",
                states=(codec.decode_state(deadlock_code),),
            ),
        )
    else:
        if kept_sources:
            sources = np.concatenate(kept_sources)
            sinks = np.concatenate(kept_sinks)
        else:
            sources = np.empty(0, dtype=code_dtype)
            sinks = np.empty(0, dtype=code_dtype)
        if sources.size:
            # The exchange: a sink drained by its own shard's local peel
            # deletes the edge (and with it the source's last obstacle).
            alive = ~resolved[sinks]
            sources = sources[alive]
            sinks = sinks[alive]
        if not sweeps.edge_list_acyclic(
            sources, sinks, bad_full & ~resolved, metrics=metrics
        ):
            return None  # a bad cycle survives: the SCC analysis needs CSR
        convergence = ConvergenceResult(
            ok=True,
            fairness=fairness,
            span_states=span_count,
            bad_states=bad_count,
        )

    _note_tarjan(metrics, 0)
    _emit_sweep(tracer, program, count, len(ranges), total_edges)
    if metrics is not None:
        metrics.counter("kernel.sweep.vectorized").add(len(ranges))
        if len(ranges) > 1:
            metrics.counter("kernel.shard.merged").add(len(ranges))
    mask_bytes = (
        s_mask.nbytes
        + (0 if t_mask is None else t_mask.nbytes)
        + bad_full.nbytes
        + resolved.nbytes
    )
    _note_memory_metrics(
        metrics,
        tracer,
        path="streaming",
        peak_bytes=mask_bytes + shard_peak + retained_bytes,
        code_bytes=code_dtype.itemsize,
        streaming=True,
    )

    return _mask_report(
        s_mask, t_mask, s_closure, t_closure, convergence, span_count
    )
