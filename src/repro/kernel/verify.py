"""Packed-engine T-tolerance verification.

``check_tolerance_packed`` reproduces the dict engine of
:func:`repro.verification.checker._check_tolerance` bit-for-bit — same
verdicts, same closure witnesses in the same order, same error messages
— but runs on packed codes, as one sweep and one decision:

- **The sweep.** The state set — the full space, or a supplied list
  encoded once to codes — is swept **once** into a :class:`FullSpaceCSR`:
  the ``S``/``T`` membership masks and the complete successor graph as
  flat arrays, each successor resolved to its row. The dict engine walks
  the states four times (implication, two closures, span construction)
  and re-executes every action per walk. With numpy, full-space sweeps
  of large instances run vectorized (:mod:`repro.kernel.sweeps`, over
  one or more in-process code ranges planned by :mod:`repro.kernel.shard`)
  through :func:`vectorized_csr`, the one gate of that path, into numpy
  arrays. Every other state set — and every run without numpy — takes
  the pure-Python row loop, into ``array``/``bytearray`` buffers.
- **The decision.** One sequence reads either CSR: implication, both
  closure scans, the escape check, the ``T``-span carve, the first bad
  deadlock, the Kahn peel of the bad span states, and the exact SCC
  analysis (:func:`check_convergence`) of only the bad states that never
  peel, for its counterexample. Each step is an array primitive of
  :mod:`repro.kernel.sweeps` with a numpy and a numpy-free form side by
  side; the CSR's array type picks the form, and nothing else differs
  between the two backends.

:func:`check_tolerance_swept` also returns the CSR, with the peel's
levels, when the state set is closed, so a caller that needs more than
the verdict (``quantify=True``) reuses the sweep instead of repeating
it. Under a ``memory_budget`` the vectorized path may answer with a
streaming count-only verdict instead, which never holds the CSR.

Only the row loop meets a successor that is no row — a code missing
from a supplied list, or a value that leaves its variable's domain. It
keeps that successor as a :class:`State` in an ``outside`` list, so
closure witnesses and escape errors match the dict engine exactly.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class FullSpaceCSR:
    """The successor graph one packed sweep produced and its verdict read.

    Row ``i`` is the state with code ``i`` on the full space, and the
    ``i``-th supplied state otherwise; its successor rows are
    ``targets[offsets[i]:offsets[i + 1]]`` in action order, produced by
    ``action_ids``. ``t_mask`` is ``None`` when ``T`` is ``TRUE``. The
    array type is the backend: numpy arrays from the vectorized sweep
    (``shards`` > 0), ``array``/``bytearray`` buffers from the scalar row
    loop (``shards == 0``). Both go through the same decision. It lives
    for one request: never put it on a cached report, in a record, or in
    a pickle.

    ``levels`` are the verdict's Kahn peel levels
    (:func:`~repro.kernel.sweeps.bad_region_acyclic`, or its numpy-free
    twin :func:`~repro.kernel.sweeps.scalar_peel`), indexed by row: the
    round each bad ``T``-state peels in, ``-1`` for a bad state that
    never peels and for every good or non-span state. The verdict sets
    them whenever it ran the peel, and leaves them ``None`` on a bad
    deadlock or when ``T`` is not closed, so a quantify request over
    this CSR reads them instead of peeling again.
    """

    s_mask: Any
    t_mask: Any
    offsets: Any
    targets: Any
    action_ids: Any
    action_names: tuple[str, ...]
    #: Code ranges the vectorized sweep ran over; 0 for the scalar sweep.
    shards: int = 0
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
    the report of :func:`check_tolerance_swept` (which documents the
    options) over ``states`` encoded once, or over the full space."""
    codes = None
    if states is not None:
        kernel = compile_program(
            program, tracer=options.get("tracer"), metrics=options.get("metrics")
        )
        codes = kernel.codec.encode_states(states)
    return check_tolerance_swept(
        program, invariant, fault_span, codes, **options
    )[0]


def check_tolerance_swept(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate,
    codes: Sequence[int] | None = None,
    *,
    fairness: str = "weak",
    max_states: int | None = None,
    shards: int | None = None,
    memory_budget: int | None = None,
    tracer=None,
    metrics=None,
) -> tuple[ToleranceReport, FullSpaceCSR | None]:
    """The packed verdict, plus the graph it swept.

    The graph is ``None`` when there is none to reuse: a verdict the
    streaming path answered, or a successor that is no row (a code
    missing from ``codes``, or a value outside its variable's domain),
    so the state set is not closed.

    Args:
        codes: The state set as packed codes
            (:meth:`~repro.kernel.codec.StateCodec.encode_states`), row
            ``i`` being ``codes[i]``; or ``None`` for the program's full
            state space (the fast path: row ``i`` is code ``i``, so codes
            are enumerated, never encoded).
        max_states: Full-space size guard; ``None`` means
            :data:`~repro.core.state.DEFAULT_MAX_STATES`. Uses the same
            comparison and message as
            :func:`~repro.core.state.enumerate_states`, so both engines
            agree — verdict or identical error — at the boundary.
        shards: How many in-process code ranges the vectorized
            full-space sweep runs over (``None`` = auto heuristic, see
            :func:`~repro.kernel.shard.plan_shards`). The range count
            never changes results; it is ignored on the scalar fallback
            paths.
        memory_budget: Peak-bytes target for the vectorized full-space
            sweep. When the materialized CSR estimate exceeds it, the
            streaming count-only verdict path runs instead (peak memory
            O(shard), not O(space)), falling back to the materialized
            sweep the moment a witness must be decoded. Never changes
            results — it is a memory/latency trade, so it is *not* part
            of any cache key. ``None`` (the default) never streams;
            scalar paths ignore it.

    Raises:
        PackedUnsupported: if the program cannot be packed;
            ``engine="auto"`` callers catch this and fall back.
    """
    kernel = compile_program(program, tracer=tracer, metrics=metrics)
    table_entries_before = kernel.table_entries() if metrics is not None else 0
    size = kernel.codec.size
    csr = None
    if codes is None:
        # Same guard (comparison and message) as ``enumerate_states`` on
        # the dict path, with the caller's limit threaded through.
        limit = DEFAULT_MAX_STATES if max_states is None else max_states
        if size > limit:
            raise StateSpaceTooLargeError(
                f"state space has {size} states, above the limit of {limit}"
            )

        def streamed(plan, ranges):
            # Stream only above the budget; a streamed ``None`` (a
            # witness must be decoded) materializes the CSR.
            if (
                memory_budget is None
                or _materialized_bytes(plan, size) <= memory_budget
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
        if isinstance(csr, ToleranceReport):
            _note_sweep_metrics(kernel, metrics, table_entries_before, size)
            return csr, None  # streamed: no CSR to hand on
    outside: list[tuple[int, State]] = []
    if csr is None:
        csr, outside = _scalar_csr(kernel, invariant, fault_span, codes)
    else:
        _emit_sweep(tracer, program, size, csr.shards, int(csr.offsets[-1]))
    _note_sweep_metrics(kernel, metrics, table_entries_before, len(csr.s_mask))
    return _decide(
        kernel.codec, csr, codes, outside, invariant, fault_span,
        fairness=fairness, tracer=tracer, metrics=metrics,
    )


def _scalar_csr(
    kernel: PackedKernel,
    invariant: Predicate,
    fault_span: Predicate,
    codes: Sequence[int] | None,
) -> tuple[FullSpaceCSR, list[tuple[int, State]]]:
    """The pure-Python row loop: ``(csr, outside)`` over the state set.

    ``outside[k]`` is ``(row, successor)`` for the ``k``-th successor
    that is no row (a code missing from ``codes``, or a raw
    :class:`State` carrying an out-of-domain value); the CSR holds it
    inline as target ``-(k + 1)``, so witness and escape order match
    the dict engine.
    """
    codec = kernel.codec
    if codes is None:
        count = codec.size
        rows = kernel.iter_space()
        row_of = None  # row == code
    else:
        count = len(codes)
        rows = ((code, *kernel.analyze_code(code)) for code in codes)
        # Last occurrence wins, like the dict engine's {state: position}.
        row_of = {code: row for row, code in enumerate(codes)}
    s_fn = kernel.predicate_fn(invariant)
    # TRUE is the stabilization fault-span; skip 1 call/state for it.
    t_fn = None if fault_span is TRUE else kernel.predicate_fn(fault_span)
    successor_fns = tuple(
        (action_id, action.successor)
        for action_id, action in enumerate(kernel.actions)
    )
    # 32-bit whenever ``count * n_actions`` fits (which bounds rows, edge
    # counts and ``outside`` sentinels alike), else 64-bit; never int16,
    # because sentinels count edges, not rows.
    edge_bound = count * max(1, len(kernel.actions))
    typecode = "i" if edge_bound <= 2**31 - 1 else "q"
    offsets = array(typecode, [0])
    entries = array(typecode)
    action_ids = array("h")
    outside: list[tuple[int, State]] = []
    entries_append = entries.append
    ids_append = action_ids.append
    offsets_append = offsets.append
    s_mask = bytearray(count)
    t_mask = None if t_fn is None else bytearray(count)
    for row, (code, digits, values) in enumerate(rows):
        if s_fn(values):
            s_mask[row] = 1
        if t_fn is not None and t_fn(values):
            t_mask[row] = 1
        for action_id, successor_fn in successor_fns:
            successor = successor_fn(code, digits, values)
            if successor is None:
                continue
            if type(successor) is int:
                target = successor if row_of is None else row_of.get(successor)
                if target is not None:
                    entries_append(target)
                    ids_append(action_id)
                    continue
                successor = codec.decode_state(successor)
            entries_append(-len(outside) - 1)
            outside.append((row, successor))
            ids_append(action_id)
        offsets_append(len(entries))
    csr = FullSpaceCSR(
        s_mask, t_mask, offsets, entries, action_ids, kernel.action_names
    )
    return csr, outside


def _decide(
    codec,
    csr: FullSpaceCSR,
    codes: Sequence[int] | None,
    outside: list[tuple[int, State]],
    invariant: Predicate,
    fault_span: Predicate,
    *,
    fairness: str,
    tracer,
    metrics,
) -> tuple[ToleranceReport, FullSpaceCSR | None]:
    """The verdict over one swept :class:`FullSpaceCSR`, on either backend.

    Implication; the ``S`` and ``T`` closure scans; the escape check;
    the ``T``-span carve; the first bad deadlock; the Kahn peel; the
    exact SCC analysis of the bad states the peel leaves behind; the
    levels put back onto rows. Every step is one primitive of
    :mod:`repro.kernel.sweeps`, looked up on the module per call, in its
    numpy form for a vectorized CSR and its numpy-free form otherwise.
    Returns the report and the CSR carrying the levels, or ``None`` in
    the CSR's place when some successor is ``outside``.
    """
    s_mask, t_mask = csr.s_mask, csr.t_mask
    offsets, targets, action_ids = csr.offsets, csr.targets, csr.action_ids
    names = csr.action_names
    count = len(s_mask)
    if csr.vectorized:
        count_rows, scan, carve, first_deadlock, unpeeled, by_row = (
            sweeps.count_rows, sweeps.closure_scan, sweeps.carve_span,
            sweeps.first_bad_deadlock, sweeps.unpeeled_rows, sweeps.levels_by_row,
        )

        def peel(bad, offsets, targets):
            return sweeps.bad_region_acyclic(bad, offsets, targets, metrics=metrics)
    else:
        count_rows, scan, carve, first_deadlock, unpeeled, by_row = (
            sweeps.scalar_count_rows, sweeps.scalar_closure_scan,
            sweeps.scalar_carve_span, sweeps.scalar_first_bad_deadlock,
            sweeps.scalar_unpeeled_rows, sweeps.scalar_levels_by_row,
        )
        peel = sweeps.scalar_peel

    def state_of(row) -> State:
        return codec.decode_state(int(row) if codes is None else codes[row])

    def witness(edge: int) -> ClosureWitness:
        target = targets[edge]
        return ClosureWitness(
            before=state_of(bisect_right(offsets, edge) - 1),
            action_name=names[action_ids[edge]],
            after=outside[-target - 1][1] if target < 0 else state_of(target),
        )

    def closure(mask, predicate: Predicate) -> ClosureResult:
        if mask is None:
            # TRUE holds on every successor (raw or not): the scan cannot
            # produce a witness, and ``checked`` is the full state count.
            return ClosureResult(
                predicate_name=predicate.name, ok=True, checked=count, witnesses=()
            )
        # A successor that is no row is decided by the predicate itself,
        # asked only when the scan reaches it, as the dict engine does.
        holds = {"outside": lambda k: predicate(outside[k][1])} if outside else {}
        ok, checked, edges = scan(
            mask, offsets, targets, max_witnesses=_MAX_WITNESSES, **holds
        )
        return ClosureResult(
            predicate_name=predicate.name,
            ok=ok,
            checked=checked,
            witnesses=tuple(witness(edge) for edge in edges),
        )

    implication_ok = t_mask is None or not count_rows(s_mask, t_mask)
    s_closure = closure(s_mask, invariant)
    t_closure = closure(t_mask, fault_span)
    if t_mask is None:
        span_count, bad_count = count, count - count_rows(s_mask)
    else:
        span_count, bad_count = count_rows(t_mask), count_rows(t_mask, s_mask)
    held = [s_mask, t_mask, offsets, targets, action_ids]
    handed = 0
    if not t_closure.ok:
        # T is not closed, so convergence relative to T is undefined;
        # report it failed without a counterexample.
        convergence = ConvergenceResult(
            ok=False, fairness=fairness, span_states=span_count, bad_states=bad_count
        )
    elif outside and (t_mask is None or any(t_mask[row] for row, _ in outside)):
        # T-states stepping outside the supplied set even though T is
        # closed: the caller gave a strict subset of the instance.
        raise ValueError(
            "the supplied states do not contain every successor of a "
            "T-state; pass the full extension of T on this instance"
        )
    else:
        span_rows, bad, span_offsets, span_targets, span_ids = carve(
            s_mask, t_mask, offsets, targets, action_ids
        )
        held += [bad, span_offsets, span_targets, span_ids]
        deadlock = first_deadlock(bad, span_offsets)
        if deadlock is not None:
            row = deadlock if span_rows is None else span_rows[deadlock]
            convergence = ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=span_count,
                bad_states=bad_count,
                counterexample=ConvergenceCounterexample(
                    kind="deadlock", states=(state_of(row),)
                ),
            )
        else:
            # With no bad deadlock and no bad cycle convergence holds
            # under any fairness. Otherwise only the bad states that
            # never peeled can lie on a cycle, so only they reach the
            # exact checker; the span system stays whole, so weak
            # fairness still sees every labelled edge.
            levels = peel(bad, span_offsets, span_targets)
            stuck = unpeeled(bad, levels)
            if stuck:
                handed = len(stuck)
                rows = range(count) if span_rows is None else span_rows
                span_codes = rows if codes is None else [codes[row] for row in rows]
                convergence = check_convergence(
                    TransitionSystem(
                        None, span_offsets, span_targets, span_ids, names,
                        codec=codec, codes=span_codes,
                    ),
                    fairness,
                    stuck,
                    bad_count,
                )
            else:
                convergence = ConvergenceResult(
                    ok=True,
                    fairness=fairness,
                    span_states=span_count,
                    bad_states=bad_count,
                )
            if not outside:
                row_levels = (
                    levels if span_rows is None
                    else by_row(levels, span_rows, count)
                )
                csr = replace(csr, levels=row_levels)
                held += [levels, row_levels]
    _note_tarjan(metrics, handed)
    distinct = {id(buffer): buffer for buffer in held if buffer is not None}
    _note_memory_metrics(
        metrics,
        tracer,
        path="vectorized" if csr.vectorized else "scalar",
        peak_bytes=sum(_nbytes(buffer) for buffer in distinct.values()),
        code_bytes=targets.itemsize,
    )
    report = _report(implication_ok, s_closure, t_closure, convergence, count)
    return report, None if outside else csr


def _report(
    implication_ok: bool,
    s_closure: ClosureResult,
    t_closure: ClosureResult,
    convergence: ConvergenceResult,
    count: int,
) -> ToleranceReport:
    """The report of every packed verdict, materialized or streamed.

    ``S = T`` (masking) exactly when ``S ⇒ T`` and no ``T``-state is
    bad, and the span is the whole state set exactly when the program
    stabilizes.
    """
    masking = implication_ok and not convergence.bad_states
    return ToleranceReport(
        ok=implication_ok and s_closure.ok and t_closure.ok and convergence.ok,
        implication_ok=implication_ok,
        s_closure=s_closure,
        t_closure=t_closure,
        convergence=convergence,
        classification="masking" if masking else "nonmasking",
        stabilizing=convergence.span_states == count,
        total_states=count,
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


def _nbytes(buffer) -> int:
    """Resident bytes of a numpy array, an ``array`` or a ``bytearray``."""
    return getattr(buffer, "itemsize", 1) * len(buffer)


def _note_memory_metrics(
    metrics,
    tracer,
    *,
    path: str,
    peak_bytes: int,
    code_bytes: int,
    streaming: bool = False,
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
    """The full space as a vectorized CSR, or ``None``.

    The one gate of the vectorized sweep. It returns ``None``, and the
    caller stays on its scalar route, when numpy is missing, when the
    space is too small to pay numpy's fixed overhead (unless ``shards``
    was requested explicitly), or when any construct falls outside the
    vectorized fragment (:class:`~repro.kernel.sweeps.SweepUnsupported`,
    raised while planning or while sweeping). ``shards`` is the number
    of in-process code ranges swept and merged
    (:func:`~repro.kernel.shard.plan_shards`).

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
        merged = sharding.sweep_merged(plan, ranges, metrics=metrics)
    except sweeps.SweepUnsupported:
        return None
    return FullSpaceCSR(*merged, kernel.action_names, shards=len(ranges))


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
        predicate_name=fault_span.name, ok=True, checked=span_count, witnesses=()
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

    implication_ok = t_mask is None or not sweeps.count_rows(s_mask, t_mask)
    return _report(implication_ok, s_closure, t_closure, convergence, count)
