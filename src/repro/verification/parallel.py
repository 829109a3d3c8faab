"""Process-pool fan-out for batch verification jobs.

Programs hold opaque callables (guards, assignment right-hand sides), so
they cannot cross a process boundary. A batch job therefore ships
**picklable task specs** instead: each :class:`VerificationTask` names a
builder — ``"module:function"`` — that the worker imports and calls to
rebuild the instance locally, then verifies through a
:class:`~repro.verification.service.VerificationService`. Workers given
a shared ``cache_dir`` publish their verdicts to the same on-disk cache,
so a re-run of the batch (or a later sequential run) is answered from
disk.

Every batch runs on a :class:`WorkerPool`. A caller that verifies many
batches over its lifetime (the ``repro serve`` daemon) passes one in:
the pool opens on the first batch, stays warm across batches, so a
batch costs one pickle round trip instead of a fork, a run and a join,
and is shut down by its owner. A one-shot call (``repro verify-all``)
passes none, and :func:`run_batch` opens a pool, runs and closes it.

Results always come back in task order, regardless of which worker
finished first. The pool degrades gracefully: ``workers <= 1``, a task
that does not pickle, an executor that cannot start (restricted
environments), or a worker killed mid-batch or between batches (OOM,
signal — the pool reports :class:`BrokenProcessPool`) all fall back to
in-process sequential execution with identical results. A broken pool
is shut down on the spot; the next batch opens a fresh one.

:func:`run_on_pool` is the separate fresh-pool-per-call map used by the
kernel's sharded sweeps, whose workers inherit the compiled plan through
fork and so need a new fork per sweep.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from importlib import import_module
from multiprocessing import current_process
from typing import Any

from repro.core.errors import ValidationError
from repro.core.program import Program
from repro.core.state import State
from repro.kernel import StateCodec
from repro.observability import events as ev
from repro.observability.metrics import MetricsRegistry
from repro.observability.report import RunReport
from repro.observability.tracer import Tracer
from repro.quantitative import DEFAULT_FAULT_RATE
from repro.verification.service import VerificationService

__all__ = [
    "VerificationTask",
    "WorkerPool",
    "batch_report",
    "pack_states",
    "resolve_builder",
    "run_batch",
    "run_on_pool",
    "verdicts_ok",
]


@dataclass(frozen=True)
class VerificationTask:
    """One picklable unit of batch verification work.

    Attributes:
        case: Display name of the instance (keys result rows).
        builder: Dotted reference ``"package.module:function"`` to a
            top-level callable returning either ``(program, invariant)``
            or ``(program, invariant, fault_span)``.
        args: Positional arguments for the builder.
        kwargs: Keyword arguments for the builder (as a tuple of pairs so
            tasks stay hashable).
        fairness: Computation model for the convergence check.
        engine: Exploration engine, forwarded to the service
            (``"auto"``, ``"packed"`` or ``"dict"``).
        method: Verification method, forwarded to the service
            (``"auto"``, ``"full"`` or ``"compositional"``). Methods
            other than ``"full"`` only differ when ``design_builder``
            supplies the constraint-graph decomposition.
        design_builder: Optional dotted reference (same form as
            ``builder``) to a callable returning the instance's
            :class:`~repro.core.design.NonmaskingDesign`. When given it
            replaces ``builder`` — the worker verifies
            ``design.program`` against ``design.candidate.invariant``
            and the service may certify compositionally.
        packed_states: Optional explicit state subset as packed codes
            (the bytes from :func:`pack_states`). The mixed-radix codec
            is a pure function of the program's variable declarations, so
            the worker rebuilds it from the builder's program and decodes
            the same states — shipping ~8 bytes/state across the process
            boundary instead of pickled ``State`` dicts. Pass a
            ``states_key`` alongside, as for any explicit subset.
    """

    case: str
    builder: str
    args: tuple[Any, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()
    fairness: str = "weak"
    #: Extra cache discriminator, forwarded as ``states_key``.
    states_key: str | None = field(default=None)
    engine: str = "auto"
    packed_states: bytes | None = field(default=None)
    #: Full-space size guard, forwarded as ``max_states`` (None = default).
    max_states: int | None = field(default=None)
    #: Shard count for the packed engine's vectorized full-space sweep.
    shards: int | None = field(default=None)
    #: Verification method (``"auto"``, ``"full"`` or ``"compositional"``).
    method: str = "auto"
    #: Dotted reference to a NonmaskingDesign builder (enables the
    #: compositional method on the worker).
    design_builder: str | None = field(default=None)
    #: Peak-bytes target for the packed engine's full-space sweep
    #: (None = never stream). Never changes verdicts.
    memory_budget: int | None = field(default=None)
    #: Also run the quantitative analysis; the record gains
    #: ``"quantitative"`` (incompatible with method="compositional").
    quantify: bool = field(default=False)
    #: Fault-action weight for the quantify weighted expectation.
    fault_rate: float = field(default=DEFAULT_FAULT_RATE)


def pack_states(program: Program, states: Sequence[State]) -> bytes:
    """Encode a state list as packed codes for ``VerificationTask``.

    Raises:
        PackedUnsupported: if the program has an infinite domain or a
            state carries a value outside its variable's domain.
    """
    codec = StateCodec.for_program(program)
    return codec.pack_codes(codec.encode_state(state) for state in states)


def resolve_builder(reference: str):
    """Import the builder named by ``"module:function"``."""
    module_name, _, attribute = reference.partition(":")
    if not module_name or not attribute:
        raise ValidationError(
            f"builder reference {reference!r} is not of the form "
            "'package.module:function'"
        )
    module = import_module(module_name)
    try:
        return getattr(module, attribute)
    except AttributeError:
        raise ValidationError(
            f"module {module_name!r} has no attribute {attribute!r}"
        ) from None


def _execute(
    task: VerificationTask,
    cache_dir: str | None,
    tracer: Tracer | None = None,
) -> dict[str, Any]:
    """Build and verify one task; runs inside a worker or in-process.

    ``tracer`` is only ever non-``None`` on the sequential in-process
    path — tracers do not cross the process boundary.
    """
    started = time.perf_counter()
    if tracer is not None:
        tracer.emit(ev.WORKER_TASK_START, case=task.case)
    design = None
    if task.design_builder is not None:
        design = resolve_builder(task.design_builder)(
            *task.args, **dict(task.kwargs)
        )
        program, invariant = design.program, design.candidate.invariant
        fault_span = None
    else:
        builder = resolve_builder(task.builder)
        built = builder(*task.args, **dict(task.kwargs))
        if len(built) == 2:
            program, invariant = built
            fault_span = None
        else:
            program, invariant, fault_span = built
    service = VerificationService(cache_dir=cache_dir, tracer=tracer)
    states = None
    if task.packed_states is not None:
        codec = StateCodec.for_program(program)
        states = [
            codec.decode_state(code)
            for code in codec.unpack_codes(task.packed_states)
        ]
    verdict = service.verify_tolerance(
        program,
        invariant,
        fault_span,
        states,
        fairness=task.fairness,
        engine=task.engine,
        method=task.method,
        design=design,
        case=task.case,
        states_key=task.states_key,
        max_states=task.max_states,
        shards=task.shards,
        memory_budget=task.memory_budget,
        quantify=task.quantify,
        fault_rate=task.fault_rate,
    )
    record = dict(verdict.record)
    record["cached"] = verdict.cached
    record["cache_layer"] = verdict.cache_layer
    record["call_seconds"] = verdict.seconds
    record["worker"] = current_process().name
    record["task_seconds"] = time.perf_counter() - started
    if tracer is not None:
        tracer.emit(
            ev.WORKER_TASK_FINISH,
            case=task.case,
            worker=record["worker"],
            cached=record["cached"],
            task_seconds=record["task_seconds"],
        )
    return record


def _run_sequential(
    tasks: Sequence[VerificationTask],
    cache_dir: str | None,
    tracer: Tracer | None,
) -> list[dict[str, Any]]:
    return [_execute(task, cache_dir, tracer) for task in tasks]


def _picklable(tasks: Sequence[VerificationTask]) -> bool:
    # Probe one representative: tasks in a batch share their spec shape,
    # and ``submit`` pickles each task again anyway, so serializing the
    # whole tuple here would pay the full transport cost twice. A task
    # that defeats the probe (an unpicklable builder arg later in the
    # batch) is caught at submit time and degrades to sequential.
    try:
        pickle.dumps(tasks[0])
        return True
    except Exception:
        return False


class WorkerPool:
    """A process pool opened on first use and kept warm across batches.

    Pass one to :func:`run_batch` to run every batch on the same worker
    processes. A pool that breaks (a worker died) is shut down by
    :meth:`discard` and the next :meth:`executor` call opens a fresh
    one; :meth:`close` shuts it down for good. Safe to share between
    threads.

    Attributes:
        workers: Worker processes per opened pool.
        starts: Pools opened so far.
        replaced: Broken pools shut down so far.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self.starts = 0
        self.replaced = 0
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, opened on the first call after (re)start.

        Raises:
            RuntimeError: after :meth:`close`.
            OSError, ValueError: if the executor cannot start.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                self.starts += 1
            return self._executor

    def discard(self, executor: ProcessPoolExecutor) -> None:
        """Shut down ``executor`` after it broke; joins its workers."""
        with self._lock:
            if self._executor is not executor:
                return  # already replaced or closed
            self._executor = None
            self.replaced += 1
        executor.shutdown(wait=True, cancel_futures=True)

    def close(self, *, cancel: bool = False) -> None:
        """Shut the pool down and join its workers; ``cancel`` drops
        work still queued on it (work already running finishes)."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_on_pool(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: int,
) -> list[Any]:
    """Map ``fn`` over ``items`` on a process pool, **in item order**.

    The generic degradation contract shared by batch verification and
    the kernel's sharded sweeps: ``workers <= 1``, an executor that
    cannot start, a worker killed mid-run
    (:class:`~concurrent.futures.process.BrokenProcessPool`) or an
    argument that will not pickle all fall back to calling ``fn``
    sequentially in-process, so results are identical either way. A
    worker raising an ordinary exception is not masked — it propagates
    (and would propagate identically from the sequential path).
    """
    items = list(items)
    if not items:
        return []
    if workers <= 1 or len(items) == 1:
        return [fn(item) for item in items]
    try:
        executor = ProcessPoolExecutor(max_workers=min(workers, len(items)))
    except (OSError, ValueError):
        return [fn(item) for item in items]
    try:
        with executor:
            futures = [executor.submit(fn, item) for item in items]
            return [future.result() for future in futures]
    except (BrokenProcessPool, pickle.PicklingError, TypeError, AttributeError):
        # Pool infrastructure failure (a worker died, or transport could
        # not serialize): rerun everything in-process. Deterministic
        # worker errors re-raise here identically.
        return [fn(item) for item in items]


def run_batch(
    tasks: Sequence[VerificationTask],
    *,
    workers: int = 1,
    cache_dir: str | None = None,
    tracer: Tracer | None = None,
    pool: WorkerPool | None = None,
) -> list[dict[str, Any]]:
    """Verify every task, fanning out over a process pool.

    Returns one verdict record per task, **in task order**. Records are
    the JSON-able summaries of
    :class:`~repro.verification.service.ServiceVerdict`, extended with
    ``cached``, ``cache_layer``, ``call_seconds``, ``worker`` (the
    executing process name) and ``task_seconds`` (build + verify
    wall-clock inside that process).

    With a ``pool`` the batch runs on it and the pool stays open for
    the caller's next batch (``workers`` is then ignored). Without one,
    ``workers > 1`` opens a pool of ``min(workers, len(tasks))``
    processes for this batch only and closes it afterwards.

    Falls back to sequential in-process execution when no pool is given
    and ``workers <= 1``, when a task fails to pickle, when the process
    pool cannot be created, or when it breaks (a worker died): the
    broken pool is shut down first, so the next batch on ``pool`` opens
    a fresh one. A worker raising is not masked — the underlying
    verification error propagates, as it would sequentially.

    With a ``tracer``, the batch emits ``batch.start`` / ``batch.finish``
    around the run. On the sequential path the tracer is threaded into
    each task (``worker.task.start`` / ``worker.task.finish``, plus the
    service's cache events); pool workers cannot share the parent's
    tracer, so on the pool path one ``worker.task.finish`` event per
    task is replayed from the result records as they are collected.
    """
    tasks = list(tasks)
    if pool is not None:
        workers = pool.workers
    if tracer is not None:
        tracer.emit(
            ev.BATCH_START,
            tasks=len(tasks),
            workers=workers,
            cases=tuple(task.case for task in tasks),
        )
    started = time.perf_counter()
    if not tasks:
        records = []
    elif (pool is None and workers <= 1) or not _picklable(tasks):
        records = _run_sequential(tasks, cache_dir, tracer)
    elif pool is not None:
        records = _run_on(pool, tasks, cache_dir, tracer)
    else:
        with WorkerPool(min(workers, len(tasks))) as own:
            records = _run_on(own, tasks, cache_dir, tracer)
    if tracer is not None:
        tracer.emit(
            ev.BATCH_FINISH,
            tasks=len(records),
            workers=workers,
            wall_clock_seconds=time.perf_counter() - started,
            cache_hits=sum(1 for record in records if record["cached"]),
        )
    return records


def _run_on(
    pool: WorkerPool,
    tasks: list[VerificationTask],
    cache_dir: str | None,
    tracer: Tracer | None,
) -> list[dict[str, Any]]:
    try:
        executor = pool.executor()
    except (OSError, ValueError):
        return _run_sequential(tasks, cache_dir, tracer)
    futures = []
    try:
        for task in tasks:
            futures.append(executor.submit(_execute, task, cache_dir))
        records = []
        for future in futures:
            record = future.result()
            if tracer is not None:
                tracer.emit(
                    ev.WORKER_TASK_FINISH,
                    case=record["case"],
                    worker=record["worker"],
                    cached=record["cached"],
                    task_seconds=record["task_seconds"],
                )
            records.append(record)
        return records
    except BrokenProcessPool:
        # A worker died mid-batch or since the last batch (OOM, signal):
        # retire the pool so the next batch forks a fresh one, and rerun
        # sequentially. Completed tasks re-answer from the shared cache;
        # deterministic verification errors still propagate (they
        # reproduce sequentially).
        pool.discard(executor)
        return _run_sequential(tasks, cache_dir, tracer)
    except (pickle.PicklingError, TypeError, AttributeError):
        # A task past the representative probe failed to serialize; the
        # pool itself is healthy.
        return _run_sequential(tasks, cache_dir, tracer)
    finally:
        # After an error, drop this batch's queued work so the pool is
        # free for the next batch (no-op for finished futures).
        for future in futures:
            future.cancel()


def verdicts_ok(records: Sequence[dict[str, Any]]) -> bool:
    """Whether every record in a batch reports a passing verification."""
    return all(record["ok"] for record in records)


def batch_report(
    records: Sequence[dict[str, Any]],
    *,
    wall_clock_seconds: float | None = None,
    workers: int | None = None,
) -> RunReport:
    """Aggregate a batch's records into a run report.

    Counters: ``tasks``, ``ok`` / ``failed``, ``cache.hit`` /
    ``cache.miss``. Timers: ``task`` over every task's in-process
    wall-clock, ``verify`` over the service-call portion, and one
    ``worker.<name>`` timer per executing process — so the per-worker
    totals sum to the ``task`` total, and (for a cold parallel run) the
    largest per-worker total lower-bounds the batch wall-clock recorded
    in ``BENCH_verification.json``.
    """
    registry = MetricsRegistry()
    tasks = registry.counter("tasks")
    for record in records:
        tasks.add()
        registry.counter("ok" if record["ok"] else "failed").add()
        registry.counter("cache.hit" if record["cached"] else "cache.miss").add()
        registry.timer("task").record(record["task_seconds"])
        registry.timer("verify").record(record["call_seconds"])
        registry.timer(f"worker.{record['worker']}").record(record["task_seconds"])
    meta: dict[str, Any] = {}
    if workers is not None:
        meta["workers"] = workers
    if wall_clock_seconds is not None:
        meta["wall_clock_seconds"] = round(wall_clock_seconds, 6)
    return registry.report(**meta)
