"""``repro serve`` — the asynchronous verification daemon.

Everything below the CLI in this library is one-shot: build an instance,
verify it, exit. This module turns the cached
:class:`~repro.verification.service.VerificationService`, the sharded
:class:`~repro.verification.store.VerdictStore` and the
:mod:`repro.verification.parallel` worker pool into a long-running
HTTP/JSON daemon (stdlib ``asyncio`` only — no new dependencies):

- ``POST /verify`` — tolerance verification of a library case, answered
  in the pinned :meth:`ServiceVerdict.to_json` record schema;
- ``POST /lint`` — the :mod:`repro.staticcheck` passes for a case;
- ``POST /simulate`` — seeded stabilization trials for a case;
- ``GET /healthz`` — liveness probe, served straight off the event loop
  (it answers even while every worker is busy);
- ``GET /stats`` — request, cache, store, dedup and worker-pool counters.

Three scaling mechanisms sit between the socket and the checkers:

1. **content-addressed dedup** — every request is fingerprinted with
   :mod:`repro.core.fingerprint` (through
   :func:`~repro.verification.service.tolerance_fingerprint`, so daemon
   and service address the same cache entries); a request whose verdict
   is already cached is answered inline, and concurrent *in-flight*
   duplicates coalesce onto the first request's future — N identical
   concurrent requests cause exactly one verification;
2. **group-commit batching** — a cache-missing verify request is
   dispatched as soon as the batch dispatcher is free: with no batch in
   flight it goes out at once, alone; misses that arrive while a batch
   runs form the next one (up to ``max_batch``). Each batch is one
   :func:`~repro.verification.parallel.run_batch` call, honouring each
   request's ``engine=``/``method=``, on one
   :class:`~repro.verification.parallel.WorkerPool` that forks when the
   daemon starts and stays warm for its lifetime (replaced when a
   worker dies, shut down after the drain), so no verification holds
   the event loop's interpreter. The dispatcher thread ingests the
   results into the service (and its store) before the waiting
   requests are answered, so later duplicates are memory hits;
3. **the sharded verdict store** — with ``cache_dir=`` verdicts persist
   in bucketed directories with an LRU warm tier and size-bounded
   eviction (``store_entries``/``store_bytes``), so a restarted daemon
   keeps its corpus warm within budget.

The event loop does every request's O(1) bookkeeping itself: it keys a
request from the memoized keys of its instance (a ``quantify`` key is
derived from the plain one, whatever the fault rate), probes the cache
layers and answers or enqueues. Only O(program) or verification work
goes to an executor thread: the first key build of an instance or
program (concurrent first sights share it), a cold ``/lint`` or
``/simulate`` compute, and each batch dispatch. ``requests.executor``
in ``GET /stats`` counts those hand-offs; a warm request is one loop
turn and adds none.

Observability: ``service.request.*`` and ``store.*`` events/counters,
and the ``service.batch.wait`` (enqueue to dispatch, per miss) and
``service.batch.compute`` (dispatch to records back, per batch) timers,
flow through :mod:`repro.observability` into ``GET /stats`` and
:meth:`VerificationDaemon.report`. See ``docs/SERVICE.md`` for the
endpoint reference and operations guide.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.errors import ValidationError
from repro.core.fingerprint import fingerprint_program, key_kind
from repro.observability import events as ev
from repro.observability.metrics import MetricsRegistry, Timer
from repro.observability.report import RunReport
from repro.observability.tracer import Tracer
from repro.quantitative import (
    DEFAULT_FAULT_RATE,
    QuantitativeUnsupported,
    require_numpy,
)
from repro.verification.explorer import validate_engine
from repro.verification.parallel import VerificationTask, WorkerPool, run_batch
from repro.verification.service import (
    MEMO_CAPACITY,
    VerificationService,
    quantify_fingerprint,
    tolerance_fingerprint,
    validate_method,
)
from repro.verification.store import VerdictStore

__all__ = ["DaemonThread", "VerificationDaemon", "serve"]

#: Response keys the daemon adds to every verdict record it returns.
PROVENANCE_KEYS = ("cached", "cache_layer", "call_seconds", "deduped")

#: Record keys that are per-call provenance, not verdict content — they
#: are stripped before a pool record is ingested into the cache.
_TRANSIENT_KEYS = frozenset(
    {"cached", "cache_layer", "call_seconds", "worker", "task_seconds"}
)

_JSON_HEADERS = "Content-Type: application/json\r\n"

_FAIRNESS = ("weak", "none")


def _timer_ms(timer: Timer) -> dict[str, float]:
    return {
        "count": timer.count,
        "mean_ms": timer.mean * 1000,
        "max_ms": timer.max * 1000,
    }


class RequestError(Exception):
    """A malformed or unanswerable request — becomes an HTTP 4xx."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _Pending:
    """One cache-missing verify request waiting for a batch slot."""

    task: VerificationTask
    #: Resolved-method -> cache fingerprint ("full" and, when a design
    #: exists, "compositional").
    keys: dict[str, str]
    future: asyncio.Future = field(repr=False)
    #: ``time.perf_counter()`` when the miss was queued.
    enqueued: float = field(default_factory=time.perf_counter)


class VerificationDaemon:
    """The asyncio HTTP/JSON verification daemon behind ``repro serve``.

    Args:
        host: Interface to bind (default loopback).
        port: TCP port; ``0`` binds an ephemeral port (read
            :attr:`port` after :meth:`start`).
        cache_dir: Root of the sharded verdict store; ``None`` keeps
            verdicts in memory only.
        workers: Process-pool width for verification misses (``1`` =
            compute in the dispatcher thread). The pool forks in
            :meth:`start` and is kept warm until :meth:`stop`.
        max_batch: Largest batch handed to the pool at once.
        store_shards: Bucket directories in the verdict store.
        warm_capacity: Decoded records kept in the store's LRU warm tier.
        store_entries: Evict beyond this many persisted verdicts.
        store_bytes: Evict beyond this on-disk footprint.
        service: Pre-built service (tests); overrides ``cache_dir``.
        tracer: Optional tracer for ``service.request.*`` / ``store.*``
            events.
        metrics: Metrics registry; created internally when omitted so
            ``/stats`` always has counters.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8421,
        cache_dir: str | Path | None = None,
        workers: int = 2,
        max_batch: int = 16,
        store_shards: int = 16,
        warm_capacity: int = 128,
        store_entries: int | None = None,
        store_bytes: int | None = None,
        service: VerificationService | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.max_batch = max(1, max_batch)
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if service is not None:
            self.service = service
            self.store = service.store
        else:
            self.store = (
                VerdictStore(
                    cache_dir,
                    shards=store_shards,
                    warm_capacity=warm_capacity,
                    max_entries=store_entries,
                    max_bytes=store_bytes,
                    tracer=tracer,
                    metrics=self.metrics,
                )
                if cache_dir is not None
                else None
            )
            self.service = VerificationService(
                store=self.store, tracer=tracer, metrics=self.metrics
            )
        self._server: asyncio.base_events.Server | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers + 1, thread_name_prefix="repro-serve"
        )
        self._pool = WorkerPool(self.workers)
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: list[_Pending] = []
        self._batch_wakeup: asyncio.Event | None = None
        self._batcher: asyncio.Task | None = None
        self._open_requests = 0
        self._drained: asyncio.Event | None = None
        self._started_monotonic = time.monotonic()
        #: (case, size, fairness, with_design) -> plain keys by method,
        #: and ("program", case, size) -> program key, each held as the
        #: future of its executor-thread build; least recently used
        #: evicted first. One entry per instance, whatever the fault
        #: rates asked of it. Touched by the event loop only.
        self._key_cache: OrderedDict[tuple, asyncio.Future] = OrderedDict()
        self._wait_timer = self.metrics.timer("service.batch.wait")
        self._compute_timer = self.metrics.timer("service.batch.compute")
        self.requests = {
            "total": 0,
            "verify": 0,
            "quantify": 0,
            "lint": 0,
            "simulate": 0,
            "healthz": 0,
            "stats": 0,
            "deduped": 0,
            "errors": 0,
            "batches": 0,
            "batched_tasks": 0,
            "computed": 0,
            # Hand-offs of request work to an executor thread.
            "executor": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket; :attr:`port` is the real port."""
        # Import what a miss runs before the pool forks: every worker
        # inherits it instead of importing it on its first task, and a
        # later fork (a replaced pool) cannot catch these imports half
        # done.
        import repro.compositional  # noqa: F401
        import repro.kernel.shard  # noqa: F401
        import repro.kernel.verify  # noqa: F401
        import repro.protocols.library  # noqa: F401
        import repro.staticcheck  # noqa: F401

        if self.workers > 1:
            # Fork before any executor thread can be inside an import
            # (see WorkerPool.start), and before the listening socket
            # exists for the workers to inherit. A pool that cannot
            # start leaves batches to the in-process fallback.
            try:
                self._pool.start()
            except (OSError, ValueError):
                pass
        self._batch_wakeup = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        self._batcher = asyncio.ensure_future(self._batch_loop())

    async def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting connections and (by default) drain in-flight work.

        With ``drain=True`` every accepted request — including queued
        batch members — is answered before the daemon shuts its worker
        pool down; ``drain=False`` abandons them (their connections are
        reset) and cancels batch work still queued on the pool. Either
        way every pool worker has been joined when this returns.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._drained is not None:
            try:
                await asyncio.wait_for(self._drained.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        self._executor.shutdown(wait=drain)
        self._pool.close(cancel=not drain)

    @property
    def inflight(self) -> int:
        """Requests accepted but not yet answered."""
        return self._open_requests

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionResetError,
                ):
                    break
                try:
                    method, path, headers = self._parse_head(head)
                except RequestError as error:
                    await self._respond(
                        writer, error.status, {"error": str(error)}, close=True
                    )
                    break
                length = int(headers.get("content-length", "0") or 0)
                body = await reader.readexactly(length) if length else b""
                close = headers.get("connection", "").lower() == "close"
                self._open_requests += 1
                self._drained.clear()
                try:
                    status, payload = await self._dispatch(method, path, body)
                finally:
                    self._open_requests -= 1
                    if self._open_requests == 0:
                        self._drained.set()
                await self._respond(writer, status, payload, close=close)
                if close:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:
            raise RequestError("undecodable request head") from None
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise RequestError(f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        path = target.split("?", 1)[0]
        return method.upper(), path, headers

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        close: bool = False,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 500: "Internal Server Error"}
        body = json.dumps(payload, sort_keys=True).encode()
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"{_JSON_HEADERS}"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        started = time.perf_counter()
        endpoint = path.strip("/") or "index"
        self.requests["total"] += 1
        if self.metrics is not None:
            self.metrics.counter("service.request.total").add()
            self.metrics.counter(f"service.request.{endpoint}").add()
        if self.tracer is not None:
            self.tracer.emit(
                ev.SERVICE_REQUEST_START, endpoint=endpoint, method=method
            )
        try:
            status, payload = await self._route(method, path, body)
        except RequestError as error:
            self.requests["errors"] += 1
            if self.metrics is not None:
                self.metrics.counter("service.request.error").add()
            status, payload = error.status, {"error": str(error)}
        except ValidationError as error:
            self.requests["errors"] += 1
            if self.metrics is not None:
                self.metrics.counter("service.request.error").add()
            status, payload = 400, {"error": str(error)}
        except Exception as error:  # pragma: no cover - defensive
            self.requests["errors"] += 1
            if self.metrics is not None:
                self.metrics.counter("service.request.error").add()
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        seconds = time.perf_counter() - started
        if self.metrics is not None:
            self.metrics.timer("service.request.seconds").record(seconds)
        if self.tracer is not None:
            self.tracer.emit(
                ev.SERVICE_REQUEST_FINISH,
                endpoint=endpoint,
                status=status,
                seconds=seconds,
            )
        return status, payload

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        if path in ("/", ""):
            return 200, {
                "service": "repro",
                "endpoints": ["/verify", "/lint", "/simulate",
                              "/healthz", "/stats"],
            }
        if path == "/healthz":
            self.requests["healthz"] += 1
            if method != "GET":
                raise RequestError("use GET /healthz", status=405)
            return 200, self._healthz()
        if path == "/stats":
            self.requests["stats"] += 1
            if method != "GET":
                raise RequestError("use GET /stats", status=405)
            return 200, self.stats()
        if path == "/verify":
            if method != "POST":
                raise RequestError("use POST /verify", status=405)
            self.requests["verify"] += 1
            return 200, await self._handle_verify(self._json_body(body))
        if path == "/lint":
            if method != "POST":
                raise RequestError("use POST /lint", status=405)
            self.requests["lint"] += 1
            return 200, await self._handle_lint(self._json_body(body))
        if path == "/simulate":
            if method != "POST":
                raise RequestError("use POST /simulate", status=405)
            self.requests["simulate"] += 1
            return 200, await self._handle_simulate(self._json_body(body))
        raise RequestError(f"no such endpoint {path!r}", status=404)

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as error:
            raise RequestError(f"request body is not JSON: {error}") from None
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # /verify
    # ------------------------------------------------------------------

    def _normalize_case(self, body: dict[str, Any]) -> tuple[str, int]:
        from repro.protocols.library import CASES

        case = body.get("case")
        if not isinstance(case, str):
            raise RequestError('"case" (a library case name) is required')
        entry = CASES.get(case)
        if entry is None:
            raise RequestError(
                f"unknown verification case {case!r}; known cases: "
                f"{', '.join(CASES)}"
            )
        size = body.get("size", entry.default_size)
        if not isinstance(size, int) or size < 1:
            raise RequestError(f'"size" must be a positive integer, got {size!r}')
        return case, size

    def _normalize_verify(self, body: dict[str, Any]) -> dict[str, Any]:
        allowed = {"case", "size", "fairness", "engine", "method",
                   "quantify", "fault_rate"}
        unknown = set(body) - allowed
        if unknown:
            raise RequestError(
                f"unknown /verify fields {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        case, size = self._normalize_case(body)
        fairness = body.get("fairness", "weak")
        if fairness not in _FAIRNESS:
            raise RequestError(
                f"unknown fairness {fairness!r}; expected one of {_FAIRNESS}"
            )
        engine = body.get("engine", "auto")
        method = body.get("method", "auto")
        try:
            validate_engine(engine)
            validate_method(method)
        except ValidationError as error:
            raise RequestError(str(error)) from None
        quantify = body.get("quantify", False)
        if not isinstance(quantify, bool):
            raise RequestError(f'"quantify" must be a boolean, got {quantify!r}')
        fault_rate = body.get("fault_rate", DEFAULT_FAULT_RATE)
        if isinstance(fault_rate, bool) or not isinstance(
            fault_rate, (int, float)
        ) or not fault_rate > 0:
            raise RequestError(
                f'"fault_rate" must be a positive number, got {fault_rate!r}'
            )
        if quantify and method == "compositional":
            raise RequestError(
                '"quantify" needs state-space exploration; it cannot be '
                'combined with method "compositional"'
            )
        if quantify:
            # Refused up front, not as a failed batch (a 500).
            try:
                require_numpy()
            except QuantitativeUnsupported as error:
                raise RequestError(str(error)) from None
        return {
            "case": case,
            "size": size,
            "fairness": fairness,
            "engine": engine,
            "method": method,
            "quantify": quantify,
            "fault_rate": float(fault_rate),
        }

    async def _verify_keys(self, params: dict[str, Any]) -> dict[str, str]:
        """Cache fingerprints for a verify request, by resolved method.

        The plain keys of each distinct ``(case, size, fairness,
        design?)`` instance are built once, on an executor thread
        (:meth:`_memo_key`), and the
        :data:`~repro.verification.service.MEMO_CAPACITY` most recently
        used stay memoized (library builders are deterministic,
        so the fingerprints are too). A request for a memoized instance
        is keyed on the loop: a ``quantify`` key is derived from the
        plain full key (:func:`quantify_fingerprint`), one SHA-256
        whatever the fault rate.
        """
        from repro.protocols.library import CASES

        quantify = params["quantify"]
        # Quantification composes with full exploration only, so a
        # quantify request never probes (or certifies) compositionally.
        with_design = (
            not quantify
            and params["method"] != "full"
            and CASES[params["case"]].build_design is not None
        )
        memo_key = (
            params["case"], params["size"], params["fairness"], with_design,
        )
        keys = await self._memo_key(memo_key, self._instance_keys, *memo_key)
        if quantify:
            return {
                "full": quantify_fingerprint(keys["full"], params["fault_rate"])
            }
        return keys

    def _instance_keys(
        self, case: str, size: int, fairness: str, with_design: bool
    ) -> dict[str, str]:
        """Build one instance and fingerprint it (executor thread)."""
        from repro.protocols.library import CASES, build_case

        if with_design:
            design = CASES[case].build_design(size)
            program, invariant = design.program, design.candidate.invariant
        else:
            program, invariant = build_case(case, size)
        local = self.service.local_keys
        keys = {
            "full": tolerance_fingerprint(
                program, invariant, fairness=fairness, method="full",
                local=local,
            )
        }
        if with_design:
            keys["compositional"] = tolerance_fingerprint(
                program, invariant, fairness=fairness, method="compositional",
                design=design, local=local,
            )
        return keys

    async def _program_key(self, case: str, size: int) -> str:
        """The program key of a ``/lint`` or ``/simulate`` case, memoized
        like instance keys."""
        return await self._memo_key(
            ("program", case, size), self._build_program_key, case, size
        )

    def _build_program_key(self, case: str, size: int) -> str:
        from repro.protocols.library import build_case

        program, _ = build_case(case, size)
        return fingerprint_program(program, local=self.service.local_keys)

    async def _memo_key(self, memo_key: tuple, build, *args) -> Any:
        """The memoized value of ``memo_key``, built by ``build(*args)``.

        The first sight stores the executor future of the build, so
        concurrent first sights of one instance share one build; a build
        that raises is evicted and the next sight retries it. A memoized
        value is returned without yielding to the loop.
        """
        future = self._key_cache.get(memo_key)
        if future is None:
            future = self._off_loop(build, *args)
            future.add_done_callback(
                lambda done: self._forget_failed(memo_key, done)
            )
            self._key_cache[memo_key] = future
            while len(self._key_cache) > MEMO_CAPACITY:
                self._key_cache.popitem(last=False)
        else:
            self._key_cache.move_to_end(memo_key)
        if future.done():
            return future.result()
        # Shielded: a cancelled request must not cancel a shared build.
        return await asyncio.shield(future)

    def _forget_failed(self, memo_key: tuple, future: asyncio.Future) -> None:
        if (future.cancelled() or future.exception() is not None) and (
            self._key_cache.get(memo_key) is future
        ):
            del self._key_cache[memo_key]

    def _off_loop(self, function, *args) -> asyncio.Future:
        """Run ``function(*args)`` on an executor thread, counted in
        ``requests.executor``."""
        self.requests["executor"] += 1
        return asyncio.get_event_loop().run_in_executor(
            self._executor, function, *args
        )

    @staticmethod
    def _probe_order(method: str, keys: dict[str, str]) -> list[str]:
        if method == "compositional":
            return [keys["compositional"]] if "compositional" in keys else []
        if method == "full":
            return [keys["full"]]
        order = []
        if "compositional" in keys:
            order.append(keys["compositional"])
        order.append(keys["full"])
        return order

    async def _handle_verify(self, body: dict[str, Any]) -> dict[str, Any]:
        started = time.perf_counter()
        params = self._normalize_verify(body)
        if params["quantify"]:
            self.requests["quantify"] += 1
            if self.metrics is not None:
                self.metrics.counter("quantitative.requests").add()
        if params["method"] == "compositional":
            from repro.protocols.library import CASES

            if CASES[params["case"]].build_design is None:
                raise RequestError(
                    f"case {params['case']!r} registers no design; "
                    'method "compositional" needs the constraint-graph '
                    "decomposition"
                )
        keys = await self._verify_keys(params)

        # 1. Answer warm requests inline from the cache layers.
        probes = self._probe_order(params["method"], keys)
        for index, key in enumerate(probes):
            cached = self.service.cached_record(
                "tolerance", key, count_miss=(index == len(probes) - 1)
            )
            if cached is not None:
                record, layer = cached
                return self._verify_response(
                    record, cached_layer=layer, deduped=False,
                    seconds=time.perf_counter() - started,
                )

        # 2. A true miss: the first of a concurrent cohort enqueues it for
        # the next batch, the rest coalesce onto its result.
        async def enqueue() -> tuple[dict[str, Any], str]:
            entry_design = "compositional" in keys
            task = VerificationTask(
                case=f"{params['case']} (n={params['size']})",
                builder="repro.protocols.library:build_case",
                args=(params["case"], params["size"]),
                fairness=params["fairness"],
                engine=params["engine"],
                method=params["method"],
                design_builder=(
                    "repro.protocols.library:build_case_design"
                    if entry_design else None
                ),
                quantify=params["quantify"],
                fault_rate=params["fault_rate"],
            )
            if params["quantify"] and self.metrics is not None:
                self.metrics.counter("quantitative.computed").add()
            future = asyncio.get_event_loop().create_future()
            self._pending.append(_Pending(task=task, keys=keys, future=future))
            self._batch_wakeup.set()
            return await asyncio.shield(future), ""

        request_key = f"verify:{params['method']}:{keys['full']}"
        record, _layer, deduped = await self._coalesce(request_key, enqueue)
        return self._verify_response(
            record, cached_layer="", deduped=deduped,
            seconds=time.perf_counter() - started,
        )

    def _verify_response(
        self,
        record: dict[str, Any],
        *,
        cached_layer: str,
        deduped: bool,
        seconds: float,
    ) -> dict[str, Any]:
        payload = {
            key: value
            for key, value in record.items()
            if key not in _TRANSIENT_KEYS
        }
        payload["cached"] = bool(cached_layer)
        payload["cache_layer"] = cached_layer
        payload["call_seconds"] = seconds
        payload["deduped"] = deduped
        return payload

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Group commit: dispatch pending misses as soon as none is in flight.

        One batch runs at a time; misses that arrive while it runs are
        the next batch, so a lone miss never waits for company and a
        burst is dispatched in as few batches as the dispatcher's pace
        allows.
        """
        while True:
            await self._batch_wakeup.wait()
            self._batch_wakeup.clear()
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            if self._pending:
                self._batch_wakeup.set()
            if not batch:
                continue
            dispatched = time.perf_counter()
            for pending in batch:
                self._wait_timer.record(dispatched - pending.enqueued)
            self.requests["batches"] += 1
            self.requests["batched_tasks"] += len(batch)
            if self.metrics is not None:
                self.metrics.counter("service.batch.dispatched").add()
                self.metrics.counter("service.batch.tasks").add(len(batch))
            if self.tracer is not None:
                self.tracer.emit(
                    ev.SERVICE_BATCH_DISPATCH,
                    tasks=len(batch),
                    workers=self.workers,
                    cases=tuple(pending.task.case for pending in batch),
                )
            try:
                records = await self._off_loop(self._run_batch, batch)
            except Exception as error:
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(
                            RequestError(
                                f"verification failed: {error}", status=500
                            )
                        )
                continue
            finally:
                self._compute_timer.record(time.perf_counter() - dispatched)
            for pending, record in zip(batch, records):
                if not pending.future.done():
                    pending.future.set_result(record)

    def _run_batch(self, batch: list[_Pending]) -> list[dict[str, Any]]:
        """Verify one batch and ingest its records (dispatcher thread).

        Every record is in the cache layers before :meth:`_batch_loop`
        answers its request, and the store's file writes stay off the
        event loop.
        """
        self.requests["computed"] += len(batch)
        # Workers get no cache_dir: the daemon owns the store and
        # ingests the returned records itself (pool workers write the
        # flat layout, the daemon's store is sharded — mixing them
        # would fork the corpus). Even a lone miss goes to the pool: an
        # in-process compute would hold this interpreter's lock while
        # the event loop has cache hits to answer.
        pool = self._pool if self.workers > 1 else None
        records = run_batch(
            [pending.task for pending in batch], cache_dir=None, pool=pool
        )
        for pending, record in zip(batch, records):
            self._ingest(pending, record)
        return records

    def _ingest(self, pending: _Pending, record: dict[str, Any]) -> None:
        """Adopt one pool record into the service's cache layers.

        A process-local key names objects of this process, not the ones
        the worker built, so a record is never filed under one.
        """
        if record.get("status") == "refused" or "lint" in record:
            return  # refusals and lint failures are never cached
        resolved = record.get("method", "full")
        key = pending.keys.get(resolved)
        if key is None or key_kind(key) == "local":
            return
        pure = {
            name: value
            for name, value in record.items()
            if name not in _TRANSIENT_KEYS
        }
        self.service.ingest("tolerance", key, pure)

    # ------------------------------------------------------------------
    # /lint and /simulate
    # ------------------------------------------------------------------

    async def _handle_lint(self, body: dict[str, Any]) -> dict[str, Any]:
        from repro.staticcheck import lint_case

        allowed = {"case", "size", "probes", "semantic"}
        unknown = set(body) - allowed
        if unknown:
            raise RequestError(
                f"unknown /lint fields {sorted(unknown)}; allowed: "
                f"{sorted(allowed)}"
            )
        case, size = self._normalize_case(body)
        probes = body.get("probes", 32)
        if not isinstance(probes, int) or probes < 1:
            raise RequestError(f'"probes" must be a positive integer, got {probes!r}')
        semantic = body.get("semantic", True)
        if not isinstance(semantic, bool):
            raise RequestError(f'"semantic" must be a boolean, got {semantic!r}')

        started = time.perf_counter()
        key = (
            f"{await self._program_key(case, size)}"
            f":probes={probes}"
            f":semantic={semantic}"
        )
        return await self._memoized(
            "lint", key, f"lint:{case}:{size}:{probes}:{semantic}",
            lambda: dict(
                lint_case(case, size, probes=probes, semantic=semantic).as_dict()
            ),
            started,
        )

    async def _handle_simulate(self, body: dict[str, Any]) -> dict[str, Any]:
        from repro.protocols.library import build_case
        from repro.scheduler import RandomScheduler
        from repro.simulation import stabilization_trials

        allowed = {"case", "size", "trials", "max_steps", "seed"}
        unknown = set(body) - allowed
        if unknown:
            raise RequestError(
                f"unknown /simulate fields {sorted(unknown)}; allowed: "
                f"{sorted(allowed)}"
            )
        case, size = self._normalize_case(body)
        trials = body.get("trials", 20)
        max_steps = body.get("max_steps", 200_000)
        seed = body.get("seed", 0)
        for name, value in (("trials", trials), ("max_steps", max_steps)):
            if not isinstance(value, int) or value < 1:
                raise RequestError(
                    f'"{name}" must be a positive integer, got {value!r}'
                )
        if not isinstance(seed, int):
            raise RequestError(f'"seed" must be an integer, got {seed!r}')

        started = time.perf_counter()
        key = (
            f"{await self._program_key(case, size)}"
            f":trials={trials}"
            f":max_steps={max_steps}:seed={seed}"
        )

        def simulate() -> dict[str, Any]:
            program, invariant = build_case(case, size)
            stats = stabilization_trials(
                program,
                invariant,
                lambda s: RandomScheduler(s),
                trials=trials,
                max_steps=max_steps,
                base_seed=seed,
            )
            steps = None
            if stats.steps is not None:
                steps = {
                    "count": stats.steps.count,
                    "mean": stats.steps.mean,
                    "median": stats.steps.median,
                    "p95": stats.steps.p95,
                    "min": stats.steps.minimum,
                    "max": stats.steps.maximum,
                }
            return {
                "case": f"{case} (n={size})",
                "trials": trials,
                "stabilized": stats.stabilized_count,
                "all_stabilized": stats.all_stabilized,
                "stabilization_rate": stats.stabilization_rate,
                "steps": steps,
                "max_steps": max_steps,
                "seed": seed,
            }

        return await self._memoized(
            "simulate", key,
            f"simulate:{case}:{size}:{trials}:{max_steps}:{seed}",
            simulate, started,
        )

    async def _memoized(
        self,
        kind: str,
        key: str,
        request_key: str,
        compute: Callable[[], dict[str, Any]],
        started: float,
    ) -> dict[str, Any]:
        """The ``/lint`` or ``/simulate`` answer for ``(kind, key)``.

        A warm record is answered from the cache layers on the loop; a
        cold one is computed once per concurrent ``request_key`` cohort,
        on an executor thread.
        """
        cached = self.service.cached_record(kind, key)
        if cached is not None:
            (record, layer), deduped = cached, False
        else:
            record, layer, deduped = await self._coalesce(
                request_key,
                lambda: self._off_loop(self.service.memo, kind, key, compute),
            )
        return {
            **record,
            "cached": bool(layer),
            "cache_layer": layer,
            "call_seconds": time.perf_counter() - started,
            "deduped": deduped,
        }

    async def _coalesce(self, request_key, thunk):
        """Run ``thunk`` once per concurrent ``request_key`` cohort.

        Returns ``(record, layer, deduped)`` — followers observe the
        leader's result with ``deduped=True``.
        """
        existing = self._inflight.get(request_key)
        if existing is not None:
            self.requests["deduped"] += 1
            if self.metrics is not None:
                self.metrics.counter("service.request.deduped").add()
            if self.tracer is not None:
                self.tracer.emit(
                    ev.SERVICE_REQUEST_DEDUPED,
                    endpoint=request_key.split(":", 1)[0],
                    key=request_key,
                )
            record, _layer = await asyncio.shield(existing)
            return record, "", True
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[request_key] = future
        try:
            record, layer = await thunk()
            if not future.done():
                future.set_result((record, layer))
            return record, layer, False
        except Exception as error:
            if not future.done():
                future.set_exception(error)
            # The cohort shares the failure; ours re-raises directly.
            future.exception()  # mark retrieved for solo requests
            raise
        finally:
            if self._inflight.get(request_key) is future:
                del self._inflight[request_key]

    # ------------------------------------------------------------------
    # /healthz and /stats
    # ------------------------------------------------------------------

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": self.uptime_seconds(),
            "inflight": self._open_requests,
            "pending_batch": len(self._pending),
            "requests_total": self.requests["total"],
        }

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` payload: counters and the batch timers."""
        service_stats = self.service.stats()
        hits = service_stats["hits"]
        lookups = hits + service_stats["misses"]
        return {
            "uptime_seconds": self.uptime_seconds(),
            "workers": self.workers,
            "inflight": self._open_requests,
            "requests": dict(self.requests),
            "service": service_stats,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "store": self.store.stats() if self.store is not None else None,
            # kernel.mem.* gauges from in-process packed sweeps (pool
            # workers report through their own registries, not this one).
            "kernel_mem": {
                name[len("kernel.mem."):]: counter.count
                for name, counter in sorted(self.metrics.counters.items())
                if name.startswith("kernel.mem.")
            },
            # quantitative.* counters: requests/computed tracked by the
            # daemon, plus any solve counters from in-process quantify
            # runs routed through this registry.
            "quantitative": {
                name[len("quantitative."):]: counter.count
                for name, counter in sorted(self.metrics.counters.items())
                if name.startswith("quantitative.")
            },
            "pool": self._pool_stats(),
            # Queue wait per miss and compute per batch, in milliseconds.
            "batch": {
                "wait": _timer_ms(self._wait_timer),
                "compute": _timer_ms(self._compute_timer),
            },
        }

    def _pool_stats(self) -> dict[str, int]:
        """Worker-pool width, pools opened, and broken pools replaced."""
        return {
            "workers": self._pool.workers,
            "starts": self._pool.starts,
            "replaced": self._pool.replaced,
        }

    def report(self, **meta: Any) -> RunReport:
        """A :class:`RunReport` over the daemon's counters and timers."""
        counters = {
            f"service.request.{name}": count
            for name, count in sorted(self.requests.items())
        }
        for name, count in self._pool_stats().items():
            counters[f"parallel.pool.{name}"] = count
        for name, counter in sorted(self.metrics.counters.items()):
            counters.setdefault(name, counter.count)
        timers = {
            name: timer.snapshot()
            for name, timer in sorted(self.metrics.timers.items())
        }
        return RunReport(
            counters=counters,
            timers=timers,
            meta={
                "uptime_seconds": round(self.uptime_seconds(), 6),
                "workers": self.workers,
                **meta,
            },
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


async def serve(*, host: str = "127.0.0.1", port: int = 8421,
                **daemon_kwargs: Any) -> VerificationDaemon:
    """Run a daemon until SIGINT/SIGTERM; returns it after shutdown.

    This is the coroutine behind ``repro serve``; library callers who
    want finer control use :class:`VerificationDaemon` (or
    :class:`DaemonThread` from synchronous code) directly.
    """
    import signal

    daemon = VerificationDaemon(host=host, port=port, **daemon_kwargs)
    await daemon.start()
    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    print(f"repro serve: listening on http://{daemon.host}:{daemon.port} "
          f"(workers={daemon.workers}, "
          f"store={'on' if daemon.store is not None else 'off'})")
    await stop.wait()
    print("repro serve: draining in-flight requests ...")
    await daemon.stop(drain=True)
    return daemon


class DaemonThread:
    """A daemon on a background thread, for tests and load generators.

    Synchronous code (pytest, the E18 benchmark) needs a live server
    without owning an event loop::

        handle = DaemonThread(cache_dir=tmp, workers=2).start()
        ... http.client against handle.port ...
        handle.stop()
    """

    def __init__(self, **daemon_kwargs: Any) -> None:
        daemon_kwargs.setdefault("port", 0)
        self.daemon = VerificationDaemon(**daemon_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    @property
    def host(self) -> str:
        return self.daemon.host

    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def url(self) -> str:
        return f"http://{self.daemon.host}:{self.daemon.port}"

    def start(self) -> "DaemonThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("daemon failed to start within 30s")
        return self

    def _main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.daemon.start())
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            # Keep-alive connections idle in their read outlive stop();
            # end their handlers before the loop closes under them.
            leftover = asyncio.all_tasks(self._loop)
            for task in leftover:
                task.cancel()
            self._loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True)
            )
            self._loop.close()

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.stop(drain=drain, timeout=timeout), self._loop
        )
        future.result(timeout=timeout + 10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
