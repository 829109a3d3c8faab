"""The verification service: cached exhaustive verification.

Every benchmark and the CLI used to rebuild full transition systems and
re-run closure/convergence/theorem checks from scratch for every
instance. This module packages those checks behind a service with a
content-addressed cache so repeated verification of the same instance —
within a process, across processes, and across sessions — is answered
from the cache instead of recomputed:

- instances are keyed by :func:`repro.core.fingerprint_instance`, an
  exact hash of the program text, so a cache entry survives rebuilding
  the same protocol and is invalidated by any change to its variables,
  domains, guards, statements or predicates. A key that names an object
  without an exact serialization is process-local
  (:func:`~repro.core.fingerprint.key_kind`): it is memoized in memory
  only, never persisted, and every record says which kind it has under
  ``record["key"]``;
- **in-memory**: verdict records and full verdict reports are
  memoized per service instance;
- **on-disk** (optional ``cache_dir``): JSON verdict records persist
  across processes, which is what makes the parallel worker pool in
  :mod:`repro.verification.parallel` and cache-warm benchmark reruns
  cheap.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.design import NonmaskingDesign
from repro.core.errors import ValidationError
from repro.core.fingerprint import (
    LocalKeys,
    fingerprint_instance,
    fingerprint_predicate,
    fingerprint_program,
    key_kind,
)
from repro.core.predicates import TRUE, Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.observability import events as ev
from repro.observability.metrics import MetricsRegistry
from repro.observability.report import RunReport
from repro.observability.tracer import Tracer
from repro.quantitative import (
    DEFAULT_FAULT_RATE,
    QuantitativeReport,
    require_numpy,
)
from repro.verification.checker import ToleranceReport, _check_tolerance
from repro.verification.explorer import validate_engine
from repro.verification.store import VerdictStore

__all__ = [
    "METHODS",
    "ServiceVerdict",
    "VerificationService",
    "tolerance_fingerprint",
    "validate_method",
]

#: Valid values of the ``method`` switch on :meth:`verify_tolerance`.
METHODS = ("auto", "full", "compositional")

#: Records the in-memory layer keeps, least recently used evicted first
#: (a tolerance record's report goes with it). A daemon sees a fresh key
#: per new fault rate, so an unbounded memo grows for its lifetime; the
#: store, when there is one, still holds every exact-key record. Far
#: above a daemon's warm roster (serve-mix: 24 verify + 12 lint keys).
MEMO_CAPACITY = 512


def tolerance_fingerprint(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate | None = None,
    *,
    fairness: str = "weak",
    method: str = "full",
    states_extra: tuple[str, ...] = ("states=full",),
    quantify: bool = False,
    fault_rate: float = DEFAULT_FAULT_RATE,
    design: NonmaskingDesign | None = None,
    local: LocalKeys | None = None,
) -> str:
    """The cache key of one tolerance verdict, as the service computes it.

    Exposed so out-of-process callers (the daemon, pool orchestration)
    can address the same cache entries the service reads and writes —
    ``method`` must be the *resolved* method (``"full"`` or
    ``"compositional"``), never ``"auto"``. A quantify-carrying record
    embeds the quantitative report, so ``quantify`` (and the
    ``fault_rate`` it was computed under) are part of the key: plain and
    quantitative verdicts of the same instance never collide. A
    compositional verdict is certified from a design (its constraints,
    bindings and graph), so pass that as ``design``. ``local`` is the
    registry for objects without an exact serialization (pass the
    service's :attr:`VerificationService.local_keys`).
    """
    extra = states_extra + (f"method={method}",)
    if quantify:
        extra = extra + (f"quantify=rate{fault_rate!r}",)
    return fingerprint_instance(
        program, invariant,
        fault_span if fault_span is not None else TRUE,
        fairness=fairness,
        extra=extra,
        context=(design,) if design is not None else (),
        local=local,
    )


def validate_method(method: str) -> None:
    """Raise :class:`~repro.core.errors.ValidationError` unless ``method``
    is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValidationError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )


@dataclass(frozen=True)
class ServiceVerdict:
    """The service's answer to one tolerance-verification request.

    ``record`` is the JSON-able verdict summary (the unit of caching);
    ``report`` is the full :class:`ToleranceReport` with witnesses and
    counterexamples, available unless the verdict came from the on-disk
    cache of another process.
    """

    record: dict[str, Any]
    report: ToleranceReport | None
    cached: bool
    #: "" (computed), "memory" or "disk".
    cache_layer: str
    #: Wall-clock seconds spent answering *this* call.
    seconds: float

    @property
    def ok(self) -> bool:
        return bool(self.record["ok"])

    @property
    def quantitative(self) -> QuantitativeReport | None:
        """The attached quantitative report (``quantify=True`` verdicts).

        Rebuilt from the cached record, so it is available whether the
        verdict was computed now or answered from any cache layer.
        """
        data = self.record.get("quantitative")
        if data is None:
            return None
        return QuantitativeReport.from_record(data)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict[str, Any]:
        """JSON-able verdict: the cached record plus call provenance."""
        return {
            **self.record,
            "cached": self.cached,
            "cache_layer": self.cache_layer,
            "call_seconds": self.seconds,
        }

    def describe(self) -> str:
        suffix = f" [cache: {self.cache_layer}]" if self.cached else ""
        if self.record.get("method") == "compositional":
            r = self.record
            if r.get("status") == "refused":
                return (
                    f"compositional certification REFUSED for {r['case']}: "
                    f"{r['refusal']}"
                )
            kind = r["classification"] + (
                " (stabilizing)" if r["stabilizing"] else ""
            )
            return (
                f"T-tolerant for S [{kind}] by {r['theorem']}{suffix}\n"
                f"  compositional: {r['obligations']} obligations over "
                f"{r['edges']} edges, max projection {r['max_projection']} "
                f"of {r['total_states']} states"
            )
        if "lint" in self.record:
            lint = self.record["lint"]
            counts = lint["counts"]
            lines = [
                f"lint precheck FAILED for {self.record['case']}: "
                f"{counts['error']} error(s), {counts['warning']} warning(s) — "
                "state-space verification was not attempted",
            ]
            lines.extend(
                f"  {d['code']} {d['severity']}: {d['subject']}: {d['message']}"
                for d in lint["diagnostics"]
            )
            return "\n".join(lines)
        if self.report is not None:
            return self.report.describe() + suffix + self._quantitative_suffix()
        r = self.record
        verdict = "T-tolerant for S" if r["ok"] else "NOT T-tolerant for S"
        kind = r["classification"] + (" (stabilizing)" if r["stabilizing"] else "")
        return "\n".join(
            [
                f"{verdict} [{kind}] over {r['total_states']} states{suffix}",
                f"  S => T: {'ok' if r['implication_ok'] else 'FAIL'}",
                f"  closure of S: {'ok' if r['s_closure_ok'] else 'FAIL'}",
                f"  closure of T: {'ok' if r['t_closure_ok'] else 'FAIL'}",
                f"  convergence: "
                f"{'converges' if r['convergence_ok'] else 'does NOT converge'} "
                f"under {r['fairness']!r} fairness "
                f"({r['span_states']} span states, "
                f"{r['bad_states']} outside target)",
            ]
        ) + self._quantitative_suffix()

    def _quantitative_suffix(self) -> str:
        quantitative = self.quantitative
        if quantitative is None:
            return ""
        return "\n" + quantitative.describe()


def _tolerance_record(
    report: ToleranceReport, *, case: str, fairness: str, engine: str, seconds: float
) -> dict[str, Any]:
    return {
        "case": case,
        "engine": engine,
        "method": "full",
        "ok": report.ok,
        "implication_ok": report.implication_ok,
        "s_closure_ok": report.s_closure.ok,
        "t_closure_ok": report.t_closure.ok,
        "convergence_ok": report.convergence.ok,
        "classification": report.classification,
        "stabilizing": report.stabilizing,
        "total_states": report.total_states,
        "span_states": report.convergence.span_states,
        "bad_states": report.convergence.bad_states,
        "fairness": fairness,
        "seconds": seconds,
    }


def _compositional_record(
    certificate, *, case: str, fairness: str, seconds: float, key: str
) -> dict[str, Any]:
    from repro.compositional import DISCHARGE_KINDS

    counts = certificate.counts()
    return {
        "case": case,
        "method": "compositional",
        "ok": certificate.ok,
        "status": certificate.status,
        "refusal": certificate.refusal,
        "theorem": certificate.theorem,
        "classification": certificate.classification,
        "stabilizing": certificate.stabilizing,
        "obligations": len(certificate.obligations),
        **{field: counts[kind] for kind, field in DISCHARGE_KINDS.items()},
        "edges": certificate.edges,
        "max_projection": certificate.max_projection,
        "total_states": certificate.total_states,
        "fairness": fairness,
        "seconds": seconds,
        "key": key_kind(key),
    }


class _CompositionalRefused(Exception):
    """Internal: the certifier refused — never cache, maybe fall back."""

    def __init__(self, certificate) -> None:
        super().__init__(certificate.refusal)
        self.certificate = certificate


class VerificationService:
    """Cached closure/convergence/theorem verification.

    One service instance owns one in-memory cache; pass ``cache_dir`` to
    add a persistent JSON layer shared between service instances and
    between processes (the parallel worker pool relies on this).

    Observability is opt-in: pass ``tracer=`` to emit ``cache.hit`` /
    ``cache.miss`` events, and ``metrics=`` (a
    :class:`~repro.observability.MetricsRegistry`) to aggregate cache
    counters and per-verdict wall-clock timers — both default to
    ``None`` and cost a single ``is not None`` check per cache lookup
    when unused. The plain integer counters (``hits``, ``misses`` and
    the per-layer splits) are always maintained; :meth:`stats` and
    :meth:`report` expose them.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        store: VerdictStore | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if store is not None:
            self.store: VerdictStore | None = store
        elif cache_dir is not None:
            # Flat, unbounded, no warm tier: byte-identical to the
            # historical layout, so pool workers sharing a cache_dir
            # keep interoperating across versions. No tracer/metrics —
            # the service's own cache.hit/cache.miss layer already
            # covers this store one-to-one; ``store.*`` events belong
            # to explicitly constructed (daemon-grade) stores.
            self.store = VerdictStore(cache_dir, shards=0, warm_capacity=0)
        else:
            self.store = None
        self.cache_dir = self.store.root if self.store is not None else None
        self.tracer = tracer
        self.metrics = metrics
        #: Registry behind this service's process-local keys: it holds
        #: every object such a key names for the service's lifetime.
        self.local_keys = LocalKeys()
        #: One LRU over ``(kind, key)``: ``_reports`` holds the
        #: tolerance reports of records still in ``_records``. The lock
        #: covers the daemon's executor threads racing its event loop.
        self._records: OrderedDict[tuple[str, str], dict] = OrderedDict()
        self._reports: dict[tuple[str, str], ToleranceReport] = {}
        self._memo_lock = threading.Lock()
        self.hits = 0
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        #: Wall-clock seconds spent actually computing verdict records
        #: (cache misses) vs. answering from a cache layer.
        self.seconds_computing = 0.0
        self.seconds_cached = 0.0

    # ------------------------------------------------------------------
    # Generic record memoization (in-memory + on-disk JSON)
    # ------------------------------------------------------------------

    def _recall(self, memo_key: tuple[str, str]) -> dict[str, Any] | None:
        with self._memo_lock:
            record = self._records.get(memo_key)
            if record is not None:
                self._records.move_to_end(memo_key)
            return record

    def _remember(self, memo_key: tuple[str, str], record: dict[str, Any]) -> None:
        with self._memo_lock:
            self._records[memo_key] = record
            self._records.move_to_end(memo_key)
            while len(self._records) > MEMO_CAPACITY:
                evicted, _ = self._records.popitem(last=False)
                self._reports.pop(evicted, None)

    def _note_hit(self, kind: str, key: str, layer: str) -> None:
        self.hits += 1
        if layer == "memory":
            self.hits_memory += 1
        else:
            self.hits_disk += 1
        if self.metrics is not None:
            self.metrics.counter("cache.hit").add()
            self.metrics.counter(f"cache.hit.{layer}").add()
        if self.tracer is not None:
            self.tracer.emit(
                ev.CACHE_HIT, record_kind=kind, key=key[:16], layer=layer
            )

    def _note_verdict(self, operation: str, layer: str, seconds: float) -> None:
        """Fold one answered request into the wall-clock aggregates."""
        if layer:
            self.seconds_cached += seconds
        else:
            self.seconds_computing += seconds
        if self.metrics is not None:
            suffix = "cached" if layer else "computed"
            self.metrics.timer(f"{operation}.{suffix}").record(seconds)

    def _note_miss(self, kind: str, key: str) -> None:
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("cache.miss").add()
        if self.tracer is not None:
            self.tracer.emit(ev.CACHE_MISS, record_kind=kind, key=key[:16])

    def memo(
        self,
        kind: str,
        key: str,
        compute: Callable[[], dict[str, Any]],
    ) -> tuple[dict[str, Any], str]:
        """The cached record for ``(kind, key)``, computing it on a miss.

        Returns ``(record, layer)`` where ``layer`` is ``""`` when the
        record was computed now, else ``"memory"`` or ``"disk"``. A
        process-local ``key`` is memoized in memory only.
        """
        memo_key = (kind, key)
        record = self._recall(memo_key)
        if record is not None:
            self._note_hit(kind, key, "memory")
            return record, "memory"
        persist = self.store is not None and key_kind(key) == "exact"
        if persist:
            record = self.store.get(kind, key)
            if record is not None:
                self._remember(memo_key, record)
                self._note_hit(kind, key, "disk")
                return record, "disk"
        self._note_miss(kind, key)
        record = compute()
        self._remember(memo_key, record)
        if persist:
            # Atomic tempfile + os.replace publication inside the store:
            # concurrent workers race benignly and an interrupted writer
            # can never leave a partial (cache-poisoning) entry behind.
            self.store.put(kind, key, record)
        return record, ""

    def cached_record(
        self, kind: str, key: str, *, count_miss: bool = False
    ) -> tuple[dict[str, Any], str] | None:
        """Peek the cache for ``(kind, key)`` without ever computing.

        Returns ``(record, layer)`` on a hit (counting it as usual), or
        ``None`` — the daemon uses this to answer warm requests inline
        and route only true misses onto the worker pool. A miss is
        normally silent (probing several candidate keys for one request
        must not inflate the counters); pass ``count_miss=True`` on the
        last probe so each fully-missed request counts exactly once.
        """
        memo_key = (kind, key)
        record = self._recall(memo_key)
        if record is not None:
            self._note_hit(kind, key, "memory")
            return record, "memory"
        if self.store is not None and key_kind(key) == "exact":
            record = self.store.get(kind, key)
            if record is not None:
                self._remember(memo_key, record)
                self._note_hit(kind, key, "disk")
                return record, "disk"
        if count_miss:
            self._note_miss(kind, key)
        return None

    def ingest(self, kind: str, key: str, record: dict[str, Any]) -> None:
        """Adopt an externally computed ``record`` into every cache layer.

        The daemon verifies cache misses on the process pool (whose
        workers cannot share this service's memory); ingesting the
        returned records makes later duplicates memory hits here and
        persists them through the store. A process-local ``key`` names
        objects of this process only, so it is refused: a record computed
        elsewhere cannot be filed under it.
        """
        if key_kind(key) == "local":
            raise ValueError(
                f"refusing to ingest a record under process-local key {key[:24]}"
            )
        self._remember((kind, key), record)
        if self.store is not None:
            self.store.put(kind, key, record)

    # ------------------------------------------------------------------
    # Tolerance verification
    # ------------------------------------------------------------------

    def verify_tolerance(
        self,
        program: Program,
        invariant: Predicate,
        fault_span: Predicate | None = None,
        states: Iterable[State] | None = None,
        *,
        fairness: str = "weak",
        engine: str = "auto",
        method: str = "auto",
        design: NonmaskingDesign | None = None,
        case: str | None = None,
        states_key: str | None = None,
        lint: bool = False,
        max_states: int | None = None,
        shards: int | None = None,
        memory_budget: int | None = None,
        quantify: bool = False,
        fault_rate: float = DEFAULT_FAULT_RATE,
    ) -> ServiceVerdict:
        """Cached tolerance verification (the engine behind :func:`repro.verify`).

        Args:
            program: The augmented program.
            invariant: ``S``.
            fault_span: ``T``; defaults to ``TRUE`` (stabilization).
            states: The instance's state set; defaults to the full state
                space. **Pass ``states_key`` whenever this is a proper
                subset** — the default discriminator is only the set's
                size, which cannot tell two different windows apart.
            fairness: Computation model for convergence.
            engine: ``"packed"``, ``"dict"`` or ``"auto"`` (see
                :func:`~repro.verification.checker.check_tolerance`). The
                engine is **not** part of the cache key — both engines
                produce identical verdicts — but the record notes which
                one computed it under ``record["engine"]``.
            method: ``"full"`` explores the product state space;
                ``"compositional"`` certifies from per-edge projections
                (:mod:`repro.compositional` — requires ``design`` and the
                full state space, and returns a failed, *uncached*
                verdict naming the refused obligation when the theorems
                do not apply); ``"auto"`` (default) tries compositional
                when a design is available and silently falls back to
                full exploration on refusal. The method **is** part of
                the cache key — the two methods certify through different
                evidence — and is recorded under ``record["method"]``.
            design: The :class:`~repro.core.design.NonmaskingDesign` the
                instance came from; enables the compositional method. A
                certificate covers the design's own instance only: when
                ``program``, ``invariant`` or the fault span is not
                ``design.program``, ``design.candidate.invariant`` or
                ``TRUE`` (the same object, or one with the same exact
                structural key), ``"compositional"`` returns an uncached
                ``design-mismatch`` refusal and ``"auto"`` explores the
                full space.
            case: Display name recorded in the verdict.
            states_key: Cache discriminator for the state set.
            lint: Run the :mod:`repro.staticcheck` passes first and, on
                any error-severity finding, short-circuit with a failed
                verdict carrying the lint report under ``record["lint"]``
                instead of exploring the state space. The lint costs
                O(actions x probe states); a failed precheck is never
                cached (fixing the declarations must retrigger it).
            max_states: Full-space size guard threaded to both engines
                (``None`` means the library default). Like the engine, it
                is not part of the cache key: it never changes a verdict,
                only whether oversize instances error out before one.
            shards: Shard count for the packed engine's vectorized
                full-space sweep; ``None`` picks automatically (one shard
                until the space is large enough to amortize worker
                startup). Sharded and unsharded runs are bit-identical,
                so this is not part of the cache key either.
            memory_budget: Peak-bytes target for the packed engine's
                full-space sweep; above it the streaming count-only path
                runs (see
                :func:`~repro.kernel.verify.check_tolerance_packed`).
                Like ``shards``, it is a memory/latency trade that never
                changes verdicts, so it is not part of the cache key.
            quantify: Also run the quantitative tolerance analysis
                (:func:`repro.quantitative.quantify`) over the instance
                and attach its report under ``record["quantitative"]``
                (surfaced as :attr:`ServiceVerdict.quantitative`).
                Quantification needs the explored state space, so it
                composes with full exploration only: ``method="auto"``
                resolves to ``"full"`` and an explicit
                ``method="compositional"`` is a
                :class:`~repro.core.errors.ValidationError`. Quantified
                records carry strictly more than plain ones, so
                ``quantify`` (with its ``fault_rate``) **is** part of
                the cache key.
            fault_rate: Relative fault-action weight for the weighted
                convergence expectation (quantify only).
        """
        validate_engine(engine)
        validate_method(method)
        if quantify and method == "compositional":
            raise ValidationError(
                "quantify=True requires state-space exploration; it cannot "
                "be combined with method='compositional' (use method='full' "
                "or 'auto')"
            )
        if method == "compositional" and design is None:
            raise ValidationError(
                "method='compositional' requires the design= argument; "
                "only a NonmaskingDesign carries the constraint graph the "
                "certifier decomposes over"
            )
        if quantify:
            require_numpy()  # refuse before sweeping, not after
        span = fault_span if fault_span is not None else TRUE
        started = time.perf_counter()
        if lint:
            from repro.staticcheck import lint_program

            lint_report = lint_program(
                program,
                invariant=invariant,
                tracer=self.tracer,
                metrics=self.metrics,
                subject=case if case is not None else program.name,
            )
            if not lint_report.ok:
                key = tolerance_fingerprint(
                    program, invariant, span, fairness=fairness,
                    local=self.local_keys,
                )
                elapsed = time.perf_counter() - started
                return ServiceVerdict(
                    record={
                        "case": case if case is not None else program.name,
                        "ok": False,
                        "lint_ok": False,
                        "lint": lint_report.as_dict(),
                        "fairness": fairness,
                        "seconds": elapsed,
                        "key": key_kind(key),
                    },
                    report=None,
                    cached=False,
                    cache_layer="",
                    seconds=elapsed,
                )
        if states is None:
            state_list: list[State] | None = None
            extra = ("states=full",)
        else:
            state_list = list(states)
            extra = (
                states_key if states_key is not None else f"states=n{len(state_list)}",
            )
        name = case if case is not None else program.name

        if method != "full" and design is not None and not quantify:
            verdict = self._verify_compositional(
                program,
                invariant,
                span,
                design,
                fairness=fairness,
                method=method,
                extra=extra,
                name=name,
                supplied_states=states is not None,
                started=started,
            )
            if verdict is not None:
                return verdict
            # auto: the certifier refused — fall back to full exploration.

        key = tolerance_fingerprint(
            program, invariant, span, fairness=fairness,
            method="full", states_extra=extra,
            quantify=quantify, fault_rate=fault_rate,
            local=self.local_keys,
        )

        def compute() -> dict[str, Any]:
            from repro.kernel import PackedUnsupported, kernel_supported
            from repro.kernel.verify import check_tolerance_swept

            compute_started = time.perf_counter()
            resolved = engine
            if resolved == "auto":
                resolved = "packed" if kernel_supported(program) else "dict"
            # The packed full-space sweep's CSR, kept for this request
            # only: quantify reuses it instead of sweeping again.
            swept = None
            if resolved == "packed":
                try:
                    report, swept = check_tolerance_swept(
                        program,
                        invariant,
                        span,
                        state_list,
                        fairness=fairness,
                        max_states=max_states,
                        shards=shards,
                        memory_budget=memory_budget,
                        tracer=self.tracer,
                        metrics=self.metrics,
                    )
                except PackedUnsupported:
                    # ``kernel_supported`` vets the program, but a
                    # *supplied* state can still carry an out-of-domain
                    # value only the codec notices; fall back per the
                    # auto contract.
                    if engine != "auto":
                        raise
                    resolved = "dict"
            if resolved == "dict":
                report = _check_tolerance(
                    program, invariant, span, state_list,
                    fairness=fairness, engine="dict", max_states=max_states,
                )
            quantitative = None
            if quantify:
                from repro.quantitative import quantify as run_quantify

                quantitative = run_quantify(
                    program,
                    invariant,
                    span,
                    state_list,
                    engine=engine,
                    fault_rate=fault_rate,
                    shards=shards,
                    memory_budget=memory_budget,
                    system=swept,
                    case=name,
                    tracer=self.tracer,
                    metrics=self.metrics,
                ).to_json()
            seconds = time.perf_counter() - compute_started
            self._reports[("tolerance", key)] = report
            record = _tolerance_record(
                report, case=name, fairness=fairness, engine=resolved,
                seconds=seconds,
            )
            record["key"] = key_kind(key)
            if quantitative is not None:
                record["quantitative"] = quantitative
            return record

        record, layer = self.memo("tolerance", key, compute)
        elapsed = time.perf_counter() - started
        self._note_verdict("verify_tolerance", layer, elapsed)
        return ServiceVerdict(
            record=record,
            report=self._reports.get(("tolerance", key)),
            cached=bool(layer),
            cache_layer=layer,
            seconds=elapsed,
        )

    def _verify_compositional(
        self,
        program: Program,
        invariant: Predicate,
        span: Predicate,
        design: NonmaskingDesign,
        *,
        fairness: str,
        method: str,
        extra: tuple[str, ...],
        name: str,
        supplied_states: bool,
        started: float,
    ) -> ServiceVerdict | None:
        """The compositional leg of :meth:`verify_tolerance`.

        Returns a :class:`ServiceVerdict` when the request is answered
        compositionally — a (cached) certificate, or a failed *uncached*
        refusal when ``method="compositional"`` was explicit. Returns
        ``None`` when ``method="auto"`` and the request was refused
        (supplied states, not the design's own instance, or the certifier
        declined), so the caller falls back to full exploration. Refused
        certifications are never cached: they carry no verdict, and fixing
        the design must retrigger them.
        """
        from repro.compositional import (
            CompositionalCertificate,
            certify_compositional,
        )

        key = tolerance_fingerprint(
            program, invariant, span, fairness=fairness,
            method="compositional", states_extra=extra,
            design=design, local=self.local_keys,
        )
        # Decided before any cache lookup: a certificate speaks for the
        # design's own instance only, never for this request's.
        if supplied_states:
            # A state subset cannot be certified edge-locally: the
            # projections quantify over the full product space.
            refusal = (
                "supplied-states: compositional certification covers the "
                "full state space only"
            )
        elif not self._is_design_instance(program, invariant, span, design):
            refusal = (
                "design-mismatch: compositional certification covers the "
                "design's own program and invariant under the TRUE fault "
                "span only"
            )
        else:
            refusal = None

        def compute() -> dict[str, Any]:
            compute_started = time.perf_counter()
            certificate = certify_compositional(
                design,
                fairness=fairness,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            if not certificate.ok:
                raise _CompositionalRefused(certificate)
            return _compositional_record(
                certificate,
                case=name,
                fairness=fairness,
                seconds=time.perf_counter() - compute_started,
                key=key,
            )

        def refused(certificate) -> ServiceVerdict | None:
            if method != "compositional":
                return None  # auto: fall back to full exploration
            elapsed = time.perf_counter() - started
            return ServiceVerdict(
                record=_compositional_record(
                    certificate,
                    case=name,
                    fairness=fairness,
                    seconds=elapsed,
                    key=key,
                ),
                report=None,
                cached=False,
                cache_layer="",
                seconds=elapsed,
            )

        if refusal is not None:
            return refused(
                CompositionalCertificate(
                    design=design.name,
                    theorem="",
                    status="refused",
                    classification="",
                    stabilizing=False,
                    obligations=(),
                    refusal=refusal,
                    total_states=0,
                    max_projection=0,
                    seconds=0.0,
                )
            )
        try:
            record, layer = self.memo("tolerance", key, compute)
        except _CompositionalRefused as error:
            return refused(error.certificate)
        elapsed = time.perf_counter() - started
        self._note_verdict("verify_tolerance", layer, elapsed)
        return ServiceVerdict(
            record=record,
            report=None,
            cached=bool(layer),
            cache_layer=layer,
            seconds=elapsed,
        )

    def _is_design_instance(
        self,
        program: Program,
        invariant: Predicate,
        span: Predicate,
        design: NonmaskingDesign,
    ) -> bool:
        """Whether the request is the design's own instance.

        The certifier proves ``design.program`` tolerant for
        ``design.candidate.invariant`` under the ``TRUE`` fault span.
        Each part must be that very object or, for a content-equal
        rebuild, have the same exact structural key.
        """
        local = self.local_keys

        def same(asked, own, key_of) -> bool:
            return asked is own or (
                key_of(asked, local=local) == key_of(own, local=local)
            )

        return (
            same(program, design.program, fingerprint_program)
            and same(
                invariant, design.candidate.invariant, fingerprint_predicate
            )
            and same(span, TRUE, fingerprint_predicate)
        )

    # ------------------------------------------------------------------
    # Theorem certificates
    # ------------------------------------------------------------------

    def validate_design(
        self,
        design: NonmaskingDesign,
        states: Iterable[State],
        *,
        theorem: str = "auto",
        case: str | None = None,
        states_key: str | None = None,
    ) -> dict[str, Any]:
        """Cached theorem-certificate validation of a nonmasking design.

        Returns a JSON-able record summarizing the certificate; the full
        :class:`~repro.core.design.DesignReport` is recomputed only on a
        cache miss.
        """
        started = time.perf_counter()
        state_list = list(states)
        name = case if case is not None else design.name
        key = fingerprint_instance(
            design.program,
            design.candidate.invariant,
            design.candidate.fault_span,
            extra=(
                f"theorem={theorem}",
                states_key if states_key is not None else f"states=n{len(state_list)}",
            ),
            context=(design,),
            local=self.local_keys,
        )

        def compute() -> dict[str, Any]:
            compute_started = time.perf_counter()
            report = design.validate(state_list, theorem=theorem)
            seconds = time.perf_counter() - compute_started
            certificate = report.selected
            return {
                "case": name,
                "ok": report.ok,
                "theorem": certificate.theorem,
                "conditions": len(certificate.conditions),
                "conditions_ok": sum(1 for c in certificate.conditions if c.ok),
                "states": len(state_list),
                "seconds": seconds,
                "key": key_kind(key),
            }

        record, layer = self.memo("design", key, compute)
        self._note_verdict("validate_design", layer, time.perf_counter() - started)
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Cache-effectiveness counters for reports and benchmarks.

        ``hits`` is always ``hits_memory + hits_disk``;
        ``seconds_computing`` / ``seconds_cached`` split the total
        answering wall-clock by whether a cache layer supplied the
        record.
        """
        return {
            "hits": self.hits,
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "records": len(self._records),
            "seconds_computing": self.seconds_computing,
            "seconds_cached": self.seconds_cached,
        }

    def report(self, **meta) -> RunReport:
        """A :class:`~repro.observability.RunReport` of this service.

        Counters come from :meth:`stats`; timers come from the attached
        metrics registry when one was passed at construction (empty
        otherwise). Extra keyword arguments land in the report's
        ``meta``.
        """
        stats = self.stats()
        counters = {
            "cache.hit": self.hits,
            "cache.hit.memory": self.hits_memory,
            "cache.hit.disk": self.hits_disk,
            "cache.miss": self.misses,
            "records": int(stats["records"]),
        }
        if self.metrics is not None:
            # Surface registry-only counters (e.g. the packed engine's
            # ``kernel.*``) next to the service's own cache counters.
            for name, counter in sorted(self.metrics.counters.items()):
                counters.setdefault(name, counter.count)
        timers = (
            {
                name: timer.snapshot()
                for name, timer in sorted(self.metrics.timers.items())
            }
            if self.metrics is not None
            else {}
        )
        return RunReport(
            counters=counters,
            timers=timers,
            meta={
                "seconds_computing": round(self.seconds_computing, 6),
                "seconds_cached": round(self.seconds_cached, 6),
                **meta,
            },
        )
