"""Benchmark-owned spans around the public calls of each layer.

The program has no span primitive of its own yet, so the traced run
wraps the module attributes the layers call each other through (for
example ``repro.kernel.sweeps.closure_scan``, which the kernel reaches
as ``sweeps.closure_scan``) and records one span per call: name, start,
end, parent span and run id. Spans stay in memory and are written out
when the run ends. Untraced runs install nothing, so they pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

#: (module, attribute, span name). A dotted attribute names a method on
#: a class of that module. Each entry is the attribute the *caller*
#: looks up at call time: names a module imported with ``from x import
#: f`` are patched in the importing module as well.
WRAPPED = [
    ("repro.protocols.library", "build_case", "protocols.build"),
    ("repro.protocols.token_ring", "build_dijkstra_ring", "protocols.build"),
    ("repro.protocols.diffusing", "build_diffusing_design", "protocols.build"),
    ("repro.protocols.coloring", "build_coloring_design", "protocols.build"),
    (
        "repro.protocols.leader_election",
        "build_leader_election_design",
        "protocols.build",
    ),
    ("repro.verification.service", "tolerance_fingerprint", "fingerprint"),
    ("repro.verification.server", "tolerance_fingerprint", "fingerprint"),
    ("repro.kernel.verify", "compile_program", "kernel.compile"),
    ("repro.kernel", "compile_program", "kernel.compile"),
    ("repro.kernel.sweeps", "SweepPlan", "kernel.plan"),
    ("repro.kernel.shard", "sweep_merged", "kernel.sweep"),
    ("repro.kernel.shard", "merge_fragments", "kernel.merge"),
    ("repro.kernel.sweeps", "closure_scan", "kernel.closure"),
    ("repro.kernel.sweeps", "first_bad_deadlock", "kernel.converge"),
    ("repro.kernel.sweeps", "bad_region_acyclic", "kernel.converge"),
    ("repro.kernel.sweeps", "edge_list_acyclic", "kernel.converge"),
    ("repro.kernel.verify", "check_convergence", "kernel.converge"),
    ("repro.quantitative", "quantify", "quantitative"),
    ("repro.compositional", "certify_compositional", "compositional"),
    (
        "repro.staticcheck.interference",
        "StaticDischarger.closure_preserves",
        "staticcheck.static",
    ),
    (
        "repro.staticcheck.interference",
        "StaticDischarger.enabled_when_violated",
        "staticcheck.static",
    ),
    (
        "repro.staticcheck.interference",
        "StaticDischarger.establishes",
        "staticcheck.static",
    ),
    (
        "repro.staticcheck.interference",
        "StaticDischarger.merged_behaviour",
        "staticcheck.static",
    ),
    (
        "repro.staticcheck.interference",
        "StaticDischarger.order_preserves",
        "staticcheck.static",
    ),
    ("repro.staticcheck", "lint_case", "staticcheck.lint"),
    ("repro.verification.service", "VerificationService.memo", "service.memo"),
    (
        "repro.verification.service",
        "VerificationService.cached_record",
        "service.cached_record",
    ),
    ("repro.verification.service", "VerificationService.ingest", "service.ingest"),
    ("repro.verification.store", "VerdictStore.put", "store.put"),
    ("repro.verification.server", "run_batch", "parallel.batch"),
    ("repro.verification.parallel", "ProcessPoolExecutor", "parallel.pool_start"),
]

#: Phases the wrappers cannot reach from outside the program. They run
#: inside private functions, or in forked pool workers whose spans die
#: with the worker; in-program spans are needed to see them.
UNREACHABLE = [
    "kernel mask and successor sweep inside shard workers (only the "
    "parent-side kernel.sweep span covering fork, sweep and transfer is seen)",
    "streaming count-only sweep phases (SweepPlan.mask_range/column_range "
    "run inside the private _streaming_full_space; kernel.stream_op_ms "
    "times the whole op)",
    "scalar packed and supplied-states loops inside check_tolerance_packed "
    "(kernel.scalar_op_ms and kernel.supplied_op_ms time the whole op)",
    "witness and counterexample decode (private closures of the kernel)",
    "enumerated obligations of the compositional certifier (private "
    "_sweep; compositional.enumerated_ms sums the per-obligation seconds "
    "the certificate reports)",
    "daemon queue wait and batch window (server.batch_wait_ms is derived "
    "from client call_seconds minus the run_batch spans)",
    "record serialization in the daemon (inside server.overhead_ms)",
    "verification inside daemon pool workers for multi-task batches",
]


def _batch_attrs(args, kwargs, result):
    return {"tasks": len(args[0] if args else kwargs["tasks"])}


def _sweep_attrs(args, kwargs, result):
    ranges = args[1] if len(args) > 1 else kwargs.get("ranges", ())
    return {"states": sum(hi - lo for lo, hi in ranges)}


def _hit_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _memo_attrs(args, kwargs, result):
    return {"computed": result[1] == ""}


def _certificate_attrs(args, kwargs, result):
    obligations = result.obligations
    return {
        "obligations": len(obligations),
        "enumerated_s": sum(
            o.seconds for o in obligations if o.discharged_by == "enumerated"
        ),
    }


_ATTRS = {
    "parallel.batch": _batch_attrs,
    "kernel.sweep": _sweep_attrs,
    "service.cached_record": _hit_attrs,
    "service.memo": _memo_attrs,
    "compositional": _certificate_attrs,
}


class SpanRecorder:
    """In-memory spans plus the wrappers that produce them.

    A span is ``(id, parent, name, start, end, attrs)``; the run id is
    recorded once per recorder. The parent is the innermost open span on
    the same thread, so nesting follows the call stack of each thread
    (the daemon's event loop and its executor threads each keep their
    own stack).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def call(self, name: str, fn, args, kwargs, attrs_fn=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
        self.spans.append((span_id, parent, name, start, end, attrs))
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a benchmark-level span (an op)."""
        return self.call(name, fn, args, kwargs)

    def install(self) -> None:
        """Wrap every entry of :data:`WRAPPED`."""
        for module_name, attribute, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(name, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def _wrapper(self, name: str, original):
        recorder = self
        attrs_fn = _ATTRS.get(name)

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, attrs_fn)

        return wrapped

    def dump(self, path) -> None:
        """Write every span (and the unreachable phases) as JSON."""
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start", "end", "attrs"],
            "spans": self.spans,
            "unreachable": UNREACHABLE,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``seconds`` and ``self`` seconds.

    A span's self time is its duration minus the durations of its direct
    children; children run on the parent's thread inside its interval,
    so they never overlap each other.
    """
    child_seconds: dict[int, float] = defaultdict(float)
    for _id, parent, _name, start, end, _attrs in spans:
        if parent:
            child_seconds[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self": 0.0}
    )
    for span_id, _parent, name, start, end, _attrs in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["seconds"] += end - start
        entry["self"] += end - start - child_seconds.get(span_id, 0.0)
    return dict(totals)


def _mean_ms(values) -> float:
    return statistics.mean(values) * 1000 if values else 0.0


def span_metrics(spans, ops: int) -> dict[str, float]:
    """The per-layer metrics the spans of ``ops`` timed ops give.

    ``*_ms`` per op is the layer's self time summed over the spans and
    divided by ``ops``; the service, store and batch figures are means
    per call. A layer without spans reads 0.
    """
    totals = layer_totals(spans)

    def per_op(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0) * 1000 / ops

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def seconds(name: str, key=None, wanted=None) -> list[float]:
        return [end - start for _i, _p, span, start, end, attrs in spans
                if span == name and (key is None or attrs[key] == wanted)]

    def attributes(name: str) -> list[dict]:
        return [attrs for _i, _p, span, _s, _e, attrs in spans if span == name]

    sweep_self = totals.get("kernel.sweep", {}).get("self", 0.0)
    swept = sum(attrs["states"] for attrs in attributes("kernel.sweep"))
    certificates = attributes("compositional")
    batches = attributes("parallel.batch")
    return {
        "protocols.build_ms": per_op("protocols.build"),
        "fingerprint.ms": per_op("fingerprint"),
        "fingerprint.calls": calls("fingerprint") / ops,
        "kernel.compile_ms": per_op("kernel.compile"),
        "kernel.plan_ms": per_op("kernel.plan"),
        "kernel.sweep_ms": per_op("kernel.sweep"),
        "kernel.sweep_states_per_s": swept / sweep_self if sweep_self else 0.0,
        "kernel.merge_ms": per_op("kernel.merge"),
        "kernel.closure_ms": per_op("kernel.closure"),
        "kernel.converge_ms": per_op("kernel.converge"),
        "quantitative.ms": per_op("quantitative"),
        "compositional.ms": per_op("compositional"),
        "compositional.obligations": (
            statistics.mean(c["obligations"] for c in certificates)
            if certificates else 0.0
        ),
        "compositional.enumerated_ms": (
            sum(c["enumerated_s"] for c in certificates) * 1000 / ops
        ),
        "staticcheck.static_ms": per_op("staticcheck.static"),
        "staticcheck.lint_ms": per_op("staticcheck.lint"),
        "service.hit_ms": _mean_ms(
            seconds("service.cached_record", "hit", True)
            + seconds("service.memo", "computed", False)
        ),
        "service.miss_ms": _mean_ms(seconds("service.memo", "computed", True)),
        "store.put_ms": _mean_ms(seconds("store.put")),
        "store.writes": calls("store.put"),
        "parallel.batch_ms": _mean_ms(seconds("parallel.batch")),
        "parallel.tasks_per_batch": (
            statistics.mean(b["tasks"] for b in batches) if batches else 0.0
        ),
        "parallel.pool_starts": calls("parallel.pool_start"),
    }
