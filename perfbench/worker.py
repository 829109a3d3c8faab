"""In-process runner of the ``sweep-cold`` and ``certify-large`` workloads.

``run.py`` starts this in a fresh interpreter. It sets up (imports, the
seeded roster, the warm-up ops), prints ``READY``, runs whole passes of
the roster until the next pass would overrun ``--seconds``, and prints
one JSON line of raw results. Every op is checked against its
hand-written expectation and its intended path; a mismatch is a failed
op, never a slower or faster one.

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep-cold \
        --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

import roster
from hostspeed import probe, probe_mixed, scaled
from spans import SpanRecorder, span_metrics


def shm_segments() -> set[str]:
    """The kernel's shared-memory segments currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("rk3")}
    except FileNotFoundError:
        return set()


def _counts(metrics) -> dict[str, int]:
    counts = {name: counter.count for name, counter in metrics.counters.items()}
    build = metrics.timers.get("kernel.build")
    counts["kernel.build"] = build.count if build is not None else 0
    return counts


def _path(counts: dict[str, int]) -> str:
    if counts.get("kernel.shard.merged"):
        return "sharded"
    if counts.get("kernel.mem.streaming"):
        return "streaming"
    if counts.get("kernel.sweep.vectorized"):
        return "vectorized"
    return "scalar"


class SweepCold:
    """Cold full-space verdicts through ``VerificationService.verify_tolerance``."""

    ops = roster.SWEEP_OPS
    warmup = roster.SWEEP_WARMUP
    #: The ops split their time between the interpreter and numpy.
    probe = staticmethod(probe_mixed)

    def __init__(self, seed: int) -> None:
        from repro.observability import MetricsRegistry
        from repro.verification import VerificationService

        self._registry = MetricsRegistry
        self._service = VerificationService
        rng = random.Random(seed)
        # Supplied state lists are inputs, built once in a seeded order.
        self.supplied = {}
        for op in self.warmup + self.ops:
            if op.supplied and op.name not in self.supplied:
                program, _ = roster.build_program(op.family, op.size)
                states = list(program.state_space())
                rng.shuffle(states)
                self.supplied[op.name] = states
        self.peak_bytes = 0
        self.paths: dict[str, int] = {}

    def run(self, op) -> str | None:
        """Run one op; return why it failed, or ``None``."""
        metrics = self._registry()
        segments = shm_segments()
        program, invariant = roster.build_program(op.family, op.size)
        verdict = self._service(metrics=metrics).verify_tolerance(
            program,
            invariant,
            states=self.supplied.get(op.name),
            method="full",
            shards=op.shards,
            memory_budget=op.memory_budget,
            quantify=op.quantify,
        )
        record = verdict.record
        counts = _counts(metrics)
        path = _path(counts)
        self.paths[path] = self.paths.get(path, 0) + 1
        self.peak_bytes = max(self.peak_bytes, counts.get("kernel.mem.peak_bytes", 0))
        leaked = shm_segments() - segments
        if leaked:
            return f"leaked shared-memory segments {sorted(leaked)}"
        if verdict.ok != (op.expect == roster.OK):
            return f"verdict ok={verdict.ok}, expected {op.expect}"
        if record["total_states"] != op.states:
            return f"{record['total_states']} states, expected {op.states}"
        if verdict.cached or record.get("engine") != "packed":
            return f"cached={verdict.cached} engine={record.get('engine')}"
        if op.quantify and "quantitative" not in record:
            return "no quantitative report"
        if counts["kernel.build"] != 1:
            return f"{counts['kernel.build']} kernel builds, expected 1"
        if path != op.path:
            return f"ran on the {path} path, expected {op.path}"
        return None


class CertifyLarge:
    """Compositional certification of freshly built large designs."""

    ops = roster.CERTIFY_OPS
    warmup = roster.CERTIFY_WARMUP
    #: The ops are interpreter-bound throughout.
    probe = staticmethod(probe)

    def __init__(self, seed: int) -> None:
        import repro
        from repro.observability import MetricsRegistry
        from repro.verification import VerificationService

        self._verify = repro.verify
        self._registry = MetricsRegistry
        self._service = VerificationService
        self.obligations = 0
        self.static = 0

    def run(self, op) -> str | None:
        """Run one op; return why it failed, or ``None``."""
        design = roster.build_design(op.family, op.size)
        verdict = self._verify(
            design,
            method=op.method,
            service=self._service(metrics=self._registry()),
        )
        record = verdict.record
        if record.get("method") != "compositional":
            return f"answered by method {record.get('method')!r}"
        if verdict.cached:
            return "answered from a cache"
        if op.expect == roster.REFUSED:
            if record.get("status") != "refused" or not str(
                record.get("refusal", "")
            ).startswith(op.refusal):
                return f"status {record.get('status')!r}, expected a refusal"
            return None
        if not verdict.ok or record.get("status") != "certified":
            return f"status {record.get('status')!r}: {record.get('refusal')}"
        self.obligations += record["obligations"]
        self.static += record["static"]
        share = record["static"] / record["obligations"]
        if share < op.min_static_share:
            return f"static share {share:.3f} < {op.min_static_share}"
        return None


WORKLOADS = {"sweep-cold": SweepCold, "certify-large": CertifyLarge}


def run_op(workload, op, samples, recorder=None, before=None) -> float:
    """Time one op (a failure or exception is recorded, not raised).

    Each op starts from a collected heap, so a cyclic collection left
    over from the previous op is not charged to this one, and is
    bracketed by the workload's host-speed probes: a sample is ``(name,
    seconds, probe before, probe after, failure)``. ``before`` is the
    previous op's probe after, if it ran just before; the probe after
    this op is returned.
    """
    gc.collect()
    if before is None:
        before = workload.probe()
    started = time.perf_counter()
    try:
        if recorder is None:
            failure = workload.run(op)
        else:
            failure = recorder.span(f"op.{op.name}", workload.run, op)
    except Exception as error:  # a crash is a failed op, not a dead run
        failure = f"{type(error).__name__}: {error}"
    seconds = time.perf_counter() - started
    after = workload.probe()
    samples.append((op.name, seconds, before, after, failure))
    return after


def timed_passes(workload, seconds: float, rng, recorder=None):
    """Whole seeded-order passes for about ``seconds``.

    A pass starts while at least half of one is left, so the measured
    time is ``seconds`` give or take half a pass. Returns the samples;
    whole passes keep the op mix the same in every run.
    """
    samples: list[tuple] = []
    pass_seconds: list[float] = []
    started = time.perf_counter()
    last = None
    while True:
        elapsed = time.perf_counter() - started
        if pass_seconds and elapsed + statistics.mean(pass_seconds) / 2 > seconds:
            break
        order = list(workload.ops)
        rng.shuffle(order)
        pass_started = time.perf_counter()
        for op in order:
            last = run_op(workload, op, samples, recorder, last)
        pass_seconds.append(time.perf_counter() - pass_started)
    return samples


def _by_op(samples, statistic=statistics.median) -> dict[str, float]:
    """Per op name, ``statistic`` of its times scaled to reference speed."""
    by_op: dict[str, list[float]] = {}
    for name, seconds, before, after, _ in samples:
        by_op.setdefault(name, []).append(scaled(seconds, (before, after)))
    return {name: statistic(values) for name, values in by_op.items()}


def end_to_end(workload, samples) -> dict[str, float]:
    """Throughput and latency percentiles of one median pass.

    Every op is a fixed amount of work, timed dozens of times in a run
    and scaled to the reference host speed by the probes around it
    (``hostspeed``): each op's latency is the median of its scaled
    repeats, and throughput and percentiles are taken over one pass of
    the roster built from those.
    """
    typical = _by_op(samples)
    latencies = sorted(typical[op.name] * 1000 for op in workload.ops)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "ops_per_s": len(latencies) / (sum(latencies) / 1000),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_p99": cuts[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host.probe_ms": probe_ms(samples),
    }


def probes(samples) -> list[float]:
    """Every host-speed probe around ``samples``, in seconds."""
    return [p for sample in samples for p in sample[2:4]]


def probe_ms(samples) -> float:
    """Median host-speed probe of the run, in ms (the raw host speed)."""
    return statistics.median(probes(samples)) * 1000


def layer_results(workload, spans, samples, untraced) -> dict[str, float]:
    """The per-layer metrics of the traced half, and the tracing overhead."""
    ops = len(samples)
    traced = _by_op(samples)
    base = _by_op(untraced)
    shared = [name for name in traced if name in base]
    results = span_metrics(spans, ops)
    results["host.probe_ms"] = probe_ms(untraced + samples)
    results["observability.overhead_pct"] = (
        sum(traced[n] for n in shared) / sum(base[n] for n in shared) - 1
    ) * 100 if shared else 0.0
    if isinstance(workload, SweepCold):
        roles = {
            "kernel.scalar_op_ms": lambda op: op.path == "scalar" and not op.supplied,
            "kernel.supplied_op_ms": lambda op: op.supplied,
            "kernel.stream_op_ms": lambda op: op.path == "streaming",
        }
        for metric, role in roles.items():
            results[metric] = 1000 * statistics.mean(
                traced[op.name] for op in workload.ops if role(op)
            )
        results["kernel.mem_peak_mb"] = workload.peak_bytes / 2**20
        passes = ops / len(workload.ops)
        for path in ("vectorized", "sharded", "streaming", "scalar"):
            results[f"kernel.path.{path}"] = workload.paths.get(path, 0) / passes
    else:
        results["staticcheck.discharged_share"] = (
            workload.static / workload.obligations if workload.obligations else 0.0
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="exit right after set-up (a set-up time sample)",
    )
    parser.add_argument("--spans", default=None, help="write spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    warmup: list = []
    for op in workload.warmup:
        run_op(workload, op, warmup)
    # The roster and the warm-up's garbage are long-lived set-up state:
    # keep them out of every collection the timed ops trigger.
    gc.collect()
    gc.freeze()
    print("READY", flush=True)
    if args.setup_only:
        return 1 if any(sample[-1] for sample in warmup) else 0

    rng = random.Random(args.seed)
    if args.trace:
        # Half the time untraced, half traced: the per-layer numbers come
        # from the traced half, the overhead from comparing the two.
        untraced = timed_passes(workload, args.seconds / 2, rng)
        recorder = SpanRecorder(f"{args.workload}-{args.seed}-{os.getpid()}")
        workload.paths = {}
        recorder.install()
        try:
            samples = timed_passes(workload, args.seconds / 2, rng, recorder)
        finally:
            recorder.uninstall()
        if args.spans:
            recorder.dump(args.spans)
        metrics = layer_results(workload, recorder.spans, samples, untraced)
        samples = untraced + samples
    else:
        samples = timed_passes(workload, args.seconds, rng)
        metrics = end_to_end(workload, samples)
    checked = warmup + samples
    failures = [f"{sample[0]}: {sample[-1]}" for sample in checked if sample[-1]]
    print(json.dumps({
        "attempted": len(checked),
        "failures": failures,
        "probes": probes(samples),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
