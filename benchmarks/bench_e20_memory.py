"""E20 — kernel v3 memory model: narrow dtypes and streaming sweeps.

Kernel v3 (:mod:`repro.kernel`) attacks the packed engine's peak memory
on two fronts: state codes narrow to int16/int32 when the space fits
(:attr:`StateCodec.code_dtype`), and a ``memory_budget=`` turns the
full-space sweep into the streaming count-only path that visits one
shard at a time (peak ``O(shard)`` instead of ``O(edges)``).

The acceptance bar from the kernel v3 PR: on the E16 shapes *and* a
10^7-state ring, v3 must show at least ``MIN_MEMORY_REDUCTION``x lower
peak memory than the kernel v2 baseline (int64 codes, materialized CSR)
at no more than ``MAX_WALL_RATIO``x the wall time — with bit-identical
:class:`ToleranceReport` verdicts across dtype x streaming x shards.

The 16384-state shapes score the kernel's own accounting
(``kernel.mem.peak_bytes``: the interpreter dominates whole-process RSS
at this size); the ring scores real ``ru_maxrss`` in subprocess-isolated
children. Timings land in ``BENCH_verification.json`` under the
``kernel_v3_memory`` and ``kernel_v3_memory_ring`` suites.

The 10^7-state ring run takes minutes, so it is gated behind a flag::

    PYTHONPATH=src python benchmarks/bench_e20_memory.py --ring
"""

import json
import os
import subprocess
import sys
import time

from repro.analysis import render_table
from repro.core.predicates import TRUE
from repro.kernel import sweeps
from repro.kernel.verify import check_tolerance_packed
from repro.observability.metrics import MetricsRegistry
from repro.protocols.diffusing import build_diffusing_design
from repro.topology import balanced_tree, star_tree
from repro.verification.checker import _check_tolerance as check_tolerance

#: Peak-memory reduction kernel v3 promises over the v2 baseline.
MIN_MEMORY_REDUCTION = 2.0

#: The wall-time ceiling the memory savings may cost.
MAX_WALL_RATIO = 1.1

#: The E16 acceptance shapes: 14 variables, 16384 states each.
SHAPES = (
    ("diffusing star-7", lambda: star_tree(7)),
    ("diffusing balanced-2x2", lambda: balanced_tree(2, 2)),
)

#: Cold trials per configuration; configurations run interleaved within
#: each trial and the best paired wall ratio is scored, so slow drift
#: (cache warmth, scheduler) cancels out of the ratio.
TRIALS = 5

#: Shard count for the streaming configuration on the small shapes —
#: enough to shrink the per-shard transient below the resident masks
#: (the auto heuristic keeps spaces this small on a single shard).
STREAM_SHARDS = 4

#: The measured configurations. ``dtype`` is forced through
#: :data:`sweeps.FORCE_CODE_DTYPE` ("int64" reproduces the kernel v2
#: layout: int64 codes *and* int64 CSR offsets); ``memory_budget=1``
#: makes any materialized estimate exceed the budget, forcing the
#: streaming path.
CONFIGS = (
    ("kernel v2 (int64)", {"dtype": "int64"}),
    ("v3 narrow", {}),
    ("v3 streaming", {"memory_budget": 1, "shards": STREAM_SHARDS}),
)


def _peak_rss_mb() -> int:
    """This process's peak RSS in MB (``ru_maxrss`` high-water mark)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024


def _measure(
    program,
    invariant,
    *,
    dtype=None,
    memory_budget=None,
    shards=None,
    max_states=None,
):
    """One cold packed verification under a forced code dtype.

    Returns ``(report, seconds, peak_bytes, streamed)`` where
    ``peak_bytes`` is the kernel's own ``kernel.mem.peak_bytes`` gauge
    and ``streamed`` tells whether the count-only path produced the
    verdict.
    """
    previous = sweeps.FORCE_CODE_DTYPE
    metrics = MetricsRegistry()
    try:
        sweeps.FORCE_CODE_DTYPE = dtype
        started = time.perf_counter()
        report = check_tolerance_packed(
            program,
            invariant,
            TRUE,
            memory_budget=memory_budget,
            shards=shards,
            max_states=max_states,
            metrics=metrics,
        )
        seconds = time.perf_counter() - started
    finally:
        sweeps.FORCE_CODE_DTYPE = previous
    counters = metrics.report().counters
    return (
        report,
        seconds,
        counters.get("kernel.mem.peak_bytes", 0),
        bool(counters.get("kernel.mem.streaming", 0)),
    )


def test_e20_memory_model(report, bench_timings):
    """Tracked peak bytes: v2 baseline vs narrow vs streaming, per shape."""
    if not sweeps.HAVE_NUMPY:
        import pytest

        pytest.skip("numpy is not installed")

    rows = []
    instances = []
    for shape_name, make_tree in SHAPES:
        trials = {name: [] for name, _ in CONFIGS}
        for _ in range(TRIALS):
            # Interleave: one cold run of every configuration per trial,
            # so each trial yields directly comparable wall times.
            for config_name, options in CONFIGS:
                design = build_diffusing_design(make_tree())
                trials[config_name].append(
                    _measure(
                        design.program, design.candidate.invariant, **options
                    )
                )
        results = {}
        for config_name, _ in CONFIGS:
            runs = trials[config_name]
            reports = [t[0] for t in runs]
            assert all(r == reports[0] for r in reports)
            peaks = {t[2] for t in runs}
            assert len(peaks) == 1, f"{config_name}: nondeterministic peak"
            results[config_name] = {
                "report": reports[0],
                "seconds": [t[1] for t in runs],
                "best": min(t[1] for t in runs),
                "peak_bytes": peaks.pop(),
                "streamed": runs[0][3],
            }
        baseline = results["kernel v2 (int64)"]
        assert not baseline["streamed"]
        assert results["v3 streaming"]["streamed"], (
            f"{shape_name}: memory_budget=1 did not engage the streaming path"
        )
        for config_name, _ in CONFIGS:
            outcome = results[config_name]
            assert outcome["report"] == baseline["report"], (
                f"{shape_name}/{config_name}: verdict differs from baseline"
            )
            reduction = baseline["peak_bytes"] / outcome["peak_bytes"]
            # Best paired ratio across interleaved trials — drift-immune
            # the same way E16 scores its best paired speedup.
            wall_ratio = min(
                mine / theirs
                for mine, theirs in zip(
                    outcome["seconds"], baseline["seconds"]
                )
            )
            rows.append(
                [
                    f"{shape_name} / {config_name}",
                    f"{outcome['peak_bytes']:,} B",
                    f"{reduction:.2f}x",
                    f"{outcome['best']:.3f}s",
                    f"{wall_ratio:.2f}x",
                ]
            )
            if config_name != "kernel v2 (int64)":
                assert reduction >= MIN_MEMORY_REDUCTION, (
                    f"{shape_name}/{config_name}: peak reduction "
                    f"{reduction:.2f}x below {MIN_MEMORY_REDUCTION}x"
                )
                assert wall_ratio <= MAX_WALL_RATIO, (
                    f"{shape_name}/{config_name}: wall ratio "
                    f"{wall_ratio:.2f}x above {MAX_WALL_RATIO}x"
                )
        instances.append(
            {
                "case": shape_name,
                "v2_peak_bytes": baseline["peak_bytes"],
                "narrow_peak_bytes": results["v3 narrow"]["peak_bytes"],
                "streaming_peak_bytes": results["v3 streaming"]["peak_bytes"],
                "narrow_reduction": (
                    baseline["peak_bytes"]
                    / results["v3 narrow"]["peak_bytes"]
                ),
                "streaming_reduction": (
                    baseline["peak_bytes"]
                    / results["v3 streaming"]["peak_bytes"]
                ),
                "v2_seconds": baseline["seconds"],
                "narrow_seconds": results["v3 narrow"]["seconds"],
                "streaming_seconds": results["v3 streaming"]["seconds"],
                "streaming_shards": STREAM_SHARDS,
                "peak_rss_mb": _peak_rss_mb(),
            }
        )

    report(
        "e20_memory",
        render_table(
            ["configuration", "tracked peak", "reduction", "wall (best)",
             "ratio"],
            rows,
            title="E20: kernel v3 memory model vs the v2 baseline "
            "(kernel.mem.peak_bytes)",
        ),
    )
    bench_timings(
        "kernel_v3_memory",
        {
            "min_reduction_required": MIN_MEMORY_REDUCTION,
            "max_wall_ratio": MAX_WALL_RATIO,
            "trials": TRIALS,
            "instances": instances,
        },
    )


def test_e20_bit_identical_grid():
    """Verdicts across dtype x streaming x shards."""
    if not sweeps.HAVE_NUMPY:
        import pytest

        pytest.skip("numpy is not installed")

    design = build_diffusing_design(star_tree(7))
    baseline = check_tolerance(
        design.program, design.candidate.invariant, TRUE, engine="packed"
    )
    for dtype in (None, "int64"):
        for memory_budget in (None, 1):
            for shards in (None, 3):
                design = build_diffusing_design(star_tree(7))
                outcome, _, _, _ = _measure(
                    design.program,
                    design.candidate.invariant,
                    dtype=dtype,
                    memory_budget=memory_budget,
                    shards=shards,
                )
                assert outcome == baseline, (
                    f"verdict differs at dtype={dtype} "
                    f"budget={memory_budget} shards={shards}"
                )


# ----------------------------------------------------------------------
# 10^7-state ring: python benchmarks/bench_e20_memory.py --ring
# ----------------------------------------------------------------------

#: The ring instance: dijkstra-ring(7, K=10), exactly 10^7 states.
RING_NODES = 7
RING_K = 10

#: Peak-bytes budget for the v3 child — far below the materialized
#: estimate at 10^7 states, so the streaming path must engage.
RING_BUDGET = 128 << 20

#: Verdict fields the two children must agree on exactly.
RING_VERDICT_FIELDS = (
    "ok",
    "implication_ok",
    "s_closure_ok",
    "t_closure_ok",
    "convergence_ok",
    "classification",
    "stabilizing",
    "total_states",
    "span_states",
    "bad_states",
)


def ring_child(config: str) -> int:
    """Verify the ring in this (fresh) process and print a JSON line.

    ``config`` is ``v2`` (int64 codes, materialized CSR, as the pre-v3
    kernel) or ``v3`` (narrow dtypes, streaming under :data:`RING_BUDGET`).
    Isolation matters: ``ru_maxrss`` is a whole-process high-water mark,
    so each configuration must be the only verification its process
    ever ran.
    """
    from repro.protocols.token_ring import build_dijkstra_ring

    program, invariant = build_dijkstra_ring(RING_NODES, RING_K)
    options = (
        {"dtype": "int64"}
        if config == "v2"
        else {"memory_budget": RING_BUDGET}
    )
    verdict, seconds, peak_bytes, streamed = _measure(
        program, invariant, max_states=10**9, **options
    )
    print(
        json.dumps(
            {
                "config": config,
                "seconds": seconds,
                "peak_rss_mb": _peak_rss_mb(),
                "tracked_peak_bytes": peak_bytes,
                "streamed": streamed,
                "verdict": verdict.to_json(),
            }
        )
    )
    return 0


def run_ring() -> int:
    """Subprocess-isolated peak-RSS comparison on the 10^7-state ring."""
    size = RING_K**RING_NODES
    print(f"kernel v3 memory demo: dijkstra-ring({RING_NODES}, K={RING_K})")
    print(f"  state space: {size:,} states")
    children = {}
    for config in ("v2", "v3"):
        print(f"  running {config} child ...", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--ring-child", config],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(f"FAIL: {config} child exited {proc.returncode}",
                  file=sys.stderr)
            sys.stderr.write(proc.stderr)
            return 1
        children[config] = json.loads(proc.stdout.strip().splitlines()[-1])
        child = children[config]
        print(
            f"    {config}: {child['seconds']:.1f}s, "
            f"peak RSS {child['peak_rss_mb']} MB, "
            f"streamed={child['streamed']}"
        )

    v2, v3 = children["v2"], children["v3"]
    reduction = v2["peak_rss_mb"] / max(1, v3["peak_rss_mb"])
    wall_ratio = v3["seconds"] / v2["seconds"]
    print(f"  peak-RSS reduction: {reduction:.2f}x  wall ratio: "
          f"{wall_ratio:.2f}x")

    failures = []
    if v2["verdict"] != v3["verdict"]:
        failures.append("v3 verdict differs from the v2 baseline")
    for field in RING_VERDICT_FIELDS:
        if field not in v2["verdict"]:
            failures.append(f"verdict field missing: {field}")
    if v2["verdict"].get("total_states") != size or not v2["verdict"].get("ok"):
        failures.append("unexpected baseline verdict")
    if v2["streamed"]:
        failures.append("v2 baseline unexpectedly streamed")
    if not v3["streamed"]:
        failures.append(
            f"v3 child did not stream under memory_budget={RING_BUDGET}"
        )
    if reduction < MIN_MEMORY_REDUCTION:
        failures.append(
            f"peak-RSS reduction {reduction:.2f}x below "
            f"{MIN_MEMORY_REDUCTION}x"
        )
    if wall_ratio > MAX_WALL_RATIO:
        failures.append(
            f"wall ratio {wall_ratio:.2f}x above {MAX_WALL_RATIO}x"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    from conftest import record_verification_timings

    record_verification_timings(
        "kernel_v3_memory_ring",
        {
            "case": f"dijkstra-ring({RING_NODES}, K={RING_K})",
            "states": size,
            "memory_budget": RING_BUDGET,
            "v2_seconds": v2["seconds"],
            "v3_seconds": v3["seconds"],
            "v2_peak_rss_mb": v2["peak_rss_mb"],
            "v3_peak_rss_mb": v3["peak_rss_mb"],
            "peak_rss_mb": max(v2["peak_rss_mb"], v3["peak_rss_mb"]),
            "reduction": reduction,
            "wall_ratio": wall_ratio,
            "ok": v3["verdict"]["ok"],
            "stabilizing": v3["verdict"]["stabilizing"],
        },
    )
    print("kernel v3 memory demo passed: identical verdicts, "
          f"{reduction:.2f}x lower peak RSS")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ring",
        action="store_true",
        help="run the 10^7-state subprocess-isolated peak-RSS comparison",
    )
    parser.add_argument(
        "--ring-child",
        metavar="CONFIG",
        choices=("v2", "v3"),
        help=argparse.SUPPRESS,
    )
    arguments = parser.parse_args()
    if arguments.ring_child:
        raise SystemExit(ring_child(arguments.ring_child))
    if arguments.ring:
        raise SystemExit(run_ring())
    import pytest

    raise SystemExit(pytest.main([__file__, "-q"]))
