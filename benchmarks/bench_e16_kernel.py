"""E16 — packed exploration kernel vs the dict engine.

The packed kernel (:mod:`repro.kernel`) replaces dict-backed ``State``
objects with mixed-radix integer codes, compiles guards and statements
into closures over flat value lists, and memoizes each table-eligible
action's successor over its read-support projection. The acceptance bar
from the kernel PR: a **cold** full verification (kernel compilation
included) of the diffusing protocol must be at least ``MIN_SPEEDUP``x
faster than the dict engine on both the star-7 and balanced-2x2 tree
shapes — and produce a bit-identical :class:`ToleranceReport` on every
case of the protocol library.

Kernel v2 adds the vectorized frontier sweeps
(:mod:`repro.kernel.sweeps`): the same shapes must verify at least
``MIN_VECTOR_SPEEDUP``x faster again than the scalar packed sweep, and
sharded runs (``shards=N``) must be bit-identical to unsharded ones.

Timings land in ``BENCH_verification.json`` under the ``kernel`` and
``kernel_v2`` suites.

Run standalone as a CI perf smoke (small instances, seconds)::

    PYTHONPATH=src python benchmarks/bench_e16_kernel.py --quick --shards 4

The 10^8-state demonstration (dijkstra-ring of 8 nodes with K = 10,
exactly 100_000_000 states — far above what the scalar sweeps can cover
in reasonable time) is gated behind an explicit flag because it runs
for minutes and peaks at tens of GB of RSS::

    PYTHONPATH=src python benchmarks/bench_e16_kernel.py --demo-1e8
"""

import time

from repro.analysis import render_table
from repro.core.predicates import TRUE
from repro.kernel import sweeps
from repro.protocols.diffusing import build_diffusing_design
from repro.protocols.library import build_case, case_names
from repro.topology import balanced_tree, star_tree
from repro.verification.checker import _check_tolerance as check_tolerance

#: The cold-verification speedup the kernel PR promises per shape.
MIN_SPEEDUP = 5.0

#: The additional speedup of the vectorized sweep over the scalar packed
#: sweep (kernel v2's acceptance bar), cold, on the same shapes.
MIN_VECTOR_SPEEDUP = 5.0

#: The acceptance shapes: 14 variables, 16384 states each.
SHAPES = (
    ("diffusing star-7", lambda: star_tree(7)),
    ("diffusing balanced-2x2", lambda: balanced_tree(2, 2)),
)

#: Cold trials per shape; the best ratio is scored (both runs are cold
#: every trial, so noise can only understate the speedup).
TRIALS = 3


def _peak_rss_mb() -> int:
    """The process's peak RSS in MB (``ru_maxrss`` high-water mark).

    A whole-process high-water figure: per-entry values are therefore
    monotone within one run and record the worst case *observed by* that
    entry, not its isolated footprint (E20 measures isolated footprints
    in subprocesses).
    """
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024


def _cold_pair(program, invariant):
    """Back-to-back cold dict and packed verifications of one instance.

    A fresh program object is built per trial, so the packed time
    includes kernel compilation (codec, RW probes, guard compilation) —
    this is the cold end-to-end cost a first-time caller pays.
    """
    started = time.perf_counter()
    dict_report = check_tolerance(
        program, invariant, TRUE, list(program.state_space()), engine="dict"
    )
    dict_seconds = time.perf_counter() - started
    started = time.perf_counter()
    packed_report = check_tolerance(program, invariant, TRUE, engine="packed")
    packed_seconds = time.perf_counter() - started
    assert packed_report == dict_report, "engines disagree"
    return dict_seconds, packed_seconds


def _library_verdicts_identical(names):
    """Assert packed == dict on every named library case; return rows."""
    rows = []
    for name in names:
        program, invariant = build_case(name)
        dict_report = check_tolerance(
            program, invariant, TRUE, list(program.state_space()), engine="dict"
        )
        packed_report = check_tolerance(program, invariant, TRUE, engine="packed")
        assert packed_report == dict_report, f"{name}: engines disagree"
        rows.append((name, packed_report.total_states, packed_report.ok))
    return rows


def test_e16_kernel_speedup(benchmark, report, bench_timings):
    small = build_diffusing_design(star_tree(4))
    benchmark(
        lambda: check_tolerance(
            small.program, small.candidate.invariant, TRUE, engine="packed"
        )
    )

    rows = []
    instances = []
    for shape_name, make_tree in SHAPES:
        trials = []
        for _ in range(TRIALS):
            design = build_diffusing_design(make_tree())
            dict_seconds, packed_seconds = _cold_pair(
                design.program, design.candidate.invariant
            )
            trials.append((dict_seconds, packed_seconds))
        best_dict, best_packed = min(trials), min(t[1] for t in trials)
        speedup = max(d / p for d, p in trials)
        rows.append(
            [
                shape_name,
                f"{best_dict[0]:.3f}s",
                f"{best_packed:.3f}s",
                f"{speedup:.1f}x",
            ]
        )
        instances.append(
            {
                "case": shape_name,
                "dict_seconds": [d for d, _ in trials],
                "packed_seconds": [p for _, p in trials],
                "speedup": speedup,
                "peak_rss_mb": _peak_rss_mb(),
            }
        )
        assert speedup >= MIN_SPEEDUP, (
            f"{shape_name}: packed engine should be at least "
            f"{MIN_SPEEDUP:.0f}x faster cold, got {speedup:.1f}x"
        )

    library_rows = _library_verdicts_identical(case_names())
    rows.append(["library sweep", f"{len(library_rows)} cases", "identical", ""])

    report(
        "e16_kernel",
        render_table(
            ["instance", "dict (cold)", "packed (cold)", "speedup"],
            rows,
            title="E16: packed kernel vs dict engine, cold full verification",
        ),
    )
    bench_timings(
        "kernel",
        {
            "min_speedup_required": MIN_SPEEDUP,
            "trials": TRIALS,
            "instances": instances,
            "library_cases_identical": len(library_rows),
        },
    )


def _scalar_vs_vectorized(program, invariant, *, shards=None):
    """Cold scalar-sweep and vectorized-sweep packed verifications."""
    threshold = sweeps.VECTOR_MIN_STATES
    try:
        sweeps.VECTOR_MIN_STATES = 1 << 62  # force the scalar sweep
        started = time.perf_counter()
        scalar_report = check_tolerance(program, invariant, TRUE, engine="packed")
        scalar_seconds = time.perf_counter() - started
        sweeps.VECTOR_MIN_STATES = 0  # force the vectorized sweep
        started = time.perf_counter()
        vector_report = check_tolerance(
            program, invariant, TRUE, engine="packed", shards=shards
        )
        vector_seconds = time.perf_counter() - started
    finally:
        sweeps.VECTOR_MIN_STATES = threshold
    assert vector_report == scalar_report, "sweeps disagree"
    return scalar_seconds, vector_seconds


def test_e16_kernel_v2_vectorized_speedup(report, bench_timings):
    """Kernel v2: the vectorized sweep vs the scalar packed sweep."""
    if not sweeps.HAVE_NUMPY:
        import pytest

        pytest.skip("numpy is not installed")

    rows = []
    instances = []
    for shape_name, make_tree in SHAPES:
        trials = []
        for _ in range(TRIALS):
            design = build_diffusing_design(make_tree())
            trials.append(
                _scalar_vs_vectorized(design.program, design.candidate.invariant)
            )
        best_scalar = min(s for s, _ in trials)
        best_vector = min(v for _, v in trials)
        speedup = max(s / v for s, v in trials)
        # Sharding must not change the report (one cold check per shape).
        design = build_diffusing_design(make_tree())
        _scalar_vs_vectorized(
            design.program, design.candidate.invariant, shards=4
        )
        rows.append(
            [
                shape_name,
                f"{best_scalar:.3f}s",
                f"{best_vector:.3f}s",
                f"{speedup:.1f}x",
            ]
        )
        instances.append(
            {
                "case": shape_name,
                "scalar_seconds": [s for s, _ in trials],
                "vectorized_seconds": [v for _, v in trials],
                "speedup": speedup,
                "peak_rss_mb": _peak_rss_mb(),
            }
        )
        assert speedup >= MIN_VECTOR_SPEEDUP, (
            f"{shape_name}: vectorized sweep should be at least "
            f"{MIN_VECTOR_SPEEDUP:.0f}x faster than the scalar sweep, "
            f"got {speedup:.1f}x"
        )

    report(
        "e16_kernel_v2",
        render_table(
            ["instance", "scalar sweep", "vectorized", "speedup"],
            rows,
            title="E16 (kernel v2): vectorized vs scalar packed sweep, cold",
        ),
    )
    bench_timings(
        "kernel_v2",
        {
            "min_speedup_required": MIN_VECTOR_SPEEDUP,
            "trials": TRIALS,
            "instances": instances,
        },
    )


# ----------------------------------------------------------------------
# 10^8-state demonstration: python benchmarks/bench_e16_kernel.py --demo-1e8
# ----------------------------------------------------------------------

#: The demonstration instance: 10^8 states exactly.
DEMO_RING_NODES = 8
DEMO_RING_K = 10


def run_demo_1e8(shards: int | None = None) -> int:
    """Verify a 10^8-state instance end to end with the sharded sweeps.

    dijkstra-ring(8, K=10) has exactly ``10**8`` states. Every action is
    a two-variable table-mode action and the bad region is acyclic, so
    the whole verification — masks, successor CSR, closures, deadlock
    scan, Kahn peel — stays on the vectorized path. The scalar sweeps
    (dict or packed) would walk those hundred million states one at a
    time in Python; extrapolating their measured per-state cost puts
    them at hours for the same instance.
    """
    from repro.protocols.token_ring import build_dijkstra_ring

    program, invariant = build_dijkstra_ring(DEMO_RING_NODES, DEMO_RING_K)
    size = DEMO_RING_K ** DEMO_RING_NODES
    print(f"kernel v2 demo: dijkstra-ring({DEMO_RING_NODES}, K={DEMO_RING_K})")
    print(f"  state space: {size:,} states")
    started = time.perf_counter()
    report = check_tolerance(
        program,
        invariant,
        TRUE,
        engine="packed",
        max_states=10**9,
        shards=shards,
    )
    seconds = time.perf_counter() - started
    peak_mb = _peak_rss_mb()
    print(
        f"  verified in {seconds:.1f}s (peak RSS {peak_mb} MB): "
        f"ok={report.ok} stabilizing={report.stabilizing} "
        f"states={report.total_states:,}"
    )
    if report.total_states != size or not report.ok:
        print("FAIL: unexpected report")
        return 1
    from conftest import record_verification_timings

    record_verification_timings(
        "kernel_v2_demo",
        {
            "case": f"dijkstra-ring({DEMO_RING_NODES}, K={DEMO_RING_K})",
            "states": size,
            "shards": "auto" if shards is None else shards,
            "seconds": seconds,
            "peak_rss_mb": peak_mb,
            "ok": report.ok,
            "stabilizing": report.stabilizing,
        },
    )
    return 0


# ----------------------------------------------------------------------
# CI perf smoke: python benchmarks/bench_e16_kernel.py --quick
# ----------------------------------------------------------------------

#: Small library cases for the CI smoke — seconds, not minutes.
QUICK_CASES = ("diffusing-chain", "coloring-chain", "mp-token-ring")


def run_quick(shards: int | None = None) -> int:
    """Fast engine-parity smoke: identical verdicts, packed not slower.

    Returns a process exit code. The speedup bar here is deliberately
    1.0x (packed must simply not lose): the instances are small enough
    that constant overheads dominate, and the real ``MIN_SPEEDUP`` bar
    is enforced by the full E16 run on the 16384-state shapes.

    With ``shards``, each case is additionally verified through the
    sharded vectorized sweep (forced even on these small spaces) and the
    report must be identical to both scalar engines.
    """
    failures = []
    sharded = f" + sharded x{shards}" if shards else ""
    print(f"kernel perf smoke: {len(QUICK_CASES)} cases, dict vs packed{sharded}")
    for name in QUICK_CASES:
        # Best of three cold trials per engine: the instances are small
        # enough that a single sub-millisecond run is scheduler noise.
        dict_seconds = packed_seconds = float("inf")
        for _ in range(3):
            program, invariant = build_case(name)
            started = time.perf_counter()
            dict_report = check_tolerance(
                program, invariant, TRUE, list(program.state_space()),
                engine="dict",
            )
            dict_seconds = min(dict_seconds, time.perf_counter() - started)
            started = time.perf_counter()
            packed_report = check_tolerance(
                program, invariant, TRUE, engine="packed"
            )
            packed_seconds = min(packed_seconds, time.perf_counter() - started)
            if packed_report != dict_report:
                failures.append(f"{name}: packed verdict differs from dict")
                break
        if shards and not failures:
            program, invariant = build_case(name)
            sharded_report = check_tolerance(
                program, invariant, TRUE, engine="packed", shards=shards
            )
            if sharded_report != dict_report:
                failures.append(
                    f"{name}: sharded (shards={shards}) verdict differs"
                )
        ratio = dict_seconds / packed_seconds
        print(
            f"  {name:<22} dict={dict_seconds:7.3f}s "
            f"packed={packed_seconds:7.3f}s  {ratio:5.1f}x"
        )
        if packed_seconds > dict_seconds:
            failures.append(
                f"{name}: packed engine slower than dict "
                f"({packed_seconds:.3f}s > {dict_seconds:.3f}s)"
            )
    if failures:
        import sys

        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"kernel perf smoke passed: identical verdicts{sharded}")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the fast parity/perf smoke instead of the full benchmark",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="also verify through the sharded vectorized sweep",
    )
    parser.add_argument(
        "--demo-1e8",
        action="store_true",
        help="verify the 10^8-state dijkstra-ring(8, K=10) instance",
    )
    arguments = parser.parse_args()
    if arguments.demo_1e8:
        raise SystemExit(run_demo_1e8(arguments.shards))
    if arguments.quick:
        raise SystemExit(run_quick(arguments.shards))
    import pytest

    raise SystemExit(pytest.main([__file__, "-q"]))
