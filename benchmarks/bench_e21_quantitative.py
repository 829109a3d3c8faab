"""E21 — quantitative tolerance league table over the protocol library.

For every registered protocol this experiment runs the full quantitative
analysis (:func:`repro.quantitative.quantify`): random-daemon expected
convergence time, the fault-rate-weighted expectation, the adversarial
worst-case span, and the masking-distance-style score — and renders them
as one league table, ranked by score. On the toy sizes it also pins the
CSR value iteration against the dense reference solve, so the league
numbers are known-correct, not merely fast.

Timings land in ``BENCH_verification.json`` under the ``quantitative``
suite. The CI perf smoke runs the differential check, the cache-key
separation of quantified verdicts, and the level-order check: every
row whose worst case is finite (its non-target states are acyclic and
deadlock-free) must be solved with zero Jacobi sweeps, so a fallback to
full value iteration fails CI::

    PYTHONPATH=src python benchmarks/bench_e21_quantitative.py --quick
"""

import json
import math
import time

from repro.analysis import render_table
from repro.protocols.library import CASES, build_case
from repro.quantitative import (
    DENSE_AGREEMENT_RTOL,
    HAVE_NUMPY,
    QuantitativeUnsupported,
    dense_hitting_times,
    hitting_times,
    quantify,
)

#: Instances small enough that the dense O(states^3) reference stays
#: cheap; the league table itself runs each case's registered default.
DIFFERENTIAL_SIZES = {
    "diffusing-chain": 3,
    "dijkstra-ring": 3,
    "coloring-chain": 3,
    "mis-cycle": 3,
}


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.3f}"


def league_table() -> list[dict]:
    """Quantify every library protocol at its registered default size."""
    rows = []
    for name, entry in CASES.items():
        program, invariant = build_case(name, entry.default_size)
        started = time.perf_counter()
        report = quantify(program, invariant, case=f"{name} (n={entry.default_size})")
        rows.append(
            {
                "case": name,
                "size": entry.default_size,
                "states": report.states,
                "mean_steps": report.mean_steps,
                "weighted_mean_steps": report.weighted_mean_steps,
                "worst_case_steps": report.worst_case_steps,
                "score": report.score,
                "path": report.path,
                "iterations": report.iterations,
                "converged": report.converged,
                "seconds": time.perf_counter() - started,
            }
        )
    rows.sort(key=lambda row: row["score"], reverse=True)
    return rows


def differential_check() -> int:
    """Pin the CSR value iteration against the dense solve; return #cases."""
    checked = 0
    for name, size in DIFFERENTIAL_SIZES.items():
        program, invariant = build_case(name, size)
        states = list(program.state_space())
        fast = hitting_times(program, states, invariant)
        dense = dense_hitting_times(program, states, invariant)
        for got, want in zip(fast.expectations, dense.expectations):
            if math.isinf(want):
                assert math.isinf(got), f"{name}: finite where dense is inf"
            else:
                assert abs(got - want) <= DENSE_AGREEMENT_RTOL * (1.0 + abs(want)), (
                    f"{name}: CSR {got} vs dense {want}"
                )
        checked += 1
    return checked


def level_order_check(rows: list[dict]) -> int:
    """Every acyclic row took no Jacobi sweep; return #acyclic rows.

    A finite worst case means the Kahn peel removed every non-target
    state, so the level-order pass must have solved them all exactly.
    """
    acyclic = [row for row in rows if not math.isinf(row["worst_case_steps"])]
    for row in acyclic:
        assert row["iterations"] == 0, (
            f"{row['case']}: {row['iterations']} Jacobi sweeps on an "
            "acyclic instance"
        )
    return len(acyclic)


def cache_key_separation() -> None:
    """A quantified verdict must not collide with the plain verdict."""
    import repro
    from repro.verification import VerificationService

    service = VerificationService()
    plain = repro.verify("coloring-chain", size=3, service=service)
    quantified = repro.verify("coloring-chain", size=3, quantify=True,
                              service=service)
    assert plain.quantitative is None
    assert quantified.cached is False, "quantify hit the plain cache entry"
    assert quantified.quantitative is not None
    again = repro.verify("coloring-chain", size=3, quantify=True,
                         service=service)
    assert again.cached and again.quantitative == quantified.quantitative


def test_e21_quantitative_league(benchmark, report, bench_timings):
    program, invariant = build_case("dijkstra-ring", 3)
    states = list(program.state_space())
    benchmark(lambda: hitting_times(program, states, invariant))

    assert differential_check() == len(DIFFERENTIAL_SIZES)
    cache_key_separation()

    rows = league_table()
    assert all(row["converged"] for row in rows)
    assert all(0.0 <= row["score"] < 1.0 for row in rows)
    level_order_check(rows)
    table = render_table(
        ["protocol", "n", "states", "E[steps]", "weighted E",
         "worst case", "score", "path", "seconds"],
        [
            [
                row["case"],
                row["size"],
                row["states"],
                _fmt(row["mean_steps"]),
                _fmt(row["weighted_mean_steps"]),
                _fmt(row["worst_case_steps"]),
                f"{row['score']:.4f}",
                row["path"],
                f"{row['seconds']:.3f}",
            ]
            for row in rows
        ],
        title="E21: quantitative tolerance league (ranked by score)",
    )
    report("e21_quantitative", table)
    bench_timings("quantitative", {"league": rows})


# ----------------------------------------------------------------------
# CI perf smoke: python benchmarks/bench_e21_quantitative.py --quick
# ----------------------------------------------------------------------


def run_quick() -> int:
    """Seconds-scale smoke: differential agreement, cache-key separation
    and zero Jacobi sweeps on every acyclic league row.

    The analysis requires numpy; on an interpreter without it (the
    numpy-free ``run_all.py --quick`` job) the smoke checks the
    structured refusal instead.
    """
    if not HAVE_NUMPY:
        return _refusal_smoke()
    print("quantitative perf smoke: CSR-vs-dense differential, cache keys, "
          "level order")
    try:
        checked = differential_check()
        print(f"  differential: {checked} protocols within "
              f"rtol {DENSE_AGREEMENT_RTOL}")
        cache_key_separation()
        print("  cache keys: quantify records separate from plain verdicts")
        rows = league_table()
        acyclic = level_order_check(rows)
        print(f"  level order: {acyclic} acyclic protocols, 0 Jacobi sweeps")
    except AssertionError as error:
        print(f"  FAILED: {error}")
        return 1
    slowest = max(rows, key=lambda row: row["seconds"])
    print(f"  league: {len(rows)} protocols, all converged; slowest "
          f"{slowest['case']} at {slowest['seconds']:.3f}s ({slowest['path']})")
    print("quantitative perf smoke: OK")
    return 0


def _refusal_smoke() -> int:
    import repro
    from repro.verification import VerificationService

    print("quantitative perf smoke: numpy missing, checking the refusal")
    try:
        repro.verify("coloring-chain", size=3, quantify=True,
                     service=VerificationService())
    except QuantitativeUnsupported as error:
        print(f"  refused: {error}")
        print("quantitative perf smoke: OK")
        return 0
    print("  FAILED: quantify=True ran without numpy")
    return 1


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the seconds-scale CI smoke instead of the full league",
    )
    arguments = parser.parse_args()
    if arguments.quick:
        sys.exit(run_quick())
    from conftest import record_verification_timings

    differential_check()
    league = league_table()
    record_verification_timings("quantitative", {"league": league})
    print(json.dumps({"league": league}, indent=2))
