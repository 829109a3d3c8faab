"""E18 — the verification daemon under a mixed request load.

The daemon PR's acceptance bar: replay at least 500 mixed
``/verify`` + ``/lint`` requests against a **live** ``repro serve``
daemon (real sockets, concurrent keep-alive clients), and record
throughput, p50/p99 latency and the cache hit-rate in
``BENCH_verification.json`` under the ``service`` suite. Dedup is
verified separately: a burst of identical concurrent requests on a cold
daemon must cause exactly one verification.

The load is deterministic — a fixed roster of library instances cycled
round-robin across client threads — so the hit-rate is a property of
the daemon (first touch of each distinct instance misses, every later
touch hits some layer), not of a random seed.

After the timed replay the roster is replayed once more on the same
daemon. Every request of that pass is warm, so the daemon must answer
all of it on its event loop: the pass fails if it moved the
``requests.executor`` counter (hand-offs to an executor thread).

Run standalone as a CI smoke (seconds, asserts a nonzero hit-rate)::

    PYTHONPATH=src python benchmarks/bench_e18_service.py --quick
"""

import http.client
import json
import tempfile
import threading
import time

import repro.verification.server as server_module
from repro.analysis import render_table
from repro.verification.server import DaemonThread

#: The deterministic request roster: distinct instances cycled by every
#: client thread. 12 distinct verify targets + 4 lint targets, so a
#: 1000-request replay sees ~16 misses and ~98% cache hits.
VERIFY_BODIES = [
    {"case": "dijkstra-ring", "size": 3},
    {"case": "dijkstra-ring", "size": 4},
    {"case": "mis-cycle", "size": 4},
    {"case": "mis-cycle", "size": 5},
    {"case": "matching-cycle", "size": 3},
    {"case": "matching-cycle", "size": 4},
    {"case": "coloring-chain", "size": 3},
    {"case": "diffusing-chain", "size": 3},
    {"case": "diffusing-star", "size": 3},
    {"case": "leader-election-star", "size": 3},
    {"case": "four-state-line", "size": 4},
    {"case": "graph-coloring-cycle", "size": 4},
]
LINT_BODIES = [
    {"case": "coloring-chain"},
    {"case": "dijkstra-ring"},
    {"case": "diffusing-chain"},
    {"case": "mis-cycle"},
]

def _request_plan(total):
    """One request in four is a lint; the rest verify.

    Each roster is cycled on its own counter, so any replay of at least
    16 requests touches every verify and every lint target.
    """
    plan = []
    counts = {"/verify": 0, "/lint": 0}
    for index in range(total):
        path = "/lint" if index % 4 == 3 else "/verify"
        roster = LINT_BODIES if path == "/lint" else VERIFY_BODIES
        plan.append((path, roster[counts[path] % len(roster)]))
        counts[path] += 1
    return plan


def _plan_targets(total):
    """Distinct ``/verify`` and ``/lint`` bodies a replay of ``total`` sends."""
    targets = {"/verify": set(), "/lint": set()}
    for path, body in _request_plan(total):
        targets[path].add(json.dumps(body, sort_keys=True))
    return {path[1:]: len(bodies) for path, bodies in targets.items()}


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _replay(handle, total, clients):
    """Fire ``total`` planned requests from ``clients`` keep-alive threads.

    Returns ``(latencies_sorted, wall_seconds, failures)``.
    """
    plan = _request_plan(total)
    latencies = []
    failures = []
    lock = threading.Lock()
    cursor = iter(range(total))

    def worker():
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                path, body = plan[index]
                started = time.perf_counter()
                conn.request(
                    "POST", path, json.dumps(body),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    if response.status != 200 or not payload.get("ok", False):
                        failures.append((path, body, response.status))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return sorted(latencies), wall, failures


def _verify_dedup(burst=16):
    """Cold daemon + ``burst`` identical concurrent requests = 1 computation.

    The one verification is held until every other request has
    coalesced onto it, so the burst is a true in-flight cohort however
    fast the daemon dispatches.
    """
    entered, release = threading.Event(), threading.Event()
    original = server_module.run_batch

    def held_run_batch(tasks, **kwargs):
        entered.set()
        release.wait(timeout=60)
        return original(tasks, **kwargs)

    server_module.run_batch = held_run_batch
    handle = DaemonThread(workers=1).start()
    try:
        results = []

        def fire():
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=120
            )
            try:
                conn.request(
                    "POST", "/verify",
                    json.dumps({"case": "mis-cycle", "size": 5}),
                    {"Content-Type": "application/json"},
                )
                results.append(json.loads(conn.getresponse().read()))
            finally:
                conn.close()

        threads = [threading.Thread(target=fire) for _ in range(burst)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=60)
        deadline = time.time() + 60
        while (handle.daemon.requests["deduped"] < burst - 1
               and time.time() < deadline):
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join()
        computed = handle.daemon.requests["computed"]
        assert computed == 1, (
            f"{burst} identical concurrent requests caused {computed} "
            "verifications; in-flight dedup is broken"
        )
        deduped = handle.daemon.requests["deduped"]
        assert deduped == burst - 1, (
            f"{deduped} of {burst - 1} followers coalesced onto the held "
            "verification"
        )
        assert all(record["ok"] for record in results)
        return {"burst": burst, "computed": computed, "deduped": deduped}
    finally:
        release.set()
        handle.stop()
        server_module.run_batch = original


def _run_load(total, clients, workers):
    """One full load experiment against a fresh store-backed daemon."""
    with tempfile.TemporaryDirectory() as cache_dir:
        handle = DaemonThread(workers=workers, cache_dir=cache_dir).start()
        try:
            latencies, wall, failures = _replay(handle, total, clients)
            assert not failures, f"failed requests: {failures[:5]}"
            stats = handle.daemon.stats()
            _warm, _wall, failures = _replay(handle, total, clients)
            assert not failures, f"failed warm requests: {failures[:5]}"
            warm_executor = (
                handle.daemon.requests["executor"]
                - stats["requests"]["executor"]
            )
        finally:
            handle.stop()
    assert warm_executor == 0, (
        f"the all-warm replay handed {warm_executor} requests to an "
        "executor thread; warm requests must be answered on the event loop"
    )
    hit_rate = stats["cache_hit_rate"]
    assert hit_rate > 0, "replay of a cycled roster must produce cache hits"
    return {
        "requests": total,
        "clients": clients,
        "workers": workers,
        "throughput_rps": total / wall,
        "wall_seconds": wall,
        "p50_seconds": _percentile(latencies, 0.50),
        "p99_seconds": _percentile(latencies, 0.99),
        "max_seconds": latencies[-1],
        "hit_rate": hit_rate,
        "service": {
            key: stats["service"][key]
            for key in ("hits", "hits_memory", "hits_disk", "misses")
        },
        "store": {
            key: stats["store"][key]
            for key in ("entries", "shards", "hits", "misses", "writes")
        },
        "requests_by_kind": {
            key: stats["requests"][key]
            for key in ("verify", "lint", "deduped", "computed", "batches",
                        "executor")
        },
        "warm_pass_executor": warm_executor,
        "targets": _plan_targets(total),
    }


def test_e18_service_load(report, bench_timings):
    dedup = _verify_dedup()
    run = _run_load(total=1000, clients=8, workers=2)

    rows = [
        ["requests replayed", str(run["requests"])],
        ["client threads", str(run["clients"])],
        ["pool workers", str(run["workers"])],
        ["throughput", f"{run['throughput_rps']:.0f} req/s"],
        ["p50 latency", f"{run['p50_seconds'] * 1000:.2f} ms"],
        ["p99 latency", f"{run['p99_seconds'] * 1000:.2f} ms"],
        ["cache hit-rate", f"{run['hit_rate']:.3f}"],
        ["distinct verifications", str(run["requests_by_kind"]["computed"])],
        [
            "executor hand-offs",
            f"{run['requests_by_kind']['executor']} "
            f"(all-warm replay: {run['warm_pass_executor']})",
        ],
        [
            "dedup burst",
            f"{dedup['burst']} identical -> {dedup['computed']} computation",
        ],
    ]
    report(
        "e18_service",
        render_table(
            ["metric", "value"],
            rows,
            title="E18: verification daemon under mixed load",
        ),
    )
    bench_timings("service", {"load": run, "dedup": dedup})


# ----------------------------------------------------------------------
# CI perf smoke: python benchmarks/bench_e18_service.py --quick
# ----------------------------------------------------------------------


def run_quick() -> int:
    """Fast daemon smoke: dedup burst plus a small replay.

    Returns a process exit code; prints the headline numbers.
    """
    print("service perf smoke: dedup burst + 120-request replay")
    try:
        dedup = _verify_dedup(burst=8)
        print(
            f"  dedup: {dedup['burst']} identical concurrent -> "
            f"{dedup['computed']} computation ({dedup['deduped']} coalesced)"
        )
        run = _run_load(total=120, clients=4, workers=1)
    except AssertionError as error:
        print(f"  FAILED: {error}")
        return 1
    print(
        f"  replay: {run['requests']} requests, "
        f"{run['throughput_rps']:.0f} req/s, "
        f"p50 {run['p50_seconds'] * 1000:.1f} ms, "
        f"p99 {run['p99_seconds'] * 1000:.1f} ms, "
        f"hit-rate {run['hit_rate']:.3f}, "
        f"executor hand-offs {run['requests_by_kind']['executor']} "
        f"(all-warm replay: {run['warm_pass_executor']})"
    )
    if run["hit_rate"] <= 0:
        print("  FAILED: zero cache hit-rate")
        return 1
    roster = {"verify": len(VERIFY_BODIES), "lint": len(LINT_BODIES)}
    computed = run["requests_by_kind"]["computed"]
    if run["targets"] != roster or computed != len(VERIFY_BODIES):
        print(
            f"  FAILED: the replay touched {run['targets']} targets and "
            f"computed {computed} verdicts; the roster holds {roster}"
        )
        return 1
    print("service perf smoke: OK")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the seconds-scale CI smoke instead of the full load",
    )
    arguments = parser.parse_args()
    if arguments.quick:
        sys.exit(run_quick())
    from conftest import record_verification_timings

    dedup_result = _verify_dedup()
    load_result = _run_load(total=1000, clients=8, workers=2)
    record_verification_timings(
        "service", {"load": load_result, "dedup": dedup_result}
    )
    print(json.dumps({"load": load_result, "dedup": dedup_result}, indent=2))
