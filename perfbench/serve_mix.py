"""The ``serve-mix`` workload: a closed loop against a live ``repro serve``.

The daemon runs in its own process (``daemon.py``), so the client never
shares its interpreter lock. Two keep-alive connections, each on its own
thread, send their next request only when the previous one has been
answered — callers such as CI jobs that each wait for their reply. The
seeded mix deals each connection, in every 20 requests, 16 verify hits
on the warm roster (80%), 3 ``/lint`` (15%) and 1 cold miss (5%:
``quantify: true`` with a fault rate never sent before in the run),
which runs the key build, fingerprint, batch window, pool, compute,
ingest and store write.

This module only speaks HTTP; it never imports ``repro``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import roster
from hostspeed import PairProbe, probe, scaled
from spans import span_metrics
from worker import shm_segments

CONNECTIONS = 2
#: Length of one round of the closed loop. Between rounds both
#: connections are idle while the client probes the host's speed.
ROUND_SECONDS = 1.0
#: Largest drift of a request share from its target before the run is
#: marked as not having run the designed mix.
SHARE_TOLERANCE = 0.02


class Daemon:
    """One ``repro serve`` process with a private verdict store."""

    def __init__(self, root: Path, run_dir: Path, env, *, trace: bool) -> None:
        self.dir = run_dir / f"daemon-{os.getpid()}-{time.monotonic_ns()}"
        self.dir.mkdir(parents=True)
        self.result = self.dir / "result.json"
        self.spans = self.dir / "spans.json" if trace else None
        command = [
            sys.executable, "-u", str(root / "perfbench" / "daemon.py"),
            "--result", str(self.result),
        ]
        if self.spans is not None:
            command += ["--spans", str(self.spans)]
        command += [
            "--", "serve", "--port", "0", "--cache", str(self.dir / "cache"),
            "--workers", "2",
        ]
        self.started = time.perf_counter()
        self._log = open(self.dir / "stderr.log", "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        watchdog = threading.Timer(60, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> tuple[str | None, dict]:
        """SIGTERM, drain, wait; return ``(failure, launcher result)``."""
        failure = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            failure = "daemon did not drain within 60 s of SIGTERM"
        self._log.close()
        try:
            result = json.loads(self.result.read_text())
        except (OSError, ValueError):
            result = {}
        if failure is None and (self.process.returncode != 0 or result.get("exit") != 0):
            failure = f"daemon exited with {self.process.returncode}"
        result["spans"] = []
        if self.spans is not None and self.spans.exists():
            result["spans"] = json.loads(self.spans.read_text())["spans"]
            self.spans.replace(self.dir.parent / "spans-serve-mix.json")
        if failure is None:
            shutil.rmtree(self.dir, ignore_errors=True)
        return failure, result


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body=None):
        """``(status, payload, seconds)`` of one request."""
        data = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        started = time.perf_counter()
        self.connection.request(method, path, data, headers)
        response = self.connection.getresponse()
        raw = response.read()
        seconds = time.perf_counter() - started
        return response.status, json.loads(raw), seconds

    def close(self) -> None:
        self.connection.close()


def _check_verify(status, payload, expect, method, *, cached) -> str | None:
    if status != 200:
        return f"HTTP {status}: {payload.get('error')}"
    if payload.get("ok") != (expect == roster.OK):
        return f"verdict ok={payload.get('ok')}, expected {expect}"
    if method is not None and payload.get("method") != method:
        return f"method {payload.get('method')!r}, expected {method!r}"
    if payload.get("cached") != cached:
        return f"cached={payload.get('cached')}, expected {cached}"
    return None


def warm(client: Client) -> list[str]:
    """Answer the warm roster once (verify and lint); return failures."""
    failures = []
    for case, size, fairness, expect, method in roster.SERVE_VERIFY:
        status, payload, _ = client.call(
            "POST", "/verify", {"case": case, "size": size, "fairness": fairness}
        )
        failure = _check_verify(status, payload, expect, method, cached=False)
        if failure:
            failures.append(f"warm {case}/{fairness}: {failure}")
    for case, size, expect in roster.SERVE_LINT:
        status, payload, _ = client.call("POST", "/lint", {"case": case, "size": size})
        if status != 200 or payload.get("ok") != (expect == roster.OK):
            failures.append(f"warm lint {case}: HTTP {status} ok={payload.get('ok')}")
    return failures


def start(root: Path, run_dir: Path, env, *, trace: bool):
    """Spawn, probe ``/healthz`` and warm a daemon: the set-up.

    Returns ``(daemon, client, setup seconds, probes, failures)``: the
    raw set-up time and the host-speed probes taken just before the
    spawn and just after the warm-up.
    """
    before = probe()
    daemon = Daemon(root, run_dir, env, trace=trace)
    client = Client(daemon.port)
    status, payload, _ = client.call("GET", "/healthz")
    failures = [] if status == 200 and payload.get("status") == "ok" else [
        f"/healthz answered {status}"
    ]
    failures += warm(client)
    seconds = time.perf_counter() - daemon.started
    return daemon, client, seconds, [before, probe()], failures


def _fault_rates(index: int, seed: int):
    """Disjoint exact binary fractions per connection: every miss is new."""
    k = 0
    while True:
        k += 1
        yield 0.25 + (CONNECTIONS * k + index) / 4096 + seed % 997 / 2**22


class _Rounds:
    """The shared clock of the connections: rounds of the closed loop."""

    def __init__(self) -> None:
        # Every wait ends well within a run: a request times out in 60 s.
        self.barrier = threading.Barrier(CONNECTIONS + 1, timeout=120)
        self.deadline = 0.0
        self.index = 0
        self.done = False


def _deck(rng: random.Random, items):
    """Endless seeded draws that deal every item once per shuffled deck.

    Dealing, not independent draws, keeps every share of the mix exact
    over each deck, so the seed orders the requests without changing
    how much of each kind a run sends.
    """
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class _Mix:
    """One connection's seeded request sequence."""

    #: Requests per deck of kinds: 20 deals the shares exactly.
    DECK = 20

    def __init__(self, rng: random.Random, fault_rates) -> None:
        kinds = [kind for kind, share in roster.SERVE_SHARES.items()
                 for _ in range(round(share * self.DECK))]
        self.kinds = _deck(rng, kinds)
        self.items = {
            "hit": _deck(rng, roster.SERVE_VERIFY),
            "lint": _deck(rng, roster.SERVE_LINT),
            "miss": _deck(rng, roster.SERVE_MISS),
        }
        self.fault_rates = fault_rates


def _loop(port: int, mix: _Mix, rounds: _Rounds, out: list):
    """One connection's closed loop, round after round until ``done``.

    A sample is ``(kind, seconds, call_seconds, failure, round)``.
    """
    client = Client(port)
    try:
        while True:
            rounds.barrier.wait()
            if rounds.done:
                return
            while time.perf_counter() < rounds.deadline:
                sample = _request(client, mix)
                out.append(sample + (rounds.index,))
                if sample[1] == 0.0:  # the connection broke: open another
                    client.close()
                    client = Client(port)
            rounds.barrier.wait()
    except BaseException:
        rounds.barrier.abort()
        raise
    finally:
        client.close()


def _request(client: Client, mix: _Mix):
    """Send the next request of the seeded mix; ``(kind, seconds, call, failure)``."""
    kind = next(mix.kinds)
    item = next(mix.items[kind])
    if kind == "hit":
        case, size, fairness, expect, method = item
        body = {"case": case, "size": size, "fairness": fairness}
        path = "/verify"
    elif kind == "lint":
        case, size, expect = item
        body = {"case": case, "size": size}
        path, method = "/lint", None
    else:
        case, size, expect = item
        rate = next(mix.fault_rates)
        body = {"case": case, "size": size, "quantify": True, "fault_rate": rate}
        path, method = "/verify", "full"
    try:
        status, payload, seconds = client.call("POST", path, body)
    except (OSError, http.client.HTTPException, ValueError) as error:
        return kind, 0.0, 0.0, f"{type(error).__name__}: {error}"
    if kind == "lint":
        failure = None
        if status != 200 or payload.get("ok") != (expect == roster.OK):
            failure = f"lint HTTP {status} ok={payload.get('ok')}"
        elif not (payload.get("cached") or payload.get("deduped")):
            failure = "lint recomputed on a warm daemon"
    else:
        failure = _check_verify(status, payload, expect, method, cached=(kind == "hit"))
        if failure is None and kind == "miss" and (
            payload.get("quantitative", {}).get("fault_rate") != rate
        ):
            failure = "miss answered without its quantitative report"
    return kind, seconds, payload.get("call_seconds", 0.0), failure


def closed_loop(port: int, seed: int, seconds: float):
    """Run the mix on :data:`CONNECTIONS` connections for ``seconds``.

    The loop runs in rounds of :data:`ROUND_SECONDS`; before and after
    each, with both connections idle, the client probes the host's
    speed on both vCPUs (the loop keeps both busy). Returns ``(samples,
    probes, round walls, started, ended)``.
    """
    rounds = _Rounds()
    outputs = [[] for _ in range(CONNECTIONS)]
    threads = [
        threading.Thread(
            target=_loop,
            args=(port, _Mix(random.Random(seed * CONNECTIONS + index),
                             _fault_rates(index, seed)),
                  rounds, outputs[index]),
        )
        for index in range(CONNECTIONS)
    ]
    pair = PairProbe()
    try:
        probes, walls = [pair()], []
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        try:
            while time.perf_counter() - started < seconds:
                round_started = time.perf_counter()
                rounds.deadline = round_started + ROUND_SECONDS
                rounds.barrier.wait()
                rounds.barrier.wait()
                walls.append(time.perf_counter() - round_started)
                rounds.index += 1
                probes.append(pair())
        finally:
            ended = time.perf_counter()
            rounds.done = True
            try:
                rounds.barrier.wait()
            except threading.BrokenBarrierError:
                pass
            for thread in threads:
                thread.join()
    finally:
        pair.close()
    samples = [sample for out in outputs for sample in out]
    return samples, probes, walls, started, ended


def _stats_delta(before: dict, after: dict) -> dict[str, int]:
    return {
        name: after["requests"][name] - before["requests"][name]
        for name in after["requests"]
    }


def shape_failures(samples, delta: dict[str, int]) -> list[str]:
    """Check the run served the designed mix, from responses and /stats."""
    failures = []
    total = len(samples)
    for kind, target in roster.SERVE_SHARES.items():
        share = sum(1 for sample in samples if sample[0] == kind) / total
        if abs(share - target) > SHARE_TOLERANCE:
            failures.append(f"{kind} share {share:.3f}, designed {target}")
    misses = sum(1 for sample in samples if sample[0] == "miss")
    lints = sum(1 for sample in samples if sample[0] == "lint")
    expected = {
        "verify": total - lints, "lint": lints, "quantify": misses,
        "computed": misses, "errors": 0,
    }
    for name, count in expected.items():
        if delta[name] != count:
            failures.append(f"/stats {name} moved by {delta[name]}, expected {count}")
    return failures


def measure(root, run_dir, env, seed, seconds, *, trace: bool):
    """One daemon lifetime: set-up, timed closed loop, /stats, drain."""
    segments = shm_segments()
    daemon, client, setup, setup_probes, failures = start(root, run_dir, env,
                                                          trace=trace)
    try:
        _, before, _ = client.call("GET", "/stats")
        samples, probes, walls, started, ended = closed_loop(
            daemon.port, seed, seconds
        )
        _, after, _ = client.call("GET", "/stats")
    finally:
        client.close()
        stop_failure, result = daemon.stop()
    delta = _stats_delta(before, after)
    failures += [f"{sample[0]}: {sample[3]}" for sample in samples if sample[3]]
    failures += shape_failures(samples, delta)
    if stop_failure:
        failures.append(stop_failure)
    if shm_segments() - segments:
        failures.append("leaked shared-memory segments")
    return {
        "setup": setup, "setup_probes": setup_probes, "samples": samples,
        "window": (started, ended), "walls": walls, "probes": probes, "delta": delta,
        "stats": after, "result": result, "failures": failures,
    }


def setup_sample(root, run_dir, env) -> tuple[float, list[float], list[str]]:
    """A throwaway daemon's set-up: ``(seconds, probes, failures)``.

    The daemon is then stopped cleanly.
    """
    daemon, client, setup, probes, failures = start(root, run_dir, env, trace=False)
    client.close()
    stop_failure, _ = daemon.stop()
    return setup, probes, failures + ([stop_failure] if stop_failure else [])


def _rounds(run):
    """Per round: ``(requests per second, median latency in seconds)``.

    Raw times: scale them with :func:`_speed`.
    """
    by_round: dict[int, list[float]] = {}
    for sample in run["samples"]:
        by_round.setdefault(sample[4], []).append(sample[1])
    return [
        (len(by_round[index]) / wall, statistics.median(by_round[index]))
        for index, wall in enumerate(run["walls"])
    ]


def _speed(run) -> float:
    """Reference seconds per raw second of the run's timed loop.

    One probe is far shorter than a round and tracks the host's speed
    only loosely, so the whole loop is scaled by the median of all the
    run's probes.
    """
    return scaled(1.0, run["probes"])


def end_to_end(run) -> dict[str, float]:
    """Throughput and latency of the timed loop, at reference host speed.

    ``ops_per_s`` and ``latency_ms_p50`` are medians over the 1 s rounds,
    so a burst of host interference inside a few rounds does not move
    them; ``latency_ms_p99`` is taken over every response (a run answers
    about ten thousand requests, so well over ten lie beyond it).
    """
    speed = _speed(run)
    rounds = _rounds(run)
    latencies = [sample[1] for sample in run["samples"]]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "ops_per_s": statistics.median(rate for rate, _ in rounds) / speed,
        "latency_ms_p50": statistics.median(p50 for _, p50 in rounds) * speed * 1000,
        "latency_ms_p99": cuts[98] * speed * 1000,
        "peak_rss_mb": run["result"]["peak_rss_mb"],
        "host.probe_ms": statistics.median(run["probes"]) * 1000,
    }


def per_layer(untraced, traced) -> dict[str, float]:
    """Per-layer metrics from the traced daemon's spans and the client."""
    # perf_counter is the system-wide monotonic clock, so daemon spans
    # and client timestamps compare directly: keep the timed window only.
    started, ended = traced["window"]
    spans = [span for span in traced["result"]["spans"]
             if started <= span[3] and span[4] <= ended]
    samples = traced["samples"]
    results = span_metrics(spans, len(samples))
    # A miss waits for the whole batch it rides in; the rest of its call
    # time is queue, batch window and key build.
    batched = sum((end - start) * attrs["tasks"]
                  for _i, _p, name, start, end, attrs in spans
                  if name == "parallel.batch")
    misses = [sample[2] for sample in samples if sample[0] == "miss"]
    results.update({
        "service.hit_rate": traced["stats"]["cache_hit_rate"],
        "server.overhead_ms": statistics.median(
            (sample[1] - sample[2]) * 1000 for sample in samples
            if sample[0] == "hit"
        ),
        "server.batch_wait_ms": (
            (sum(misses) - batched) / len(misses) * 1000 if misses else 0.0
        ),
        "server.dedup": traced["delta"]["deduped"],
        "server.errors": traced["delta"]["errors"],
        "host.probe_ms": statistics.median(untraced["probes"] + traced["probes"]) * 1000,
        "observability.overhead_pct": (
            end_to_end(untraced)["ops_per_s"] / end_to_end(traced)["ops_per_s"] - 1
        ) * 100,
    })
    return results
