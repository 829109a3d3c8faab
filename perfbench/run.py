"""The repository's benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src``).
Workloads (see ``README.md`` for why each exists):

- ``sweep-cold``: cold full-space verdicts, one op per packed kernel path;
- ``certify-large``: compositional certification of designs far too
  large to enumerate;
- ``serve-mix``: a closed loop of two connections against ``repro serve``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half with span wrappers
installed, and prints the per-layer metrics (and the tracing overhead).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every answer is
checked against a hand-written expectation; any failed op makes the
command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import serve_mix
from hostspeed import REFERENCE_S, scaled

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / "perfbench" / "_runs"
WORKLOADS = ("sweep-cold", "certify-large", "serve-mix")

#: Set-ups per run, each in a fresh interpreter; ``setup_s`` is their
#: median. The measured run's own set-up is one of them.
SETUP_SAMPLES = 7

#: Modules the throwaway import loads, so bytecode compilation happens
#: once, before anything is timed.
_IMPORTS = (
    "import numpy, repro, repro.cli, repro.compositional, repro.quantitative, "
    "repro.kernel.shard, repro.staticcheck, repro.verification.server"
)


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_worker_process(env, args, deadline: float, *extra):
    """Run one worker to its end; return ``(setup seconds, ready, exit, stdout)``.

    The worker is killed if it is still running at ``deadline``.
    """
    command = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True)
    watchdog = threading.Timer(max(0.0, deadline - started), process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline().strip() == "READY"
        setup = time.perf_counter() - started
        out, _ = process.communicate()
    finally:
        watchdog.cancel()
    return setup, ready, process.returncode, out


def run_worker(env, args) -> dict:
    """Set-up samples, then the measured run, of an in-process workload."""
    deadline = time.perf_counter() + 170
    setups, failures = [], []
    for _ in range(SETUP_SAMPLES - 1):
        seconds, ready, code, _ = _run_worker_process(env, args, deadline, "--setup-only")
        setups.append(seconds)
        if not ready or code != 0:
            failures.append("a set-up sample failed")
    extra = ["--spans", str(RUN_DIR / f"spans-{args.workload}.json")] if args.trace else []
    seconds, ready, code, out = _run_worker_process(env, args, deadline, *extra)
    setups.append(seconds)
    if not ready or code != 0:
        raise RuntimeError(f"worker failed (exit {code})")
    raw = json.loads(out.strip().splitlines()[-1])
    metrics = raw["metrics"]
    if not args.trace:
        # Scaled by the host speed of the whole run: a probe of a few
        # milliseconds next to each half-second set-up tracks it only
        # loosely, the run's hundreds of probes track its host period.
        metrics["setup_s"] = scaled(statistics.median(setups), raw["probes"])
    failures += raw["failures"]
    return {"attempted": raw["attempted"], "failures": failures, "metrics": metrics}


def run_serve(env, args) -> dict:
    """Set-up samples, then the measured daemon lifetime(s), of serve-mix."""
    setups, probes, failures, attempted = [], [], [], 0
    for _ in range(SETUP_SAMPLES - 1):
        seconds, around, sample_failures = serve_mix.setup_sample(ROOT, RUN_DIR, env)
        setups.append(seconds)
        probes += around
        failures += sample_failures
    if args.trace:
        untraced = serve_mix.measure(ROOT, RUN_DIR, env, args.seed,
                                     args.seconds / 2, trace=False)
        traced = serve_mix.measure(ROOT, RUN_DIR, env, args.seed + 1,
                                   args.seconds / 2, trace=True)
        runs = [untraced, traced]
        metrics = serve_mix.per_layer(untraced, traced)
    else:
        run = serve_mix.measure(ROOT, RUN_DIR, env, args.seed, args.seconds,
                                trace=False)
        runs = [run]
        setups.append(run["setup"])
        probes += run["setup_probes"]
        metrics = serve_mix.end_to_end(run)
        metrics["setup_s"] = scaled(statistics.median(setups), probes)
    for run in runs:
        attempted += len(run["samples"])
        failures += run["failures"]
    return {"attempted": attempted, "failures": failures, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = _environment()
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    # Untimed throwaway import: bytecode compiles here, never inside a
    # timed set-up of one run only.
    subprocess.run([sys.executable, "-c", _IMPORTS], cwd=ROOT, env=env,
                   check=True, timeout=170)

    raw = run_serve(env, args) if args.workload == "serve-mix" else run_worker(env, args)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        # A layer this workload never reaches reads 0 in the traced run.
        value = raw["metrics"].get(entry["name"], 0 if args.trace else None)
        if value is None:
            raise RuntimeError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if args.trace:
        from spans import UNREACHABLE

        for phase in UNREACHABLE:
            print(f"not reachable from outside: {phase}")
    if "host.probe_ms" in raw["metrics"]:
        print(f"host speed: median probe {raw['metrics']['host.probe_ms']:.2f} ms "
              f"(times are scaled to {REFERENCE_S * 1000:g} ms)")
    failures = raw["failures"]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    attempted = max(raw["attempted"], 1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
