"""E9 — the method generalizes: certificates and stabilization across the
protocol library.

The paper presents a *method*, not just three programs. This experiment
applies the full pipeline — design, certificate (or stair / model-check),
simulation at scale — to every protocol in the library, including the
extensions the paper never saw, and reports which validation route
certifies each one.

All exhaustive checks run through the cached verification service; a
final section times the whole library verification suite sequentially,
then through the process pool at ``workers=4`` (cold shared disk cache),
then again cache-warm, asserting bit-identical verdicts throughout and
recording the wall-clocks in ``BENCH_verification.json``.
"""

import shutil
import time
from pathlib import Path

from repro.analysis import render_table
from repro.protocols.coloring import build_coloring_design, coloring_invariant
from repro.protocols.diffusing import build_diffusing_design, diffusing_invariant
from repro.protocols.leader_election import (
    build_leader_election_design,
    election_invariant,
)
from repro.protocols.four_state_ring import (
    build_four_state_line,
    four_state_invariant,
)
from repro.protocols.graph_coloring import (
    build_graph_coloring_program,
    graph_coloring_invariant,
)
from repro.protocols.independent_set import build_mis_program, mis_invariant
from repro.protocols.library import library_tasks
from repro.protocols.matching import build_matching_program, matching_invariant
from repro.protocols.mp_token_ring import build_mp_token_ring
from repro.protocols.reset import build_reset_program, reset_target
from repro.protocols.spanning_tree import (
    build_spanning_tree_program,
    spanning_tree_invariant,
    spanning_tree_stair,
)
from repro.protocols.token_ring import (
    build_token_ring_design,
    build_dijkstra_ring,
    window_states as ring_window,
)
from repro.scheduler import RandomScheduler
from repro.simulation import stabilization_trials
from repro.topology import (
    chain_tree,
    cycle_graph,
    random_connected_graph,
    random_tree,
)
from repro.verification import (
    VerificationService,
    batch_report,
    check_stair,
    run_batch,
)

TRIALS = 15

PARALLEL_WORKERS = 4

#: Fields compared across the sequential / parallel-cold / parallel-warm
#: runs of the library suite (timing and cache fields excluded).
VERDICT_FIELDS = (
    "case",
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


def _verdicts(records):
    return [{field: record[field] for field in VERDICT_FIELDS} for record in records]


def test_e9_protocol_library(benchmark, report, bench_timings):
    benchmark(
        lambda: build_coloring_design(chain_tree(4), k=2).validate(
            list(build_coloring_design(chain_tree(4), k=2).program.state_space())
        )
    )

    service = VerificationService()
    rows = []

    # diffusing — Theorem 1
    design = build_diffusing_design(chain_tree(4))
    cert = service.validate_design(
        design, design.program.state_space(), case="diffusing"
    )
    tree = random_tree(50, seed=3)
    big = build_diffusing_design(tree)
    stats = stabilization_trials(
        big.program, diffusing_invariant(tree), lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=11,
    )
    rows.append(["diffusing", "Theorem 1", cert["ok"], 50,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # token ring — Theorem 3 (+ Dijkstra instance at scale)
    design = build_token_ring_design(4)
    cert = service.validate_design(design, ring_window(4, 0, 3), case="token ring")
    program, spec = build_dijkstra_ring(30, k=31)
    stats = stabilization_trials(
        program, spec, lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=12,
    )
    rows.append(["token ring", "Theorem 3", cert["ok"], 30,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # coloring — Theorem 1
    design = build_coloring_design(chain_tree(4), k=2)
    cert = service.validate_design(
        design, design.program.state_space(), case="tree coloring"
    )
    tree = random_tree(60, seed=5)
    big = build_coloring_design(tree, k=3)
    stats = stabilization_trials(
        big.program, coloring_invariant(tree), lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=13,
    )
    rows.append(["tree coloring", "Theorem 1", cert["ok"], 60,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # leader election — Theorem 2
    design = build_leader_election_design(chain_tree(4))
    cert = service.validate_design(
        design, design.program.state_space(), case="leader election"
    )
    tree = random_tree(60, seed=6)
    big = build_leader_election_design(tree)
    stats = stabilization_trials(
        big.program, election_invariant(tree), lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=14,
    )
    rows.append(["leader election", "Theorem 2", cert["ok"], 60,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # spanning tree — convergence stair
    graph = random_connected_graph(5, 2, seed=7)
    program = build_spanning_tree_program(graph, 0)
    stair = check_stair(program, spanning_tree_stair(graph, 0),
                        program.state_space())
    big_graph = random_connected_graph(40, 20, seed=8)
    big_program = build_spanning_tree_program(big_graph, 0)
    stats = stabilization_trials(
        big_program, spanning_tree_invariant(big_graph, 0),
        lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=15,
    )
    rows.append(["BFS spanning tree", "convergence stair", stair.ok, 40,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # matching — model checking only
    graph = random_connected_graph(5, 2, seed=9)
    program = build_matching_program(graph)
    check = service.verify_tolerance(
        program, matching_invariant(graph), case="maximal matching"
    )
    big_graph = random_connected_graph(30, 12, seed=10)
    big_program = build_matching_program(big_graph)
    stats = stabilization_trials(
        big_program, matching_invariant(big_graph), lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=16,
    )
    rows.append(["maximal matching", "model checking", check.ok, 30,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # maximal independent set — model checking only
    graph = cycle_graph(5)
    program = build_mis_program(graph)
    check = service.verify_tolerance(
        program, mis_invariant(graph), case="maximal independent set"
    )
    big_graph = random_connected_graph(40, 25, seed=11)
    big_program = build_mis_program(big_graph)
    stats = stabilization_trials(
        big_program, mis_invariant(big_graph), lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=17,
    )
    rows.append(["maximal independent set", "model checking", check.ok, 40,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # greedy graph coloring — model checking (central daemon)
    graph = cycle_graph(4)
    program = build_graph_coloring_program(graph)
    check = service.verify_tolerance(
        program, graph_coloring_invariant(graph), case="greedy graph coloring"
    )
    big_graph = random_connected_graph(40, 40, seed=12)
    big_program = build_graph_coloring_program(big_graph)
    stats = stabilization_trials(
        big_program, graph_coloring_invariant(big_graph),
        lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=18,
    )
    rows.append(["greedy graph coloring", "model checking", check.ok, 40,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # message-passing token ring — model checking
    program, spec = build_mp_token_ring(3, 3)
    check = service.verify_tolerance(program, spec, case="mp token ring")
    big_program, big_spec = build_mp_token_ring(20, 22)
    stats = stabilization_trials(
        big_program, big_spec, lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=19,
    )
    rows.append(["mp token ring", "model checking", check.ok, 20,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # four-state line — model checking (reconstructed protocol)
    program = build_four_state_line(5)
    check = service.verify_tolerance(
        program, four_state_invariant(program), case="four-state line"
    )
    big_program = build_four_state_line(20)
    stats = stabilization_trials(
        big_program, four_state_invariant(big_program),
        lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=20,
    )
    rows.append(["four-state line", "model checking", check.ok, 20,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    # distributed reset — model checking of the composition
    tree = chain_tree(3)
    program = build_reset_program(tree, app_values=2)
    check = service.verify_tolerance(
        program, reset_target(tree), case="distributed reset"
    )
    big_tree = random_tree(30, seed=13)
    big_program = build_reset_program(big_tree, app_values=4)
    stats = stabilization_trials(
        big_program, reset_target(big_tree), lambda s: RandomScheduler(s),
        trials=TRIALS, max_steps=200_000, base_seed=21,
    )
    rows.append(["distributed reset", "model checking", check.ok, 30,
                 f"{stats.stabilization_rate:.0%}", round(stats.steps.mean, 1)])

    table = render_table(
        ["protocol", "certification route", "certified", "sim size",
         "stabilized", "mean steps"],
        rows,
        title=f"E9: the protocol library ({TRIALS} corrupted starts per protocol)",
    )
    report("e9_protocol_library", table)
    assert all(row[2] for row in rows)
    assert all(row[4] == "100%" for row in rows)

    # ------------------------------------------------------------------
    # Library verification suite: sequential vs parallel vs cache-warm
    # ------------------------------------------------------------------
    tasks = library_tasks()
    cache_dir = Path(__file__).parent / "results" / ".vcache_e9"
    shutil.rmtree(cache_dir, ignore_errors=True)

    started = time.perf_counter()
    sequential = run_batch(tasks, workers=1)
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel_cold = run_batch(
        tasks, workers=PARALLEL_WORKERS, cache_dir=str(cache_dir)
    )
    parallel_cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel_warm = run_batch(
        tasks, workers=PARALLEL_WORKERS, cache_dir=str(cache_dir)
    )
    parallel_warm_seconds = time.perf_counter() - started

    assert _verdicts(sequential) == _verdicts(parallel_cold) == _verdicts(
        parallel_warm
    )
    assert all(record["cached"] for record in parallel_warm)
    assert parallel_warm_seconds < parallel_cold_seconds

    timing_lines = render_table(
        ["run", "workers", "wall-clock", "vs sequential"],
        [
            ["sequential", 1, f"{sequential_seconds:.2f}s", "1.00x"],
            ["parallel cold", PARALLEL_WORKERS, f"{parallel_cold_seconds:.2f}s",
             f"{sequential_seconds / parallel_cold_seconds:.2f}x"],
            ["parallel warm", PARALLEL_WORKERS, f"{parallel_warm_seconds:.2f}s",
             f"{sequential_seconds / parallel_warm_seconds:.2f}x"],
        ],
        title="E9 addendum: library verification suite through the service",
    )
    report("e9_verification_timings", timing_lines)
    cold_metrics = batch_report(
        parallel_cold,
        wall_clock_seconds=parallel_cold_seconds,
        workers=PARALLEL_WORKERS,
    )
    bench_timings(
        "e9",
        {
            "workers": PARALLEL_WORKERS,
            "sequential_seconds": sequential_seconds,
            "parallel_cold_seconds": parallel_cold_seconds,
            "parallel_warm_seconds": parallel_warm_seconds,
            "metrics": cold_metrics.as_dict(),
            "instances": [
                {
                    "case": cold["case"],
                    "sequential_seconds": seq["call_seconds"],
                    "parallel_cold_seconds": cold["call_seconds"],
                    "parallel_warm_seconds": warm["call_seconds"],
                    "ok": cold["ok"],
                }
                for seq, cold, warm in zip(
                    sequential, parallel_cold, parallel_warm
                )
            ],
        },
    )
