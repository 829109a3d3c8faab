"""Command-line interface.

Exposes the library's protocol registry for quick exploration::

    python -m repro list
    python -m repro verify diffusing --size 4
    python -m repro verify token-ring --fairness none
    python -m repro verify-all --workers 4 --json BENCH_verification.json
    python -m repro lint --strict
    python -m repro simulate dijkstra-ring --size 10 --trials 20
    python -m repro render token-ring --size 5

``verify`` runs T-tolerance checking on a small instance of the chosen
protocol through the cached verification service (pass ``--cache DIR``
to persist verdicts across invocations, ``--method compositional`` to
certify from per-edge projections without building the product state
space — sizes far beyond the exhaustive budget work, and ``--quantify``
to additionally report expected/fault-weighted/worst-case convergence
times and the masking-distance score — see docs/QUANTITATIVE.md);
``verify-all``
fans the whole case library out over a worker pool; ``lint`` runs the
static side-condition checks of :mod:`repro.staticcheck` over the case
library without touching any state space; ``simulate`` measures
stabilization from random corruption; ``render`` prints the paper-style
guarded-command listing. Every command is deterministic given ``--seed``.

Exit codes follow one convention across commands: **0** — success
(verified / stabilized / lint clean at the applied bar); **1** — the
check ran and failed (a verdict was NOT ok, or lint found errors — any
finding at all under ``--strict``); **2** — usage error (unknown
protocol/case, invalid size, unavailable mode), also used by argparse
itself.

Observability: ``verify``, ``verify-all`` and ``simulate`` accept
``--trace FILE`` (structured JSONL events — see docs/OBSERVABILITY.md)
and ``--metrics`` (an aggregated cache/timing report after the normal
output); ``verify`` and ``verify-all`` accept ``--json PATH`` for
machine-readable verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core import Predicate, Program, render_program
from repro.observability import (
    CountingSink,
    JsonlSink,
    MetricsRegistry,
    RunReport,
    Sink,
    Tracer,
)
from repro.quantitative import DEFAULT_FAULT_RATE
from repro.scheduler import RandomScheduler
from repro.simulation import stabilization_trials
from repro.verification import VerificationService, batch_report, run_batch

__all__ = ["main", "PROTOCOLS"]


@dataclass(frozen=True)
class RegisteredProtocol:
    """A protocol the CLI can build at a parameterized size."""

    name: str
    description: str
    #: size -> (program, invariant). ``size`` means nodes/machines.
    build: Callable[[int], tuple[Program, Predicate]]
    default_size: int
    #: Largest size safe for exhaustive verification.
    max_verify_size: int
    #: size -> NonmaskingDesign, when the protocol ships its constraint
    #: graph decomposition (enables ``verify --method compositional``).
    build_design: Callable[[int], object] | None = None


def _build_diffusing(size: int):
    from repro.protocols.diffusing import build_diffusing_design, diffusing_invariant
    from repro.topology import random_tree

    tree = random_tree(size, seed=1)
    design = build_diffusing_design(tree)
    return design.program, diffusing_invariant(tree)


def _build_token_ring(size: int):
    from repro.protocols.token_ring import build_token_ring_design, ring_invariant
    from repro.topology import Ring

    design = build_token_ring_design(size)
    return design.program, ring_invariant(Ring(size))


def _build_dijkstra(size: int):
    from repro.protocols.token_ring import build_dijkstra_ring

    return build_dijkstra_ring(size, k=size + 1)


def _build_mp_ring(size: int):
    from repro.protocols.mp_token_ring import build_mp_token_ring

    return build_mp_token_ring(size, k=max(3, size - 1))


def _build_coloring(size: int):
    from repro.protocols.coloring import build_coloring_design, coloring_invariant
    from repro.topology import random_tree

    tree = random_tree(size, seed=1)
    design = build_coloring_design(tree, k=3)
    return design.program, coloring_invariant(tree)


def _build_leader(size: int):
    from repro.protocols.leader_election import (
        build_leader_election_design,
        election_invariant,
    )
    from repro.topology import random_tree

    tree = random_tree(size, seed=1)
    design = build_leader_election_design(tree)
    return design.program, election_invariant(tree)


def _design_diffusing(size: int):
    from repro.protocols.diffusing import build_diffusing_design
    from repro.topology import random_tree

    return build_diffusing_design(random_tree(size, seed=1))


def _design_coloring(size: int):
    from repro.protocols.coloring import build_coloring_design
    from repro.topology import random_tree

    return build_coloring_design(random_tree(size, seed=1), k=3)


def _design_leader(size: int):
    from repro.protocols.leader_election import build_leader_election_design
    from repro.topology import random_tree

    return build_leader_election_design(random_tree(size, seed=1))


def _build_spanning(size: int):
    from repro.protocols.spanning_tree import (
        build_spanning_tree_program,
        spanning_tree_invariant,
    )
    from repro.topology import random_connected_graph

    graph = random_connected_graph(size, size // 2, seed=1)
    return build_spanning_tree_program(graph, 0), spanning_tree_invariant(graph, 0)


def _build_matching(size: int):
    from repro.protocols.matching import build_matching_program, matching_invariant
    from repro.topology import random_connected_graph

    graph = random_connected_graph(size, size // 2, seed=1)
    return build_matching_program(graph), matching_invariant(graph)


def _build_mis(size: int):
    from repro.protocols.independent_set import build_mis_program, mis_invariant
    from repro.topology import random_connected_graph

    graph = random_connected_graph(size, size // 2, seed=1)
    return build_mis_program(graph), mis_invariant(graph)


def _build_graph_coloring(size: int):
    from repro.protocols.graph_coloring import (
        build_graph_coloring_program,
        graph_coloring_invariant,
    )
    from repro.topology import random_connected_graph

    graph = random_connected_graph(size, size // 2, seed=1)
    return build_graph_coloring_program(graph), graph_coloring_invariant(graph)


def _build_four_state(size: int):
    from repro.protocols.four_state_ring import (
        build_four_state_line,
        four_state_invariant,
    )

    program = build_four_state_line(size)
    return program, four_state_invariant(program)


def _build_reset(size: int):
    from repro.protocols.reset import build_reset_program, reset_target
    from repro.topology import random_tree

    tree = random_tree(size, seed=1)
    return build_reset_program(tree, app_values=2), reset_target(tree)


PROTOCOLS: dict[str, RegisteredProtocol] = {
    p.name: p
    for p in [
        RegisteredProtocol(
            "diffusing", "stabilizing diffusing computation (paper S5.1)",
            _build_diffusing, 7, 7, build_design=_design_diffusing,
        ),
        RegisteredProtocol(
            "token-ring", "the paper's token ring over unbounded counters (S7.1)",
            _build_token_ring, 5, 0,  # unbounded domain: no exhaustive check
        ),
        RegisteredProtocol(
            "dijkstra-ring", "Dijkstra's K-state ring (K = size + 1)",
            _build_dijkstra, 5, 5,
        ),
        RegisteredProtocol(
            "mp-ring", "message-passing token ring (S7.1 reader exercise)",
            _build_mp_ring, 4, 4,
        ),
        RegisteredProtocol(
            "coloring", "stabilizing tree coloring", _build_coloring, 6, 6,
            build_design=_design_coloring,
        ),
        RegisteredProtocol(
            "leader-election", "stabilizing leader election on a tree",
            _build_leader, 5, 5, build_design=_design_leader,
        ),
        RegisteredProtocol(
            "spanning-tree", "stabilizing BFS spanning tree",
            _build_spanning, 4, 4,
        ),
        RegisteredProtocol(
            "matching", "Hsu-Huang maximal matching", _build_matching, 5, 5,
        ),
        RegisteredProtocol(
            "mis", "maximal independent set", _build_mis, 6, 6,
        ),
        RegisteredProtocol(
            "graph-coloring", "greedy graph coloring", _build_graph_coloring, 5, 5,
        ),
        RegisteredProtocol(
            "four-state", "Dijkstra's four-state line", _build_four_state, 5, 6,
        ),
        RegisteredProtocol(
            "reset", "distributed reset on diffusing waves", _build_reset, 4, 4,
        ),
    ]
}


def _open_tracer(
    args: argparse.Namespace, extra_sinks: Sequence[Sink] = ()
) -> Tracer | None:
    """A tracer for this invocation, or ``None`` when nothing listens.

    Combines ``--trace FILE`` (a JSONL sink) with any ``extra_sinks``
    the command wants (e.g. an event counter for ``--metrics``).
    """
    sinks: list[Sink] = list(extra_sinks)
    if getattr(args, "trace", None):
        sinks.append(JsonlSink(args.trace))
    return Tracer(sinks=sinks) if sinks else None


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _byte_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (``512M``)."""
    scales = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    raw = text.strip()
    scale = scales.get(raw[-1:].upper(), 1)
    digits = raw[:-1] if scale != 1 else raw
    try:
        value = int(digits) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a byte count (expected an integer, optionally "
            "suffixed K, M or G)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("byte count must be positive")
    return value


def _command_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in PROTOCOLS)
    for name, entry in PROTOCOLS.items():
        print(f"{name.ljust(width)}  {entry.description}")
    return 0


def _resolve(name: str) -> RegisteredProtocol:
    try:
        return PROTOCOLS[name]
    except KeyError:
        # Usage error: message on stderr, exit 2 (the lint convention).
        known = ", ".join(PROTOCOLS)
        print(f"unknown protocol {name!r}; known: {known}", file=sys.stderr)
        raise SystemExit(2) from None


def _command_verify(args: argparse.Namespace) -> int:
    entry = _resolve(args.protocol)
    size = args.size if args.size is not None else min(
        entry.default_size, entry.max_verify_size or entry.default_size
    )
    if args.quantify and args.method == "compositional":
        print(
            "--quantify needs state-space exploration; it cannot be "
            "combined with --method compositional",
            file=sys.stderr,
        )
        return 2
    design = None
    if args.method != "full" and entry.build_design is not None:
        design = entry.build_design(size)
    if args.method == "compositional" and design is None:
        print(
            f"{entry.name} has no registered design; --method compositional "
            "needs the constraint-graph decomposition",
            file=sys.stderr,
        )
        return 2
    # The exhaustive-budget guards only apply when the product state
    # space may actually be built; an explicit compositional request
    # never builds it (the certifier refuses oversize projections).
    if args.method != "compositional":
        if entry.max_verify_size == 0:
            print(
                f"{entry.name} uses unbounded domains; exhaustive verification "
                "is unavailable — use `simulate`, or verify `dijkstra-ring`."
            )
            return 2
        if size > entry.max_verify_size:
            print(
                f"size {size} exceeds the exhaustive budget for {entry.name} "
                f"(max {entry.max_verify_size})"
            )
            return 2
    if design is not None:
        program, invariant = design.program, design.candidate.invariant
    else:
        program, invariant = entry.build(size)
    tracer = _open_tracer(args)
    metrics = MetricsRegistry() if args.metrics else None
    try:
        from repro.quantitative import QuantitativeUnsupported

        service = VerificationService(
            cache_dir=args.cache, tracer=tracer, metrics=metrics
        )
        try:
            verdict = service.verify_tolerance(
                program,
                invariant,
                fairness=args.fairness,
                engine=args.engine,
                method=args.method,
                design=design,
                case=f"{entry.name} (n={size})",
                shards=args.shards,
                memory_budget=args.memory_budget,
                quantify=args.quantify,
                fault_rate=args.fault_rate,
            )
        except QuantitativeUnsupported as error:
            print(error, file=sys.stderr)
            return 2
    finally:
        if tracer is not None:
            tracer.close()
    print(verdict.describe())
    if args.metrics:
        print()
        print(service.report(case=f"{entry.name} (n={size})").describe())
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.json:
        _write_json(
            args.json,
            {
                "command": "verify",
                "protocol": entry.name,
                "size": size,
                "fairness": args.fairness,
                "engine": args.engine,
                "method": args.method,
                "quantify": args.quantify,
                "record": verdict.record,
                "cached": verdict.cached,
                "cache_layer": verdict.cache_layer,
                "call_seconds": verdict.seconds,
            },
        )
        print(f"verdict written to {args.json}")
    return 0 if verdict.ok else 1


def _command_verify_all(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.core.errors import ValidationError
    from repro.protocols.library import case_names, library_tasks

    try:
        tasks = library_tasks(
            names=args.case if args.case else None,
            fairness=args.fairness,
            engine=args.engine,
        )
    except ValidationError as error:
        # Usage error: message on stderr, exit 2 (the lint convention).
        known = ", ".join(case_names())
        print(f"{error}; known cases: {known}", file=sys.stderr)
        return 2
    tracer = _open_tracer(args)
    started = time.perf_counter()
    try:
        records = run_batch(
            tasks, workers=args.workers, cache_dir=args.cache, tracer=tracer
        )
    finally:
        if tracer is not None:
            tracer.close()
    elapsed = time.perf_counter() - started
    rows = [
        [
            record["case"],
            record["total_states"],
            record["classification"],
            record["stabilizing"],
            record["ok"],
            "hit" if record["cached"] else "miss",
            f"{record['call_seconds']:.3f}s",
        ]
        for record in records
    ]
    print(
        render_table(
            ["case", "states", "class", "stabilizing", "T-tolerant for S",
             "cache", "time"],
            rows,
            title=f"verify-all: {len(records)} instances, "
            f"workers={args.workers}, {elapsed:.2f}s wall-clock",
        )
    )
    report = batch_report(
        records, wall_clock_seconds=elapsed, workers=args.workers
    )
    if args.metrics:
        print()
        print(report.describe())
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.json:
        _write_json(
            args.json,
            {
                "workers": args.workers,
                "wall_clock_seconds": elapsed,
                "instances": records,
                "metrics": report.as_dict(),
            },
        )
        print(f"timings written to {args.json}")
    return 0 if all(record["ok"] for record in records) else 1


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.core.errors import ValidationError
    from repro.staticcheck import lint_library

    counting = CountingSink() if args.metrics else None
    tracer = _open_tracer(args, [counting] if counting is not None else ())
    metrics = MetricsRegistry() if args.metrics else None
    started = time.perf_counter()
    try:
        reports = lint_library(
            names=args.case if args.case else None,
            probes=args.probes,
            semantic=args.semantic,
            tracer=tracer,
            metrics=metrics,
        )
    except ValidationError as error:
        print(error, file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()
    elapsed = time.perf_counter() - started
    rows = []
    for report in reports.values():
        if report.strict_ok:
            verdict = "clean"
        elif report.ok:
            verdict = "findings"
        else:
            verdict = "FAIL"
        rows.append(
            [
                report.subject,
                len(report.errors),
                len(report.warnings),
                len(report.infos),
                verdict,
                f"{report.seconds * 1000:.1f}ms",
            ]
        )
    print(
        render_table(
            ["case", "errors", "warnings", "infos", "verdict", "time"],
            rows,
            title=f"lint: {len(reports)} case(s), probes={args.probes}, "
            f"strict={'on' if args.strict else 'off'}, "
            f"semantic={'on' if args.semantic else 'off'}, "
            f"{elapsed * 1000:.0f}ms wall-clock",
        )
    )
    for report in reports.values():
        if not report.strict_ok:
            print()
            print(report.describe())
    all_ok = all(report.ok for report in reports.values())
    all_strict = all(report.strict_ok for report in reports.values())
    if args.metrics and metrics is not None:
        print()
        print(
            metrics.report(
                command="lint", cases=len(reports), strict=args.strict
            ).describe()
        )
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.json:
        _write_json(
            args.json,
            {
                "command": "lint",
                "strict": args.strict,
                "semantic": args.semantic,
                "probes": args.probes,
                "ok": all_ok,
                "strict_ok": all_strict,
                "wall_clock_seconds": elapsed,
                "cases": [report.as_dict() for report in reports.values()],
            },
        )
        print(f"lint report written to {args.json}")
    failed = (not all_ok) or (args.strict and not all_strict)
    return 1 if failed else 0


def _command_simulate(args: argparse.Namespace) -> int:
    entry = _resolve(args.protocol)
    size = args.size if args.size is not None else entry.default_size
    program, invariant = entry.build(size)
    counting = CountingSink() if args.metrics else None
    tracer = _open_tracer(args, [counting] if counting is not None else ())
    try:
        stats = stabilization_trials(
            program,
            invariant,
            lambda seed: RandomScheduler(seed),
            trials=args.trials,
            max_steps=args.max_steps,
            base_seed=args.seed,
            tracer=tracer,
        )
    finally:
        if tracer is not None:
            tracer.close()
    print(
        f"{entry.name} (size {size}): {stats.stabilized_count}/{args.trials} "
        f"trials stabilized"
    )
    if stats.steps is not None:
        print(f"steps to stabilize: {stats.steps}")
    if counting is not None:
        report = RunReport(
            counters={
                "trials": args.trials,
                "stabilized": stats.stabilized_count,
                **dict(sorted(counting.counts.items())),
            },
            meta={"protocol": entry.name, "size": size, "seed": args.seed},
        )
        print()
        print(report.describe())
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0 if stats.all_stabilized else 1


def _command_render(args: argparse.Namespace) -> int:
    entry = _resolve(args.protocol)
    size = args.size if args.size is not None else entry.default_size
    program, _ = entry.build(size)
    print(render_program(program))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.verification.server import serve

    tracer = _open_tracer(args)
    try:
        daemon = asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                cache_dir=args.cache,
                workers=args.workers,
                max_batch=args.max_batch,
                store_shards=args.store_shards,
                warm_capacity=args.warm_capacity,
                store_entries=args.store_entries,
                store_bytes=args.store_bytes,
                tracer=tracer,
            )
        )
    except KeyboardInterrupt:
        # Loops without signal-handler support: ^C lands here after the
        # drain path could not run; exit quietly anyway.
        return 0
    finally:
        if tracer is not None:
            tracer.close()
    if args.metrics:
        print(daemon.report().describe())
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _add_observability_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write structured trace events as JSON lines to FILE",
    )
    command.add_argument(
        "--metrics", action="store_true",
        help="print an aggregated metrics report after the normal output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nonmasking fault-tolerance toolkit (Arora-Gouda-Varghese 1994)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered protocols").set_defaults(
        handler=_command_list
    )

    verify = commands.add_parser(
        "verify", help="exhaustively verify T-tolerance on a small instance"
    )
    verify.add_argument("protocol")
    verify.add_argument("--size", type=int, default=None)
    verify.add_argument(
        "--fairness", choices=("weak", "none"), default="weak",
        help="computation model for convergence",
    )
    verify.add_argument(
        "--engine", choices=("auto", "packed", "dict"), default="auto",
        help="exploration engine: packed integer kernel, dict states, or "
        "auto (packed with dict fallback); verdicts are identical",
    )
    verify.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="sweep the packed engine's vectorized full-space pass over N "
        "contiguous in-process code ranges (default: auto; with "
        "--memory-budget, the streaming chunk count; results are "
        "bit-identical for any count)",
    )
    verify.add_argument(
        "--memory-budget", type=_byte_size, default=None, metavar="BYTES",
        help="peak-bytes target for the packed engine's full-space sweep "
        "(accepts K/M/G suffixes, e.g. 512M); above it the streaming "
        "count-only path runs shard-at-a-time — results are identical, "
        "only peak memory changes (default: never stream)",
    )
    verify.add_argument(
        "--method", choices=("auto", "full", "compositional"), default="auto",
        help="verification method: full product-space exploration, "
        "compositional per-edge certification (repro.compositional; needs "
        "a protocol with a registered design), or auto (compositional "
        "when a design is available, falling back to full on refusal)",
    )
    verify.add_argument(
        "--quantify", action="store_true",
        help="also run the quantitative tolerance analysis "
        "(repro.quantitative): expected, fault-weighted and adversarial "
        "worst-case convergence times plus the masking-distance score; "
        "incompatible with --method compositional",
    )
    verify.add_argument(
        "--fault-rate", type=float, default=DEFAULT_FAULT_RATE,
        metavar="RATE",
        help="relative fault-action weight for the quantitative "
        f"fault-weighted expectation (default {DEFAULT_FAULT_RATE})",
    )
    verify.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persist verdicts in DIR so repeat invocations are cache hits",
    )
    verify.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable verdict to PATH",
    )
    _add_observability_flags(verify)
    verify.set_defaults(handler=_command_verify)

    verify_all = commands.add_parser(
        "verify-all",
        help="verify the whole case library through the parallel service",
    )
    verify_all.add_argument(
        "--case", action="append", default=None, metavar="NAME",
        help="restrict to this case (repeatable); default: every case",
    )
    verify_all.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = sequential in-process)",
    )
    verify_all.add_argument(
        "--fairness", choices=("weak", "none"), default="weak",
        help="computation model for convergence",
    )
    verify_all.add_argument(
        "--engine", choices=("auto", "packed", "dict"), default="auto",
        help="exploration engine for every task (see `verify --engine`)",
    )
    verify_all.add_argument(
        "--cache", default=None, metavar="DIR",
        help="shared on-disk verdict cache for the worker pool",
    )
    verify_all.add_argument(
        "--json", default=None, metavar="PATH",
        help="write per-instance timing records (and the metrics report) to PATH",
    )
    _add_observability_flags(verify_all)
    verify_all.set_defaults(handler=_command_verify_all)

    lint = commands.add_parser(
        "lint",
        help="statically check the paper's side conditions (no state space)",
    )
    lint.add_argument(
        "--case", action="append", default=None, metavar="NAME",
        help="restrict to this library case (repeatable); default: every case",
    )
    lint.add_argument(
        "--probes", type=int, default=32,
        help="sampled states used to probe opaque guards/statements",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any finding, not just error-severity ones",
    )
    lint.add_argument(
        "--semantic", action=argparse.BooleanOptionalAction, default=True,
        help="run the abstract-interpretation (DF*) and interference "
        "(IF*) passes on top of the classic declaration checks",
    )
    lint.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable lint report to PATH",
    )
    _add_observability_flags(lint)
    lint.set_defaults(handler=_command_lint)

    simulate = commands.add_parser(
        "simulate", help="measure stabilization from random corruption"
    )
    simulate.add_argument("protocol")
    simulate.add_argument("--size", type=int, default=None)
    simulate.add_argument("--trials", type=int, default=20)
    simulate.add_argument("--max-steps", type=int, default=200_000)
    simulate.add_argument("--seed", type=int, default=0)
    _add_observability_flags(simulate)
    simulate.set_defaults(handler=_command_simulate)

    render = commands.add_parser(
        "render", help="print the paper-style program listing"
    )
    render.add_argument("protocol")
    render.add_argument("--size", type=int, default=None)
    render.set_defaults(handler=_command_render)

    serve = commands.add_parser(
        "serve",
        help="run the HTTP/JSON verification daemon (see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8421,
        help="TCP port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persist verdicts in a sharded store under DIR "
        "(default: memory only)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="process-pool width for verification misses (1 = compute "
        "in the daemon's dispatcher thread)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="largest batch handed to the pool at once",
    )
    serve.add_argument(
        "--store-shards", type=int, default=16, metavar="N",
        help="bucket directories in the verdict store",
    )
    serve.add_argument(
        "--warm-capacity", type=int, default=128, metavar="N",
        help="decoded records kept in the store's in-memory LRU tier",
    )
    serve.add_argument(
        "--store-entries", type=int, default=None, metavar="N",
        help="evict least-recently-used verdicts beyond N entries",
    )
    serve.add_argument(
        "--store-bytes", type=int, default=None, metavar="BYTES",
        help="evict least-recently-used verdicts beyond this on-disk size",
    )
    _add_observability_flags(serve)
    serve.set_defaults(handler=_command_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
