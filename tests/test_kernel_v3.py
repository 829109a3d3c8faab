"""Kernel v3 tests: narrow dtypes, in-process code ranges, streaming verdicts.

Four layers:

- codec width selection pinned exactly on the int16/int32 boundaries,
  plus the packed-code transport round-trip at each width;
- unit tests for the streaming peel primitives
  (:func:`~repro.kernel.sweeps.peel_shard_edges`,
  :func:`~repro.kernel.sweeps.edge_list_acyclic`);
- differentials pinning narrow-dtype CSR output bit-identical (after
  widening) to the ``FORCE_CODE_DTYPE='int64'`` baseline, the streaming
  count-only path bit-identical to the materialized sweep (including
  the witness-forced fallbacks), and a multi-range sweep that starts no
  process and merges to the one-range report;
- plumbing: ``memory_budget`` through service, batch tasks and the CLI,
  and the ``kernel.mem.*`` counters on every sweep path.
"""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    Action,
    Assignment,
    FALSE,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    Variable,
)
from repro.core.predicates import TRUE
from repro.kernel import shard as sharding
from repro.kernel import sweeps
from repro.kernel.codec import StateCodec
from repro.kernel.engine import compile_program
from repro.kernel.verify import check_tolerance_packed
from repro.protocols.library import build_case, case_names

needs_numpy = pytest.mark.skipif(
    not sweeps.HAVE_NUMPY, reason="numpy is not installed"
)

if sweeps.HAVE_NUMPY:
    import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def _codec_of_size(*radices: int) -> StateCodec:
    names = tuple(f"v{i}" for i in range(len(radices)))
    return StateCodec(names, tuple(tuple(range(r)) for r in radices))


# ----------------------------------------------------------------------
# Codec width edges
# ----------------------------------------------------------------------


class TestCodecWidth:
    def test_exactly_int16_boundary(self):
        codec = _codec_of_size(1 << 8, 1 << 7)  # product = 2**15
        assert codec.size == 1 << 15
        assert codec.code_typecode == "h"
        assert codec.code_dtype == "int16"
        assert codec.code_bytes == 2

    def test_one_above_int16_boundary(self):
        codec = _codec_of_size(3, 10923)  # product = 2**15 + 1
        assert codec.size == (1 << 15) + 1
        assert codec.code_typecode == "i"
        assert codec.code_dtype == "int32"
        assert codec.code_bytes == 4

    def test_exactly_int32_boundary(self):
        codec = _codec_of_size(1 << 16, 1 << 15)  # product = 2**31
        assert codec.size == 1 << 31
        assert codec.code_typecode == "i"
        assert codec.code_dtype == "int32"
        assert codec.code_bytes == 4

    def test_above_int32_boundary(self):
        codec = _codec_of_size(1 << 16, (1 << 15) + 1)
        assert codec.size > 1 << 31
        assert codec.code_typecode == "q"
        assert codec.code_dtype == "int64"
        assert codec.code_bytes == 8

    def test_tiny_space_is_int16(self):
        codec = _codec_of_size(2, 3)
        assert codec.code_typecode == "h"

    @pytest.mark.parametrize(
        "radices", [(2, 3), (3, 10923), ((1 << 16), (1 << 15))]
    )
    def test_encode_states_at_each_width(self, radices):
        codec = _codec_of_size(*radices)
        codes = [0, 1, codec.size // 2, codec.size - 1]
        encoded = codec.encode_states(codec.decode_state(code) for code in codes)
        assert encoded.typecode == codec.code_typecode
        assert len(encoded.tobytes()) == codec.code_bytes * len(codes)
        assert list(encoded) == codes

    def test_encode_states_uses_narrow_codes(self):
        program, _ = build_case("coloring-chain", 6)
        states = list(program.state_space())[:5]
        codes = StateCodec.for_program(program).encode_states(states)
        assert codes.typecode == "h"
        assert len(codes.tobytes()) == 2 * len(states)


# ----------------------------------------------------------------------
# Streaming peel primitives
# ----------------------------------------------------------------------


@needs_numpy
class TestPeelShardEdges:
    def _peel(self, lo, hi, bad, edges):
        sources = np.asarray([s for s, _ in edges], dtype=np.int64)
        sinks = np.asarray([t for _, t in edges], dtype=np.int64)
        return sweeps.peel_shard_edges(
            lo, hi, np.asarray(bad, dtype=bool), sources, sinks
        )

    def test_no_edges_resolves_every_bad_state(self):
        resolved, sources, sinks = self._peel(0, 3, [True, False, True], [])
        assert resolved.tolist() == [True, False, True]
        assert sources.size == 0 and sinks.size == 0

    def test_in_shard_chain_drains(self):
        # 0 -> 1 -> 2, all bad, all in shard: everything peels locally.
        resolved, sources, sinks = self._peel(
            0, 3, [True, True, True], [(0, 1), (1, 2)]
        )
        assert resolved.all()
        assert sources.size == 0

    def test_in_shard_cycle_survives(self):
        resolved, sources, sinks = self._peel(
            0, 2, [True, True], [(0, 1), (1, 0)]
        )
        assert not resolved.any()
        assert sorted(zip(sources.tolist(), sinks.tolist())) == [(0, 1), (1, 0)]

    def test_out_of_shard_sink_is_kept_alive(self):
        # Shard covers 0..1; 1 -> 5 crosses the boundary, so 1 cannot
        # peel locally and 0 (-> 1) cannot either.
        resolved, sources, sinks = self._peel(
            0, 2, [True, True], [(0, 1), (1, 5)]
        )
        assert not resolved.any()
        assert len(sources) == 2

    def test_drained_suffix_filters_kept_edges(self):
        # 2 peels (no out-edges), then 1, then 0: the kept list is empty
        # even though 0's edge initially pointed at a live sink.
        resolved, sources, sinks = self._peel(
            0, 3, [True, True, True], [(0, 1), (1, 2)]
        )
        assert resolved.all() and sources.size == 0

    def test_nonzero_lo_offsets_codes(self):
        resolved, sources, sinks = self._peel(
            10, 13, [True, True, True], [(10, 11), (11, 12)]
        )
        assert resolved.all()


@needs_numpy
class TestEdgeListAcyclic:
    def _acyclic(self, n, bad, edges):
        sources = np.asarray([s for s, _ in edges], dtype=np.int64)
        sinks = np.asarray([t for _, t in edges], dtype=np.int64)
        return sweeps.edge_list_acyclic(
            sources, sinks, np.asarray(bad, dtype=bool)
        )

    def test_no_edges(self):
        assert self._acyclic(3, [True, True, False], [])

    def test_chain_is_acyclic(self):
        assert self._acyclic(3, [True, True, True], [(0, 1), (1, 2)])

    def test_cycle_is_detected(self):
        assert not self._acyclic(2, [True, True], [(0, 1), (1, 0)])

    def test_self_loop_is_a_cycle(self):
        assert not self._acyclic(2, [False, True], [(1, 1)])

    def test_tail_into_cycle_stays_cyclic(self):
        assert not self._acyclic(
            3, [True, True, True], [(0, 1), (1, 2), (2, 1)]
        )

    def test_parallel_edges_are_counted(self):
        # Two actions produce the same 0 -> 1 edge; both must drain.
        assert self._acyclic(2, [True, True], [(0, 1), (0, 1)])


class _Forbidden:
    """Stand-in for a process constructor: starting a process fails."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a full-space sweep started a process")


@needs_numpy
def test_multi_range_sweep_stays_in_process(monkeypatch):
    """A multi-range packed verify starts no process and merges to the
    one-range report, verdict and witnesses alike."""
    import repro.verification.parallel as parallel
    from repro.observability.metrics import MetricsRegistry

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _Forbidden)
    monkeypatch.setattr(multiprocessing, "Process", _Forbidden)
    program, invariant = build_case("coloring-chain", 6)
    # recolor.1 moves color.1 off 0: a closure witness, then a deadlock.
    violated = Predicate(
        lambda s: s["color.1"] == 0, name="color.1 = 0", support=("color.1",)
    )
    for target, ok in ((invariant, True), (violated, False)):
        single = check_tolerance_packed(program, target, TRUE, shards=1)
        metrics = MetricsRegistry()
        merged = check_tolerance_packed(
            program, target, TRUE, shards=3, metrics=metrics
        )
        assert single.ok is ok
        assert merged == single
        assert metrics.report().counters["kernel.shard.merged"] == 3
    assert single.s_closure.witnesses
    assert single.convergence.counterexample is not None


@needs_numpy
class TestInProcessRanges:
    """``sweep_merged`` sweeps its ranges one after another in process:
    the merge is bit-identical to one range, and nothing of the old
    pool path (workers, transfer provenance, shard forwarding) is left."""

    def _plan(self):
        program, invariant = build_case("coloring-chain", 6)
        kernel = compile_program(program)
        return sweeps.SweepPlan(kernel, invariant, None), kernel.codec.size

    def test_three_ranges_bit_identical_to_one(self):
        plan, size = self._plan()
        one = sharding.sweep_merged(plan, sharding.plan_shards(size, 1))
        three = sharding.sweep_merged(plan, sharding.plan_shards(size, 3))
        assert len(one) == len(three) == 5
        for a, b in zip(one, three):
            if a is None:
                assert b is None
            else:
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_range_counters(self):
        from repro.observability.metrics import MetricsRegistry

        plan, size = self._plan()
        metrics = MetricsRegistry()
        sharding.sweep_merged(
            plan, sharding.plan_shards(size, 3), metrics=metrics
        )
        counters = metrics.report().counters
        assert counters["kernel.sweep.vectorized"] == 3
        assert counters["kernel.shard.merged"] == 3
        assert not [name for name in counters if "shm" in name]
        single = MetricsRegistry()
        sharding.sweep_merged(
            plan, sharding.plan_shards(size, 1), metrics=single
        )
        counters = single.report().counters
        assert counters["kernel.sweep.vectorized"] == 1
        assert "kernel.shard.merged" not in counters

    def test_sweep_starts_no_resource_tracker(self):
        # A fresh interpreter: another test may have started the tracker.
        completed = subprocess.run(
            [sys.executable, "-c", _NO_TRACKER_SCRIPT, str(SRC)],
            env=os.environ, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "3"

    def test_streaming_ranges_stay_in_process(self, monkeypatch):
        import repro.verification.parallel as parallel
        from repro.observability.metrics import MetricsRegistry

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _Forbidden)
        monkeypatch.setattr(multiprocessing, "Process", _Forbidden)
        program, invariant = build_case("coloring-chain", 6)
        metrics = MetricsRegistry()
        streamed = check_tolerance_packed(
            program, invariant, TRUE, shards=3, memory_budget=1,
            metrics=metrics,
        )
        assert metrics.report().counters["kernel.mem.streaming"] == 1
        assert streamed == check_tolerance_packed(
            program, invariant, TRUE, shards=1
        )

    def test_sweep_merged_takes_no_workers(self):
        import repro.verification.parallel as parallel

        plan, size = self._plan()
        with pytest.raises(TypeError):
            sharding.sweep_merged(
                plan, sharding.plan_shards(size, 2), workers=2
            )
        assert not hasattr(parallel, "run_on_pool")
        assert not hasattr(sharding, "_sweep_worker")

    def test_no_transfer_or_shard_forwarding_fields(self):
        from repro.kernel.verify import FullSpaceCSR
        from repro.verification.checker import _check_tolerance
        from repro.verification.parallel import VerificationTask

        csr_fields = {f.name for f in dataclasses.fields(FullSpaceCSR)}
        assert "transfer" not in csr_fields
        task_fields = {f.name for f in dataclasses.fields(VerificationTask)}
        assert "shards" not in task_fields
        program, invariant = build_case("coloring-chain", 3)
        with pytest.raises(TypeError):
            _check_tolerance(program, invariant, TRUE, shards=2)


_NO_TRACKER_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from multiprocessing import resource_tracker
from repro.kernel import shard, sweeps
from repro.kernel.engine import compile_program
from repro.protocols.library import build_case

program, invariant = build_case("coloring-chain", 6)
kernel = compile_program(program)
plan = sweeps.SweepPlan(kernel, invariant, None)
ranges = shard.plan_shards(kernel.codec.size, 3)
shard.sweep_merged(plan, ranges)
assert resource_tracker._resource_tracker._pid is None, "tracker started"
assert "multiprocessing.shared_memory" not in sys.modules
import multiprocessing
assert multiprocessing.active_children() == []
print(len(ranges))
"""


# ----------------------------------------------------------------------
# Narrow-dtype differential vs the int64 baseline
# ----------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("name", case_names())
def test_narrow_csr_bit_identical_to_int64_baseline(name, monkeypatch):
    program, invariant = build_case(name)
    kernel = compile_program(program)

    def _merge(force):
        monkeypatch.setattr(sweeps, "FORCE_CODE_DTYPE", force)
        plan = sweeps.SweepPlan(kernel, invariant, None)
        ranges = sharding.plan_shards(kernel.codec.size, 2)
        return sharding.sweep_merged(plan, ranges)

    try:
        narrow = _merge(None)
    except sweeps.SweepUnsupported:
        pytest.skip(f"{name} stays on the scalar sweep")
    wide = _merge("int64")
    monkeypatch.setattr(sweeps, "FORCE_CODE_DTYPE", None)
    assert narrow[3].dtype == np.dtype(kernel.codec.code_dtype)
    assert wide[3].dtype == np.int64
    for a, b in zip(narrow, wide):
        if a is None:
            assert b is None
        else:
            # Bit-identical after widening: same values, same order.
            assert np.array_equal(a.astype(np.int64), b.astype(np.int64))


@needs_numpy
@pytest.mark.parametrize("name", case_names())
def test_narrow_report_matches_int64_report(name, monkeypatch):
    program, invariant = build_case(name)
    monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 0)
    narrow = check_tolerance_packed(program, invariant, TRUE, shards=2)
    monkeypatch.setattr(sweeps, "FORCE_CODE_DTYPE", "int64")
    wide = check_tolerance_packed(program, invariant, TRUE, shards=2)
    monkeypatch.setattr(sweeps, "FORCE_CODE_DTYPE", None)
    assert narrow == wide


# ----------------------------------------------------------------------
# Streaming count-only verdicts vs the materialized sweep
# ----------------------------------------------------------------------


def _counter(hi=3) -> Program:
    inc = Action(
        "inc",
        Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
        process="p",
    )
    reset = Action(
        "reset",
        Predicate(lambda s: s["n"] == hi, name=f"n = {hi}", support=("n",)),
        Assignment({"n": 0}),
        reads=("n",),
        process="p",
    )
    return Program(
        "counter",
        [Variable("n", IntegerRangeDomain(0, hi), process="p")],
        [inc, reset],
    )


@needs_numpy
class TestStreamingVerdicts:
    """memory_budget=1 forces streaming; every report stays identical."""

    @pytest.fixture(autouse=True)
    def _vectorize(self, monkeypatch):
        monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 0)
        self.monkeypatch = monkeypatch

    def _both(self, program, invariant, fault_span, *, fairness="weak",
              shards=3):
        materialized = check_tolerance_packed(
            program, invariant, fault_span, fairness=fairness, shards=shards
        )
        streamed = check_tolerance_packed(
            program,
            invariant,
            fault_span,
            fairness=fairness,
            shards=shards,
            memory_budget=1,
        )
        assert streamed == materialized
        return streamed

    @pytest.mark.parametrize("name", case_names())
    @pytest.mark.parametrize("fairness", ["weak", "none"])
    def test_library_streaming_matches_materialized(self, name, fairness):
        program, invariant = build_case(name)
        report = self._both(program, invariant, TRUE, fairness=fairness)
        assert report.ok

    def test_streaming_counters_fire_on_count_only_verdict(self):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracer import Tracer

        program, invariant = build_case("coloring-chain")
        metrics = MetricsRegistry()
        tracer = Tracer.buffered()
        check_tolerance_packed(
            program, invariant, TRUE, shards=3, memory_budget=1,
            metrics=metrics, tracer=tracer,
        )
        report = metrics.report()
        assert report.counters["kernel.mem.streaming"] == 1
        assert report.counters["kernel.mem.peak_bytes"] > 0
        assert report.counters["kernel.sweep.vectorized"] == 3
        assert report.counters["kernel.shard.merged"] == 3
        mem = [e for e in tracer.events if e.kind == "kernel.mem.sweep"]
        assert len(mem) == 1 and mem[0].fields["path"] == "streaming"

    def test_deadlock_counterexample_is_identical(self):
        dec = Action(
            "dec",
            Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
            Assignment({"n": lambda s: s["n"] - 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "dec-only",
            [Variable("n", IntegerRangeDomain(0, 2), process="p")],
            [dec],
        )
        invariant = Predicate(
            lambda s: s["n"] == 2, name="n = 2", support=("n",)
        )
        report = self._both(program, invariant, TRUE)
        assert report.convergence.counterexample.kind == "deadlock"
        assert report.convergence.counterexample.states == (State({"n": 0}),)

    def test_cycle_falls_back_to_materialized_counterexample(self):
        # FALSE invariant: the whole span is bad and cyclic, so streaming
        # must abandon and the fallback's SCC counterexample survives.
        program = _counter()
        for fairness in ("weak", "none"):
            report = self._both(program, FALSE, TRUE, fairness=fairness)
            assert report.convergence.counterexample.kind == "cycle"

    def test_closure_violation_falls_back_with_witnesses(self):
        program = _counter()
        invariant = Predicate(
            lambda s: s["n"] == 0, name="n = 0", support=("n",)
        )
        report = self._both(program, invariant, TRUE)
        assert not report.s_closure.ok
        witness = report.s_closure.witnesses[0]
        assert witness.before == State({"n": 0})
        assert witness.after == State({"n": 1})

    def test_unclosed_span_falls_back(self):
        program = _counter()
        invariant = Predicate(
            lambda s: s["n"] == 0, name="n = 0", support=("n",)
        )
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert not report.t_closure.ok

    def test_implication_failure_streams(self):
        # S not=> T but both closures hold and no witness is decoded: the
        # streaming path completes with the failing verdict.
        program = _counter()
        invariant = Predicate(
            lambda s: s["n"] <= 2, name="n <= 2", support=("n",)
        )
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert not report.implication_ok

    def test_nontrivial_closed_span_streams(self):
        hi = 3
        inc = Action(
            "inc",
            Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
            Assignment({"n": lambda s: s["n"] + 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "climber",
            [Variable("n", IntegerRangeDomain(0, hi), process="p")],
            [inc],
        )
        invariant = Predicate(
            lambda s: s["n"] == hi, name="n = hi", support=("n",)
        )
        span = Predicate(lambda s: s["n"] >= 1, name="n >= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert report.ok and not report.stabilizing

    def test_generous_budget_never_streams(self):
        from repro.observability.metrics import MetricsRegistry

        program, invariant = build_case("coloring-chain")
        metrics = MetricsRegistry()
        check_tolerance_packed(
            program, invariant, TRUE, shards=2,
            memory_budget=1 << 40, metrics=metrics,
        )
        assert "kernel.mem.streaming" not in metrics.report().counters


# ----------------------------------------------------------------------
# memory_budget plumbing and kernel.mem.* accounting
# ----------------------------------------------------------------------


class TestMemoryAccounting:
    def test_scalar_path_emits_peak_bytes(self):
        from repro.observability.metrics import MetricsRegistry

        program, invariant = build_case("coloring-chain", 5)
        metrics = MetricsRegistry()
        check_tolerance_packed(program, invariant, TRUE, metrics=metrics)
        report = metrics.report()
        assert report.counters["kernel.mem.peak_bytes"] > 0
        assert report.counters["kernel.mem.code_bytes"] > 0

    @needs_numpy
    def test_vectorized_path_emits_peak_bytes(self, monkeypatch):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracer import Tracer

        monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 0)
        program, invariant = build_case("coloring-chain")
        metrics = MetricsRegistry()
        tracer = Tracer.buffered()
        check_tolerance_packed(
            program, invariant, TRUE, shards=2, metrics=metrics, tracer=tracer
        )
        assert metrics.report().counters["kernel.mem.peak_bytes"] > 0
        mem = [e for e in tracer.events if e.kind == "kernel.mem.sweep"]
        assert len(mem) == 1
        assert mem[0].fields["path"] == "vectorized"
        assert "transfer" not in mem[0].fields

    def test_service_threads_memory_budget(self):
        from repro.verification.service import VerificationService

        program, invariant = build_case("coloring-chain", 5)
        plain = VerificationService().verify_tolerance(
            program, invariant, engine="packed", case="m"
        )
        budgeted = VerificationService().verify_tolerance(
            program, invariant, engine="packed", case="m", memory_budget=1
        )
        assert budgeted.report == plain.report

    def test_memory_budget_not_in_cache_key(self, tmp_path):
        from repro.verification.service import VerificationService

        program, invariant = build_case("coloring-chain", 5)
        service = VerificationService(cache_dir=str(tmp_path))
        first = service.verify_tolerance(
            program, invariant, engine="packed", case="m", memory_budget=1
        )
        second = service.verify_tolerance(
            program, invariant, engine="packed", case="m"
        )
        assert not first.cached
        assert second.cached

    def test_task_forwards_memory_budget(self):
        from repro.verification.parallel import VerificationTask, run_batch

        task = VerificationTask(
            case="budgeted",
            builder="repro.protocols.library:build_case",
            args=("coloring-chain", 5),
            memory_budget=1,
        )
        records = run_batch([task], workers=1)
        assert records[0]["ok"]

    # The CLI imports without numpy, so its size parser runs in the
    # bare-interpreter leg too.
    def test_cli_byte_size_parses_suffixes(self):
        from repro.cli import _byte_size

        assert _byte_size("1024") == 1024
        assert _byte_size("2K") == 2048
        assert _byte_size("512M") == 512 << 20
        assert _byte_size("1g") == 1 << 30
        with pytest.raises(Exception):
            _byte_size("abc")
        with pytest.raises(Exception):
            _byte_size("-5")

    @needs_numpy
    def test_cli_verify_accepts_memory_budget(self, capsys):
        from repro.cli import main

        assert main([
            "verify", "coloring", "--size", "4",
            "--memory-budget", "1G",
        ]) == 0
        assert "T-tolerant" in capsys.readouterr().out

    @needs_numpy
    def test_cli_verify_streams_under_tiny_budget(self, capsys):
        from repro.cli import main

        assert main([
            "verify", "coloring", "--size", "5",
            "--shards", "2", "--memory-budget", "1K",
        ]) == 0
        assert "T-tolerant" in capsys.readouterr().out

    def test_daemon_stats_have_kernel_mem_section(self):
        from repro.verification.server import VerificationDaemon

        daemon = VerificationDaemon()
        program, invariant = build_case("coloring-chain", 5)
        daemon.service.verify_tolerance(
            program, invariant, engine="packed", case="stats"
        )
        stats = daemon.stats()
        assert stats["kernel_mem"]["peak_bytes"] > 0
        assert stats["kernel_mem"]["code_bytes"] > 0
