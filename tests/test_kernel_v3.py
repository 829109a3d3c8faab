"""Kernel v3 tests: narrow dtypes, zero-copy transfer, streaming verdicts.

Four layers:

- codec width selection pinned exactly on the int16/int32 boundaries,
  plus the packed-code transport round-trip at each width;
- unit tests for the streaming peel primitives
  (:func:`~repro.kernel.sweeps.peel_shard_edges`,
  :func:`~repro.kernel.sweeps.edge_list_acyclic`) and the shared-memory
  fragment transport (:mod:`repro.kernel.shm`);
- differentials pinning narrow-dtype CSR output bit-identical (after
  widening) to the ``FORCE_CODE_DTYPE='int64'`` baseline, the streaming
  count-only path bit-identical to the materialized sweep (including
  the witness-forced fallbacks), and shm/pickle/inline transfer parity;
- plumbing: ``memory_budget`` through service, batch tasks and the CLI,
  and the ``kernel.mem.*`` counters on every sweep path.
"""

import multiprocessing
import os

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

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="sharded pools need fork inheritance",
)


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
    def test_pack_codes_round_trip_at_each_width(self, radices):
        codec = _codec_of_size(*radices)
        codes = [0, 1, codec.size // 2, codec.size - 1]
        buffer = codec.pack_codes(codes)
        assert len(buffer) == codec.code_bytes * len(codes)
        assert list(codec.unpack_codes(buffer)) == codes

    def test_batch_pack_states_uses_narrow_codes(self):
        from repro.verification.parallel import pack_states

        program, _ = build_case("coloring-chain", 6)
        states = list(program.state_space())[:5]
        codec = StateCodec.for_program(program)
        assert codec.code_typecode == "h"
        assert len(pack_states(program, states)) == 2 * len(states)


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


# ----------------------------------------------------------------------
# Shared-memory fragment transport
# ----------------------------------------------------------------------


@needs_numpy
class TestShmTransport:
    def _fragment(self, with_t=True):
        return sweeps.Fragment(
            4,
            7,
            np.array([True, False, True]),
            np.array([True, True, False]) if with_t else None,
            np.array([0, 1, 1, 3], dtype=np.int32),
            np.array([5, 4, 6], dtype=np.int16),
            np.array([0, 1, 0], dtype=np.int16),
        )

    def test_export_import_round_trip(self):
        from repro.kernel import shm

        if not shm.shm_available():
            pytest.skip("shared memory unavailable")
        name = shm.segment_name(shm.new_token(), 0)
        original = self._fragment()
        handle = shm.export_fragment(original, name)
        fragment, segment = shm.import_fragment(handle)
        try:
            assert fragment.lo == 4 and fragment.hi == 7
            for field in ("s_mask", "t_mask", "offsets", "targets", "action_ids"):
                got, want = getattr(fragment, field), getattr(original, field)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        finally:
            del fragment
            assert shm.release_segments([segment]) == 1

    def test_absent_t_mask_round_trips_as_none(self):
        from repro.kernel import shm

        if not shm.shm_available():
            pytest.skip("shared memory unavailable")
        handle = shm.export_fragment(
            self._fragment(with_t=False),
            shm.segment_name(shm.new_token(), 0),
        )
        fragment, segment = shm.import_fragment(handle)
        try:
            assert fragment.t_mask is None
        finally:
            del fragment
            shm.release_segments([segment])

    def test_stale_segment_is_reclaimed(self):
        from repro.kernel import shm

        if not shm.shm_available():
            pytest.skip("shared memory unavailable")
        from multiprocessing import shared_memory

        name = shm.segment_name(shm.new_token(), 0)
        stale = shared_memory.SharedMemory(create=True, size=8, name=name)
        stale.close()  # deliberately NOT unlinked: a crashed worker's leavings
        handle = shm.export_fragment(self._fragment(), name)
        fragment, segment = shm.import_fragment(handle)
        del fragment
        shm.release_segments([segment])
        assert shm.unlink_segments(handle.name[3:-2], 1) == 0  # already gone

    def test_disable_env_forces_unavailable(self, monkeypatch):
        from repro.kernel import shm

        monkeypatch.setenv(shm.DISABLE_ENV, "1")
        assert not shm.shm_available()
        monkeypatch.delenv(shm.DISABLE_ENV)

    def test_unlink_segments_tolerates_absent(self):
        from repro.kernel import shm

        assert shm.unlink_segments(shm.new_token(), 4) == 0


def _no_dev_shm_leftovers():
    if not os.path.isdir("/dev/shm"):
        return True
    return not [f for f in os.listdir("/dev/shm") if f.startswith("rk3")]


@needs_numpy
@needs_fork
class TestTransferParity:
    """shm, pickle, and inline transfers produce bit-identical merges."""

    def _merged(self, workers, monkeypatch=None, disable_shm=False):
        from repro.kernel import shard as sharding

        program, invariant = build_case("coloring-chain", 6)
        kernel = compile_program(program)
        plan = sweeps.SweepPlan(kernel, invariant, None)
        ranges = sharding.plan_shards(kernel.codec.size, 3)
        if disable_shm:
            monkeypatch.setenv("REPRO_KERNEL_NO_SHM", "1")
        try:
            return sharding.sweep_merged(plan, ranges, workers=workers)
        finally:
            if disable_shm:
                monkeypatch.delenv("REPRO_KERNEL_NO_SHM")

    def test_shm_pickle_inline_bit_identical(self, monkeypatch):
        from repro.kernel import shm

        merged_inline, transfer_inline = self._merged(workers=1)
        assert transfer_inline == "inline"
        merged_pickle, transfer_pickle = self._merged(
            workers=2, monkeypatch=monkeypatch, disable_shm=True
        )
        assert transfer_pickle == "pickle"
        results = [merged_inline, merged_pickle]
        if shm.shm_available():
            merged_shm, transfer_shm = self._merged(workers=2)
            assert transfer_shm == "shm"
            results.append(merged_shm)
            assert _no_dev_shm_leftovers()
        for other in results[1:]:
            for a, b in zip(results[0], other):
                if a is None:
                    assert b is None
                else:
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b)

    def test_shm_counters(self):
        from repro.kernel import shm
        from repro.kernel import shard as sharding
        from repro.observability.metrics import MetricsRegistry

        if not shm.shm_available():
            pytest.skip("shared memory unavailable")
        program, invariant = build_case("coloring-chain", 6)
        kernel = compile_program(program)
        plan = sweeps.SweepPlan(kernel, invariant, None)
        ranges = sharding.plan_shards(kernel.codec.size, 3)
        metrics = MetricsRegistry()
        _, transfer = sharding.sweep_merged(
            plan, ranges, workers=2, metrics=metrics
        )
        assert transfer == "shm"
        report = metrics.report()
        assert report.counters["kernel.mem.shm_segments"] == 3
        assert report.counters["kernel.mem.shm_unlinked"] == 3
        assert _no_dev_shm_leftovers()


# ----------------------------------------------------------------------
# Narrow-dtype differential vs the int64 baseline
# ----------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("name", case_names())
def test_narrow_csr_bit_identical_to_int64_baseline(name, monkeypatch):
    from repro.kernel import shard as sharding

    program, invariant = build_case(name)
    kernel = compile_program(program)

    def _merge(force):
        monkeypatch.setattr(sweeps, "FORCE_CODE_DTYPE", force)
        plan = sweeps.SweepPlan(kernel, invariant, None)
        ranges = sharding.plan_shards(kernel.codec.size, 2)
        merged, _ = sharding.sweep_merged(plan, ranges, workers=1)
        return merged

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
    def test_vectorized_path_emits_peak_bytes_and_transfer(self, monkeypatch):
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
        assert mem[0].fields["transfer"] in ("shm", "pickle", "inline")

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
