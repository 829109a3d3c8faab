"""The verification service and parallel batch runner.

Differential property: the cached/parallel service paths must return
verdicts identical to the plain sequential checkers on every protocol,
including when answered from the in-memory or on-disk cache.
"""

import pytest

from repro.core import TRUE, ValidationError, fingerprint_instance
from repro.protocols.library import build_case, case_names, library_tasks
from repro.verification import (
    VerificationService,
    VerificationTask,
    run_batch,
    verdicts_ok,
)
from repro.verification.checker import _check_tolerance as check_tolerance
from repro.verification.parallel import resolve_builder

# Small enough to model-check exhaustively in a unit-test run.
SMALL_CASES = [
    ("coloring-chain", 3),
    ("dijkstra-ring", 3),
    ("leader-election-star", 3),
    ("matching-cycle", 3),
    ("four-state-line", 4),
]

#: Verdict fields compared across execution paths (timing excluded).
FIELDS = (
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


def expected_record(name, size):
    program, invariant = build_case(name, size)
    report = check_tolerance(
        program, invariant, TRUE, program.state_space(), fairness="weak"
    )
    return {
        "ok": report.ok,
        "implication_ok": report.implication_ok,
        "s_closure_ok": report.s_closure.ok,
        "t_closure_ok": report.t_closure.ok,
        "convergence_ok": report.convergence.ok,
        "classification": report.classification,
        "stabilizing": report.stabilizing,
        "total_states": report.total_states,
        "span_states": report.convergence.span_states,
        "bad_states": report.convergence.bad_states,
    }


def trim(record):
    return {field: record[field] for field in FIELDS}


class TestServiceDifferential:
    @pytest.mark.parametrize("name,size", SMALL_CASES)
    def test_service_matches_sequential_checker(self, name, size):
        program, invariant = build_case(name, size)
        service = VerificationService()
        cold = service.verify_tolerance(program, invariant, case=name)
        assert not cold.cached and cold.cache_layer == ""
        assert trim(cold.record) == expected_record(name, size)
        # The full report is available on a computed verdict.
        assert cold.report is not None and cold.report.ok == cold.ok

    @pytest.mark.parametrize("name,size", SMALL_CASES)
    def test_cache_hit_is_identical(self, name, size):
        service = VerificationService()
        program, invariant = build_case(name, size)
        cold = service.verify_tolerance(program, invariant, case=name)
        # Rebuild the instance from scratch: fresh lambdas, same content.
        program2, invariant2 = build_case(name, size)
        warm = service.verify_tolerance(program2, invariant2, case=name)
        assert warm.cached and warm.cache_layer == "memory"
        assert warm.record == cold.record
        assert trim(warm.record) == expected_record(name, size)

    def test_stats_count_hits_and_misses(self):
        service = VerificationService()
        program, invariant = build_case("coloring-chain", 3)
        service.verify_tolerance(program, invariant)
        service.verify_tolerance(program, invariant)
        stats = service.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["records"] == 1


class TestMemoBound:
    """The in-memory layer is one LRU of ``MEMO_CAPACITY`` records."""

    def test_capacity_clears_a_daemon_warm_roster(self):
        from repro.verification import service as service_module

        # serve-mix keeps 24 verify + 12 lint keys warm.
        assert service_module.MEMO_CAPACITY >= 4 * (24 + 12)

    def test_distinct_keys_stay_bounded_and_warm_key_stays_hit(
        self, monkeypatch
    ):
        pytest.importorskip("numpy")
        from repro.verification import service as service_module

        monkeypatch.setattr(service_module, "MEMO_CAPACITY", 8)
        service = VerificationService()
        warm_program, warm_invariant = build_case("dijkstra-ring", 3)
        service.verify_tolerance(warm_program, warm_invariant)
        program, invariant = build_case("coloring-chain", 3)
        for index in range(1, 25):
            service.verify_tolerance(
                program, invariant, quantify=True, fault_rate=index / 100
            )
            assert service.stats()["records"] <= 8
            if index % 4 == 0:
                warm = service.verify_tolerance(warm_program, warm_invariant)
                assert warm.cache_layer == "memory"
                assert warm.report is not None
        assert len(service._reports) <= 8
        evicted = service.verify_tolerance(
            program, invariant, quantify=True, fault_rate=0.01
        )
        assert not evicted.cached


class TestDiskCache:
    def test_survives_fresh_service_instances(self, tmp_path):
        program, invariant = build_case("dijkstra-ring", 3)
        first = VerificationService(cache_dir=tmp_path)
        cold = first.verify_tolerance(program, invariant)
        assert not cold.cached
        assert list(tmp_path.glob("tolerance-*.json"))

        second = VerificationService(cache_dir=tmp_path)
        warm = second.verify_tolerance(program, invariant)
        assert warm.cached and warm.cache_layer == "disk"
        assert warm.record == cold.record
        # The disk layer has no report object to offer.
        assert warm.report is None
        assert warm.ok == cold.ok

    def test_corrupt_entry_recomputed(self, tmp_path):
        program, invariant = build_case("dijkstra-ring", 3)
        service = VerificationService(cache_dir=tmp_path)
        cold = service.verify_tolerance(program, invariant)
        path = next(tmp_path.glob("tolerance-*.json"))
        path.write_text("{ not json")
        fresh = VerificationService(cache_dir=tmp_path)
        recomputed = fresh.verify_tolerance(program, invariant)
        assert not recomputed.cached
        assert trim(recomputed.record) == trim(cold.record)

    def test_states_key_discriminates(self):
        program, invariant = build_case("dijkstra-ring", 3)
        a = fingerprint_instance(program, invariant, TRUE, extra=("w[0,2]",))
        b = fingerprint_instance(program, invariant, TRUE, extra=("w[0,4]",))
        assert a != b


class TestRunBatch:
    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_parallel_matches_sequential(self):
        tasks = library_tasks(names=["coloring-chain", "leader-election-star"])
        sequential = run_batch(tasks, workers=1)
        parallel = run_batch(tasks, workers=2)
        assert [trim(r) for r in sequential] == [trim(r) for r in parallel]
        assert [r["case"] for r in parallel] == [t.case for t in tasks]
        assert verdicts_ok(parallel)

    def test_shared_disk_cache_warms_second_run(self, tmp_path):
        tasks = library_tasks(names=["leader-election-star"])
        cold = run_batch(tasks, workers=2, cache_dir=str(tmp_path))
        warm = run_batch(tasks, workers=2, cache_dir=str(tmp_path))
        assert all(record["cached"] for record in warm)
        assert [trim(r) for r in cold] == [trim(r) for r in warm]

    def test_unpicklable_task_falls_back_to_sequential(self):
        # A lambda in args cannot cross the process boundary; run_batch
        # must detect that and execute in-process instead of crashing.
        task = VerificationTask(
            case="coloring-chain (n=3)",
            builder="repro.protocols.library:build_case",
            args=("coloring-chain", 3),
        )
        poisoned = VerificationTask(
            case="poison",
            builder="repro.protocols.library:build_case",
            args=(lambda: None,),
        )
        with pytest.raises(ValidationError):
            run_batch([poisoned, task], workers=2)
        # The fallback executed sequentially (the builder itself raised on
        # the bogus argument); a well-formed unpicklable-free batch works:
        assert run_batch([task], workers=2)[0]["ok"]

    def test_worker_failure_propagates(self):
        bad = VerificationTask(case="bad", builder="repro.protocols.library:nope")
        with pytest.raises(ValidationError):
            run_batch([bad], workers=2)


class TestResolveBuilder:
    def test_resolves(self):
        assert resolve_builder("repro.protocols.library:build_case") is build_case

    def test_malformed_reference(self):
        with pytest.raises(ValidationError):
            resolve_builder("no-colon-here")

    def test_missing_attribute(self):
        with pytest.raises(ValidationError):
            resolve_builder("repro.protocols.library:does_not_exist")


class TestLibrary:
    def test_case_names_cover_library(self):
        names = case_names()
        assert "dijkstra-ring" in names and len(names) >= 10

    def test_unknown_case_rejected(self):
        with pytest.raises(ValidationError):
            build_case("no-such-protocol")

    def test_library_tasks_filter(self):
        tasks = library_tasks(names=["mis-cycle"])
        assert len(tasks) == 1
        assert tasks[0].builder == "repro.protocols.library:build_case"
