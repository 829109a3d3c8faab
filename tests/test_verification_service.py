"""The verification service and parallel batch runner.

Differential property: the cached/parallel service paths must return
verdicts identical to the plain sequential checkers on every protocol,
including when answered from the in-memory or on-disk cache.
"""

import random

import pytest

import repro
from repro.core import (
    TRUE,
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    ValidationError,
    Variable,
    fingerprint_instance,
)
from repro.kernel import PackedUnsupported, StateCodec, sweeps
from repro.protocols.library import CASES, build_case, case_names, library_tasks
from repro.protocols.three_constraint import build_oscillating_design, window_states
from repro.protocols.token_ring import build_dijkstra_ring
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


def _counter(hi: int = 3) -> Program:
    """``n`` counts up to ``hi`` and resets to 0."""
    inc = Action(
        "inc",
        Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
    )
    reset = Action(
        "reset",
        Predicate(lambda s: s["n"] == hi, name=f"n = {hi}", support=("n",)),
        Assignment({"n": 0}),
        reads=("n",),
    )
    return Program("counter", [Variable("n", IntegerRangeDomain(0, hi))], [inc, reset])


_ZERO = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))


def _shuffled_with_duplicates(program, seed: int = 5) -> list:
    states = list(program.state_space())
    random.Random(seed).shuffle(states)
    return states + states[: len(states) // 3]


class TestSuppliedStates:
    """A supplied list is encoded once and its verdict keyed by its codes."""

    @staticmethod
    def _ring():
        # The whole space, and its S-states repeated to the same length.
        program, invariant = build_dijkstra_ring(4, 2)
        space = list(program.state_space())
        legit = [state for state in space if invariant(state)]
        return program, invariant, space, (legit * len(space))[: len(space)]

    def test_equal_length_lists_do_not_share_a_verdict(self):
        program, invariant, space, legit = self._ring()
        service = VerificationService()
        whole = repro.verify(program, s=invariant, states=space, service=service)
        closed = repro.verify(program, s=invariant, states=legit, service=service)
        assert not whole.ok
        assert closed.ok and not closed.cached
        fresh = VerificationService().verify_tolerance(
            program, invariant, states=legit
        )
        assert fresh.ok
        assert closed.record["key"] == "exact"

    def test_validate_design_equal_length_lists_do_not_share_a_record(self):
        design = build_oscillating_design()
        window = window_states(3)
        invariant = design.candidate.invariant
        legit = [state for state in window if invariant(state)]
        legit = (legit * len(window))[: len(window)]
        service = VerificationService()
        assert not service.validate_design(design, window)["ok"]
        record = service.validate_design(design, legit)
        assert record["ok"] and record["key"] == "local"
        assert service.misses == 2

    def test_permutations_and_duplicates_get_distinct_keys(self):
        program, invariant = build_case("dijkstra-ring", 3)
        states = list(program.state_space())
        service = VerificationService()
        for variant in (states, states[::-1], states + states[:1]):
            verdict = service.verify_tolerance(program, invariant, states=variant)
            assert not verdict.cached and verdict.record["key"] == "exact"
        again = service.verify_tolerance(program, invariant, states=list(states))
        assert again.cached
        assert service.misses == 3 and service.hits == 1

    def test_design_keys_follow_the_codes(self):
        design = CASES["coloring-chain"].build_design(3)
        states = list(design.program.state_space())
        service = VerificationService()
        first = service.validate_design(design, states)
        service.validate_design(design, states[::-1])
        assert service.validate_design(design, list(states)) == first
        assert service.misses == 2 and service.hits == 1
        assert first["key"] == "exact"

    def test_each_state_is_encoded_once(self, monkeypatch):
        program, invariant = build_case("dijkstra-ring", 3)
        states = _shuffled_with_duplicates(program)
        encode = StateCodec.encode_state
        encoded = []

        def counting(codec, state):
            encoded.append(state)
            return encode(codec, state)

        monkeypatch.setattr(StateCodec, "encode_state", counting)
        verdict = VerificationService().verify_tolerance(
            program, invariant, states=states, quantify=sweeps.HAVE_NUMPY
        )
        assert verdict.record["engine"] == "packed"
        assert len(encoded) == len(states)

    @pytest.mark.skipif(not sweeps.HAVE_NUMPY, reason="quantify needs numpy")
    def test_supplied_quantify_sweeps_once(self, monkeypatch):
        from repro.quantitative import quantify
        from repro.verification import explorer

        build = explorer.build_transition_system
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        for name in ("dijkstra-ring", "diffusing-chain", "reset-chain"):
            program, invariant = build_case(name, 3)
            states = _shuffled_with_duplicates(program)
            standalone = quantify(program, invariant, None, states).to_json()
            monkeypatch.setattr(explorer, "build_transition_system", counting)
            verdict = VerificationService().verify_tolerance(
                program, invariant, states=states, quantify=True
            )
            monkeypatch.setattr(explorer, "build_transition_system", build)
            record = dict(verdict.record["quantitative"])
            record.pop("seconds")
            standalone.pop("seconds")
            assert record == standalone, name
        assert builds == []

    def test_non_closed_list_keeps_dict_witnesses(self):
        program = _counter()
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        subset = [State({"n": 1}), State({"n": 0}), State({"n": 1})]
        packed = VerificationService().verify_tolerance(
            program, _ZERO, span, subset, engine="packed"
        )
        oracle = check_tolerance(program, _ZERO, span, subset, engine="dict")
        assert packed.report == oracle
        assert packed.report.t_closure.witnesses[0].after == State({"n": 2})

    def test_missing_successor_raises_on_both_engines(self):
        program = _counter()
        subset = [State({"n": 0}), State({"n": 1})]
        messages = set()
        for engine in ("packed", "dict"):
            with pytest.raises(ValueError) as error:
                VerificationService().verify_tolerance(
                    program, _ZERO, states=subset, engine=engine
                )
            messages.add(str(error.value))
        assert len(messages) == 1

    def test_out_of_domain_list_falls_back_to_dict_uncached(self):
        program = _counter()
        states = [*program.state_space(), State({"n": 7})]
        service = VerificationService()
        first = service.verify_tolerance(program, _ZERO, states=states)
        assert first.record["engine"] == "dict"
        assert first.record["key"] == "local"
        assert first.report == check_tolerance(
            program, _ZERO, TRUE, states, engine="dict"
        )
        assert not service.verify_tolerance(program, _ZERO, states=states).cached
        with pytest.raises(PackedUnsupported):
            service.verify_tolerance(program, _ZERO, states=states, engine="packed")


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
