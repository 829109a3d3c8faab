"""Unit tests for the exact, content-addressed verdict-cache keys."""

import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    Variable,
    fingerprint_instance,
    fingerprint_predicate,
    fingerprint_program,
    probe_states,
)
from repro.core.expr import C, V, _Binary, walk_tokens
from repro.core.fingerprint import LocalKeys, is_trusted, key_kind
from repro.core.predicates import all_of, any_of, count_of
from repro.protocols.library import CASES, build_case
from repro.verification.checker import _check_tolerance
from repro.verification.server import VerificationDaemon, _Pending
from repro.verification.service import VerificationService, tolerance_fingerprint
from repro.verification.store import VerdictStore

SRC = Path(__file__).resolve().parent.parent / "src"


def make_counter(limit: int = 3, *, reset_to: int = 0, name: str = "counter"):
    n = Variable("n", IntegerRangeDomain(0, limit))
    inc = Action(
        "inc",
        Predicate(lambda s: s["n"] < limit, name=f"n < {limit}", support=("n",)),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
    )
    reset = Action(
        "reset",
        Predicate(lambda s: s["n"] == limit, name=f"n = {limit}", support=("n",)),
        Assignment({"n": lambda s: reset_to}),
        reads=("n",),
    )
    return Program(name, [n], [inc, reset])


ZERO = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))


class _Unhashable:
    """An object the key has no exact serialization for."""


def _point(program: Program, target: dict) -> Predicate:
    """The predicate "the state is ``target``"."""
    items = tuple(target.items())
    return Predicate(
        lambda s: all(s[name] == value for name, value in items),
        name=f"state = {target}",
        support=tuple(program.variables),
    )


def _library_keys() -> dict[str, str]:
    """Every library case's full and (where a design exists) design keys."""
    keys = {}
    for name, case in CASES.items():
        program, invariant = build_case(name)
        keys[name] = tolerance_fingerprint(program, invariant)
        if case.build_design is not None:
            design = case.build_design(case.default_size)
            keys[f"{name}/compositional"] = tolerance_fingerprint(
                design.program, design.candidate.invariant,
                method="compositional", design=design,
            )
    return keys


class TestProbeStates:
    def test_deterministic(self):
        program = make_counter()
        assert probe_states(program) == probe_states(program)

    def test_states_are_valid(self):
        program = make_counter()
        for state in probe_states(program):
            assert 0 <= state["n"] <= 3


class TestProgramFingerprint:
    def test_stable_across_rebuilds(self):
        # Rebuilding the identical program (fresh lambda objects) must
        # hash to the same key: functions hash by code and closure, not
        # by identity.
        assert fingerprint_program(make_counter()) == fingerprint_program(
            make_counter()
        )

    def test_is_hex_digest(self):
        digest = fingerprint_program(make_counter())
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex
        assert key_kind(digest) == "exact"

    def test_domain_change_detected(self):
        assert fingerprint_program(make_counter(3)) != fingerprint_program(
            make_counter(4)
        )

    def test_behaviour_change_detected(self):
        # Same variables, same action names and guards; only the reset
        # assignment's *behaviour* (a closure cell) differs.
        assert fingerprint_program(make_counter(reset_to=0)) != fingerprint_program(
            make_counter(reset_to=1)
        )

    def test_name_change_detected(self):
        assert fingerprint_program(make_counter(name="a")) != fingerprint_program(
            make_counter(name="b")
        )


class TestPredicateFingerprint:
    def test_stable_across_rebuilds(self):
        again = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        assert fingerprint_predicate(ZERO) == fingerprint_predicate(again)

    def test_verdict_change_detected(self):
        one = Predicate(lambda s: s["n"] == 1, name="n = 0", support=("n",))
        # Same display name and support, different body.
        assert fingerprint_predicate(ZERO) != fingerprint_predicate(one)

    def test_name_and_support_discriminate(self):
        assert fingerprint_predicate(ZERO) != fingerprint_predicate(
            ZERO.renamed("zero")
        )
        assert fingerprint_predicate(ZERO) != fingerprint_predicate(
            ZERO.with_support(("n", "m"))
        )

    def test_dsl_tree_is_exact(self):
        x, y = V("x"), V("y")
        assert fingerprint_predicate((x == y).predicate()) == fingerprint_predicate(
            (V("x") == V("y")).predicate()
        )
        # Not renaming-invariant: the variable names are part of the key.
        assert fingerprint_predicate(
            (x == y).predicate(name="p")
        ) != fingerprint_predicate((y == x).predicate(name="p"))
        assert fingerprint_predicate(
            (x < C(2)).predicate(name="p")
        ) != fingerprint_predicate((x < C(3)).predicate(name="p"))

    def test_source_and_parts_are_hashed_with_the_function(self):
        # The vectorized engines evaluate ``source``/``parts`` instead of
        # the function, so a predicate whose tree disagrees with its
        # function must not share a key with one whose tree agrees.
        fn = ZERO._fn
        agreeing = Predicate(fn, name="n = 0", support=("n",),
                             source=V("n") == C(0))
        lying = Predicate(fn, name="n = 0", support=("n",),
                          source=V("n") == C(1))
        assert fingerprint_predicate(agreeing) != fingerprint_predicate(lying)
        a = Predicate(lambda s: True, name="t", support=())
        assert fingerprint_predicate(a & ZERO) != fingerprint_predicate(ZERO & a)

    def test_closure_defaults_and_globals_discriminate(self):
        def body(source: str, namespace: dict):
            exec(source, namespace)
            return Predicate(namespace["f"], name="p", support=("n",))

        limit3 = body("def f(s): return s['n'] < LIMIT", {"LIMIT": 3})
        limit4 = body("def f(s): return s['n'] < LIMIT", {"LIMIT": 4})
        assert fingerprint_predicate(limit3) != fingerprint_predicate(limit4)
        # A global read only inside a nested generator counts too.
        nested3 = body("def f(s): return all(s['n'] < L for _ in (0,))", {"L": 3})
        nested4 = body("def f(s): return all(s['n'] < L for _ in (0,))", {"L": 4})
        assert fingerprint_predicate(nested3) != fingerprint_predicate(nested4)
        default3 = Predicate(lambda s, k=3: s["n"] < k, name="p", support=("n",))
        default4 = Predicate(lambda s, k=4: s["n"] < k, name="p", support=("n",))
        assert fingerprint_predicate(default3) != fingerprint_predicate(default4)

    def test_sets_are_hashed_in_sorted_order(self):
        def member(values):
            return Predicate(lambda s: s["n"] in values, name="p", support=("n",))

        # 0 and 8 collide in a small set, so these equal sets iterate in
        # insertion order: differently. They must hash alike.
        first, second = frozenset([8, 0]), frozenset([0, 8])
        assert list(first) != list(second)
        assert fingerprint_predicate(member(first)) == fingerprint_predicate(
            member(second)
        )
        assert fingerprint_predicate(
            member(frozenset(["a", "b"]))
        ) != fingerprint_predicate(member(frozenset(["a", "c"])))

    def test_recursive_function_terminates(self):
        namespace: dict = {}
        exec("def f(s, d=2): return d <= 0 or f(s, d - 1)", namespace)
        key = fingerprint_predicate(Predicate(namespace["f"], name="p", support=()))
        assert key_kind(key) == "exact"


class TestIsTrusted:
    """One recognizer of the library's own lambdas: a node is trusted when
    its function is the lowering's or a combinator's and its closure holds
    exactly what the node records."""

    def test_lowering_and_combinators_are_trusted(self):
        p = (V("x") == C(0)).predicate(name="p")
        q = (V("y") < C(2)).predicate(name="q")
        built = [p, ~p, p & q, p | q, p.implies(q), all_of([p, q]),
                 any_of([p, q]), count_of([p, q], 1), (p & q).renamed("r"),
                 (~p).with_support(("x", "y"))]
        assert all(is_trusted(node) for node in built)

    def test_foreign_function_with_claimed_parts_is_not(self):
        p = (V("x") == C(0)).predicate(name="p")
        claims = Predicate(lambda s: True, name="S", support=("x",),
                           parts=("all", (p,)))
        assert not is_trusted(claims)
        assert not is_trusted(ZERO)

    def test_record_must_mirror_the_closure(self):
        p = (V("x") == C(0)).predicate(name="p")
        q = (V("x") == C(1)).predicate(name="q")
        conj = all_of([p])
        swapped = Predicate(conj._fn, name=conj.name, support=("x",),
                            parts=("all", (q,)))
        retagged = Predicate(conj._fn, name=conj.name, support=("x",),
                             parts=("any", (p,)))
        resourced = Predicate(p._fn, name="p", support=("x",),
                              source=V("x") == C(1))
        both = Predicate(p._fn, name="p", support=("x",), source=p.source,
                         parts=("all", (p,)))
        for node in (swapped, retagged, resourced, both):
            assert not is_trusted(node)
        # The cache key hashes such a node by its function instead.
        assert fingerprint_predicate(swapped) != fingerprint_predicate(
            all_of([q], name=conj.name)
        )


class TestInstanceFingerprint:
    def test_stable_across_rebuilds(self):
        a = fingerprint_instance(make_counter(), ZERO)
        b = fingerprint_instance(make_counter(), ZERO)
        assert a == b

    def test_fairness_discriminates(self):
        a = fingerprint_instance(make_counter(), ZERO, fairness="weak")
        b = fingerprint_instance(make_counter(), ZERO, fairness="none")
        assert a != b

    def test_extra_tokens_discriminate(self):
        a = fingerprint_instance(make_counter(), ZERO, extra=("states=full",))
        b = fingerprint_instance(make_counter(), ZERO, extra=("window[0,3]",))
        assert a != b

    def test_fault_span_discriminates(self):
        span = Predicate(lambda s: s["n"] <= 2, name="n <= 2", support=("n",))
        a = fingerprint_instance(make_counter(), ZERO)
        b = fingerprint_instance(make_counter(), ZERO, span)
        assert a != b

    def test_design_discriminates_compositional_keys(self):
        design = CASES["diffusing-chain"].build_design(3)
        other = CASES["diffusing-chain"].build_design(4)
        program, invariant = design.program, design.candidate.invariant
        plain = tolerance_fingerprint(program, invariant, method="compositional")
        keyed = tolerance_fingerprint(
            program, invariant, method="compositional", design=design
        )
        assert plain != keyed
        assert keyed != tolerance_fingerprint(
            program, invariant, method="compositional", design=other
        )


class TestCompositionalKeys:
    def test_a_certificate_is_keyed_by_its_design(self):
        # Same augmented program and invariant, different constraint
        # graph partition: the certificate of one design must not answer
        # for the other.
        from repro.core.constraint_graph import GraphNode
        from repro.core.design import NonmaskingDesign

        first = CASES["diffusing-chain"].build_design(3)
        second = NonmaskingDesign(
            first.name, first.candidate, first.bindings,
            (GraphNode("all", frozenset(first.program.variables)),),
        )
        assert fingerprint_program(first.program) == fingerprint_program(
            second.program
        )
        service = VerificationService()
        for design in (first, second):
            verdict = service.verify_tolerance(
                design.program, design.candidate.invariant,
                design=design, method="compositional",
            )
            assert not verdict.cached
            assert service.cached_record("tolerance", tolerance_fingerprint(
                design.program, design.candidate.invariant,
                method="compositional", design=design,
            )) is not None


class TestTokenizer:
    def test_refuses_a_binary_node_with_a_foreign_operator(self):
        honest = V("x") + C(1)
        forged = _Binary(V("x"), C(1), "+", operator.sub)
        assert walk_tokens(honest, {}, [])
        assert not walk_tokens(forged, {}, [])
        predicate = Predicate(forged, name="p", support=("x",))
        assert key_kind(fingerprint_predicate(predicate)) == "local"

    def test_refuses_a_constant_without_an_exact_repr(self):
        assert not walk_tokens(V("x") == C(_Unhashable()), {}, [])


class TestWrongCachedVerdictRegression:
    """A mutant invariant must never be answered with the original's verdict.

    Under the 32-state probe key, dijkstra-ring n=3 probed only 3
    distinct states, so ``inv or x = (0,2,0)`` shared ``inv``'s key and
    the service answered the mutant with the cached ``ok=True``.
    """

    def test_mutated_invariant_misses_the_cache(self):
        program, invariant = build_case("dijkstra-ring", 3)
        mutant = (invariant | _point(program, {"x.0": 0, "x.1": 2, "x.2": 0})
                  ).renamed(invariant.name)
        service = VerificationService()
        assert service.verify_tolerance(program, invariant).ok
        verdict = service.verify_tolerance(program, mutant)
        assert verdict.ok is False
        assert verdict.cached is False
        assert VerificationService().verify_tolerance(program, mutant).ok is False


@st.composite
def _mutation(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    program, invariant = build_case(name, min(CASES[name].default_size, 3))
    target = {
        variable: draw(st.sampled_from(list(spec.domain.values())))
        for variable, spec in program.variables.items()
    }
    return program, invariant, target


class TestMutationProperty:
    @settings(max_examples=24, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutation())
    def test_single_state_mutation_changes_key_or_keeps_verdict(self, drawn):
        program, invariant, target = drawn
        mutant = (invariant | _point(program, target)).renamed(invariant.name)
        if tolerance_fingerprint(program, mutant) != tolerance_fingerprint(
            program, invariant
        ):
            return
        original = _check_tolerance(program, invariant, None, None, engine="dict")
        changed = _check_tolerance(program, mutant, None, None, engine="dict")
        assert original.ok == changed.ok


class TestKeyKinds:
    def test_opaque_capture_gives_a_memory_only_local_key(self, tmp_path):
        token = _Unhashable()
        program = make_counter()
        predicate = Predicate(
            lambda s: token is not None and s["n"] == 0,
            name="n = 0", support=("n",),
        )
        service = VerificationService(cache_dir=tmp_path)
        first = service.verify_tolerance(program, predicate)
        assert first.record["key"] == "local"
        assert first.to_json()["key"] == "local"
        assert not first.cached
        second = service.verify_tolerance(program, predicate)
        assert second.cached and second.cache_layer == "memory"
        assert not VerificationService(cache_dir=tmp_path).verify_tolerance(
            program, predicate
        ).cached
        assert list(tmp_path.iterdir()) == []

    def test_local_keys_differ_without_a_shared_registry(self):
        predicate = Predicate(
            lambda s, token=_Unhashable(): s["n"] == 0, name="p", support=("n",)
        )
        first = fingerprint_predicate(predicate)
        assert key_kind(first) == "local"
        assert fingerprint_predicate(predicate) != first
        registry = LocalKeys()
        assert fingerprint_predicate(predicate, local=registry) == (
            fingerprint_predicate(predicate, local=registry)
        )

    def test_store_refuses_a_local_key(self, tmp_path):
        store = VerdictStore(tmp_path)
        with pytest.raises(ValueError, match="process-local"):
            store.put("tolerance", "local-" + "0" * 64, {"ok": True})
        assert store.writes == 0

    def test_service_and_daemon_refuse_to_ingest_a_local_key(self, tmp_path):
        service = VerificationService(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="process-local"):
            service.ingest("tolerance", "local-" + "0" * 64, {"ok": True})
        daemon = VerificationDaemon(service=service)
        try:
            pending = _Pending(
                task=None, keys={"full": "local-" + "1" * 64}, future=None,
            )
            daemon._ingest(pending, {"method": "full", "ok": True})
        finally:
            daemon._executor.shutdown()
        assert service.cached_record("tolerance", "local-" + "1" * 64) is None
        assert list(tmp_path.rglob("*.json")) == []

    def test_library_records_are_exact(self):
        service = VerificationService()
        for name, case in CASES.items():
            program, invariant = build_case(name, min(case.default_size, 3))
            assert service.verify_tolerance(program, invariant).record["key"] == (
                "exact"
            ), name
        assert all(key_kind(key) == "exact" for key in _library_keys().values())

    @pytest.mark.parametrize("family, size", [
        ("diffusing-chain", 60),
        ("leader-election-star", 30),
        ("coloring-chain", 150),
        ("diffusing-star", 30),
    ])
    def test_certify_large_families_are_exact(self, family, size):
        design = CASES[family].build_design(size)
        key = tolerance_fingerprint(
            design.program, design.candidate.invariant,
            method="compositional", design=design,
        )
        assert key_kind(key) == "exact"
        small = CASES[family].build_design(3)
        verdict = VerificationService().verify_tolerance(
            small.program, small.candidate.invariant, design=small,
        )
        assert verdict.record["key"] == "exact"

    def test_design_records_are_exact(self):
        design = CASES["coloring-chain"].build_design(3)
        record = VerificationService().validate_design(
            design, design.program.state_space()
        )
        assert record["key"] == "exact"


_KEYS_SCRIPT = """
import json, sys
if sys.argv[3] == "without-numpy":
    sys.modules["numpy"] = None  # any ``import numpy`` now fails
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from test_fingerprint import _library_keys
print(json.dumps(_library_keys(), sort_keys=True))
"""


class TestCrossProcessStability:
    def test_keys_do_not_depend_on_the_hash_seed_or_numpy(self):
        # Set iteration order and any ``hash()`` leaking into a key would
        # show up across hash seeds; numpy and numpy-free installs share
        # a store, so they must agree too.
        results = []
        for seed, numpy in (("1", "with-numpy"), ("2", "with-numpy"),
                            ("2", "without-numpy")):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            completed = subprocess.run(
                [sys.executable, "-c", _KEYS_SCRIPT, str(SRC),
                 str(Path(__file__).resolve().parent), numpy],
                env=env, capture_output=True, text=True, timeout=300,
                check=True,
            )
            results.append(json.loads(completed.stdout))
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == len(CASES) + sum(
            1 for case in CASES.values() if case.build_design is not None
        )
        assert results[0] == _library_keys()
