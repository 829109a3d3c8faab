"""The one trusted predicate compiler and the numpy-free scalar peel.

Runs with and without numpy (the kernel-differential CI job's two
legs); the numpy comparisons skip on the bare interpreter.

- :func:`repro.kernel.compile.compile_predicate_fn` compiles exactly the
  nodes :func:`repro.core.fingerprint.is_trusted` accepts, so a
  predicate whose ``source`` or ``parts`` lie about its function is
  evaluated by its function on every packed path.
- :func:`repro.kernel.sweeps.scalar_peel` gives the levels of
  :func:`repro.kernel.sweeps.bad_region_acyclic`; the scalar sweep
  decides convergence with it and hands its levels to ``quantify``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compositional import certify_compositional
from repro.core.actions import Action, Assignment
from repro.core.candidate import CandidateTriple
from repro.core.constraint_graph import GraphNode
from repro.core.constraints import Constraint, ConvergenceBinding, conjunction
from repro.core.design import NonmaskingDesign
from repro.core.domains import IntegerRangeDomain
from repro.core.expr import V, expr_action
from repro.core.fingerprint import is_trusted
from repro.core.predicates import TRUE, Predicate, all_of, any_of, count_of
from repro.core.program import Program
from repro.core.variables import Variable
from repro.kernel import sweeps
from repro.kernel.compile import compile_predicate
from repro.kernel.engine import compile_program
from repro.kernel.verify import check_tolerance_swept
from repro.observability import MetricsRegistry
from repro.protocols.library import CASES, build_case
from repro.protocols.token_ring import build_dijkstra_ring
from repro.verification.checker import _check_tolerance

needs_numpy = pytest.mark.skipif(not sweeps.HAVE_NUMPY, reason="needs numpy")


@pytest.fixture
def scalar(monkeypatch):
    monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 1 << 62)


@pytest.fixture
def vectorized(monkeypatch):
    if not sweeps.HAVE_NUMPY:
        pytest.skip("needs numpy")
    monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 0)


def _outcome(fn, argument):
    """What ``fn(argument)`` returns, or the type of what it raises."""
    try:
        return bool(fn(argument))
    except Exception as error:  # the type is the outcome
        return type(error)


# ----------------------------------------------------------------------
# One compiler: compiled == predicate(state), node for node
# ----------------------------------------------------------------------

_NAMES = ("x", "y", "z")
_SMALL = Program(
    "small", [Variable(name, IntegerRangeDomain(0, 2)) for name in _NAMES], []
)


def _leaves():
    name = st.sampled_from(_NAMES)
    value = st.integers(0, 2)
    lowered = st.builds(lambda a, k: (V(a) == k).predicate(), name, value)
    related = st.builds(lambda a, b: (V(a) < V(b)).predicate(), name, name)
    opaque = st.builds(
        lambda a, k: Predicate(
            lambda s: s[a] == k, name=f"{a}=={k}", support=(a,)
        ),
        name, value,
    )
    # Raises ZeroDivisionError where ``a == k``: only a short circuit
    # that skips it there keeps the whole predicate total.
    raising = st.builds(
        lambda a, k: Predicate(
            lambda s: 1 // (s[a] - k) > 0, name=f"1//({a}-{k})", support=(a,)
        ),
        name, value,
    )
    # Records the DSL node ``b == k`` but evaluates ``a != k``.
    lying_source = st.builds(
        lambda a, b, k: Predicate(
            (V(a) != k).predicate()._fn,
            name="lying-source",
            source=V(b) == k,
            support=(a, b),
        ),
        name, name, value,
    )
    # A lowering whose tree reads a variable the program lacks.
    unknown = st.just((V("w") == 0).predicate())
    return st.one_of(lowered, related, opaque, raising, lying_source, unknown)


def _trees():
    def extend(children):
        pair = st.tuples(children, children)
        operands = st.lists(children, min_size=0, max_size=3)
        return st.one_of(
            pair.map(lambda p: p[0] & p[1]),
            pair.map(lambda p: p[0] | p[1]),
            children.map(lambda p: ~p),
            pair.map(lambda p: p[0].implies(p[1])),
            operands.map(all_of),
            operands.map(any_of),
            st.tuples(operands, st.integers(0, 2)).map(
                lambda p: count_of(p[0], count=p[1])
            ),
            # Records ``and`` of its operands but evaluates ``or``.
            pair.map(
                lambda p: Predicate(
                    lambda s, a=p[0], b=p[1]: a(s) or b(s),
                    name="lying-parts",
                    parts=("and", (p[0], p[1])),
                    support=_NAMES,
                )
            ),
        )

    return st.recursive(_leaves(), extend, max_leaves=8)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_trees())
def test_compiled_predicate_equals_the_predicate(predicate):
    kernel = compile_program(_SMALL)
    codec = kernel.codec
    compiled = kernel.predicate_fn(predicate)
    whole = compile_predicate(predicate, codec)
    expected = []
    for code, _digits, values in kernel.iter_space():
        state = codec.decode_state(code)
        want = _outcome(predicate, state)
        expected.append(want)
        assert _outcome(compiled, values) == want
        if whole is not None:
            assert _outcome(whole, values) == want
    if not sweeps.HAVE_NUMPY:
        return
    try:
        node = sweeps._compile_mask(predicate, codec, sweeps._BatteryCache(_SMALL))
        mask = node.mask(sweeps._RangeContext(codec, 0, codec.size))
    except sweeps.SweepUnsupported:
        return
    assert [bool(bit) for bit in mask] == expected


def test_untrusted_nodes_never_compile_whole():
    inv = (V("x") == 0).predicate()
    lying = Predicate(inv._fn, source=V("y") == 1)
    assert not is_trusted(lying)
    codec = compile_program(_SMALL).codec
    assert compile_predicate(inv, codec) is not None
    assert compile_predicate(lying, codec) is None
    assert compile_predicate(all_of([inv, lying]), codec) is None
    assert compile_predicate(all_of([inv, inv]), codec) is not None


def _nodes(predicate):
    """``predicate`` and every node below it that a compiler may follow."""
    yield predicate
    if is_trusted(predicate) and predicate.parts is not None:
        for operand in predicate.parts[1]:
            yield from _nodes(operand)


def _fully_trusted(predicate) -> bool:
    return all(is_trusted(node) for node in _nodes(predicate))


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_trusted_trees_compile_whole(name):
    # A node leaves tier 1 only for an untrusted node below it: every
    # all-trusted subtree of S and of every guard compiles whole.
    program, invariant = build_case(name, 3)
    codec = compile_program(program).codec
    for root in [invariant] + [action.guard for action in program.actions]:
        for node in _nodes(root):
            if _fully_trusted(node):
                assert compile_predicate(node, codec) is not None, node.name


# ----------------------------------------------------------------------
# Lying records on dijkstra-ring: every packed path equals dict
# ----------------------------------------------------------------------


def _lying_source(invariant, variables):
    return Predicate(
        invariant._fn, name="lying-source", source=V("x.0") == 0, support=variables
    )


def _lying_parts(invariant, variables):
    return Predicate(
        lambda s: invariant(s) and s["x.0"] != 0,
        name="lying-parts",
        parts=("and", (invariant, invariant)),
        support=variables,
    )


def _ring_with(lie, n, declared):
    program, invariant = build_case("dijkstra-ring", n)
    variables = tuple(program.variables) if declared else None
    return program, lie(invariant, variables)


@pytest.mark.parametrize("declared", [False, True], ids=["no-support", "support"])
@pytest.mark.parametrize("lie", [_lying_source, _lying_parts])
@pytest.mark.parametrize("n,path", [(4, "scalar"), (5, "vectorized")])
def test_lying_invariant_matches_dict(lie, n, path, declared, monkeypatch):
    if path == "vectorized":
        if not sweeps.HAVE_NUMPY:
            pytest.skip("needs numpy")
        monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 0)
    else:
        monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 1 << 62)
    program, lying = _ring_with(lie, n, declared)
    metrics = MetricsRegistry()
    packed, _csr = check_tolerance_swept(program, lying, TRUE, metrics=metrics)
    oracle = _check_tolerance(program, lying, TRUE, engine="dict")
    assert packed == oracle
    vectorized = metrics.report().counters.get("kernel.sweep.vectorized", 0)
    # Without a declared support an opaque leaf cannot be tabulated, so
    # the vectorized gate declines and the scalar sweep answers.
    assert bool(vectorized) == (path == "vectorized" and declared)


def test_lying_guard_source_does_not_pass_the_table_gate():
    # The guard records ``x > 0`` but also reads ``y``: a successor
    # table keyed by the declared reads {x} would replay one state's
    # guard on every state sharing ``x``.
    x = V("x")
    guard = Predicate(
        lambda s: s["x"] > 0 and s["y"] == 1, name="x > 0", source=x > 0
    )
    program = Program(
        "lying-guard",
        [
            Variable("x", IntegerRangeDomain(0, 3)),
            Variable("y", IntegerRangeDomain(0, 1)),
        ],
        [Action("dec", guard, Assignment({"x": x - 1}), reads=("x",))],
    )
    assert compile_program(program).modes()["table"] == 0
    invariant = ((x == 0) | (V("y") == 0)).predicate()
    packed, _csr = check_tolerance_swept(program, invariant, TRUE)
    oracle = _check_tolerance(program, invariant, TRUE, engine="dict")
    assert oracle.ok
    assert packed == oracle


def _lying_design(lie: bool) -> NonmaskingDesign:
    """A two-node chain ``A -> B``: ``a = 0``, then ``b = a``.

    With ``lie``, ``Cb`` records ``b != a`` but evaluates ``b = a``.
    """
    bit = IntegerRangeDomain(0, 1)
    a, b = V("a"), V("b")
    honest = (b == a).predicate()
    cb_predicate = (
        Predicate(honest._fn, name="b = a", source=b != a, support=("a", "b"))
        if lie
        else honest
    )
    constraint_a = Constraint("Ca", a == 0)
    constraint_b = Constraint("Cb", cb_predicate)
    constraints = (constraint_a, constraint_b)
    closure = Program("lying", [Variable("a", bit), Variable("b", bit)], [])
    candidate = CandidateTriple(
        program=closure,
        invariant=conjunction(constraints, name="S"),
        constraints=constraints,
    )
    bindings = [
        ConvergenceBinding(constraint_a, expr_action("conv_a", a != 0, {"a": 0})),
        ConvergenceBinding(constraint_b, expr_action("conv_b", b != a, {"b": a})),
    ]
    nodes = [GraphNode("A", frozenset({"a"})), GraphNode("B", frozenset({"b"}))]
    return NonmaskingDesign("lying", candidate, bindings, nodes)


@pytest.mark.parametrize("lie", [False, True], ids=["honest", "lying"])
def test_lying_constraint_certifies_like_dict(lie):
    design = _lying_design(lie)
    oracle = _check_tolerance(
        design.program, design.candidate.invariant, TRUE, engine="dict"
    )
    assert oracle.ok
    assert certify_compositional(design).ok == oracle.ok


# ----------------------------------------------------------------------
# The scalar peel
# ----------------------------------------------------------------------


def _reference_levels(bad, offsets, targets):
    """Longest bad→bad path to an exit, by fixpoint; -1 where none."""
    n = len(bad)
    levels = [-1] * n
    changed = True
    while changed:
        changed = False
        for row in range(n):
            lo, hi = offsets[row], offsets[row + 1]
            if not bad[row] or levels[row] >= 0 or lo == hi:
                continue
            inner = [levels[t] for t in targets[lo:hi] if bad[t]]
            if all(level >= 0 for level in inner):
                levels[row] = 1 + max(inner) if inner else 0
                changed = True
    return levels


def _peel_instances():
    for name in sorted(CASES):
        for size in (3, 4):
            yield f"{name}-{size}", lambda name=name, size=size: build_case(name, size)
    for n in range(4, 8):
        yield f"ring{n}-k{n // 2}", lambda n=n: build_dijkstra_ring(n, n // 2)


_PEEL = list(_peel_instances())


@pytest.mark.parametrize("build", [b for _, b in _PEEL], ids=[i for i, _ in _PEEL])
def test_scalar_peel_levels(build, scalar):
    program, invariant = build()[:2]
    _report, csr = check_tolerance_swept(program, invariant, TRUE)
    if csr is None:
        pytest.skip("raw successors: no CSR")
    bad = bytearray(not bit for bit in csr.s_mask)
    levels = sweeps.scalar_peel(bad, csr.offsets, csr.targets)
    assert list(levels) == _reference_levels(bad, csr.offsets, csr.targets)
    if sweeps.HAVE_NUMPY:
        import numpy as np

        vector = sweeps.bad_region_acyclic(
            np.asarray(bad, dtype=bool),
            np.asarray(csr.offsets),
            np.asarray(csr.targets),
        )
        assert np.asarray(levels).dtype == vector.dtype
        assert np.array_equal(np.asarray(levels), vector)


def test_scalar_peel_deadlocks_and_cycles_never_peel():
    # 0 good; 1 -> 0; 2 -> 1; 3 deadlock; 4 -> 3; 5 <-> 6; 7 -> 5 and 0.
    rows = [[], [0], [1], [], [3], [6], [5], [5, 0]]
    offsets, targets = [0], []
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    bad = bytearray([0, 1, 1, 1, 1, 1, 1, 1])
    levels = sweeps.scalar_peel(bad, offsets, targets)
    assert list(levels) == [-1, 0, 1, -1, -1, -1, -1, -1]


# ----------------------------------------------------------------------
# Reports: the peel-first scalar verdict equals the dict engine
# ----------------------------------------------------------------------


def _ladder() -> Program:
    """``x`` falls to 0; ``spin`` cycles 3 <-> 4 while ``down`` stays
    enabled, so weak fairness converges and no fairness does not."""
    x = V("x")
    return Program(
        "ladder",
        [Variable("x", IntegerRangeDomain(0, 4))],
        [
            expr_action("down", x > 0, {"x": x - 1}),
            expr_action("spin-up", x == 3, {"x": 4}),
            expr_action("spin-down", x == 4, {"x": 3}),
        ],
    )


def _stuck() -> Program:
    """``x = 1`` is a bad deadlock."""
    x = V("x")
    return Program(
        "stuck",
        [Variable("x", IntegerRangeDomain(0, 3))],
        [expr_action("down", x > 1, {"x": x - 1})],
    )


_X0 = (V("x") == 0).predicate()
_SPANS = {
    "true": TRUE,
    "closed": (V("x") <= 2).predicate(),
    "unclosed": (V("x") != 2).predicate(),
}


@pytest.mark.parametrize("supplied", [False, True], ids=["space", "supplied"])
@pytest.mark.parametrize("span", sorted(_SPANS))
@pytest.mark.parametrize("fairness", ["weak", "none"])
@pytest.mark.parametrize("build", [_ladder, _stuck])
def test_reports_match_dict(build, fairness, span, supplied, scalar):
    program = build()
    fault_span = _SPANS[span]
    states = codes = None
    if supplied:
        states = list(program.state_space())
        random.Random(7).shuffle(states)
        codes = compile_program(program).codec.encode_states(states)
    packed, _csr = check_tolerance_swept(
        program, _X0, fault_span, codes, fairness=fairness
    )
    oracle = _check_tolerance(
        program, _X0, fault_span, states, fairness=fairness, engine="dict"
    )
    assert packed == oracle


@pytest.mark.parametrize("fairness", ["weak", "none"])
@pytest.mark.parametrize("n", [4, 5])
def test_ring_counterexamples_match_dict(n, fairness, scalar):
    program, invariant = build_dijkstra_ring(n, n // 2)
    packed, _csr = check_tolerance_swept(program, invariant, TRUE, fairness=fairness)
    oracle = _check_tolerance(program, invariant, TRUE, fairness=fairness, engine="dict")
    assert packed == oracle
    assert not packed.ok


def test_supplied_ring_matches_dict(scalar):
    program, invariant = build_case("dijkstra-ring", 4)
    states = list(program.state_space())
    random.Random(3).shuffle(states)
    codes = compile_program(program).codec.encode_states(states)
    packed, csr = check_tolerance_swept(program, invariant, TRUE, codes)
    assert packed == _check_tolerance(program, invariant, TRUE, states, engine="dict")
    # A closed supplied set hands on its CSR, row i being states[i].
    assert csr is not None and not csr.vectorized
    assert list(csr.s_mask) == [int(bool(invariant(state))) for state in states]


# ----------------------------------------------------------------------
# Levels on the scalar CSR, and the Tarjan counter
# ----------------------------------------------------------------------


def test_scalar_csr_carries_levels_by_code(scalar):
    program = _ladder()
    closed = _SPANS["closed"]
    _report, csr = check_tolerance_swept(program, _X0, closed)
    assert csr is not None and not csr.vectorized
    # x in {1, 2} peel at levels 0 and 1; x = 0 is good, 3 and 4 lie
    # outside the span.
    assert list(csr.levels) == [-1, 0, 1, -1, -1]


def test_no_levels_on_a_deadlock_or_an_unclosed_span(scalar):
    _report, csr = check_tolerance_swept(_stuck(), _X0, TRUE)
    assert csr.levels is None
    _report, csr = check_tolerance_swept(_ladder(), _X0, _SPANS["unclosed"])
    assert csr.levels is None


@pytest.mark.parametrize(
    "build,handed",
    [
        (lambda: build_case("diffusing-chain", 3), 0),
        (lambda: build_case("reset-chain", 3), 0),
        (_ladder, 2),  # the 3 <-> 4 cycle
    ],
    ids=["diffusing-chain3", "reset-chain3", "ladder"],
)
def test_tarjan_counter(build, handed, scalar):
    built = build()
    program, invariant = (built, _X0) if isinstance(built, Program) else built[:2]
    metrics = MetricsRegistry()
    check_tolerance_swept(program, invariant, TRUE, metrics=metrics)
    assert metrics.report().counters["kernel.converge.tarjan"] == handed


def test_tarjan_counter_reads_zero_on_a_positive_vectorized_verdict(vectorized):
    metrics = MetricsRegistry()
    program, invariant = build_case("diffusing-chain", 4)
    report, _csr = check_tolerance_swept(program, invariant, TRUE, metrics=metrics)
    assert report.ok
    assert metrics.report().counters["kernel.converge.tarjan"] == 0


@needs_numpy
@pytest.mark.parametrize(
    "name,size", [("diffusing-chain", 4), ("reset-chain", 3), ("matching-cycle", 4)]
)
def test_positive_scalar_quantify_reads_the_verdict_levels(name, size, monkeypatch):
    import math

    from repro.verification import VerificationService

    program, invariant = build_case(name, size)
    metrics = MetricsRegistry()
    verdict = VerificationService(metrics=metrics).verify_tolerance(
        program, invariant, quantify=True, engine="packed"
    )
    counters = metrics.report().counters
    assert verdict.ok and verdict.quantitative.ok
    assert counters.get("kernel.sweep.vectorized", 0) == 0
    assert counters.get("kernel.reverse_csr", 0) == 0
    assert verdict.quantitative.iterations == 0

    monkeypatch.setattr(sweeps, "VECTOR_MIN_STATES", 0)
    forced = VerificationService().verify_tolerance(
        program, invariant, quantify=True, engine="packed"
    )
    scalar_json = verdict.quantitative.to_json()
    vector_json = forced.quantitative.to_json()
    for key, value in scalar_json.items():
        if key == "seconds":
            continue
        other = vector_json[key]
        if isinstance(value, float) and not math.isinf(value):
            assert math.isclose(value, other, rel_tol=1e-10), key
        else:
            assert value == other, key
