"""Quantitative tolerance: convergence-time analysis at kernel speed.

The paper's verdicts are boolean — a program either is or is not
nonmasking-tolerant — but *how* tolerant matters operationally: two
verified protocols can differ by orders of magnitude in how long the
random daemon takes to re-establish the invariant after a fault, and in
how far an adversarial scheduler can stretch recovery. Following the
masking-distance line of work (Castro et al., "Measuring Masking
Fault-Tolerance"; "Quantifying Masking Fault-Tolerance via Fair
Stochastic Games" — see ``docs/PAPER_MAP.md``), this module turns the
verified transition system into numbers:

- **Expected convergence time** under the seeded random daemon: at each
  non-target state one enabled transition is chosen uniformly; the
  expected steps-to-target solve the absorbing hitting-time system

      E[s] = 0                                   if target(s)
      E[s] = 1 + (1/|enabled(s)|) * sum E[s']    otherwise

  computed by **CSR-native value iteration** directly over the packed
  kernel's ``offsets``/``targets`` arrays — no dense matrix is ever
  materialized (the historical dense ``numpy.linalg`` solve survives as
  :func:`dense_hitting_times`, the toy-size differential reference).
  Jacobi sweeps run vectorized when numpy is present and fall back to a
  **bit-compatible** pure-Python scalar loop otherwise, mirroring the
  ``repro.kernel.sweeps`` gating discipline: both paths perform the
  same IEEE operations in the same order, so their results are
  bit-identical (the differential suite pins this).

- **Fault-rate-weighted expectation**: transitions fired by fault
  actions (``fault_actions=``, defaulting to action names starting with
  ``"fault"``) are weighted ``fault_rate`` against ``1.0`` for program
  actions, normalized per state — the chain of a system whose
  environment injects faults at a known relative rate.

- **Worst-case convergence span**: the game value against the
  adversarial scheduler, which at every state picks the enabled
  transition maximizing remaining time. Computed exactly by max-player
  value iteration in attractor order over the same CSR graph — with
  numpy, as the round numbers of the kernel's own Kahn peel run
  backwards from the target (:func:`repro.kernel.sweeps.kahn_peel`);
  states the adversary can trap outside the target (a cycle or
  deadlock that avoids it) get ``math.inf``.

- **A masking-distance-style score** in ``[0, 1]`` combining the
  fault-span escape probability (the chance a uniformly random span
  start never converges) with the normalized expected convergence time
  — ``0.0`` is immediate convergence from everywhere, ``1.0`` is a span
  that never recovers. See ``docs/QUANTITATIVE.md`` for the exact
  definition.

States that reach the target with probability < 1 under the random
daemon (they can wander into a region from which the target is
unreachable, or deadlock outside it) have infinite expected hitting
time and are reported as ``math.inf``, exactly as the historical dense
solver did.

Surfaced through the facade as ``repro.verify(case, quantify=True)``
(the attached :class:`QuantitativeReport` satisfies the
:class:`repro.Verdict` protocol), the CLI (``repro verify --quantify``)
and the daemon (``POST /verify`` with ``"quantify": true``).
"""

from __future__ import annotations

import math
import time
from collections.abc import Collection, Iterable
from dataclasses import dataclass, fields
from typing import Any

from repro.core.errors import ValidationError
from repro.core.predicates import TRUE, Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.observability import events as ev

try:  # numpy is optional: the scalar fallback mirrors every result
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the fallback CI leg
    _np = None

__all__ = [
    "DEFAULT_FAULT_RATE",
    "DEFAULT_TOL",
    "DENSE_AGREEMENT_RTOL",
    "FORCE_SCALAR",
    "HAVE_NUMPY",
    "HittingTimes",
    "MAX_VALUE_SWEEPS",
    "QuantitativeReport",
    "QuantitativeUnsupported",
    "dense_hitting_times",
    "hitting_times",
    "quantify",
    "worst_case_steps",
]

#: Whether numpy was importable; without it the scalar sweeps run.
HAVE_NUMPY = _np is not None

#: Force the pure-Python scalar value iteration even when numpy is
#: present. The differential suite flips this to pin that the two paths
#: are bit-identical.
FORCE_SCALAR = False

#: Default relative convergence threshold of the value iteration: a
#: sweep whose largest per-state update falls below
#: ``tol * (1 + max expectation)`` is the last.
DEFAULT_TOL = 1e-12

#: Default relative weight of a fault action against a program action
#: in the fault-rate-weighted chain.
DEFAULT_FAULT_RATE = 0.1

#: Hard sweep cap; an instance that has not converged by then is
#: reported with ``converged=False`` rather than looping forever.
MAX_VALUE_SWEEPS = 100_000

#: The documented agreement bar between the CSR value iteration and the
#: dense reference solve (relative, on every finite expectation). The
#: differential suite pins it across the protocol library.
DENSE_AGREEMENT_RTOL = 1e-6


class QuantitativeUnsupported(Exception):
    """The quantitative analysis cannot run on this instance as asked.

    Raised for structured refusals — numpy missing for the dense
    reference solve, or a ``memory_budget=`` the resident value-
    iteration arrays cannot fit under (unlike the boolean kernel there
    is no streaming variant: the expectation vector must stay resident
    across sweeps).
    """


# ----------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HittingTimes:
    """Exact expected steps-to-target per state, plus aggregates.

    The canonical home of the type that used to live in
    :mod:`repro.analysis.markov`; ``expectations`` is aligned with
    ``system.states`` and states that miss the target with positive
    probability carry ``math.inf``.
    """

    #: Expected steps from each state, aligned with ``system.states``.
    expectations: tuple[float, ...]
    #: Mean over every state of the instance (uniform random start).
    mean: float
    #: Worst start state's expectation.
    maximum: float
    system: Any
    #: Value-iteration sweeps performed (0 for the dense solve).
    iterations: int = 0
    #: Whether the iteration met its tolerance within the sweep cap.
    converged: bool = True

    def expectation_of(self, state: State) -> float:
        return self.expectations[self.system.index_of(state)]

    @property
    def all_finite(self) -> bool:
        return all(not math.isinf(v) for v in self.expectations)


@dataclass(frozen=True)
class QuantitativeReport:
    """The quantitative tolerance verdict of one instance.

    Satisfies the :class:`repro.Verdict` protocol: ``ok`` is ``True``
    when every fault-span state converges with probability 1 under the
    random daemon **and** the adversarial scheduler cannot prevent
    convergence (finite worst case), with the value iteration having
    met its tolerance. ``to_json`` has a pinned key set (see
    ``tests/test_cli_json.py``).
    """

    case: str
    ok: bool
    #: Graph representation the analysis ran over: "packed" or "dict".
    engine: str
    #: Value-iteration execution path: "vector" (numpy) or "scalar".
    path: str
    states: int
    target_states: int
    span_states: int
    #: Span states whose random-daemon expectation is infinite.
    doomed_states: int
    #: ``doomed_states / span_states`` — the chance a uniformly random
    #: span start never converges under the random daemon.
    escape_probability: float
    #: Mean expectation over the span (``math.inf`` if any is doomed).
    mean_steps: float
    #: Worst span start's expectation (``math.inf`` if doomed).
    max_steps: float
    #: Adversarial-scheduler game value over the span (``math.inf``
    #: when the adversary can trap the system outside the target).
    worst_case_steps: float
    #: Span mean under the fault-rate-weighted chain (equals
    #: ``mean_steps`` when the program has no fault actions).
    weighted_mean_steps: float
    fault_rate: float
    #: Masking-distance-style score in [0, 1]; 0 is immediate
    #: convergence from everywhere, 1 a span that never recovers.
    score: float
    #: Total value-iteration sweeps (uniform + weighted chains).
    iterations: int
    converged: bool
    tol: float
    seconds: float

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict[str, Any]:
        """JSON-able report with a stable key set.

        Infinite expectations serialize as the JSON extension literal
        ``Infinity`` (Python's ``json`` module reads it back as
        ``math.inf``).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "QuantitativeReport":
        """Rebuild a report from its :meth:`to_json` record."""
        return cls(**{f.name: record[f.name] for f in fields(cls)})

    def describe(self) -> str:
        verdict = "converges" if self.ok else "does NOT converge"
        worst = (
            "unbounded"
            if math.isinf(self.worst_case_steps)
            else f"{self.worst_case_steps:g} steps"
        )

        def steps(value: float) -> str:
            return "inf" if math.isinf(value) else f"{value:.4f}"

        return "\n".join(
            [
                f"quantitative tolerance of {self.case}: "
                f"score {self.score:.6f} [{verdict}]",
                f"  random daemon: mean {steps(self.mean_steps)} steps, "
                f"worst start {steps(self.max_steps)}",
                f"  fault-weighted (rate {self.fault_rate:g}): "
                f"mean {steps(self.weighted_mean_steps)} steps",
                f"  adversarial daemon: worst case {worst}",
                f"  span: {self.span_states} of {self.states} states, "
                f"{self.doomed_states} doomed "
                f"(escape probability {self.escape_probability:.4f})",
                f"  value iteration: {self.iterations} sweeps "
                f"[{self.path}/{self.engine}], tol {self.tol:g}, "
                f"{'converged' if self.converged else 'NOT converged'}",
            ]
        )


# ----------------------------------------------------------------------
# CSR extraction
# ----------------------------------------------------------------------


@dataclass
class _Graph:
    """The CSR arrays one quantitative analysis runs over."""

    n: int
    #: Row offsets (length n+1) and edge targets; list/array/ndarray.
    offsets: Any
    targets: Any
    #: Per-state booleans (indexable; list or ndarray).
    is_target: Any
    #: Per-state span membership, or None when the span is TRUE.
    in_span: Any
    #: Per-edge fault-action flags, or None when no action is a fault.
    fault_edge: Any
    engine: str


def _is_fault_name(name: str, fault_actions: Collection[str] | None) -> bool:
    if fault_actions is not None:
        return name in fault_actions
    return name.lower().startswith("fault")


def _graph_from_system(
    system: Any,
    target: Predicate,
    span: Predicate,
    fault_actions: Collection[str] | None,
) -> _Graph:
    """CSR arrays of a built (packed or dict) transition system."""
    from repro.kernel import PackedTransitionSystem

    n = len(system)
    if system.escapes:
        raise ValueError("the state set is not closed under the program")
    is_target = [False] * n
    for index in system.satisfying(target):
        is_target[index] = True
    if span is TRUE:
        in_span = None
    else:
        in_span = [False] * n
        for index in system.satisfying(span):
            in_span[index] = True
    if isinstance(system, PackedTransitionSystem):
        is_fault = [
            _is_fault_name(name, fault_actions) for name in system.action_names
        ]
        fault_edge = (
            [is_fault[aid] for aid in system.action_ids]
            if any(is_fault)
            else None
        )
        return _Graph(
            n=n,
            offsets=system.offsets,
            targets=system.targets,
            is_target=is_target,
            in_span=in_span,
            fault_edge=fault_edge,
            engine="packed",
        )
    offsets = [0]
    targets: list[int] = []
    fault_edge = []
    for row in system.edges:
        for action_name, destination in row:
            targets.append(destination)
            fault_edge.append(_is_fault_name(action_name, fault_actions))
        offsets.append(len(targets))
    return _Graph(
        n=n,
        offsets=offsets,
        targets=targets,
        is_target=is_target,
        in_span=in_span,
        fault_edge=fault_edge if any(fault_edge) else None,
        engine="dict",
    )


def _full_space_graph(
    program: Program,
    target: Predicate,
    span: Predicate,
    fault_actions: Collection[str] | None,
    *,
    shards: int | None,
    memory_budget: int | None,
    metrics: Any,
) -> _Graph | None:
    """The vectorized (optionally sharded) full-space CSR, or ``None``.

    Mirrors the kernel's sweep gating: numpy present, the space large
    enough to amortize numpy's fixed overhead (unless ``shards`` was
    requested explicitly), and every construct inside the vectorized
    fragment — anything else returns ``None`` and the caller builds the
    system through the ordinary engines. The produced masks and CSR are
    bit-identical to the scalar build (the kernel differential suite
    pins the sweep; this module's suite pins the solve).
    """
    if _np is None or FORCE_SCALAR:
        return None
    from repro.kernel import compile_program, kernel_supported
    from repro.kernel import shard as sharding
    from repro.kernel import sweeps

    if not kernel_supported(program):
        return None
    kernel = compile_program(program)
    size = kernel.codec.size
    if shards is None and size < sweeps.VECTOR_MIN_STATES:
        return None
    try:
        plan = sweeps.SweepPlan(
            kernel, target, None if span is TRUE else span
        )
        ranges = sharding.plan_shards(size, shards)
        merged, _transfer = sharding.sweep_merged(plan, ranges, metrics=metrics)
    except sweeps.SweepUnsupported:
        return None
    s_mask, t_mask, offsets, targets, action_ids = merged
    edges = int(offsets[-1])
    # Resident footprint of the solve: the CSR plus the edge-source
    # index and three float vectors — all must stay in memory across
    # sweeps, so a budget below it is a structured refusal, not a
    # streaming fallback.
    resident = (
        s_mask.nbytes
        + (0 if t_mask is None else t_mask.nbytes)
        + offsets.nbytes
        + targets.nbytes
        + action_ids.nbytes
        + 8 * edges  # edge-source index for the segment sums
        + 8 * edges  # per-sweep gathered successor values
        + 3 * 8 * size  # expectation, segment-sum and update vectors
    )
    if metrics is not None:
        metrics.counter("quantitative.mem.bytes").add(resident)
    if memory_budget is not None and resident > memory_budget:
        raise QuantitativeUnsupported(
            f"value iteration over {size} states / {edges} edges needs "
            f"~{resident} resident bytes, above the {memory_budget}-byte "
            "memory_budget; unlike the boolean sweep there is no "
            "streaming variant — raise or drop the budget"
        )
    is_fault = [_is_fault_name(name, fault_actions) for name in kernel.action_names]
    fault_edge = (
        _np.asarray(is_fault, dtype=bool)[_np.asarray(action_ids)]
        if any(is_fault)
        else None
    )
    return _Graph(
        n=size,
        offsets=offsets,
        targets=targets,
        is_target=s_mask,
        in_span=t_mask,
        fault_edge=fault_edge,
        engine="packed",
    )


# ----------------------------------------------------------------------
# Reachability classification (exact)
# ----------------------------------------------------------------------


def _classify_scalar(n: int, offsets, targets, is_target) -> list[bool]:
    """Which states have infinite expectation (probability < 1 to hit).

    Two backward closures, exactly as the historical dense solver
    computed them: states that cannot reach the target at all, then
    states that can wander (without first being absorbed) into one.
    """
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for source in range(n):
        if is_target[source]:
            continue  # target states are absorbing for the hitting time
        for k in range(offsets[source], offsets[source + 1]):
            predecessors[targets[k]].append(source)

    reaches = [bool(is_target[i]) for i in range(n)]
    frontier = [i for i in range(n) if is_target[i]]
    while frontier:
        node = frontier.pop()
        for back in predecessors[node]:
            if not reaches[back]:
                reaches[back] = True
                frontier.append(back)

    doomed = [not flag for flag in reaches]
    frontier = [i for i in range(n) if doomed[i]]
    while frontier:
        node = frontier.pop()
        for back in predecessors[node]:
            if not doomed[back] and not is_target[back]:
                doomed[back] = True
                frontier.append(back)
    return doomed


def _index_array(values):
    """``values`` as an integer array; a numpy array keeps its dtype."""
    if isinstance(values, _np.ndarray):
        return values
    return _np.asarray(values, dtype=_np.int64)


def _absorbing_edges(offsets, targets, is_target):
    """The edges out of non-target states, as ``(sources, sinks)`` arrays.

    Target states are absorbing, so their own edges never count —
    neither for reachability to the target nor in the adversarial game.
    Sources come in the targets' (narrow) code dtype.
    """
    from repro.kernel.sweeps import _csr_sources

    np = _np
    off = _index_array(offsets)
    tgt = _index_array(targets)
    counted = ~np.repeat(np.asarray(is_target, dtype=bool), np.diff(off))
    return _csr_sources(off, tgt.dtype)[counted], tgt[counted]


def _classify_vector(n: int, offsets, targets, is_target):
    """Vectorized :func:`_classify_scalar`: reverse CSR + frontier BFS."""
    from repro.kernel.sweeps import _reverse_csr, frontier_reach

    np = _np
    rev_offsets, rev_targets = _reverse_csr(
        *_absorbing_edges(offsets, targets, is_target), n
    )
    target_roots = np.flatnonzero(np.asarray(is_target, dtype=bool))
    reaches = (
        frontier_reach(rev_offsets, rev_targets, target_roots, n)
        if target_roots.size
        else np.zeros(n, dtype=bool)
    )
    nonreaching = np.flatnonzero(~reaches)
    if not nonreaching.size:
        return np.zeros(n, dtype=bool)
    return frontier_reach(rev_offsets, rev_targets, nonreaching, n)


# ----------------------------------------------------------------------
# Value iteration (the random-daemon chains)
# ----------------------------------------------------------------------


def _solve_scalar(
    n: int, offsets, targets, is_target, doomed, weights,
    tol: float, max_sweeps: int,
) -> tuple[list[float], int, bool]:
    """Pure-Python Jacobi sweeps, bit-compatible with the vector path.

    Every accumulation runs in the CSR edge order — the same sequential
    IEEE additions ``numpy.bincount`` performs — and the stopping rule
    compares the same floats, so both paths take the same number of
    sweeps and produce bit-identical expectations.
    """
    x = [0.0] * n
    transient = [
        i for i in range(n) if not is_target[i] and not doomed[i]
    ]
    if not transient:
        return x, 0, True
    totals = []
    for i in transient:
        if weights is None:
            totals.append(float(offsets[i + 1] - offsets[i]))
        else:
            acc = 0.0
            for k in range(offsets[i], offsets[i + 1]):
                acc += weights[k]
            totals.append(acc)
    new = [0.0] * len(transient)
    sweeps_done = 0
    converged = False
    while sweeps_done < max_sweeps:
        sweeps_done += 1
        peak = 0.0
        delta = 0.0
        for position, i in enumerate(transient):
            acc = 0.0
            if weights is None:
                for k in range(offsets[i], offsets[i + 1]):
                    acc += x[targets[k]]
            else:
                for k in range(offsets[i], offsets[i + 1]):
                    acc += weights[k] * x[targets[k]]
            value = 1.0 + acc / totals[position]
            new[position] = value
            if value > peak:
                peak = value
            diff = value - x[i]
            if diff < 0.0:
                diff = -diff
            if diff > delta:
                delta = diff
        for position, i in enumerate(transient):
            x[i] = new[position]
        if delta <= tol * (1.0 + peak):
            converged = True
            break
    return x, sweeps_done, converged


def _solve_vector(
    n: int, offsets, targets, is_target, doomed, weights,
    tol: float, max_sweeps: int,
) -> tuple[list[float], int, bool]:
    """Vectorized Jacobi sweeps: one gather + segment sum per sweep."""
    np = _np
    off = np.asarray(offsets, dtype=np.int64)
    tgt = np.asarray(targets, dtype=np.int64)
    counts = off[1:] - off[:-1]
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    is_t = np.asarray(is_target, dtype=bool)
    doom = np.asarray(doomed, dtype=bool)
    index = np.flatnonzero(~is_t & ~doom)
    x = np.zeros(n, dtype=np.float64)
    if index.size == 0:
        return x.tolist(), 0, True
    if weights is None:
        edge_weights = None
        totals = counts[index].astype(np.float64)
    else:
        edge_weights = np.asarray(weights, dtype=np.float64)
        totals = np.bincount(src, weights=edge_weights, minlength=n)[index]
    sweeps_done = 0
    converged = False
    while sweeps_done < max_sweeps:
        sweeps_done += 1
        values = x[tgt] if edge_weights is None else edge_weights * x[tgt]
        sums = np.bincount(src, weights=values, minlength=n)
        new = 1.0 + sums[index] / totals
        peak = float(new.max())
        delta = float(np.abs(new - x[index]).max())
        x[index] = new
        if delta <= tol * (1.0 + peak):
            converged = True
            break
    return x.tolist(), sweeps_done, converged


def _solve(
    graph: _Graph, doomed, weights, tol: float, max_sweeps: int,
) -> tuple[list[float], int, bool, str]:
    """Dispatch one chain solve; returns ``(x, sweeps, converged, path)``."""
    if HAVE_NUMPY and not FORCE_SCALAR:
        x, sweeps_done, converged = _solve_vector(
            graph.n, graph.offsets, graph.targets, graph.is_target,
            doomed, weights, tol, max_sweeps,
        )
        return x, sweeps_done, converged, "vector"
    x, sweeps_done, converged = _solve_scalar(
        graph.n, graph.offsets, graph.targets, graph.is_target,
        doomed, weights, tol, max_sweeps,
    )
    return x, sweeps_done, converged, "scalar"


# ----------------------------------------------------------------------
# Adversarial game value (max-player, attractor order)
# ----------------------------------------------------------------------


def _adversarial_values(n: int, offsets, targets, is_target) -> list[float]:
    """Exact game value against the adversarial scheduler, per state.

    Dispatches like :func:`_solve`: the kernel's Kahn peel with numpy,
    the pure-Python attractor walk otherwise (or under
    ``FORCE_SCALAR``). Both return exactly the same values.
    """
    if HAVE_NUMPY and not FORCE_SCALAR:
        return _adversarial_vector(n, offsets, targets, is_target)
    return _adversarial_scalar(n, offsets, targets, is_target)


def _adversarial_scalar(n: int, offsets, targets, is_target) -> list[float]:
    """Pure-Python game value: max-player value iteration in attractor order.

    A state joins the finite region only once *every* enabled transition
    leads into it (the adversary picks the worst), at which point its
    value is ``1 + max`` over the successors — all already final. States
    the adversary can keep outside the target (a cycle avoiding it, or a
    deadlock) never join and stay ``math.inf``.
    """
    predecessors: list[list[int]] = [[] for _ in range(n)]
    remaining = [0] * n
    for source in range(n):
        if is_target[source]:
            continue
        remaining[source] = offsets[source + 1] - offsets[source]
        for k in range(offsets[source], offsets[source + 1]):
            predecessors[targets[k]].append(source)
    values = [math.inf] * n
    best = [0.0] * n
    queue = [i for i in range(n) if is_target[i]]
    for i in queue:
        values[i] = 0.0
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        reached = values[node] + 1.0
        for back in predecessors[node]:
            if best[back] < reached:
                best[back] = reached
            remaining[back] -= 1
            if remaining[back] == 0:
                values[back] = best[back]
                queue.append(back)
    return values


def _adversarial_vector(n: int, offsets, targets, is_target) -> list[float]:
    """The game value as the round of the kernel's Kahn peel from ``S``.

    The same backward attractor, run round-synchronously by
    :func:`repro.kernel.sweeps.kahn_peel` over the edges out of
    non-target states: targets peel in round 0, and a state peels in
    round ``r`` once its last successor has, so ``r = 1 + max`` over the
    successors — exactly the adversary's value. A deadlocked non-target
    is kept out of the peeled region (the adversary stops it there
    forever), so it and every state that can be steered into it or into
    a cycle avoiding the target never peel and get ``math.inf``.
    """
    from repro.kernel.sweeps import _peel_levels

    np = _np
    is_t = np.asarray(is_target, dtype=bool)
    region = is_t | (np.diff(_index_array(offsets)) > 0)
    levels = _peel_levels(
        region, *_absorbing_edges(offsets, targets, is_target)
    )
    values = levels.astype(np.float64)
    values[levels < 0] = math.inf
    return values.tolist()


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def hitting_times(
    program: Program,
    states: Iterable[State],
    target: Predicate,
    *,
    system: Any = None,
    engine: str = "auto",
    tol: float = DEFAULT_TOL,
    max_sweeps: int = MAX_VALUE_SWEEPS,
) -> HittingTimes:
    """Random-daemon expected steps-to-target, by CSR value iteration.

    The drop-in successor of the deprecated
    ``repro.analysis.markov.expected_convergence_steps``: same model,
    same ``math.inf`` semantics, same closedness check — but solved by
    sparse value iteration over the transition system's CSR arrays
    instead of a dense linear solve, so it scales with edges rather
    than states squared.

    Args:
        program: The program (its transition graph defines the chain).
        states: A closed finite state set (typically the full space).
        target: The closed target predicate (``S``).
        system: Optional prebuilt transition system to share work.
        engine: ``"packed"``, ``"dict"`` or ``"auto"`` — how the system
            is represented when built here.
        tol: Relative convergence threshold of the value iteration.
        max_sweeps: Sweep cap; past it ``converged`` is ``False``.

    Raises:
        ValueError: if the supplied state set is not closed.
    """
    from repro.verification.explorer import build_transition_system

    ts = (
        system
        if system is not None
        else build_transition_system(program, states, engine=engine)
    )
    graph = _graph_from_system(ts, target, TRUE, None)
    expectations, iterations, converged = _finish_expectations(
        graph, tol, max_sweeps
    )
    return HittingTimes(
        expectations=expectations,
        mean=_mean_with_inf(expectations),
        maximum=max(expectations) if expectations else 0.0,
        system=ts,
        iterations=iterations,
        converged=converged,
    )


def _finish_expectations(
    graph: _Graph, tol: float, max_sweeps: int,
) -> tuple[tuple[float, ...], int, bool]:
    doomed = _classify(graph)
    x, iterations, converged, _path = _solve(graph, doomed, None, tol, max_sweeps)
    for i in range(graph.n):
        if doomed[i]:
            x[i] = math.inf
    return tuple(float(v) for v in x), iterations, converged


def _classify(graph: _Graph):
    if HAVE_NUMPY and not FORCE_SCALAR:
        return _classify_vector(
            graph.n, graph.offsets, graph.targets, graph.is_target
        )
    return _classify_scalar(
        graph.n, graph.offsets, graph.targets, graph.is_target
    )


def _mean_with_inf(values) -> float:
    if any(math.isinf(v) for v in values):
        return math.inf
    if not len(values):
        return 0.0
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def dense_hitting_times(
    program: Program,
    states: Iterable[State],
    target: Predicate,
    *,
    system: Any = None,
) -> HittingTimes:
    """The historical dense linear solve — the differential reference.

    Materializes the full transient-state matrix and solves it with
    ``numpy.linalg.solve``; exact, but O(states^2) memory and
    O(states^3) time, so it is only suitable for toy sizes. The
    differential suite pins :func:`hitting_times` against it within
    :data:`DENSE_AGREEMENT_RTOL` on every library protocol.

    Raises:
        QuantitativeUnsupported: when numpy is not installed.
        ValueError: if the supplied state set is not closed.
    """
    if _np is None:
        raise QuantitativeUnsupported(
            "dense_hitting_times needs numpy; use hitting_times (the "
            "CSR value iteration has a pure-Python path)"
        )
    from repro.verification.explorer import build_transition_system

    ts = (
        system
        if system is not None
        else build_transition_system(program, states)
    )
    if ts.escapes:
        raise ValueError("the state set is not closed under the program")

    n = len(ts)
    is_target = _np.array([target(state) for state in ts.states], dtype=bool)
    doomed = _classify_scalar(
        *_dense_csr(ts), [bool(flag) for flag in is_target]
    )

    transient = [
        i for i in range(n) if not is_target[i] and not doomed[i]
    ]
    position = {state_index: k for k, state_index in enumerate(transient)}

    values = _np.zeros(n)
    for i in range(n):
        if doomed[i]:
            values[i] = math.inf

    if transient:
        m = len(transient)
        matrix = _np.eye(m)
        rhs = _np.ones(m)
        for k, state_index in enumerate(transient):
            edges = ts.edges[state_index]
            weight = 1.0 / len(edges)
            for _, destination in edges:
                if destination in position:
                    matrix[k, position[destination]] -= weight
                # Destinations in the target contribute 0; doomed
                # destinations are impossible here by construction.
        solution = _np.linalg.solve(matrix, rhs)
        for k, state_index in enumerate(transient):
            values[state_index] = solution[k]

    expectations = tuple(float(v) for v in values)
    has_inf = bool(_np.isinf(values).any())
    return HittingTimes(
        expectations=expectations,
        mean=math.inf if has_inf else float(values.mean()),
        maximum=float(values.max()) if n else 0.0,
        system=ts,
    )


def _dense_csr(ts) -> tuple[int, list[int], list[int]]:
    offsets = [0]
    targets: list[int] = []
    for row in ts.edges:
        targets.extend(destination for _name, destination in row)
        offsets.append(len(targets))
    return len(ts), offsets, targets


def worst_case_steps(
    program: Program,
    states: Iterable[State],
    target: Predicate,
    *,
    system: Any = None,
    engine: str = "auto",
) -> tuple[float, ...]:
    """Adversarial-scheduler game value per state (``math.inf``-able).

    The per-state counterpart of
    :attr:`QuantitativeReport.worst_case_steps`, aligned with the
    system's state order.

    Raises:
        ValueError: if the supplied state set is not closed.
    """
    from repro.verification.explorer import build_transition_system

    ts = (
        system
        if system is not None
        else build_transition_system(program, states, engine=engine)
    )
    graph = _graph_from_system(ts, target, TRUE, None)
    return tuple(
        _adversarial_values(
            graph.n, graph.offsets, graph.targets, graph.is_target
        )
    )


def quantify(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate | None = None,
    states: Iterable[State] | None = None,
    *,
    engine: str = "auto",
    fault_rate: float = DEFAULT_FAULT_RATE,
    fault_actions: Collection[str] | None = None,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = MAX_VALUE_SWEEPS,
    shards: int | None = None,
    memory_budget: int | None = None,
    system: Any = None,
    case: str | None = None,
    tracer: Any = None,
    metrics: Any = None,
) -> QuantitativeReport:
    """The full quantitative tolerance analysis of one instance.

    Computes the random-daemon expected convergence time to
    ``invariant``, its fault-rate-weighted variant, the adversarial
    worst-case span, and the masking-distance score over the
    ``fault_span`` states (``None`` = the whole space). The analysis
    runs over the full state space by default; like the packed boolean
    verifier it prefers the vectorized sharded full-space sweep
    (honoring ``shards=``/``memory_budget=``) and falls back to the
    ordinary engines otherwise.

    Args:
        program: The augmented program.
        invariant: ``S`` — the convergence target.
        fault_span: ``T``; defaults to ``TRUE``.
        states: Explicit closed state set; defaults to the full space.
        engine: ``"packed"``, ``"dict"`` or ``"auto"``.
        fault_rate: Relative weight of a fault action against a program
            action in the weighted chain (must be positive).
        fault_actions: Action names treated as faults; ``None`` detects
            them by the ``"fault"`` name prefix.
        tol: Relative convergence threshold of the value iteration.
        max_sweeps: Sweep cap; past it ``converged`` is ``False``.
        shards: Shard count for the vectorized full-space sweep.
        memory_budget: Resident-bytes ceiling for the vectorized solve;
            exceeding it raises :class:`QuantitativeUnsupported` (there
            is no streaming value iteration).
        system: Optional prebuilt transition system to share work.
        case: Display name recorded in the report.
        tracer: Optional tracer (emits ``quantitative.solve``).
        metrics: Optional metrics registry (``quantitative.*``).

    Raises:
        ValidationError: on a non-positive ``fault_rate``.
        ValueError: if the supplied state set is not closed.
        QuantitativeUnsupported: on an unsatisfiable ``memory_budget``.
    """
    if not fault_rate > 0.0:
        raise ValidationError(
            f"fault_rate must be positive, got {fault_rate!r}"
        )
    started = time.perf_counter()
    span = fault_span if fault_span is not None else TRUE
    name = case if case is not None else program.name

    graph: _Graph | None = None
    if system is None and states is None and engine != "dict":
        graph = _full_space_graph(
            program, invariant, span, fault_actions,
            shards=shards, memory_budget=memory_budget, metrics=metrics,
        )
    if graph is None:
        from repro.verification.explorer import build_transition_system

        ts = (
            system
            if system is not None
            else build_transition_system(
                program,
                states if states is not None else program.state_space(),
                engine=engine,
            )
        )
        graph = _graph_from_system(ts, invariant, span, fault_actions)

    doomed = _classify(graph)
    x_uniform, sweeps_uniform, conv_uniform, path = _solve(
        graph, doomed, None, tol, max_sweeps
    )
    if graph.fault_edge is not None:
        weights = _edge_weights(graph.fault_edge, fault_rate)
        x_weighted, sweeps_weighted, conv_weighted, _ = _solve(
            graph, doomed, weights, tol, max_sweeps
        )
    else:
        x_weighted = x_uniform
        sweeps_weighted, conv_weighted = 0, True
    adversarial = _adversarial_values(
        graph.n, graph.offsets, graph.targets, graph.is_target
    )

    n = graph.n
    span_indices = (
        range(n)
        if graph.in_span is None
        else [i for i in range(n) if graph.in_span[i]]
    )
    span_count = len(span_indices)
    target_count = sum(1 for i in range(n) if graph.is_target[i])
    doomed_span = sum(1 for i in span_indices if doomed[i])
    escape = (doomed_span / span_count) if span_count else 0.0

    finite_total = 0.0
    finite_count = 0
    max_steps = 0.0
    worst_case = 0.0
    weighted_total = 0.0
    for i in span_indices:
        if doomed[i]:
            max_steps = math.inf
        else:
            value = float(x_uniform[i])
            finite_total += value
            finite_count += 1
            if value > max_steps:
                max_steps = value
            weighted_total += float(x_weighted[i])
        if adversarial[i] > worst_case:
            worst_case = adversarial[i]
    mean_finite = finite_total / finite_count if finite_count else 0.0
    mean_steps = math.inf if doomed_span else (
        finite_total / span_count if span_count else 0.0
    )
    weighted_mean = math.inf if doomed_span else (
        weighted_total / span_count if span_count else 0.0
    )
    normalized = (
        mean_finite / (mean_finite + span_count) if span_count else 0.0
    )
    score = escape + (1.0 - escape) * normalized

    iterations = sweeps_uniform + sweeps_weighted
    converged = conv_uniform and conv_weighted
    ok = converged and doomed_span == 0 and not math.isinf(worst_case)
    seconds = time.perf_counter() - started

    if metrics is not None:
        metrics.counter("quantitative.solves").add()
        metrics.counter("quantitative.sweeps").add(iterations)
        metrics.timer("quantitative.solve").record(seconds)
    if tracer is not None:
        tracer.emit(
            ev.QUANTITATIVE_SOLVE,
            case=name,
            states=n,
            span_states=span_count,
            doomed=doomed_span,
            iterations=iterations,
            path=path,
            engine=graph.engine,
            seconds=seconds,
        )

    return QuantitativeReport(
        case=name,
        ok=ok,
        engine=graph.engine,
        path=path,
        states=n,
        target_states=target_count,
        span_states=span_count,
        doomed_states=doomed_span,
        escape_probability=escape,
        mean_steps=mean_steps,
        max_steps=max_steps,
        worst_case_steps=float(worst_case),
        weighted_mean_steps=weighted_mean,
        fault_rate=fault_rate,
        score=score,
        iterations=iterations,
        converged=converged,
        tol=tol,
        seconds=seconds,
    )


def _edge_weights(fault_edge, fault_rate: float):
    if HAVE_NUMPY and not FORCE_SCALAR:
        return _np.where(
            _np.asarray(fault_edge, dtype=bool), fault_rate, 1.0
        )
    return [fault_rate if flag else 1.0 for flag in fault_edge]
