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

  computed directly over the packed kernel's ``offsets``/``targets``
  arrays — no dense matrix is ever materialized (the historical dense
  ``numpy.linalg`` solve survives as :func:`dense_hitting_times`, the
  toy-size differential reference). Every state the kernel's Kahn peel
  removes is solved exactly in one pass in level order; Jacobi value
  iteration runs only over the states that never peel. Both are numpy
  array programs: this layer requires numpy, and without it every
  entry point raises :class:`QuantitativeUnsupported` (boolean
  verdicts do not need it).

- **Fault-rate-weighted expectation**: transitions fired by fault
  actions (``fault_actions=``, defaulting to action names starting with
  ``"fault"``) are weighted ``fault_rate`` against ``1.0`` for program
  actions, normalized per state — the chain of a system whose
  environment injects faults at a known relative rate.

- **Worst-case convergence span**: the game value against the
  adversarial scheduler, which at every state picks the enabled
  transition maximizing remaining time. Computed exactly as the
  kernel's own Kahn peel levels of the non-target states plus one
  (:func:`repro.kernel.sweeps.bad_region_acyclic`); states the
  adversary can trap outside the target (a cycle or deadlock) never
  peel and get ``math.inf``.

- **A masking-distance-style score** in ``[0, 1]`` combining the
  fault-span escape probability (the chance a uniformly random span
  start never converges) with the normalized expected convergence time
  — ``0.0`` is immediate convergence from everywhere, ``1.0`` is a span
  that never recovers. See ``docs/QUANTITATIVE.md`` for the exact
  definition.

States that reach the target with probability < 1 under the random
daemon have infinite expected hitting time, reported as ``math.inf``.

Surfaced through the facade as ``repro.verify(case, quantify=True)``
(the attached :class:`QuantitativeReport` satisfies the
:class:`repro.Verdict` protocol), the CLI (``repro verify --quantify``)
and the daemon (``POST /verify`` with ``"quantify": true``). There the
analysis runs over the very CSR the packed full-space verdict swept
(:class:`repro.kernel.verify.FullSpaceCSR`), so one request sweeps the
space once, and reads the verdict's peel levels instead of peeling
again.
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

try:  # numpy is required here, but not by the boolean verifier
    import numpy as _np
except ImportError:  # pragma: no cover - pinned by a numpy-free subprocess
    _np = None

__all__ = [
    "DEFAULT_FAULT_RATE",
    "DEFAULT_TOL",
    "DENSE_AGREEMENT_RTOL",
    "HAVE_NUMPY",
    "HittingTimes",
    "MAX_VALUE_SWEEPS",
    "QuantitativeReport",
    "QuantitativeUnsupported",
    "dense_hitting_times",
    "hitting_times",
    "quantify",
    "require_numpy",
    "worst_case_steps",
]

#: Whether numpy was importable; without it every analysis refuses.
HAVE_NUMPY = _np is not None

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

    Raised for structured refusals — numpy missing, or a
    ``memory_budget=`` the resident value-iteration arrays cannot fit
    under (unlike the boolean kernel there is no streaming variant: the
    expectation vector must stay resident across sweeps).
    """


# ----------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HittingTimes:
    """Exact expected steps-to-target per state, plus aggregates.

    ``expectations`` is aligned with ``system.states``; states that miss
    the target with positive probability carry ``math.inf``.
    """

    #: Expected steps from each state, aligned with ``system.states``.
    expectations: tuple[float, ...]
    #: Mean over every state of the instance (uniform random start).
    mean: float
    #: Worst start state's expectation.
    maximum: float
    system: Any
    #: Jacobi sweeps over the states that never peel (0 for the dense
    #: solve and on every acyclic instance).
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
    #: Value-iteration execution path: always "vector" (numpy).
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
    #: Jacobi sweeps over the states that never peel (uniform +
    #: weighted chains); 0 on every acyclic instance.
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
    #: Row offsets (length n+1) and edge targets.
    offsets: Any
    targets: Any
    #: Per-state booleans.
    is_target: Any
    #: Per-state span membership, or None when the span is TRUE.
    in_span: Any
    #: Per-edge fault-action flags, or None when no action is a fault.
    fault_edge: Any
    engine: str
    #: The verdict's Kahn peel levels per state, or None to peel here.
    levels: Any = None


def require_numpy() -> None:
    """Raise :class:`QuantitativeUnsupported` unless numpy is installed.

    Every analysis here needs numpy; the daemon calls this to refuse a
    ``quantify`` request before queueing it.
    """
    if not HAVE_NUMPY:
        raise QuantitativeUnsupported(
            "the quantitative analysis needs numpy, which is not "
            "installed; boolean verdicts (quantify=False) do not"
        )


def _is_fault_name(name: str, fault_actions: Collection[str] | None) -> bool:
    if fault_actions is not None:
        return name in fault_actions
    return name.lower().startswith("fault")


def _fault_edges(names, action_ids, fault_actions):
    """Per-edge fault flags from per-edge action ids, or ``None``."""
    is_fault = [_is_fault_name(name, fault_actions) for name in names]
    if not any(is_fault):
        return None
    return _np.asarray(is_fault, dtype=bool)[_np.asarray(action_ids)]


def _graph_from_system(
    program: Program,
    states: Iterable[State] | None,
    target: Predicate,
    span: Predicate,
    fault_actions: Collection[str] | None,
    *,
    system: Any,
    engine: str,
) -> tuple[Any, _Graph]:
    """A transition system (``system``, or one built here over ``states``,
    default the full space) and its CSR arrays."""
    from repro.verification.explorer import build_transition_system

    if system is None:
        system = build_transition_system(
            program,
            states if states is not None else program.state_space(),
            engine=engine,
        )
    n = len(system)
    if system.escapes:
        raise ValueError("the state set is not closed under the program")

    def mask(predicate: Predicate):
        flags = _np.zeros(n, dtype=bool)
        flags[list(system.satisfying(predicate))] = True
        return flags

    return system, _Graph(
        n=n,
        offsets=_index_array(system.offsets),
        targets=_index_array(system.targets),
        is_target=mask(target),
        in_span=None if span is TRUE else mask(span),
        fault_edge=_fault_edges(
            system.action_names, system.action_ids, fault_actions
        ),
        engine=system.engine,
    )


def _graph_from_csr(
    csr: Any,
    fault_actions: Collection[str] | None,
    *,
    memory_budget: int | None,
    metrics: Any,
) -> _Graph:
    """The quantitative view of a packed full-space sweep's CSR.

    ``csr`` is a :class:`~repro.kernel.verify.FullSpaceCSR`: the one the
    request's own verify swept, or one :func:`quantify` swept itself.
    Row ``i`` is code ``i``, so the masks index states directly. The
    vectorized sweep's resident-bytes check applies here.
    """
    np = _np
    graph = _Graph(
        n=len(csr.s_mask),
        offsets=np.asarray(csr.offsets),
        targets=np.asarray(csr.targets),
        is_target=np.asarray(csr.s_mask, dtype=bool),
        in_span=None if csr.t_mask is None else np.asarray(csr.t_mask, dtype=bool),
        fault_edge=_fault_edges(csr.action_names, csr.action_ids, fault_actions),
        engine="packed",
        levels=None if csr.levels is None else np.asarray(csr.levels),
    )
    if csr.vectorized:
        # Everything the solve needs resident at once: a budget below it
        # is a structured refusal, not a streaming fallback.
        resident = (
            csr.s_mask.nbytes
            + (0 if csr.t_mask is None else csr.t_mask.nbytes)
            + csr.offsets.nbytes
            + csr.targets.nbytes
            + csr.action_ids.nbytes
            + _solve_bytes(graph)
        )
        if metrics is not None:
            metrics.counter("quantitative.mem.bytes").add(resident)
        if memory_budget is not None and resident > memory_budget:
            raise QuantitativeUnsupported(
                f"value iteration over {graph.n} states / "
                f"{int(csr.offsets[-1])} edges needs ~{resident} resident "
                f"bytes, above the {memory_budget}-byte memory_budget; "
                "unlike the boolean sweep there is no streaming variant — "
                "raise or drop the budget"
            )
    return graph


def _solve_bytes(graph: _Graph) -> int:
    """The bytes :func:`_expectations` allocates on top of the CSR, at most.

    Its phases run one after another, so the charge is the largest of
    them plus what outlives them all (the levels, a few state masks and,
    with a fault chain, the per-edge fault flags and weights). Per edge:
    the peel's bad-edge lists and reverse CSR when the CSR carries no
    levels; the reverse CSR and edge lists of :func:`_doomed` whenever
    some state may never peel; and the level-order solve's edge indices,
    sinks, sources and per-level gathers (:func:`_solve`). Per state:
    the solved vectors, row orders, degrees and totals.
    """
    n, e = graph.n, int(graph.offsets[-1])
    t, o = graph.targets.itemsize, graph.offsets.itemsize
    chains = 1 if graph.fault_edge is None else 2
    # The level-order solve: int64 edge indices and sources, the sinks
    # and one level's gathers, plus each fault chain's weight gathers.
    phases = [(24 + t + 16 * (chains - 1)) * e + (32 + 2 * o + 16 * chains) * n]
    if graph.levels is None:  # the peel: bad-edge lists, reverse CSR
        phases.append((12 + 4 * t) * e + 32 * n)
    region = ~graph.is_target
    if graph.in_span is not None:
        region &= graph.in_span
    if graph.levels is None or bool(_np.any(region & (graph.levels < 0))):
        # The doomed-state search: edge lists and an int64 reverse CSR.
        phases.append((34 + t) * e + 40 * n)
    lasting = 16 * n + (9 * e if chains > 1 else 0)
    return lasting + max(phases)


# ----------------------------------------------------------------------
# The one solver: Kahn levels first, Jacobi only where nothing peels
# ----------------------------------------------------------------------


def _classify_scalar(n: int, offsets, targets, is_target) -> list[bool]:
    """Which states have infinite expectation (probability < 1 to hit).

    Two backward closures, exactly as the historical dense solver
    computed them: states that cannot reach the target at all, then
    states that can wander (without first being absorbed) into one.
    The dense reference's own pure-Python classification, independent
    of the vectorized :func:`_doomed`.
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


def _row_edges(graph: _Graph, rows):
    """``(counts, edges, sinks)`` of the out-edges of ``rows``.

    ``edges`` are CSR edge indices, row by row in the order of ``rows``
    and in CSR (action) order within a row; ``counts`` are the rows'
    out-degrees and ``sinks`` the edges' targets.
    """
    from repro.kernel.sweeps import _gather_ranges

    starts = graph.offsets[rows]
    counts = graph.offsets[rows + 1] - starts
    edges = _gather_ranges(starts, counts)
    return counts, edges, graph.targets[edges]


def _peel(graph: _Graph, metrics: Any = None):
    """``(region, levels)``: the non-target states to solve, and their levels.

    The region holds every non-target state a report reads or depends
    on: the non-target span states when no edge leaves the span (always
    so when the levels come from a verdict, which peels only a closed
    span), every non-target state otherwise. ``levels`` are the
    verdict's (:attr:`~repro.kernel.verify.FullSpaceCSR.levels`) when
    the graph carries them; otherwise the region is peeled here, once,
    by the kernel's own peel
    (:func:`repro.kernel.sweeps.bad_region_acyclic`) with the region as
    its bad states.
    """
    from repro.kernel import sweeps

    np = _np
    offsets, targets = graph.offsets, graph.targets
    region = ~graph.is_target
    if graph.in_span is not None:
        span = graph.in_span
        leaves = graph.levels is None and bool(
            np.any(np.repeat(span, np.diff(offsets)) & ~span[targets])
        )
        if not leaves:
            region &= span
    levels = graph.levels
    if levels is None:
        levels = sweeps.bad_region_acyclic(
            region, offsets, targets, metrics=metrics
        )
    return region, levels


def _game_values(is_target, levels):
    """The adversarial scheduler's game value of every state.

    The backward attractor from the target: a state that peels in round
    ``r`` (:func:`_peel`) has ``r`` non-target edges on its longest path
    into the target, so the adversary can force exactly ``r + 1`` steps.
    The target is 0; a state the adversary can trap outside it (on a
    cycle, or steered into a deadlock) never peels and gets
    ``math.inf``, and so does every state outside the solved region.
    """
    values = _np.where(is_target, 0.0, math.inf)
    peeled = levels >= 0
    values[peeled] = levels[peeled] + 1.0
    return values


def _doomed(graph: _Graph, rest, metrics: Any = None):
    """The doomed states of ``rest``, as a boolean array over the graph.

    ``rest`` are the region states that never peel. A peeled state
    reaches the target on every path, so it is never doomed, and every
    successor of a ``rest`` state is a target, a peeled state or in
    ``rest``. Two frontier BFSs over one reverse CSR of ``rest``'s
    out-edges: the ``rest`` states that cannot reach a target or a
    peeled state, then every ``rest`` state that can wander into one.
    """
    from repro.kernel.sweeps import _reverse_csr, frontier_reach

    np = _np
    n = graph.n
    rows = np.flatnonzero(rest)
    counts, _edges, sinks = _row_edges(graph, rows)
    indptr, by_sink = _reverse_csr(np.repeat(rows, counts), sinks, n, metrics)
    reaches = frontier_reach(indptr, by_sink, sinks[~rest[sinks]], n)
    stuck = np.flatnonzero(rest & ~reaches)
    if not stuck.size:
        return np.zeros(n, dtype=bool)
    return frontier_reach(indptr, by_sink, stuck, n)


def _solve(graph: _Graph, levels, live, chains, tol: float, max_sweeps: int):
    """Expected steps to the target, one ``(x, sweeps, converged)`` per chain.

    ``chains`` holds one per-edge weight array per chain, ``None`` for
    the uniform one; ``live`` marks the states that never peel but reach
    the target with probability 1. ``x`` is exact on every peeled state
    and within ``tol`` on ``live``; it is 0 everywhere else (the caller
    marks doomed states ``math.inf``).

    Peeled states are solved exactly, one level at a time in increasing
    order: a state's successors are targets or lower levels, so one
    gather and one segment sum (``bincount``) per level settle it, in
    the same edge order, and so with the same rounding, as a Jacobi
    sweep at its fixpoint. The order of the states within a level does
    not matter, since each sums only its own edges. Jacobi sweeps then
    run over ``live`` alone, every peeled value fixed; ``sweeps`` counts
    them, so it is 0 on every acyclic instance.
    """
    from repro.kernel.sweeps import _group_order

    np = _np
    xs = [np.zeros(graph.n, dtype=np.float64) for _ in chains]

    def block(rows):
        """``rows``' out-edges, each edge's position in ``rows``, and
        per chain its edge weights and each row's total weight."""
        counts, edges, sinks = _row_edges(graph, rows)
        src = np.repeat(np.arange(rows.size), counts)
        weighted = []
        for weights in chains:
            if weights is None:
                weighted.append((None, counts.astype(np.float64)))
            else:
                w = weights[edges]
                weighted.append(
                    (w, np.bincount(src, weights=w, minlength=rows.size))
                )
        return counts, sinks, src, weighted

    peeled = np.flatnonzero(levels >= 0)
    depth = np.bincount(levels[peeled])  # states per level
    rows = peeled[_group_order(levels[peeled], depth.size)]
    counts, sinks, src, weighted = block(rows)
    row_bounds = np.zeros(depth.size + 1, dtype=np.int64)
    np.cumsum(depth, out=row_bounds[1:])
    edge_bounds = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=edge_bounds[1:])
    edge_bounds = edge_bounds[row_bounds]
    for x, (w, totals) in zip(xs, weighted):
        for level in range(depth.size):
            r0, r1 = row_bounds[level], row_bounds[level + 1]
            e0, e1 = edge_bounds[level], edge_bounds[level + 1]
            values = x[sinks[e0:e1]]
            if w is not None:
                values = w[e0:e1] * values
            sums = np.bincount(
                src[e0:e1] - r0, weights=values, minlength=r1 - r0
            )
            x[rows[r0:r1]] = 1.0 + sums / totals[r0:r1]

    index = np.flatnonzero(live)
    if not index.size:
        return [(x, 0, True) for x in xs]
    _counts, sinks, src, weighted = block(index)
    solved = []
    for x, (w, totals) in zip(xs, weighted):
        sweeps_done = 0
        converged = False
        while sweeps_done < max_sweeps:
            sweeps_done += 1
            values = x[sinks] if w is None else w * x[sinks]
            sums = np.bincount(src, weights=values, minlength=index.size)
            new = 1.0 + sums / totals
            peak = float(new.max())
            delta = float(np.abs(new - x[index]).max())
            x[index] = new
            if delta <= tol * (1.0 + peak):
                converged = True
                break
        solved.append((x, sweeps_done, converged))
    return solved


def _expectations(
    graph: _Graph, chains, tol: float, max_sweeps: int, metrics: Any = None
):
    """``(levels, doomed, solved)``: one peel, then :func:`_solve`.

    ``doomed`` marks the states with infinite expectation, and their
    entries of every solved ``x`` are set to ``math.inf``.
    """
    region, levels = _peel(graph, metrics)
    rest = region & (levels < 0)
    doomed = (
        _doomed(graph, rest, metrics)
        if rest.any()
        else _np.zeros(graph.n, dtype=bool)
    )
    solved = _solve(graph, levels, rest & ~doomed, chains, tol, max_sweeps)
    for x, _sweeps, _converged in solved:
        x[doomed] = math.inf
    return levels, doomed, solved


def _adversarial_values(n: int, offsets, targets, is_target):
    """The game value of every state (:func:`_game_values`), peeled here."""
    np = _np
    is_t = np.asarray(is_target, dtype=bool)
    graph = _Graph(
        n=n,
        offsets=_index_array(offsets),
        targets=_index_array(targets),
        is_target=is_t,
        in_span=None,
        fault_edge=None,
        engine="",
    )
    return _game_values(is_t, _peel(graph)[1])


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
    """Random-daemon expected steps-to-target, solved over the CSR.

    The model, ``math.inf`` semantics and closedness check of
    :func:`dense_hitting_times`, but solved over the transition system's
    CSR arrays (level order where the Kahn peel reaches, Jacobi sweeps
    elsewhere) instead of a dense linear solve, so it scales with edges
    rather than states squared.

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
        QuantitativeUnsupported: when numpy is not installed.
        ValueError: if the supplied state set is not closed.
    """
    require_numpy()
    ts, graph = _graph_from_system(
        program, states, target, TRUE, None, system=system, engine=engine
    )
    _levels, doomed, [(x, iterations, converged)] = _expectations(
        graph, [None], tol, max_sweeps
    )
    return HittingTimes(
        expectations=tuple(x.tolist()),
        mean=math.inf if doomed.any() else (_total(x) / x.size if x.size else 0.0),
        maximum=float(x.max()) if x.size else 0.0,
        system=ts,
        iterations=iterations,
        converged=converged,
    )


def _total(values) -> float:
    """The sum of a float array, left to right, one addition at a time.

    ``numpy.sum`` adds pairwise and rounds differently; reports pin the
    sequential sum.
    """
    return float(_np.add.accumulate(values)[-1]) if values.size else 0.0


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
    require_numpy()
    ts, graph = _graph_from_system(
        program, states, target, TRUE, None, system=system, engine="auto"
    )
    n, offsets, targets = graph.n, graph.offsets, graph.targets
    is_target = graph.is_target
    doomed = _classify_scalar(
        n, offsets, targets, [bool(flag) for flag in is_target]
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
            row = range(offsets[state_index], offsets[state_index + 1])
            weight = 1.0 / len(row)
            for destination in (targets[edge] for edge in row):
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
        QuantitativeUnsupported: when numpy is not installed.
        ValueError: if the supplied state set is not closed.
    """
    require_numpy()
    _system, graph = _graph_from_system(
        program, states, target, TRUE, None, system=system, engine=engine
    )
    return tuple(
        _adversarial_values(
            graph.n, graph.offsets, graph.targets, graph.is_target
        ).tolist()
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
    runs over the full state space by default, swept by the packed
    kernel's vectorized gate (:func:`repro.kernel.verify.vectorized_csr`,
    honoring ``shards=``/``memory_budget=``), or built by the ordinary
    engines when that gate declines.

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
        system: Optional prebuilt transition system to share work, or
            the :class:`~repro.kernel.verify.FullSpaceCSR` a packed
            full-space verify of the same instance swept (the service
            hands its verdict's over, so a request sweeps once).
        case: Display name recorded in the report.
        tracer: Optional tracer (emits ``quantitative.solve``).
        metrics: Optional metrics registry (``quantitative.*``).

    Raises:
        ValidationError: on a non-positive ``fault_rate``.
        ValueError: if the supplied state set is not closed.
        QuantitativeUnsupported: when numpy is not installed, or on an
            unsatisfiable ``memory_budget``.
    """
    if not fault_rate > 0.0:
        raise ValidationError(
            f"fault_rate must be positive, got {fault_rate!r}"
        )
    started = time.perf_counter()
    span = fault_span if fault_span is not None else TRUE
    name = case if case is not None else program.name

    require_numpy()
    from repro.kernel.verify import FullSpaceCSR

    csr = system if isinstance(system, FullSpaceCSR) else None
    if csr is None and system is None and states is None and engine != "dict":
        from repro.kernel import compile_program, kernel_supported
        from repro.kernel.verify import vectorized_csr

        if kernel_supported(program):
            csr = vectorized_csr(
                compile_program(program), invariant, span,
                shards=shards, metrics=metrics,
            )
    if csr is not None:
        graph = _graph_from_csr(
            csr, fault_actions, memory_budget=memory_budget, metrics=metrics
        )
    else:
        _system, graph = _graph_from_system(
            program, states, invariant, span, fault_actions,
            system=system, engine=engine,
        )

    chains = [None]
    if graph.fault_edge is not None:
        chains.append(_np.where(graph.fault_edge, fault_rate, 1.0))
    levels, doomed, solved = _expectations(
        graph, chains, tol, max_sweeps, metrics
    )
    x_uniform, sweeps_uniform, conv_uniform = solved[0]
    x_weighted, sweeps_weighted, conv_weighted = (
        solved[1] if len(solved) > 1 else (x_uniform, 0, True)
    )
    adversarial = _game_values(graph.is_target, levels)

    np = _np
    n = graph.n
    span_rows = (
        np.arange(n) if graph.in_span is None else np.flatnonzero(graph.in_span)
    )
    finite = ~doomed[span_rows]
    uniform = x_uniform[span_rows][finite]
    span_count = int(span_rows.size)
    doomed_span = span_count - int(uniform.size)
    target_count = int(np.count_nonzero(graph.is_target))
    escape = (doomed_span / span_count) if span_count else 0.0
    worst_case = float(np.max(adversarial[span_rows], initial=0.0))
    max_steps = math.inf if doomed_span else float(np.max(uniform, initial=0.0))
    finite_total = _total(uniform)
    mean_finite = finite_total / uniform.size if uniform.size else 0.0
    mean_steps = math.inf if doomed_span else (
        finite_total / span_count if span_count else 0.0
    )
    weighted_mean = math.inf if doomed_span else (
        _total(x_weighted[span_rows][finite]) / span_count if span_count else 0.0
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
            path="vector",
            engine=graph.engine,
            seconds=seconds,
        )

    return QuantitativeReport(
        case=name,
        ok=ok,
        engine=graph.engine,
        path="vector",
        states=n,
        target_states=target_count,
        span_states=span_count,
        doomed_states=doomed_span,
        escape_probability=escape,
        mean_steps=mean_steps,
        max_steps=max_steps,
        worst_case_steps=worst_case,
        weighted_mean_steps=weighted_mean,
        fault_rate=fault_rate,
        score=score,
        iterations=iterations,
        converged=converged,
        tol=tol,
        seconds=seconds,
    )

