"""Compositional convergence certification over projected state spaces.

The paper's whole point (Theorems 1–3, Section 4) is that the theorem
antecedents can be discharged *per constraint-graph edge* without ever
enumerating the product state space. The full checkers in
:mod:`repro.verification` and :mod:`repro.kernel` do enumerate it, which
caps them at roughly ``10^5`` states; this module discharges the same
antecedents over *projections* — for the edge ``v -> w`` only the joint
state space of ``vars(v) | vars(w)`` is built — so a 200-node out-tree
whose product space has ``4^200`` states certifies in milliseconds.

Why a projection suffices
-------------------------

Every obligation the theorems impose has the shape

    for all states s:  guard(s) and context(s)  =>  post(a(s))

and the truth of the body depends only on the variables in
``P = reads(a) | writes(a) | support(context) | support(post)``. Domains
are independent, so every assignment to ``P`` extends to a full state:
checking the body over the projected space of ``P`` is *equivalent* to
checking it over the full space — **provided the declared read/write/
support sets are truthful**. Truthfulness is certified up front with the
same battery-probe discipline the packed kernel uses
(:func:`repro.kernel.compile.action_supports_ok`, the RW001–RW003 bar)
plus :func:`repro.core.introspect.infer_predicate_reads` for constraint
supports, and backstopped at runtime: a lying opaque callable that reads
outside ``P`` raises :class:`~repro.core.errors.UnknownVariableError` on
the partial state, which converts to a refusal, never a wrong verdict.

How an obligation is evaluated
------------------------------

Each swept obligation is one instance of the shape above, evaluated by
one function (:func:`_sweep`). Per certification, every constraint
predicate and action guard is tabulated once over the packed codec of
its own sorted support, and every action once over its sorted reads (an
``enabled`` flag and, per written variable, the digit of the value it
writes); the tables are filled by the kernel's compiled closures
(:func:`repro.kernel.compile.compile_expr`) over a value list, so no
:class:`State` is built. An obligation then takes the digits of its
joint projection as numpy arrays, gathers each table at its mixed-radix
key, and computes the failing set ``enabled & context & ~post[post-state
key]`` in a handful of array operations; only the first failing code is
decoded, into the refusal. The per-state loop over decoded states is
kept as the fallback and the oracle: it runs when a guard or predicate
is opaque (neither a :class:`~repro.core.expr.BoolExpr` source nor a
``parts`` tree of them), a right-hand side is an opaque callable, a
written value falls outside its variable's domain, tabulation raises
(an :class:`~repro.core.errors.UnknownVariableError` among others), or
numpy is not installed. Both paths give the same certificate.

Renamed twins share one sweep
-----------------------------

Theorems 1 and 2 are discharged edge by edge, so a chain or star of
``n`` nodes repeats the same few obligations up to variable renaming.
Each swept obligation is keyed by
:func:`repro.staticcheck.interference.obligation_key` — the obligation
name, whether an action fires, the action's guard and every update, each
context predicate with its wanted truth value and ``post``, with
variables renamed jointly by first use, plus the exact domain values of
every projected variable. Equal keys mean the same formulas over the
same domains up to a bijective renaming, hence the same outcome (the
symmetry argument of parameterized checkers, applied only where it is
exact). A certification remembers the keys whose sweep passed; a later
obligation with an equal key still builds its own projection, so size
and finiteness refusals are unchanged, but is recorded as
``"symmetric"`` instead of sweeping again. Failures are never shared: a
failing obligation is always swept, so refusals and their witnesses are
the same with or without sharing. The memory of passed keys lives only
as long as one :func:`certify_compositional` call.

Refusals, not negatives
-----------------------

The theorems are sufficient, not necessary. A failed obligation therefore
never yields a negative verdict — the certifier emits a *structured
refusal* naming the failed obligation, and callers (the verification
service, the CLI's ``--method auto``) fall back to full exploration.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.actions import Action, Assignment
from repro.core.constraint_graph import ConstraintGraph
from repro.core.constraints import Constraint, ConvergenceBinding
from repro.core.design import NonmaskingDesign
from repro.core.errors import (
    IllFormedGraphError,
    UnknownVariableError,
    ValidationError,
)
from repro.core.expr import BoolExpr, Expr
from repro.core.fingerprint import is_trusted, probe_states
from repro.core.introspect import infer_predicate_reads
from repro.core.predicates import TRUE, Predicate
from repro.core.state import State
from repro.kernel.codec import StateCodec
from repro.kernel.compile import action_supports_ok, compile_expr
from repro.kernel.sweeps import SweepUnsupported, _RangeContext
from repro.observability import MetricsRegistry, Tracer
from repro.staticcheck.interference import (
    Canonicalizer,
    StaticCertificate,
    StaticDischarger,
    update_exprs,
)

try:  # numpy is optional: without it every obligation takes the loop
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the fallback CI leg
    _np = None

__all__ = [
    "DEFAULT_PROJECTION_LIMIT",
    "DISCHARGE_KINDS",
    "Obligation",
    "CompositionalCertificate",
    "certify_compositional",
]

#: Largest projected state space an obligation may enumerate. Projections
#: above this refuse rather than silently degrade into full exploration.
DEFAULT_PROJECTION_LIMIT = 65_536

#: Every ``discharged_by`` kind of an :class:`Obligation`, in the order
#: reports list them, each with the field of the verification service's
#: record that counts it.
DISCHARGE_KINDS: dict[str, str] = {
    "enumerated": "enumerated",
    "symmetric": "symmetric",
    "disjoint-writes": "vacuous",
    "trivial": "trivial",
    "static": "static",
    "structural": "structural",
}

#: Theorem labels, matching :mod:`repro.core.theorems` verbatim.
_THEOREM_1 = "Theorem 1 (out-tree constraint graph)"
_THEOREM_2 = "Theorem 2 (self-looping constraint graph)"


@dataclass(frozen=True)
class Obligation:
    """One discharged proof obligation of the certificate.

    Attributes:
        name: Which theorem antecedent this discharges, e.g.
            ``"closure-preserves"`` or ``"establishes-in-one-step"``.
        subject: The (action, constraint) pair or edge the obligation is
            about, e.g. ``"propagate.2 preserves R.3"``.
        variables: The projection the obligation was enumerated over
            (empty when discharged symbolically).
        space: Size of the projected state space (0 when not enumerated).
        checked: States actually visited (0 for a symmetric twin).
        discharged_by: ``"enumerated"`` (projection swept),
            ``"symmetric"`` (a renamed twin of an obligation whose sweep
            passed earlier in the same certification: equal
            renaming-canonical keys, so the same outcome; ``variables``
            and ``space`` are its own projection, nothing is swept),
            ``"disjoint-writes"`` (writes miss the support — preservation
            is vacuous), ``"static"`` (proved by the abstract
            interpreter over the expression DSL, with a matching
            :class:`~repro.staticcheck.interference.StaticCertificate`
            in the certificate), ``"trivial"`` (antecedent holds by
            identity, e.g. preserving ``T == true``), or
            ``"structural"`` (support honesty or the invariant's
            decomposition read off the library's own trusted DSL trees,
            no probe state evaluated). :data:`DISCHARGE_KINDS` lists
            them; any other kind is rejected.
        seconds: Wall-clock cost of discharging this obligation.
    """

    name: str
    subject: str
    variables: tuple[str, ...]
    space: int
    checked: int
    discharged_by: str
    seconds: float

    def __post_init__(self) -> None:
        if self.discharged_by not in DISCHARGE_KINDS:
            raise ValueError(
                f"unknown discharge kind {self.discharged_by!r}; "
                f"expected one of {sorted(DISCHARGE_KINDS)}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "subject": self.subject,
            "variables": list(self.variables),
            "space": self.space,
            "checked": self.checked,
            "discharged_by": self.discharged_by,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class CompositionalCertificate:
    """A machine-checkable record of a compositional certification.

    ``status == "certified"`` means every theorem antecedent was
    discharged over sound projections, so the design is nonmasking
    ``T``-tolerant by the theorem — without building the product space.
    ``status == "refused"`` means some obligation could not be discharged
    locally; ``refusal`` names it. A refusal says nothing about the
    design (the theorems are sufficient, not necessary) — callers fall
    back to full exploration.
    """

    design: str
    theorem: str
    status: str  # "certified" | "refused"
    classification: str  # "masking" | "nonmasking" | "" when refused
    stabilizing: bool
    obligations: tuple[Obligation, ...]
    refusal: str
    total_states: int
    max_projection: int
    seconds: float
    edges: int = 0
    static_certificates: tuple[StaticCertificate, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "certified"

    def __bool__(self) -> bool:
        return self.ok

    def counts(self) -> dict[str, int]:
        """Obligations per ``discharged_by`` kind, every kind listed."""
        counts = dict.fromkeys(DISCHARGE_KINDS, 0)
        for ob in self.obligations:
            counts[ob.discharged_by] += 1
        return counts

    def describe(self) -> str:
        if not self.ok:
            return (
                f"compositional certification REFUSED for {self.design!r}: "
                f"{self.refusal}"
            )
        kinds = ", ".join(f"{n} {kind}" for kind, n in self.counts().items())
        return (
            f"compositional certificate for {self.design!r}: {self.theorem}; "
            f"{self.classification} (stabilizing={self.stabilizing}); "
            f"{len(self.obligations)} obligations over {self.edges} edges "
            f"({kinds}, max projection {self.max_projection} "
            f"states vs {self.total_states} total) in {self.seconds:.3f}s"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "design": self.design,
            "theorem": self.theorem,
            "status": self.status,
            "ok": self.ok,
            "classification": self.classification,
            "stabilizing": self.stabilizing,
            "refusal": self.refusal,
            "total_states": self.total_states,
            "max_projection": self.max_projection,
            "edges": self.edges,
            "seconds": self.seconds,
            "obligations": [ob.as_dict() for ob in self.obligations],
            "static_certificates": [
                certificate.as_dict()
                for certificate in self.static_certificates
            ],
        }


class _Refusal(Exception):
    """Internal control flow: an obligation could not be discharged."""

    def __init__(self, obligation: str, detail: str) -> None:
        super().__init__(f"{obligation}: {detail}")
        self.obligation = obligation
        self.detail = detail


class _Table:
    """A predicate or an action tabulated over its own sorted support.

    ``holds[key]`` is the predicate's truth value (for an action, its
    guard's) at the support code ``key``. An action's table also maps
    each written variable to the digit of the value it writes at every
    enabled key. ``digits`` maps each support variable's values to
    their digits.
    """

    __slots__ = ("names", "weights", "digits", "holds", "writes")

    def __init__(self, codec: StateCodec, holds, writes=None) -> None:
        self.names = codec.names
        self.weights = codec.weights
        self.digits = dict(zip(codec.names, codec._value_digits))
        self.holds = holds
        self.writes = writes or {}

    def key(self, digit: Callable[[str], Any]):
        """The table key at every joint code, given per-variable digits."""
        key = 0
        for name, weight in zip(self.names, self.weights):
            key = key + digit(name) * weight
        return key


def _compiled(predicate: Predicate, codec: StateCodec) -> Callable | None:
    """A ``values -> truth`` closure over ``codec``, or ``None`` if opaque.

    A :class:`BoolExpr` source compiles directly; a ``parts`` tree
    compiles when every operand does, combined as the recorded
    combinator evaluates them.
    """
    source = predicate.source
    if isinstance(source, BoolExpr):
        return compile_expr(source, codec)
    if predicate.parts is None:
        return None
    kind = predicate.parts[0]
    fns = [_compiled(operand, codec) for operand in predicate.parts[1]]
    if any(fn is None for fn in fns):
        return None
    if kind in ("and", "all"):
        return lambda values: all(fn(values) for fn in fns)
    if kind in ("or", "any"):
        return lambda values: any(fn(values) for fn in fns)
    if kind == "not":
        return lambda values: not fns[0](values)
    if kind == "implies":
        return lambda values: not fns[0](values) or fns[1](values)
    if kind == "count":
        count = predicate.parts[2]
        return lambda values: sum(1 for fn in fns if fn(values)) == count
    return None


class _Projector:
    """Builds projected state spaces and evaluates obligations over them."""

    def __init__(self, design: NonmaskingDesign, limit: int) -> None:
        self._variables = design.program.variables
        self._limit = limit
        #: Trees and obligation keys of this certification's objects.
        self.trees = Canonicalizer()
        self._codecs: dict[frozenset[str], StateCodec] = {}
        # id(predicate or action) -> (the object, its table or the
        # reason it cannot be tabulated); the object pins the id.
        self._tables: dict[int, tuple[object, _Table | str]] = {}
        # variable -> small id of its domain's exact value list.
        self._domain_ids: dict[str, int] = {}
        self._domain_classes: dict[tuple, int] = {}
        # Renamed twins over their sorted supports share one truth table.
        self._truth: dict[tuple[Any, ...], Any] = {}
        #: Keys of the obligations whose sweep passed so far.
        self.passed: set[tuple[Any, ...]] = set()
        self.max_projection = 0
        self.projected_states = 0

    def projection(self, names: frozenset[str], *, subject: str) -> StateCodec:
        """The codec of an obligation's joint projection.

        Raises :class:`_Refusal` like :meth:`codec`, and counts the
        projection toward :attr:`max_projection`.
        """
        codec = self.codec(names, subject=subject)
        self.max_projection = max(self.max_projection, codec.size)
        return codec

    def codec(self, names: frozenset[str], *, subject: str) -> StateCodec:
        codec = self._codecs.get(names)
        if codec is not None:
            return codec
        ordered = sorted(names)
        domains = []
        for name in ordered:
            domain = self._variables[name].domain
            if not domain.is_finite:
                raise _Refusal(
                    "finite-projection",
                    f"{subject}: variable {name!r} has an infinite domain; "
                    "the projection cannot be enumerated",
                )
            domains.append(tuple(domain.values()))
        codec = StateCodec(ordered, domains)
        if codec.size > self._limit:
            raise _Refusal(
                "projection-size",
                f"{subject}: projection over {ordered} has {codec.size} "
                f"states, above the limit of {self._limit}",
            )
        self._codecs[names] = codec
        return codec

    def domain_id(self, name: str) -> int:
        """A per-certification id of ``name``'s exact domain values.

        Two variables share an id exactly when their finite domains list
        the same values (type and ``repr``) in the same order. Only
        called for variables of a built projection, whose domains
        :meth:`codec` has checked to be finite.
        """
        found = self._domain_ids.get(name)
        if found is None:
            values = tuple(
                (type(value), repr(value))
                for value in self._variables[name].domain.values()
            )
            found = self._domain_classes.setdefault(
                values, len(self._domain_classes)
            )
            self._domain_ids[name] = found
        return found

    def sweep_key(
        self,
        name: str,
        variables: frozenset[str],
        action: Action | None,
        context: tuple[tuple[Predicate, bool], ...],
        post: Predicate,
    ) -> tuple[Any, ...] | None:
        """The renaming-canonical key of one swept obligation, if exact.

        Covers everything the sweep's outcome reads: the obligation
        name, whether an action fires, its guard and every update (not
        only those into ``post``'s support), each context predicate with
        its wanted truth value, ``post``, and the domains of every
        projected variable. ``None`` when any part is opaque or a tree
        mentions a variable outside the projection.
        """
        trees = [self.trees.expr(predicate) for predicate, _ in context]
        trees.append(self.trees.expr(post))
        updates = None
        if action is not None:
            trees.insert(0, self.trees.expr(action.guard))
            updates = update_exprs(action, action.writes)
            if updates is None:
                return None
        kind = (name, action is not None, tuple(want for _, want in context))
        return self.trees.obligation_key(
            kind, trees, updates, self.domain_id, projection=variables
        )

    def table(self, subject: Predicate | Action) -> _Table:
        """The table of ``subject``, built on first use.

        Only called for subjects whose support lies inside an obligation's
        joint projection, which :meth:`codec` has already bounded.

        Raises:
            SweepUnsupported: when ``subject`` cannot be tabulated.
        """
        entry = self._tables.get(id(subject))
        if entry is None:
            try:
                if isinstance(subject, Action):
                    built: _Table | str = self._tabulate_action(subject)
                else:
                    built = self._tabulate_predicate(subject)
            except SweepUnsupported as error:
                built = str(error)
            entry = self._tables[id(subject)] = (subject, built)
        built = entry[1]
        if isinstance(built, str):
            raise SweepUnsupported(built)
        return built

    def _tabulate_predicate(self, predicate: Predicate) -> _Table:
        if predicate.support is None:
            raise SweepUnsupported(f"predicate {predicate.name!r} has no support")
        codec = self.codec(predicate.support, subject=predicate.name)
        # The key renames the support's variables by their position in
        # the codec, so equal keys mean equal truth tables key for key.
        twin = self.trees.obligation_key(
            "table",
            [self.trees.expr(predicate)],
            None,
            self.domain_id,
            projection=predicate.support,
            order=codec.names,
        )
        holds = self._truth.get(twin) if twin is not None else None
        if holds is None:
            holds = self._truth_table(predicate, codec)
            if twin is not None:
                self._truth[twin] = holds
        return _Table(codec, holds)

    def _truth_table(self, predicate: Predicate, codec: StateCodec):
        fn = _compiled(predicate, codec)
        if fn is None:
            raise SweepUnsupported(f"predicate {predicate.name!r} is opaque")
        try:
            holds = _np.fromiter(
                (bool(fn(values)) for values in itertools.product(*codec.domain_values)),
                dtype=bool,
                count=codec.size,
            )
        except Exception as error:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} raised during tabulation: {error!r}"
            ) from error
        return holds

    def _tabulate_action(self, action: Action) -> _Table:
        codec = self.codec(action.reads, subject=action.name)
        guard = _compiled(action.guard, codec)
        if guard is None:
            raise SweepUnsupported(f"action {action.name!r} has an opaque guard")
        written = self.codec(action.writes, subject=action.name)
        updates = []
        for target, rhs in action.effect.updates.items():
            if isinstance(rhs, Expr):
                evaluate = compile_expr(rhs, codec)
                if evaluate is None:
                    raise SweepUnsupported(
                        f"action {action.name!r}: {target} reads outside its reads"
                    )
            elif callable(rhs):
                raise SweepUnsupported(
                    f"action {action.name!r}: {target} has an opaque right-hand side"
                )
            else:
                evaluate = lambda values, _constant=rhs: _constant  # noqa: E731
            position = written.position_of(target)
            updates.append(
                (
                    target,
                    evaluate,
                    written._value_digits[position],
                    _np.zeros(codec.size, dtype=_np.int64),
                )
            )
        enabled = _np.zeros(codec.size, dtype=bool)
        try:
            for key, values in enumerate(itertools.product(*codec.domain_values)):
                if not guard(values):
                    continue
                enabled[key] = True
                for _target, evaluate, digits, column in updates:
                    value = evaluate(values)
                    digit = digits.get(value)
                    if digit is None:
                        raise SweepUnsupported(
                            f"action {action.name!r} writes {value!r}, outside "
                            "its variable's domain"
                        )
                    column[key] = digit
        except SweepUnsupported:
            raise
        except Exception as error:
            raise SweepUnsupported(
                f"action {action.name!r} raised during tabulation: {error!r}"
            ) from error
        return _Table(
            codec, enabled, {target: column for target, *_rest, column in updates}
        )

    def first_failure(
        self,
        codec: StateCodec,
        action: Action | None,
        context: tuple[tuple[Predicate, bool], ...],
        post: Predicate,
    ) -> State | None:
        """The first state of ``codec`` where the obligation fails, if any.

        The obligation: at every state where ``action`` is enabled (when
        given) and each context predicate has its wanted truth value,
        ``post`` holds after ``action`` fires (before, without one). The
        table gather answers; the per-state loop answers when it cannot.
        """
        self.projected_states += codec.size
        try:
            code = _gathered_failure(self, codec, action, context, post)
        except SweepUnsupported:
            return self._looped_failure(codec, action, context, post)
        return None if code is None else codec.decode_state(code)

    def _looped_failure(self, codec, action, context, post) -> State | None:
        """The per-state oracle: decode each state and call the predicates."""
        for code in range(codec.size):
            state = codec.decode_state(code)
            if action is not None and not action.enabled(state):
                continue
            if any(predicate(state) != wanted for predicate, wanted in context):
                continue
            if not post(action.execute(state) if action is not None else state):
                return state
        return None


def _gathered_failure(
    projector: _Projector,
    codec: StateCodec,
    action: Action | None,
    context: tuple[tuple[Predicate, bool], ...],
    post: Predicate,
) -> int | None:
    """The first failing code of ``codec``, by table gathers.

    Raises:
        SweepUnsupported: when numpy is missing or a table cannot be built.
    """
    if _np is None:
        raise SweepUnsupported("numpy is not installed")
    guard = None if action is None else projector.table(action)
    wanted = [(projector.table(predicate), want) for predicate, want in context]
    after = projector.table(post)
    ctx = _RangeContext(codec, 0, codec.size)

    def pre(name: str):
        return ctx.digit(codec.position_of(name))

    failing = _np.ones(codec.size, dtype=bool)
    if guard is None:
        post_digit = pre
    else:
        guard_key = guard.key(pre)
        failing &= guard.holds[guard_key]

        def post_digit(name: str):
            column = guard.writes.get(name)
            return pre(name) if column is None else column[guard_key]

    for table, want in wanted:
        held = table.holds[table.key(pre)]
        failing &= held if want else ~held
    failing &= ~after.holds[after.key(post_digit)]
    first = int(failing.argmax())
    return first if failing[first] else None


def _discharge_static(
    name: str,
    subject: str,
    certificate: StaticCertificate | None,
    started: float,
    obligations: list[Obligation],
    certificates: list[StaticCertificate],
) -> bool:
    """Record a successful static discharge; ``False`` means don't know.

    The static route is one-directional: a ``None`` certificate only
    sends the obligation to the projected sweep, never to a refusal.
    """
    if certificate is None:
        return False
    certificates.append(certificate)
    obligations.append(
        Obligation(
            name=name,
            subject=subject,
            variables=(),
            space=0,
            checked=certificate.cases,
            discharged_by="static",
            seconds=time.perf_counter() - started,
        )
    )
    return True


def _certify(
    design: NonmaskingDesign,
    *,
    fairness: str,
    projector: _Projector,
    obligations: list[Obligation],
    discharger: StaticDischarger | None,
    certificates: list[StaticCertificate],
) -> tuple[str, str, bool, int, int]:
    """Discharge every obligation; raise :class:`_Refusal` on the first failure.

    Returns ``(theorem, classification, stabilizing, edges, max_projection)``.
    """
    candidate = design.candidate
    program = design.program
    constraints = candidate.constraints

    # -- applicability -------------------------------------------------
    if fairness != "weak":
        raise _Refusal(
            "fairness",
            f"theorems guarantee convergence under weak fairness only, "
            f"got fairness={fairness!r}",
        )
    if candidate.fault_span is not TRUE:
        raise _Refusal(
            "fault-span",
            "projected closure of a non-trivial fault span is not supported; "
            "only stabilizing designs (T == true) certify compositionally",
        )
    if design.layers is not None:
        raise _Refusal(
            "layered",
            "Theorem 3's contextual obligations quantify over lower-layer "
            "constraints and do not project edge-locally",
        )
    try:
        graph = design.graph
    except IllFormedGraphError as error:
        raise _Refusal("constraint-graph", str(error)) from error

    shape = graph.classification()
    if shape == "out-tree":
        theorem = _THEOREM_1
    elif shape == "self-looping":
        theorem = _THEOREM_2
    else:
        raise _Refusal(
            "graph-shape",
            f"constraint graph is {shape!r}; Theorems 1 and 2 require an "
            "out-tree or self-looping graph",
        )

    # -- declared supports must be truthful (projection soundness) -----
    # Read off the trees where they are exact; the probe battery is
    # built only for what they cannot answer.
    battery = functools.cache(functools.partial(probe_states, program))
    trees = projector.trees
    started = time.perf_counter()
    probed = False
    checked_actions = {action.name: action for action in candidate.program.actions}
    for binding in design.bindings:
        checked_actions[binding.action.name] = binding.action
    for action in checked_actions.values():
        if _honest_by_trees(action, trees):
            continue
        probed = True
        if not action_supports_ok(action, battery()):
            raise _Refusal(
                "support-honesty",
                f"action {action.name!r} consults variables outside its "
                "declared read/write sets; projections over the declared "
                "sets would be unsound",
            )
    for constraint in constraints:
        tree = trees.trusted_expr(constraint.predicate)
        if tree is not None and tree.variables() <= constraint.support:
            continue
        probed = True
        inferred = infer_predicate_reads(constraint.predicate, battery())
        if not inferred.reads <= constraint.support:
            extra = sorted(inferred.reads - constraint.support)
            raise _Refusal(
                "support-honesty",
                f"constraint {constraint.name!r} reads {extra} outside its "
                "declared support",
            )
    obligations.append(
        _answered(
            "support-honesty",
            f"{len(checked_actions)} actions, {len(constraints)} constraints",
            len(battery()) if probed else None,
            started,
        )
    )

    # -- the invariant must be the conjunction of the constraints ------
    _check_decomposition(
        candidate.invariant, constraints, battery, projector, obligations
    )

    # variable -> positions of the constraints whose support holds it:
    # an action meets only the constraints its writes index.
    readers: dict[str, list[int]] = {}
    for position, constraint in enumerate(constraints):
        for name in constraint.support:
            readers.setdefault(name, []).append(position)

    # -- closure: every closure action preserves every constraint ------
    # Theorems 1 and 2 state this antecedent over the *closure* program;
    # binding actions (including merged replacements) are covered by the
    # per-binding merged-behaviour obligation below.
    _closure_obligations(
        candidate.program,
        constraints,
        readers,
        projector,
        obligations,
        discharger,
        certificates,
    )

    # -- per-binding convergence obligations ---------------------------
    merged_disjoint = 0
    for binding in design.bindings:
        merged_disjoint += _binding_obligations(
            binding,
            constraints,
            readers,
            projector,
            obligations,
            discharger,
            certificates,
        )
    if merged_disjoint:
        obligations.append(
            Obligation(
                name="merged-behaviour",
                subject=f"{merged_disjoint} binding/constraint pairs with "
                "writes disjoint from the constraint support",
                variables=(),
                space=0,
                checked=merged_disjoint,
                discharged_by="disjoint-writes",
                seconds=0.0,
            )
        )
    # Every convergence action preserves T — trivial, T == true here.
    obligations.append(
        Obligation(
            name="preserves-fault-span",
            subject=f"{len(design.bindings)} convergence actions preserve "
            "T == true",
            variables=(),
            space=0,
            checked=len(design.bindings),
            discharged_by="trivial",
            seconds=0.0,
        )
    )

    # -- Theorem 2 only: per-node linear orders ------------------------
    if theorem == _THEOREM_2:
        _order_obligations(graph, projector, obligations, discharger, certificates)

    # -- classification ------------------------------------------------
    classification = _classify(candidate.invariant, constraints, program, projector)
    # T == true, so the fault span is the whole space: stabilizing.
    stabilizing = True

    total_states = 1
    for variable in program.variables.values():
        total_states *= len(tuple(variable.domain.values()))
    return theorem, classification, stabilizing, len(graph.edges), total_states


def _honest_by_trees(action: Action, trees: Canonicalizer) -> bool:
    """Whether ``action`` passes the RW001-RW003 bar by its trees alone.

    Answers only when the guard is a trusted tree
    (:meth:`~repro.staticcheck.interference.Canonicalizer.trusted_expr`)
    and the effect a plain :class:`Assignment` of DSL expressions and
    constants: the reads are then the tree's variables plus the
    right-hand sides', a superset of anything a probe could record, so
    declared sets that cover them pass the probe too. RW003 applies
    where :func:`~repro.kernel.compile.action_supports_ok` applies it,
    to a lowered guard. ``False`` means "ask the probe battery", never
    "dishonest".
    """
    guard = trees.trusted_expr(action.guard)
    effect = action.effect
    if guard is None or type(effect) is not Assignment:
        return False
    reads = set(guard.variables())
    for rhs in effect.updates.values():
        if isinstance(rhs, Expr):
            reads |= rhs.variables()
        elif callable(rhs):
            return False
    if not (reads <= action.reads and effect.writes <= action.writes):
        return False
    return action.guard.source is None or not (
        action.reads - reads - action.writes
    )


def _answered(
    name: str, subject: str, probes: int | None, started: float
) -> Obligation:
    """A support or decomposition obligation: ``probes`` states checked,
    or ``None`` when the trees answered it."""
    return Obligation(
        name=name,
        subject=subject,
        variables=(),
        space=0,
        checked=probes or 0,
        discharged_by="structural" if probes is None else "enumerated",
        seconds=time.perf_counter() - started,
    )


def _conjunction_by_trees(
    invariant: Predicate,
    constraints: Sequence[Constraint],
    trees: Canonicalizer,
) -> bool:
    """Whether ``S`` is the conjunction of the constraints by its trees.

    True when ``S`` is a trusted ``all_of`` whose operands and the
    constraint predicates are trusted trees with the same exact keys
    (canonical tokens plus variable names), counted as multisets: each
    operand then evaluates as a constraint does, at every state.
    Predicate objects are not compared, since a design may build ``S``
    from fresh copies of its constraints.
    """
    parts = invariant.parts
    if not parts or parts[0] != "all" or not is_trusted(invariant):
        return False

    def keys(predicates) -> Counter | None:
        out: Counter = Counter()
        for predicate in predicates:
            tree = trees.trusted_expr(predicate)
            if tree is None:
                return None
            out[trees.tree_key(tree)] += 1
        return out

    mine = keys(parts[1])
    return mine is not None and mine == keys(c.predicate for c in constraints)


def _check_decomposition(
    invariant: Predicate,
    constraints: Sequence[Constraint],
    battery: Callable[[], list[State]],
    projector: _Projector,
    obligations: list[Obligation],
) -> None:
    """Check that ``S`` agrees with the conjunction of the constraints.

    The design method's contract (Section 3) is ``S == (and of all
    constraints) and T``; the theorem conclusions are about the
    conjunction, so a stronger ``S`` would make a certificate overclaim.
    The supports must agree exactly. Then ``S`` passes structurally when
    its trees state the conjunction (:func:`_conjunction_by_trees`);
    otherwise the predicates must agree on the probe battery — the same
    sound-direction probing bar staticcheck uses. A disagreement
    refuses; agreement plus the support check is the decomposition
    contract the theorem validators already assume.

    On the probe route, the constraint side is read from the
    projector's per-constraint tables, gathered at each probe state's
    digits; a constraint without a table (opaque, too large a support,
    numpy missing) is called per probe instead, and only where the
    tabulated ones all hold.
    """
    started = time.perf_counter()
    union = frozenset().union(*(c.support for c in constraints))
    if invariant.support is None or not invariant.support <= union:
        raise _Refusal(
            "invariant-decomposition",
            f"invariant {invariant.name!r} has support outside the union of "
            "the constraint supports; S must be the conjunction of the "
            "constraints (and T)",
        )
    if _conjunction_by_trees(invariant, constraints, projector.trees):
        obligations.append(
            _answered("invariant-decomposition", invariant.name, None, started)
        )
        return
    probes = battery()
    opaque: list[Constraint] = []
    if _np is None:
        opaque = list(constraints)
        held = [True] * len(probes)
    else:
        # Every codec numbers a variable's values alike, so one digit
        # column per variable serves every table that reads it.
        columns: dict[str, Any] = {}
        conjunction = _np.ones(len(probes), dtype=bool)
        for constraint in constraints:
            if not conjunction.any():
                break  # false at every probe: the rest cannot matter
            try:
                table = projector.table(constraint.predicate)
            except (SweepUnsupported, _Refusal):
                opaque.append(constraint)
                continue
            for name, digit in table.digits.items():
                if name not in columns:
                    columns[name] = _np.fromiter(
                        (digit[state[name]] for state in probes),
                        dtype=_np.int64,
                        count=len(probes),
                    )
            conjunction &= table.holds[table.key(columns.__getitem__)]
        held = conjunction.tolist()
    for state, tabled in zip(probes, held):
        if invariant(state) != (tabled and all(c.holds(state) for c in opaque)):
            raise _Refusal(
                "invariant-decomposition",
                f"invariant {invariant.name!r} disagrees with the "
                "conjunction of the constraints on a probe state",
            )
    obligations.append(
        _answered("invariant-decomposition", invariant.name, len(probes), started)
    )


def _sweep(
    name: str,
    subject: str,
    variables: frozenset[str],
    projector: _Projector,
    *,
    action: Action | None = None,
    context: tuple[tuple[Predicate, bool], ...] = (),
    post: Predicate,
) -> Obligation:
    """Require ``guard and context => post(a(s))`` over the projection.

    ``action`` supplies the guard and ``a`` (without one, ``post`` is
    read at ``s`` itself); ``context`` pairs each predicate with the
    truth value it must have for ``s`` to count. A renamed twin of an
    obligation that passed earlier in this certification is recorded
    as ``"symmetric"`` without sweeping.
    """
    started = time.perf_counter()
    codec = projector.projection(variables, subject=subject)
    key = projector.sweep_key(name, variables, action, context, post)
    if key is not None and key in projector.passed:
        return Obligation(
            name=name,
            subject=subject,
            variables=tuple(codec.names),
            space=codec.size,
            checked=0,
            discharged_by="symmetric",
            seconds=time.perf_counter() - started,
        )
    try:
        failure = projector.first_failure(codec, action, context, post)
    except UnknownVariableError as error:
        # Runtime soundness backstop: an opaque callable read outside the
        # certified support sets. Never a wrong verdict — a refusal.
        raise _Refusal(
            "support-honesty",
            f"{subject}: a callable read a variable outside the projection "
            f"({error}); declared supports are not truthful",
        ) from error
    if failure is not None:
        raise _Refusal(name, f"{subject}: fails at {dict(failure)!r}")
    if key is not None:
        projector.passed.add(key)
    return Obligation(
        name=name,
        subject=subject,
        variables=tuple(codec.names),
        space=codec.size,
        checked=codec.size,
        discharged_by="enumerated",
        seconds=time.perf_counter() - started,
    )


def _met(writes: frozenset[str], readers: dict[str, list[int]]) -> list[int]:
    """Positions of the constraints whose support meets ``writes``, ascending."""
    met: set[int] = set()
    for name in writes:
        met.update(readers.get(name, ()))
    return sorted(met)


def _closure_obligations(
    program,
    constraints: Sequence[Constraint],
    readers: dict[str, list[int]],
    projector: _Projector,
    obligations: list[Obligation],
    discharger: StaticDischarger | None,
    certificates: list[StaticCertificate],
) -> None:
    """Every program action preserves every constraint (closure of ``S``).

    This is the first antecedent of Theorems 1 and 2 with the fault span
    ``T == true``. An action whose writes miss a constraint's support
    preserves it vacuously — those pairs discharge without enumeration,
    which prunes the ``O(actions x constraints)`` pair space to the
    ``O(n)`` neighbouring pairs on bounded-degree topologies. The vacuous
    pairs are aggregated into one summary obligation to keep the
    certificate compact. Remaining pairs are first offered to the static
    discharger; only pairs it cannot prove are swept. ``readers`` maps
    each variable to the positions of the constraints that read it, so
    an action visits only the constraints its writes meet.
    """
    disjoint = 0
    for action in program.actions:
        met = _met(action.writes, readers)
        disjoint += len(constraints) - len(met)
        for position in met:
            constraint = constraints[position]
            subject = f"{action.name} preserves {constraint.name}"
            if discharger is not None:
                started = time.perf_counter()
                if _discharge_static(
                    "closure-preserves",
                    subject,
                    discharger.closure_preserves(action, constraint, subject),
                    started,
                    obligations,
                    certificates,
                ):
                    continue
            obligations.append(
                _sweep(
                    "closure-preserves",
                    subject,
                    action.reads | action.writes | constraint.support,
                    projector,
                    action=action,
                    context=((constraint.predicate, True),),
                    post=constraint.predicate,
                )
            )
    if disjoint:
        obligations.append(
            Obligation(
                name="closure-preserves",
                subject=f"{disjoint} action/constraint pairs with writes "
                "disjoint from the constraint support",
                variables=(),
                space=0,
                checked=disjoint,
                discharged_by="disjoint-writes",
                seconds=0.0,
            )
        )


def _binding_obligations(
    binding: ConvergenceBinding,
    constraints: Sequence[Constraint],
    readers: dict[str, list[int]],
    projector: _Projector,
    obligations: list[Obligation],
    discharger: StaticDischarger | None,
    certificates: list[StaticCertificate],
) -> int:
    """The per-binding antecedents shared by Theorems 1 and 2.

    Returns the number of merged-behaviour pairs discharged vacuously by
    disjoint writes (the caller aggregates them into one obligation).
    """
    action = binding.action
    own = binding.constraint

    # not c  =>  the convergence action is enabled.
    subject = f"{own.name} violated => {action.name} enabled"
    started = time.perf_counter()
    if not (
        discharger is not None
        and _discharge_static(
            "enabled-when-violated",
            subject,
            discharger.enabled_when_violated(binding, subject),
            started,
            obligations,
            certificates,
        )
    ):
        obligations.append(
            _sweep(
                "enabled-when-violated",
                subject,
                own.support | action.reads,
                projector,
                context=((own.predicate, False),),
                post=action.guard,
            )
        )

    # Executing the action establishes c in one step.
    subject = f"{action.name} establishes {own.name}"
    started = time.perf_counter()
    if not (
        discharger is not None
        and _discharge_static(
            "establishes-in-one-step",
            subject,
            discharger.establishes(binding, subject),
            started,
            obligations,
            certificates,
        )
    ):
        obligations.append(
            _sweep(
                "establishes-in-one-step",
                subject,
                action.reads | action.writes | own.support,
                projector,
                action=action,
                post=own.predicate,
            )
        )

    # Merged behaviour: given its own constraint already holds, the
    # action preserves every other constraint (so firing inside S stays
    # inside S even for merged closure/convergence actions).
    met = _met(action.writes, readers)
    for position in met:
        other = constraints[position]
        subject = f"{action.name} preserves {other.name} given {own.name}"
        if discharger is not None:
            started = time.perf_counter()
            if _discharge_static(
                "merged-behaviour",
                subject,
                discharger.merged_behaviour(binding, other, subject),
                started,
                obligations,
                certificates,
            ):
                continue
        obligations.append(
            _sweep(
                "merged-behaviour",
                subject,
                action.reads | action.writes | other.support | own.support,
                projector,
                action=action,
                context=((own.predicate, True), (other.predicate, True)),
                post=other.predicate,
            )
        )
    return len(constraints) - len(met)


def _order_obligations(
    graph: ConstraintGraph,
    projector: _Projector,
    obligations: list[Obligation],
    discharger: StaticDischarger | None,
    certificates: list[StaticCertificate],
) -> None:
    """Theorem 2's third antecedent, per target node, over projections.

    For each node with several incoming convergence actions, a linear
    order must exist in which each action preserves the constraints of
    its predecessors. The greedy construction from
    :func:`repro.core.theorems.find_linear_order` is reused; each
    pairwise preservation check is offered to the static discharger
    first and swept over the pair's own projection when it abstains.
    """
    memo: dict[tuple[int, int], bool] = {}
    sweeps = 0

    def pair_preserves(action, constraint: Constraint) -> bool:
        nonlocal sweeps
        key = (id(action), id(constraint))
        if key not in memo:
            if not action.writes & constraint.support:
                memo[key] = True
            else:
                subject = f"{action.name} preserves {constraint.name}"
                if discharger is not None:
                    certificate = discharger.order_preserves(
                        action, constraint, subject
                    )
                    if certificate is not None:
                        certificates.append(certificate)
                        memo[key] = True
                        return True
                try:
                    _sweep(
                        "linear-order",
                        subject,
                        action.reads | action.writes | constraint.support,
                        projector,
                        action=action,
                        context=((constraint.predicate, True),),
                        post=constraint.predicate,
                    )
                    sweeps += 1
                    memo[key] = True
                except _Refusal as refusal:
                    if refusal.obligation != "linear-order":
                        raise
                    sweeps += 1
                    memo[key] = False
        return memo[key]

    for node in graph.active_nodes():
        incoming = [edge.binding for edge in graph.incoming(node)]
        if len(incoming) <= 1:
            continue
        sweeps_before = sweeps
        started = time.perf_counter()
        remaining = list(incoming)
        order: list[ConvergenceBinding] = []
        while remaining:
            pick = None
            for candidate_binding in remaining:
                others = [b for b in remaining if b is not candidate_binding]
                if all(
                    pair_preserves(other.action, candidate_binding.constraint)
                    for other in others
                ):
                    pick = candidate_binding
                    break
            if pick is None:
                names = [b.constraint.name for b in incoming]
                raise _Refusal(
                    "linear-order",
                    f"node {node.name!r}: no linear order among {names} in "
                    "which each action preserves the constraints of its "
                    "predecessors",
                )
            order.append(pick)
            remaining.remove(pick)
        obligations.append(
            Obligation(
                name="linear-order",
                subject=f"node {node.name}: "
                + " -> ".join(b.constraint.name for b in order),
                variables=(),
                space=0,
                checked=len(incoming),
                # "static" when the order was found without a single new
                # projected sweep (all pairs proved statically, vacuous by
                # disjoint writes, or already memoised without sweeping).
                discharged_by=(
                    "static"
                    if discharger is not None and sweeps == sweeps_before
                    else "enumerated"
                ),
                seconds=time.perf_counter() - started,
            )
        )


def _classify(
    invariant: Predicate,
    constraints: Sequence[Constraint],
    program,
    projector: _Projector,
) -> str:
    """Classify as masking or nonmasking without enumerating the space.

    With ``T == true`` the tolerance is *masking* iff ``S`` is
    tautological. ``S is TRUE`` certifies masking by identity. For
    nonmasking, a concrete witness is produced: a constraint falsifiable
    on its own support projection is overlaid onto the first probe state and
    ``S`` is evaluated directly at the resulting full state — one
    evaluation, cheap at any ``n``. No witness found refuses — this
    classification must stay bit-identical to the full method's.
    """
    if invariant is TRUE:
        return "masking"
    base = probe_states(program, limit=1)[0]
    for constraint in constraints:
        codec = projector.projection(
            constraint.support, subject=f"classification of {constraint.name}"
        )
        falsified = projector.first_failure(codec, None, (), constraint.predicate)
        if falsified is not None and not invariant(base.update(dict(falsified))):
            return "nonmasking"
    raise _Refusal(
        "classification",
        f"could not decide whether {invariant.name!r} is tautological "
        "without enumerating the full space",
    )


def certify_compositional(
    design: NonmaskingDesign,
    *,
    fairness: str = "weak",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    projection_limit: int = DEFAULT_PROJECTION_LIMIT,
    semantic: bool = True,
) -> CompositionalCertificate:
    """Certify a design nonmasking tolerant from per-edge projections.

    Args:
        design: The complete design (candidate triple, bindings, nodes).
        fairness: Scheduling fairness; the theorems require ``"weak"`` —
            anything else refuses.
        tracer: Optional tracer; emits ``compositional.start`` and one of
            ``compositional.certified`` / ``compositional.refused``.
        metrics: Optional registry; counts obligations, projected states
            and outcomes, and times the certification.
        projection_limit: Largest projected space an obligation may
            enumerate before refusing.
        semantic: Offer each obligation to the abstract-interpretation
            discharger (:mod:`repro.staticcheck.interference`) before
            sweeping its projection. Sound in one direction only — a
            static proof skips the sweep, a static "don't know" falls
            back to it — so verdicts are bit-identical either way;
            ``False`` disables the fast path entirely.

    Returns:
        A :class:`CompositionalCertificate` — ``status == "certified"``
        with the full obligation list, or ``status == "refused"`` naming
        the failed obligation. Never a negative verdict.

    Raises:
        ValidationError: for ill-typed arguments (not a design).
    """
    if not isinstance(design, NonmaskingDesign):
        raise ValidationError(
            "compositional certification requires a NonmaskingDesign, "
            f"got {type(design).__name__}"
        )
    if tracer is not None:
        tracer.emit("compositional.start", design=design.name, fairness=fairness)
    started = time.perf_counter()
    obligations: list[Obligation] = []
    certificates: list[StaticCertificate] = []
    projector = _Projector(design, projection_limit)
    discharger = (
        StaticDischarger(
            design,
            tracer=tracer,
            metrics=metrics,
            canonicalizer=projector.trees,
        )
        if semantic
        else None
    )

    def finish(certificate: CompositionalCertificate) -> CompositionalCertificate:
        if metrics is not None:
            metrics.timer("compositional").record(certificate.seconds)
            metrics.counter("compositional.obligations").add(
                len(certificate.obligations)
            )
            metrics.counter(
                "compositional.certified"
                if certificate.ok
                else "compositional.refused"
            ).add(1)
            metrics.counter("compositional.projected_states").add(
                projector.projected_states
            )
        if tracer is not None:
            kind = (
                "compositional.certified"
                if certificate.ok
                else "compositional.refused"
            )
            tracer.emit(
                kind,
                design=certificate.design,
                theorem=certificate.theorem,
                obligations=len(certificate.obligations),
                max_projection=certificate.max_projection,
                refusal=certificate.refusal,
            )
        return certificate

    try:
        theorem, classification, stabilizing, edges, total = _certify(
            design,
            fairness=fairness,
            projector=projector,
            obligations=obligations,
            discharger=discharger,
            certificates=certificates,
        )
    except _Refusal as refusal:
        return finish(
            CompositionalCertificate(
                design=design.name,
                theorem="",
                status="refused",
                classification="",
                stabilizing=False,
                obligations=tuple(obligations),
                refusal=str(refusal),
                total_states=0,
                max_projection=projector.max_projection,
                seconds=time.perf_counter() - started,
                static_certificates=tuple(certificates),
            )
        )
    return finish(
        CompositionalCertificate(
            design=design.name,
            theorem=theorem,
            status="certified",
            classification=classification,
            stabilizing=stabilizing,
            obligations=tuple(obligations),
            refusal="",
            total_states=total,
            max_projection=projector.max_projection,
            seconds=time.perf_counter() - started,
            edges=edges,
            static_certificates=tuple(certificates),
        )
    )
