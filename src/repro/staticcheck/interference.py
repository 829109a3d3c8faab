"""Pairwise action interference analysis and static obligation discharge.

Two consumers share this module:

- The **lint passes** (``IF001``–``IF004``): a race/interference
  detector over the inferred read/write sets plus abstract guard
  conditions — write-write races between processes, Theorem 2
  linear-order conflicts, convergence actions that provably fail to
  establish their constraint, and fault writes reaching a convergence
  guard's support.
- The **compositional certifier**: a :class:`StaticDischarger` that
  proves individual theorem antecedents (closure preservation,
  enabled-when-violated, establishes-in-one-step, merged behaviour,
  linear-order pairs) without enumerating any projected state space.
  Each success is exported as a :class:`StaticCertificate`;
  :func:`repro.compositional.certify_compositional` consumes it as a
  fast path and skips the projected sweep for that obligation.

Soundness contract (same bar as the rest of :mod:`repro.staticcheck`):
a certificate is only issued when the abstract proof is *definite*, and
a diagnostic is only emitted on a *concrete witness* or a premise
certain from declared sets. Abstract "don't know" — an opaque callable,
an over-budget case split — degrades to ``None``: the certifier falls
back to its enumerative sweep and the linter stays quiet. A negative
verdict is never produced statically.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.actions import Action
from repro.core.constraints import Constraint, ConvergenceBinding
from repro.core.design import NonmaskingDesign
from repro.core.expr import BoolExpr, Expr, _Const, _Not
from repro.core.predicates import Predicate
from repro.observability import MetricsRegistry, Tracer
from repro.observability.events import INTERFERENCE_DISCHARGED
from repro.staticcheck.absint import (
    DEFAULT_CASE_BUDGET,
    AbstractContext,
    _canonical_tokens,
    exprs_equal,
    substitute,
)

__all__ = [
    "StaticCertificate",
    "StaticDischarger",
    "predicate_expr",
    "update_exprs",
    "find_write_write_races",
    "find_order_conflicts",
    "find_establish_failures",
    "find_fault_hazards",
]


def predicate_expr(predicate: Predicate | None) -> BoolExpr | None:
    """Recover a symbolic expression for a predicate, if one exists.

    Uses the ``source`` expression recorded by
    :meth:`~repro.core.expr.BoolExpr.predicate`, and rebuilds combinator
    structure (``~p``, ``p & q``, ``all_of`` …) from ``parts``. Returns
    ``None`` for opaque predicates — the caller must degrade to ⊤.
    """
    if predicate is None:
        return None
    source = getattr(predicate, "source", None)
    if isinstance(source, BoolExpr):
        return source
    parts = getattr(predicate, "parts", None)
    if not parts:
        return None
    tag = parts[0]
    if tag == "not":
        inner = predicate_expr(parts[1][0])
        return None if inner is None else _Not(inner)
    if tag in ("and", "or", "implies"):
        left = predicate_expr(parts[1][0])
        right = predicate_expr(parts[1][1])
        if left is None or right is None:
            return None
        if tag == "and":
            return left & right
        if tag == "or":
            return left | right
        return _Not(left) | right
    if tag in ("all", "any"):
        lowered = [predicate_expr(p) for p in parts[1]]
        if not lowered or any(item is None for item in lowered):
            return None
        out = lowered[0]
        for item in lowered[1:]:
            assert out is not None and item is not None
            out = (out & item) if tag == "all" else (out | item)
        return out
    return None  # "count" and unknown combinators stay opaque


def update_exprs(
    action: Action, needed: Iterable[str]
) -> dict[str, Expr] | None:
    """Symbolic right-hand sides for the written variables in ``needed``.

    Variables written by the action but irrelevant to the target
    expression are skipped. Returns ``None`` when any needed right-hand
    side is an opaque callable (sound degradation).
    """
    wanted = frozenset(needed)
    out: dict[str, Expr] = {}
    for name, rhs in action.effect.updates.items():
        if name not in wanted:
            continue
        if isinstance(rhs, Expr):
            out[name] = rhs
        elif not callable(rhs):
            out[name] = _Const(rhs)
        else:
            return None
    return out


def _conjoin(exprs: Sequence[BoolExpr]) -> BoolExpr:
    out = exprs[0]
    for item in exprs[1:]:
        out = out & item
    return out


def guard_negates(guard: Predicate, constraint: Constraint) -> bool:
    """Whether the guard is structurally ``not c`` for the constraint.

    True by object identity (``~c.predicate`` kept through ``renamed``)
    or by structural equality of the source expressions. ``False`` means
    *not recognised*, never *semantically different*.
    """
    parts = getattr(guard, "parts", None)
    if parts and parts[0] == "not":
        inner = parts[1][0]
        if inner is constraint.predicate:
            return True
        inner_expr = predicate_expr(inner)
        constraint_expr = predicate_expr(constraint.predicate)
        if (
            inner_expr is not None
            and constraint_expr is not None
            and exprs_equal(inner_expr, constraint_expr)
        ):
            return True
    guard_expr = predicate_expr(guard)
    constraint_expr = predicate_expr(constraint.predicate)
    if (
        isinstance(guard_expr, _Not)
        and constraint_expr is not None
        and exprs_equal(guard_expr.inner, constraint_expr)
    ):
        return True
    return False


#: Marks a proof-memo miss (``None`` is a memoized "don't know").
_ABSENT = object()


@dataclass(frozen=True)
class StaticCertificate:
    """Evidence that one theorem antecedent was discharged statically.

    Attributes:
        obligation: The antecedent name, matching the compositional
            certificate's vocabulary (``"closure-preserves"``,
            ``"enabled-when-violated"``, ``"establishes-in-one-step"``,
            ``"merged-behaviour"``, ``"linear-order"``).
        subject: The (action, constraint) pair the obligation is about.
        rule: Which static route succeeded — ``"negation-guard"``,
            ``"post-<proof rule>"``, ``"vacuous-<proof rule>"``, or
            ``"implication-<proof rule>"``.
        cases: Truth-table rows evaluated by the bounded case split
            (0 for the purely structural/abstract routes). Always a
            function of the formula, never of the protocol size.
        detail: Human-readable one-liner of what was proved.
    """

    obligation: str
    subject: str
    rule: str
    cases: int
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "obligation": self.obligation,
            "subject": self.subject,
            "rule": self.rule,
            "cases": self.cases,
            "detail": self.detail,
        }


class StaticDischarger:
    """Proves theorem antecedents of one design without enumeration.

    One instance per certification run; it owns the design's
    :class:`~repro.staticcheck.absint.AbstractContext` and the
    observability hooks. All ``None`` returns mean *don't know* — the
    caller must fall back to the enumerative sweep.

    Discharge outcomes are memoized in a process-wide proof cache: the
    per-edge obligations of a protocol repeat the same formulas up to
    variable renaming (c.1/c.2, c.2/c.3, ...) — within one design,
    across sizes of the same family, and across certification runs —
    so one proof, or one definite failure to prove, serves them all.
    Keys canonicalize the obligation's expressions under a joint
    renaming plus the exact value sets of the involved variables and
    the case budget, which makes them self-contained: equal keys imply
    equal formulas and domains, hence equal outcomes, independent of
    which design asked. Anything opaque or inexactly abstracted is
    simply not memoized.
    """

    #: Shared across instances; see the class docstring. Bounded so a
    #: pathological stream of distinct obligations cannot grow it
    #: without limit — once full, new outcomes are computed but not
    #: stored.
    _MEMO_CAP = 16384
    _memo: dict[tuple[Any, ...], "StaticCertificate | None"] = {}

    #: The id-keyed caches store their subject object alongside the
    #: result so a recycled id can never alias a dead object. They are
    #: class-level for the same reason as the proof memo: the library
    #: shares design instances across certification runs (the builders
    #: are memoized), so a later run's obligations present the *same*
    #: expression and predicate objects. Capped like the memo, but a
    #: full cache evicts its oldest entry (insertion order) rather than
    #: refusing new ones: entries of designs certified long ago make way
    #: for the current design's objects, and the stored references stay
    #: bounded by the caps, not by how many designs the process ever
    #: certifies.
    _pred_cache: OrderedDict[int, tuple[Any, "BoolExpr | None"]] = OrderedDict()
    _token_cache: OrderedDict[
        int, tuple[Any, str | None, tuple[str, ...]]
    ] = OrderedDict()
    _pair_keys: OrderedDict[
        tuple[Any, ...], tuple[tuple[Any, ...], tuple[Any, ...] | None]
    ] = OrderedDict()

    def __init__(
        self,
        design: NonmaskingDesign,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        budget: int = DEFAULT_CASE_BUDGET,
    ) -> None:
        self._context = AbstractContext(
            {
                name: variable.domain
                for name, variable in design.program.variables.items()
            }
        )
        self._tracer = tracer
        self._metrics = metrics
        self._budget = budget
        self.attempts = 0
        self.discharged = 0
        self._env_snapshot = self._context.env

    @property
    def context(self) -> AbstractContext:
        return self._context

    # -- internals -----------------------------------------------------
    def _emit(self, certificate: StaticCertificate) -> StaticCertificate:
        self.discharged += 1
        if self._metrics is not None:
            self._metrics.counter("staticcheck.interference.discharged").add()
        if self._tracer is not None:
            self._tracer.emit(
                INTERFERENCE_DISCHARGED,
                obligation=certificate.obligation,
                subject=certificate.subject,
                rule=certificate.rule,
                cases=certificate.cases,
            )
        return certificate

    def _count_attempt(self) -> None:
        self.attempts += 1
        if self._metrics is not None:
            self._metrics.counter("staticcheck.interference.attempts").add()

    @classmethod
    def _remember(cls, cache: OrderedDict, key: Any, entry: Any) -> None:
        """Store ``entry`` in an id-keyed cache, evicting the oldest
        entry when the cache is full."""
        if key not in cache and len(cache) >= cls._MEMO_CAP:
            cache.popitem(last=False)
        cache[key] = entry

    def _predicate_expr(self, predicate: Predicate | None) -> BoolExpr | None:
        """Memoized :func:`predicate_expr` — combinator predicates
        rebuild fresh expression objects on every call, which would also
        defeat the id-keyed token cache below."""
        if predicate is None:
            return None
        entry = self._pred_cache.get(id(predicate))
        if entry is None or entry[0] is not predicate:
            entry = (predicate, predicate_expr(predicate))
            self._remember(self._pred_cache, id(predicate), entry)
        return entry[1]

    def _component_key(
        self, expr: Expr, joint: dict[str, int]
    ) -> tuple[str, tuple[int, ...]] | None:
        """One expression's contribution to an obligation key.

        The pair (local canonical tokens, joint indices of its variables
        in first-use order) determines the expression under the
        obligation's joint renaming, so per-expression tokens can be
        cached independently of which obligation they appear in.
        """
        entry = self._token_cache.get(id(expr))
        if entry is None or entry[0] is not expr:
            names: dict[str, int] = {}
            tokens = _canonical_tokens(expr, names)
            entry = (expr, tokens, tuple(names))
            self._remember(self._token_cache, id(expr), entry)
        _, tokens, names = entry
        if tokens is None:
            return None
        return tokens, tuple(
            joint.setdefault(name, len(joint)) for name in names
        )

    def _obligation_key(
        self,
        kind: str,
        exprs: Sequence[BoolExpr | None],
        updates: Mapping[str, Expr] | None,
    ) -> tuple[Any, ...] | None:
        """A renaming-invariant memo key, or ``None`` when not safe.

        Memoization requires every involved expression to be
        tokenizable and every involved variable's abstraction to be an
        exact finite value set — equal keys then imply the same premise
        formulas, post-states, and proof-search outcomes. ``None``
        (don't memoize) is the answer for opaque guards or updates: two
        different opaque callables would collide on the same key.
        """
        joint: dict[str, int] = {}
        parts: list[Any] = [kind]
        for expr in exprs:
            if expr is None:
                return None
            component = self._component_key(expr, joint)
            if component is None:
                return None
            parts.append(component)
        if updates is not None:
            rows: list[Any] = []
            for name in sorted(updates):
                component = self._component_key(updates[name], joint)
                if component is None:
                    return None
                rows.append((joint.setdefault(name, len(joint)), component))
            parts.append(tuple(rows))
        values = []
        for name in joint:  # insertion order == joint index order
            abstract = self._env_snapshot.get(name)
            if abstract is None or abstract.values is None:
                return None
            values.append(abstract.values)
        parts.append(tuple(values))
        parts.append(self._budget)
        return tuple(parts)

    def _pair_cached_key(
        self,
        tag: str,
        objects: tuple[Any, ...],
        compute_key: Any,
    ) -> tuple[Any, ...] | None:
        """Obligation key for a tuple of design objects, computed once.

        A second-level cache over :meth:`_obligation_key`: the same
        (action, constraint) pair always canonicalizes to the same key,
        so repeat visits cost one dict lookup instead of a tree walk.
        The stored object tuple guards against id reuse.
        """
        pair = (tag, self._budget, *[id(obj) for obj in objects])
        entry = self._pair_keys.get(pair)
        if entry is not None and all(
            a is b for a, b in zip(entry[0], objects)
        ):
            return entry[1]
        key = compute_key()
        self._remember(self._pair_keys, pair, (objects, key))
        return key

    def _memoized(
        self,
        key: tuple[Any, ...] | None,
        prove: Any,
        *,
        obligation: str,
        subject: str,
    ) -> StaticCertificate | None:
        """Run ``prove`` through the memo; emit on every discharge."""
        # One lookup: keys are deep tuples, and tuples do not cache
        # their hash.
        cached = _ABSENT if key is None else self._memo.get(key, _ABSENT)
        if cached is not _ABSENT:
            if cached is None:
                return None
            if cached.obligation == obligation and cached.subject == subject:
                return self._emit(cached)
            return self._emit(
                StaticCertificate(
                    obligation, subject, cached.rule, cached.cases, cached.detail
                )
            )
        certificate = prove()
        if key is not None and len(self._memo) < self._MEMO_CAP:
            self._memo[key] = certificate
        if certificate is None:
            return None
        return self._emit(certificate)

    def _preserves(
        self,
        action: Action,
        target: Constraint,
        *,
        obligation: str,
        subject: str,
        given: Constraint | None = None,
    ) -> StaticCertificate | None:
        """``enabled ∧ (given) ∧ target  ⇒  target after the action``."""
        self._count_attempt()

        # The proof never consults the obligation name, so renamed
        # twins of a linear-order obligation can reuse a
        # closure-preserves proof; only guard/given/target/updates key.
        def compute_key():
            guard_expr = self._predicate_expr(action.guard)
            target_expr = self._predicate_expr(target.predicate)
            given_expr = (
                self._predicate_expr(given.predicate)
                if given is not None
                else None
            )
            return self._obligation_key(
                "preserves",
                [guard_expr, target_expr]
                + ([given_expr] if given is not None else []),
                update_exprs(action, target.support),
            )

        def prove():
            return self._prove_preserves(
                self._predicate_expr(action.guard),
                self._predicate_expr(given.predicate)
                if given is not None
                else None,
                self._predicate_expr(target.predicate),
                update_exprs(action, target.support),
                obligation=obligation,
                subject=subject,
            )

        key = self._pair_cached_key(
            "preserves", (action, target, given), compute_key
        )
        return self._memoized(
            key, prove, obligation=obligation, subject=subject
        )

    def _prove_preserves(
        self,
        guard_expr: BoolExpr | None,
        given_expr: BoolExpr | None,
        target_expr: BoolExpr | None,
        updates: Mapping[str, Expr] | None,
        *,
        obligation: str,
        subject: str,
    ) -> StaticCertificate | None:
        post: Expr | None = None
        if target_expr is not None and updates is not None:
            post = substitute(target_expr, updates)
        premises = [
            expr
            for expr in (guard_expr, given_expr, target_expr)
            if expr is not None
        ]

        # 1. The post-state constraint is valid outright (reflexivity
        #    after a copy-style update, constant folding, …) by
        #    structure or abstract bounds alone — no truth-table rows.
        #    Proving it without the premises is a stronger statement.
        if post is not None:
            proof = self._context.prove_valid(post, budget=0)
            if proof is not None:
                return StaticCertificate(
                    obligation=obligation,
                    subject=subject,
                    rule=f"post-{proof.rule}",
                    cases=proof.cases,
                    detail="the substituted post-state constraint is "
                    "valid for every assignment",
                )

        # 2. The available premises are jointly unsatisfiable (e.g. the
        #    guard is ¬c while the given constraint is c), again without
        #    rows. Unsat of a premise subset implies unsat of the full
        #    premise — sound, and it needs no post-state, so opaque
        #    updates still allow it.
        if premises:
            proof = self._context.prove_unsat(_conjoin(premises), budget=0)
            if proof is not None:
                return StaticCertificate(
                    obligation=obligation,
                    subject=subject,
                    rule=f"vacuous-{proof.rule}",
                    cases=proof.cases,
                    detail="the obligation's premises are jointly "
                    "unsatisfiable",
                )

        # 3. The full implication, by bounded case split over the
        #    formula's variables. A valid post-state and unsatisfiable
        #    premises each imply the implication, so when its truth
        #    table is affordable this single split decides everything
        #    routes 1-2 could — paying for one split, not three.
        if post is not None and premises and isinstance(post, BoolExpr):
            implication = _Not(_conjoin(premises)) | post
            proof = self._context.prove_valid(implication, budget=self._budget)
            if proof is not None:
                return StaticCertificate(
                    obligation=obligation,
                    subject=subject,
                    rule=f"implication-{proof.rule}",
                    cases=proof.cases,
                    detail="premises imply the substituted post-state "
                    "constraint",
                )

        # 4. The implication's table ranges over the union of the
        #    variables and may be unaffordable while the smaller post or
        #    premise tables are not — retry those with rows allowed.
        if post is not None:
            proof = self._context.prove_valid(post, budget=self._budget)
            if proof is not None:
                return StaticCertificate(
                    obligation=obligation,
                    subject=subject,
                    rule=f"post-{proof.rule}",
                    cases=proof.cases,
                    detail="the substituted post-state constraint is "
                    "valid for every assignment",
                )
        if premises:
            proof = self._context.prove_unsat(
                _conjoin(premises), budget=self._budget
            )
            if proof is not None:
                return StaticCertificate(
                    obligation=obligation,
                    subject=subject,
                    rule=f"vacuous-{proof.rule}",
                    cases=proof.cases,
                    detail="the obligation's premises are jointly "
                    "unsatisfiable",
                )
        return None

    # -- public discharge routes ---------------------------------------
    def closure_preserves(
        self, action: Action, constraint: Constraint, subject: str
    ) -> StaticCertificate | None:
        return self._preserves(
            action, constraint, obligation="closure-preserves", subject=subject
        )

    def order_preserves(
        self, action: Action, constraint: Constraint, subject: str
    ) -> StaticCertificate | None:
        return self._preserves(
            action, constraint, obligation="linear-order", subject=subject
        )

    def merged_behaviour(
        self, binding: ConvergenceBinding, other: Constraint, subject: str
    ) -> StaticCertificate | None:
        return self._preserves(
            binding.action,
            other,
            obligation="merged-behaviour",
            subject=subject,
            given=binding.constraint,
        )

    def enabled_when_violated(
        self, binding: ConvergenceBinding, subject: str
    ) -> StaticCertificate | None:
        """``not c ⇒ action enabled``, i.e. ``c ∨ guard`` is valid."""
        self._count_attempt()

        def compute_key():
            return self._obligation_key(
                "enabled-when-violated",
                [
                    self._predicate_expr(binding.action.guard),
                    self._predicate_expr(binding.constraint.predicate),
                ],
                None,
            )

        def prove():
            return self._prove_enabled_when_violated(
                binding,
                self._predicate_expr(binding.action.guard),
                self._predicate_expr(binding.constraint.predicate),
                subject,
            )

        key = self._pair_cached_key(
            "enabled-when-violated",
            (binding.action, binding.constraint),
            compute_key,
        )
        return self._memoized(
            key, prove, obligation="enabled-when-violated", subject=subject
        )

    def _prove_enabled_when_violated(
        self,
        binding: ConvergenceBinding,
        guard_expr: BoolExpr | None,
        constraint_expr: BoolExpr | None,
        subject: str,
    ) -> StaticCertificate | None:
        if guard_negates(binding.action.guard, binding.constraint):
            return StaticCertificate(
                obligation="enabled-when-violated",
                subject=subject,
                rule="negation-guard",
                cases=0,
                detail="the guard is structurally the negation of the "
                "constraint",
            )
        if constraint_expr is None or guard_expr is None:
            return None
        proof = self._context.prove_valid(
            constraint_expr | guard_expr, budget=self._budget
        )
        if proof is None:
            return None
        return StaticCertificate(
            obligation="enabled-when-violated",
            subject=subject,
            rule=f"tautology-{proof.rule}",
            cases=proof.cases,
            detail="constraint-or-guard is valid for every assignment",
        )

    def establishes(
        self, binding: ConvergenceBinding, subject: str
    ) -> StaticCertificate | None:
        """``enabled ⇒ c after the action``."""
        self._count_attempt()
        own = binding.constraint
        action = binding.action

        # A None guard keys to None (no memo) — route 1 could still
        # prove, but the outcome then isn't determined by these parts.
        def compute_key():
            updates = update_exprs(action, own.support)
            if updates is None:
                return None
            return self._obligation_key(
                "establishes",
                [
                    self._predicate_expr(own.predicate),
                    self._predicate_expr(action.guard),
                ],
                updates,
            )

        def prove():
            own_expr = self._predicate_expr(own.predicate)
            if own_expr is None:
                return None
            updates = update_exprs(action, own.support)
            if updates is None:
                return None
            return self._prove_establishes(
                own_expr,
                self._predicate_expr(action.guard),
                updates,
                subject,
            )

        key = self._pair_cached_key(
            "establishes", (action, own), compute_key
        )
        return self._memoized(
            key, prove, obligation="establishes-in-one-step", subject=subject
        )

    def _prove_establishes(
        self,
        own_expr: BoolExpr,
        guard_expr: BoolExpr | None,
        updates: Mapping[str, Expr],
        subject: str,
    ) -> StaticCertificate | None:
        post = substitute(own_expr, updates)
        if post is None:
            return None
        proof = self._context.prove_valid(post, budget=self._budget)
        if proof is not None:
            return StaticCertificate(
                obligation="establishes-in-one-step",
                subject=subject,
                rule=f"post-{proof.rule}",
                cases=proof.cases,
                detail="the substituted constraint is valid regardless "
                "of the guard",
            )
        if guard_expr is not None and isinstance(post, BoolExpr):
            proof = self._context.prove_valid(
                _Not(guard_expr) | post, budget=self._budget
            )
            if proof is not None:
                return StaticCertificate(
                    obligation="establishes-in-one-step",
                    subject=subject,
                    rule=f"implication-{proof.rule}",
                    cases=proof.cases,
                    detail="the guard implies the substituted constraint",
                )
        return None


# ----------------------------------------------------------------------
# Interference findings for the lint passes (IF001–IF004)
# ----------------------------------------------------------------------


def _joint_guard_and(
    context: AbstractContext,
    exprs: Sequence[BoolExpr],
    budget: int,
) -> dict[str, Any] | None:
    return context.find_witness(_conjoin(exprs), budget=budget)


def find_write_write_races(
    actions: Sequence[Action],
    context: AbstractContext,
    *,
    budget: int = DEFAULT_CASE_BUDGET,
) -> list[tuple[Action, Action, str, dict[str, Any]]]:
    """IF001: co-enabled actions of different processes, same variable,
    provably different values — with a concrete witness state.

    Only pairs whose guards and the contested right-hand sides are all
    symbolic can produce a finding; anything opaque stays silent.
    """
    out: list[tuple[Action, Action, str, dict[str, Any]]] = []
    for index, first in enumerate(actions):
        if first.process is None:
            continue
        for second in actions[index + 1:]:
            if second.process is None or second.process == first.process:
                continue
            shared = first.writes & second.writes
            if not shared:
                continue
            first_guard = predicate_expr(first.guard)
            second_guard = predicate_expr(second.guard)
            if first_guard is None or second_guard is None:
                continue
            for name in sorted(shared):
                first_rhs = update_exprs(first, {name})
                second_rhs = update_exprs(second, {name})
                if not first_rhs or not second_rhs:
                    continue
                differs = first_rhs[name] != second_rhs[name]
                witness = _joint_guard_and(
                    context, [first_guard, second_guard, differs], budget
                )
                if witness is not None:
                    out.append((first, second, name, witness))
                    break  # one finding per action pair
    return out


def _breaks_witness(
    action: Action,
    constraint: Constraint,
    context: AbstractContext,
    budget: int,
) -> dict[str, Any] | None:
    """A state where ``action`` fires with ``constraint`` holding and
    falsifies it — certain evidence of interference."""
    constraint_expr = predicate_expr(constraint.predicate)
    guard_expr = predicate_expr(action.guard)
    if constraint_expr is None or guard_expr is None:
        return None
    updates = update_exprs(action, constraint.support)
    if updates is None:
        return None
    post = substitute(constraint_expr, updates)
    if not isinstance(post, BoolExpr):
        return None
    return context.find_witness(
        guard_expr & constraint_expr & _Not(post), budget=budget
    )


def find_order_conflicts(
    design: NonmaskingDesign,
    context: AbstractContext,
    *,
    budget: int = DEFAULT_CASE_BUDGET,
) -> list[tuple[str, list[str]]]:
    """IF002: nodes where certain pairwise breaks admit no linear order.

    For each declared node with several incoming convergence actions
    (grouped by which node owns the action's writes — the edge-target
    rule of Section 4), Theorem 2 needs a linear order in which every
    action preserves its predecessors' constraints. A *certain* break
    (concrete witness) of constraint ``c`` by action ``a`` forces
    ``c``'s binding after ``a``'s; a cycle of such forcings means no
    order exists. Returns ``(node name, involved constraint names)``
    per conflict. Works from the declared node labels directly, so it
    reports even on designs whose graph construction would raise on an
    unrelated violation.
    """
    owner: dict[str, str] = {}
    for node in design.nodes:
        for variable in node.variables:
            owner.setdefault(variable, node.name)
    grouped: dict[str, list[ConvergenceBinding]] = {}
    for binding in design.bindings:
        targets = {owner.get(name) for name in binding.action.writes}
        if len(targets) != 1 or None in targets:
            continue  # ill-targeted edges are CG002's problem
        grouped.setdefault(next(iter(targets)), []).append(binding)
    out: list[tuple[str, list[str]]] = []
    for node_name in sorted(grouped):
        incoming = grouped[node_name]
        if len(incoming) <= 1:
            continue
        must_follow: dict[int, set[int]] = {
            i: set() for i in range(len(incoming))
        }
        for i, earlier in enumerate(incoming):
            for j, later in enumerate(incoming):
                if i == j:
                    continue
                witness = _breaks_witness(
                    earlier.action, later.constraint, context, budget
                )
                if witness is not None:
                    # earlier's action falsifies later's constraint, so
                    # later's binding must come after earlier's.
                    must_follow[j].add(i)
        if _has_cycle(must_follow):
            names = sorted(b.constraint.name for b in incoming)
            out.append((node_name, names))
    return out


def _has_cycle(edges: Mapping[int, set[int]]) -> bool:
    state: dict[int, int] = {}  # 0 = visiting, 1 = done

    def visit(node: int) -> bool:
        mark = state.get(node)
        if mark == 0:
            return True
        if mark == 1:
            return False
        state[node] = 0
        for prev in edges.get(node, ()):
            if visit(prev):
                return True
        state[node] = 1
        return False

    return any(visit(node) for node in edges)


def find_establish_failures(
    design: NonmaskingDesign,
    context: AbstractContext,
    *,
    budget: int = DEFAULT_CASE_BUDGET,
) -> list[tuple[ConvergenceBinding, dict[str, Any]]]:
    """IF003: convergence actions with a concrete state where they fire
    without establishing their constraint."""
    out: list[tuple[ConvergenceBinding, dict[str, Any]]] = []
    for binding in design.bindings:
        own_expr = predicate_expr(binding.constraint.predicate)
        guard_expr = predicate_expr(binding.action.guard)
        if own_expr is None or guard_expr is None:
            continue
        updates = update_exprs(binding.action, binding.constraint.support)
        if updates is None:
            continue
        post = substitute(own_expr, updates)
        if not isinstance(post, BoolExpr):
            continue
        witness = context.find_witness(
            guard_expr & _Not(post), budget=budget
        )
        if witness is not None:
            out.append((binding, witness))
    return out


def find_fault_hazards(
    design: NonmaskingDesign,
    faults: Sequence[Action],
) -> list[tuple[Action, ConvergenceBinding, list[str]]]:
    """IF004: fault writes reaching a convergence guard's support.

    A fault that writes a variable the convergence guard consults but
    the constraint does not observe can toggle the action's enabledness
    without violating (or repairing) the constraint — the convergence
    reasoning of Section 3 no longer sees the perturbation. The premise
    is certain from the declared sets alone.
    """
    out: list[tuple[Action, ConvergenceBinding, list[str]]] = []
    for fault in faults:
        for binding in design.bindings:
            guard_support = binding.action.guard.support
            if guard_support is None:
                guard_support = binding.action.reads
            hazardous = sorted(
                (fault.writes & guard_support) - binding.constraint.support
            )
            if hazardous:
                out.append((fault, binding, hazardous))
    return out
