"""Compilation of guards and statements against a :class:`StateCodec`.

Three tiers, fastest first:

1. **Symbolic closures** — guards and right-hand sides lowered from the
   expression DSL (:mod:`repro.core.expr`) are walked once and compiled
   into closures over a flat per-state value list, so evaluating them on
   the BFS frontier touches no dict and builds no :class:`State`. A
   predicate tree compiles node by node: a DSL lowering through
   :func:`compile_expr`, and an ``and``/``or``/``not``/``implies``/
   ``all``/``any``/``count`` combinator over its compiled operands, in
   the combinator's own evaluation (and short-circuit) order. Only a
   node :func:`~repro.core.fingerprint.is_trusted` accepts compiles: an
   untrusted node's ``source`` or ``parts`` is a record its function
   need not obey, so it is never compiled from them.
2. **View evaluation** — opaque callables, and untrusted predicate
   nodes, are evaluated against a :class:`DigitStateView`, a
   ``Mapping`` facade over the same value list. No ``State`` or dict is
   built, but the callable itself still pays its usual per-access cost.
3. **Successor tables** — an action whose *declared* read/write sets are
   trustworthy (see :func:`action_supports_ok`) has a successor function
   that factors through its read-support projection: the packed engine
   memoizes the result per distinct projection value, so the guard and
   statement run once per projection value instead of once per state.

The table tier is the locality payoff of the paper's Section 4: a
convergence action on edge ``v -> w`` reads only ``vars(v) | vars(w)``,
so its projection space is tiny compared to the full state space.
Soundness of the memoization is exactly "the action's behaviour is a
function of its declared reads, and it writes only its declared writes"
— which is what the RW001/RW002/RW003 lint passes check, so the same
probe-battery checks gate table compilation here.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from typing import Any

from repro.core.actions import Action
from repro.core.errors import UnknownVariableError
from repro.core.expr import BoolExpr, Expr, _Binary, _Const, _Fold, _Ite, _Not, _Var
from repro.core.fingerprint import is_trusted, probe_states
from repro.core.introspect import infer_action_support
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.kernel.codec import StateCodec

__all__ = [
    "CompiledAction",
    "DigitStateView",
    "action_supports_ok",
    "compile_action",
    "compile_expr",
    "compile_predicate",
    "compile_predicate_fn",
]

#: Table compilation only pays when the projection space is genuinely
#: smaller than the state space; below this reuse factor it is skipped.
MIN_TABLE_REUSE = 2

#: Sentinel distinguishing "key absent" from a memoized ``None`` entry.
_MISSING = object()


class DigitStateView(Mapping[str, Any]):
    """A read-only ``Mapping`` over the kernel's per-state value list.

    Opaque guards, right-hand sides and predicates take any mapping, so
    they evaluate against this view without a :class:`State` (or even a
    dict) ever being built. Missing names raise
    :class:`UnknownVariableError` like ``State.__getitem__`` does, so
    callables observing errors behave identically on both engines.
    """

    __slots__ = ("_positions", "_names", "values")

    def __init__(self, codec: StateCodec) -> None:
        self._positions = codec._positions
        self._names = codec.names
        self.values: list[Any] = []

    def __getitem__(self, name: str) -> Any:
        try:
            return self.values[self._positions[name]]
        except KeyError:
            raise UnknownVariableError(f"state has no variable {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def compile_expr(expr: Expr, codec: StateCodec) -> Callable[[list], Any] | None:
    """Compile a DSL expression into a closure over the value list.

    Returns ``None`` when the expression tree contains an unknown node
    type (or a variable the codec does not know) — the caller then falls
    back to view evaluation of the original callable.
    """
    kind = type(expr)
    if kind is _Var:
        position = codec._positions.get(expr.name)
        if position is None:
            return None
        return lambda values: values[position]
    if kind is _Const:
        constant = expr.value
        return lambda values: constant
    if kind is _Not:
        inner = compile_expr(expr.inner, codec)
        if inner is None:
            return None
        return lambda values: not inner(values)
    if kind is _Binary or kind is BoolExpr:
        left = compile_expr(expr.left, codec)
        right = compile_expr(expr.right, codec)
        if left is None or right is None:
            return None
        operator = expr.op
        return lambda values: operator(left(values), right(values))
    if kind is _Ite:
        condition = compile_expr(expr.condition, codec)
        then = compile_expr(expr.then, codec)
        otherwise = compile_expr(expr.otherwise, codec)
        if condition is None or then is None or otherwise is None:
            return None
        return lambda values: (
            then(values) if condition(values) else otherwise(values)
        )
    if kind is _Fold:
        items = [compile_expr(item, codec) for item in expr.items]
        if any(item is None for item in items):
            return None
        fold = expr.op
        return lambda values: fold(item(values) for item in items)
    return None


def compile_predicate_fn(
    predicate: Predicate, codec: StateCodec, view: DigitStateView
) -> Callable[[list], bool]:
    """A ``values -> bool`` evaluator for ``predicate``.

    Every trusted node compiles to a closure (tier 1); any other node is
    a leaf evaluated through ``view`` (the caller's shared
    :class:`DigitStateView`, whose ``values`` the kernel rebinds per
    state). The evaluator returns what ``predicate(state)`` returns, and
    raises where it raises.
    """
    return _compile_node(predicate, codec, view)


def compile_predicate(
    predicate: Predicate, codec: StateCodec
) -> Callable[[list], bool] | None:
    """:func:`compile_predicate_fn` with no view: ``None`` on an opaque node.

    For callers that need the whole tree in tier 1 (the compositional
    certifier tabulates a projected codec and falls back to its own
    per-state loop otherwise).
    """
    return _compile_node(predicate, codec, None)


def _compile_node(
    predicate: Predicate, codec: StateCodec, view: DigitStateView | None
) -> Callable[[list], bool] | None:
    if is_trusted(predicate):
        parts = predicate.parts
        if parts is None:
            compiled = _compile_truth(predicate.source, codec)
        else:
            operands = [
                _compile_node(operand, codec, view) for operand in parts[1]
            ]
            compiled = (
                None
                if None in operands
                else _combine(parts[0], operands, parts[2:])
            )
        if compiled is not None:
            return compiled
    if view is None:
        return None

    def evaluate(values: list, _fn=predicate._fn, _view=view) -> bool:
        _view.values = values
        return bool(_fn(_view))

    return evaluate


def _compile_truth(expr: BoolExpr, codec: StateCodec) -> Callable[[list], bool] | None:
    """The lowering's ``bool(expr(state))``; the top node is inlined."""
    if type(expr) is BoolExpr:
        left = compile_expr(expr.left, codec)
        right = compile_expr(expr.right, codec)
        if left is None or right is None:
            return None
        operator = expr.op
        return lambda values: bool(operator(left(values), right(values)))
    compiled = compile_expr(expr, codec)
    if compiled is None:
        return None
    return lambda values: bool(compiled(values))


def _combine(kind: str, fns: list, rest: tuple) -> Callable[[list], bool]:
    """A combinator over compiled operands, evaluated as the combinator
    evaluates its operands (:mod:`repro.core.predicates`): same order,
    same short circuits."""
    if kind == "not":
        (inner,) = fns
        return lambda values: not inner(values)
    if kind in ("and", "or", "implies"):
        first, second = fns
        if kind == "and":
            return lambda values: first(values) and second(values)
        if kind == "or":
            return lambda values: first(values) or second(values)
        return lambda values: (not first(values)) or second(values)
    if kind == "count":
        (count,) = rest
        return lambda values: sum(1 for fn in fns if fn(values)) == count
    if len(fns) == 1:  # all/any of one operand is that operand's truth
        return fns[0]
    if kind == "all":

        def all_hold(values: list) -> bool:
            for fn in fns:
                if not fn(values):
                    return False
            return True

        return all_hold

    def any_holds(values: list) -> bool:  # kind == "any"
        for fn in fns:
            if fn(values):
                return True
        return False

    return any_holds


def action_supports_ok(action: Action, battery: list[State]) -> bool:
    """Whether ``action``'s declared read/write sets pass RW001-RW003.

    This is the table-compilation soundness gate: the successor memo is
    keyed by the projection onto the *declared* reads and replays only
    the *declared* writes, so the declarations must survive the same
    checks :mod:`repro.staticcheck` applies —

    - RW001: every inferred read is declared (probe evidence is real);
    - RW002: every inferred write is declared;
    - RW003: no declared read is provably never consulted (only
      decidable for symbolically exact actions).
    """
    inferred = infer_action_support(action, battery)
    if not inferred.reads <= action.reads:
        return False
    if not inferred.writes <= action.writes:
        return False
    if inferred.exact and (action.reads - inferred.reads - action.writes):
        return False
    return True


class CompiledAction:
    """One action compiled against a codec.

    ``successor(code, digits, values)`` returns:

    - ``None`` — the guard does not hold;
    - an ``int`` — the packed code of the successor;
    - a ``State`` — the successor carries a value outside its variable's
      domain and cannot be packed (the raw state is reported so escapes
      and closure witnesses stay bit-identical to the dict engine).

    ``mode`` is ``"table"`` (successors memoized over the read-support
    projection), ``"direct"`` (evaluated per state, no memo), or
    ``"fallback"`` (same as direct, but forced: the action failed the
    RW soundness gate so projection-keyed memoization would be unsound).
    """

    __slots__ = (
        "action",
        "name",
        "mode",
        "successor",
        "_guard_fn",
        "_updates",
        "_read_pairs",
        "_read_set",
        "_table",
        "_view",
    )

    def __init__(
        self,
        action: Action,
        codec: StateCodec,
        view: DigitStateView,
        *,
        supports_ok: bool,
    ) -> None:
        self.action = action
        self.name = action.name
        self._view = view
        self._guard_fn = compile_predicate_fn(action.guard, codec, view)
        # Per written variable: (digit position, weight, value->digit map,
        # rhs evaluator or constant marker).
        updates = []
        for target, rhs in action.effect.updates.items():
            position = codec.position_of(target)
            evaluator: Callable[[list], Any]
            if isinstance(rhs, Expr):
                compiled = compile_expr(rhs, codec)
                if compiled is not None:
                    evaluator = compiled
                else:
                    evaluator = self._view_evaluator(rhs)
            elif callable(rhs):
                evaluator = self._view_evaluator(rhs)
            else:
                constant = rhs
                evaluator = lambda values, _c=constant: _c  # noqa: E731
            updates.append(
                (
                    target,
                    position,
                    codec.weights[position],
                    codec._value_digits[position],
                    evaluator,
                )
            )
        self._updates = tuple(updates)

        read_positions = sorted(codec._positions[name] for name in action.reads)
        projection_size = 1
        for position in read_positions:
            projection_size *= codec.radices[position]
        self._read_pairs = tuple(
            (position, codec.radices[position]) for position in read_positions
        )
        self._read_set = frozenset(read_positions)
        if not supports_ok:
            self.mode = "fallback"
        elif projection_size * MIN_TABLE_REUSE <= codec.size:
            self.mode = "table"
        else:
            self.mode = "direct"
        self._table: dict[int, Any] = {}
        self.successor = self._build_successor()

    def _view_evaluator(self, fn: Callable) -> Callable[[list], Any]:
        def evaluate(values: list, _fn=fn, _view=self._view) -> Any:
            _view.values = values
            return _fn(_view)

        return evaluate

    # ------------------------------------------------------------------
    # Successor computation
    # ------------------------------------------------------------------

    def _evaluate(self, code: int, digits: list[int], values: list) -> tuple | None:
        """Run guard and statement once; normalize to a table entry.

        Entries: ``None`` (disabled), a plain ``int`` shift (every
        written variable is also read, so the packed successor is simply
        ``code + shift`` — the old digits are part of the projection),
        ``("delta", ((pos, digit, weight), ...))`` (digit replacements;
        the old digit is read off the current state), or ``("raw",
        updates_dict)`` (unpackable successor values). Every non-``None``
        form is a function of the read projection only — that is what
        the RW gate guarantees — so it is safe to replay on any state
        sharing the projection.
        """
        if not self._guard_fn(values):
            return None
        written = [
            (target, position, weight, value_digits, evaluator(values))
            for target, position, weight, value_digits, evaluator in self._updates
        ]
        replacements = []
        shift = 0
        pure_shift = True
        for _target, position, weight, value_digits, value in written:
            try:
                digit = value_digits[value]
            except (KeyError, TypeError):
                # Unpackable successor value: keep every write raw so the
                # reported successor State carries the full update.
                return ("raw", {target: value for target, *_rest, value in written})
            replacements.append((position, digit, weight))
            if position in self._read_set:
                shift += (digit - digits[position]) * weight
            else:
                pure_shift = False
        if pure_shift:
            return shift
        return ("delta", tuple(replacements))

    def _apply_entry(
        self, entry, code: int, digits: list[int], values: list
    ) -> int | State | None:
        """Turn a normalized table entry into a successor."""
        if entry is None:
            return None
        if type(entry) is int:  # pure shift
            return code + entry
        tag, payload = entry
        if tag == "delta":
            successor = code
            for position, digit, weight in payload:
                successor += (digit - digits[position]) * weight
            return successor
        # Raw successor: rebuild the dict-engine State (old values plus
        # the recorded writes) so escapes/witnesses compare equal.
        merged = dict(zip(self._view._names, values))
        merged.update(payload)
        return State._adopt(merged)

    def _key_fn(self):
        """The read-projection key of a digit list, unrolled per arity.

        The key computation runs once per (state, action) on the sweep,
        so the generic reduce loop is specialized for the small arities
        the paper's locality structure produces (an edge action reads
        ``vars(v) | vars(w)`` — 2 to 4 variables).
        """
        pairs = self._read_pairs
        if len(pairs) == 0:
            return lambda digits: 0
        if len(pairs) == 1:
            ((p0, _),) = pairs
            return lambda digits: digits[p0]
        if len(pairs) == 2:
            (p0, _), (p1, r1) = pairs
            return lambda digits: digits[p0] * r1 + digits[p1]
        if len(pairs) == 3:
            (p0, _), (p1, r1), (p2, r2) = pairs
            return lambda digits: (digits[p0] * r1 + digits[p1]) * r2 + digits[p2]
        if len(pairs) == 4:
            (p0, _), (p1, r1), (p2, r2), (p3, r3) = pairs
            return lambda digits: (
                ((digits[p0] * r1 + digits[p1]) * r2 + digits[p2]) * r3
                + digits[p3]
            )

        def key_of(digits: list[int]) -> int:
            key = 0
            for position, radix in pairs:
                key = key * radix + digits[position]
            return key

        return key_of

    def _build_successor(self):
        """The action's ``(code, digits, values) -> successor`` closure.

        Returns ``None`` (disabled), an ``int`` (packed successor code),
        or a ``State`` (unpackable successor). Built per action so the
        hot path carries no mode branches: table-compiled actions bind
        their memo dict and key function directly; the memoized entry is
        normalized — a plain ``int`` shift (the overwhelmingly common
        case under the RW gate: every write is also a read) is applied
        with a single addition.
        """
        evaluate = self._evaluate
        apply_entry = self._apply_entry
        if self.mode != "table":

            def successor_direct(code: int, digits: list[int], values: list):
                return apply_entry(evaluate(code, digits, values), code, digits, values)

            return successor_direct

        table = self._table
        key_of = self._key_fn()

        def successor_table(code: int, digits: list[int], values: list):
            key = key_of(digits)
            entry = table.get(key, _MISSING)
            if type(entry) is int:  # pure shift: the hottest path
                return code + entry
            if entry is None:
                return None
            if entry is _MISSING:
                entry = evaluate(code, digits, values)
                table[key] = entry
                return apply_entry(entry, code, digits, values)
            return apply_entry(entry, code, digits, values)

        return successor_table


def compile_action(
    action: Action,
    codec: StateCodec,
    view: DigitStateView,
    battery: list[State],
) -> CompiledAction:
    """Compile one action, applying the RW soundness gate."""
    return CompiledAction(
        action,
        codec,
        view,
        supports_ok=action_supports_ok(action, battery),
    )


def probe_battery(program: Program) -> list[State]:
    """The deterministic probe battery used by the RW gate.

    The same battery :mod:`repro.staticcheck` uses, so "table-compiled"
    coincides with "lints clean on RW001-RW003".
    """
    return probe_states(program)
