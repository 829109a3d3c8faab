"""A small expression DSL for guards and assignments.

The core model takes guards and right-hand sides as opaque callables,
which forces every action to declare its read set by hand and to carry a
hand-written display name. This module provides symbolic expressions
that carry their own variable support and render themselves::

    from repro.core.expr import V, C

    x, y, z = V("x"), V("y"), V("z")
    guard = (x == y)                     # BoolExpr
    action = expr_action("lower-y", guard, {"y": x - 1}, process="y")

    action.reads == frozenset({"x", "y"})   # inferred
    action.guard.name == "(x = y)"          # rendered

Expressions evaluate against states via ``__call__``; boolean
expressions convert to :class:`~repro.core.predicates.Predicate` with
:meth:`BoolExpr.predicate`. The DSL is sugar — everything lowers to the
same :class:`~repro.core.actions.Action` objects the rest of the library
consumes — so hand-written and DSL-built protocols mix freely.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping
from typing import Any

from repro.core.actions import Action, Assignment
from repro.core.predicates import Predicate

__all__ = [
    "Expr", "BoolExpr", "V", "C", "ite", "min_", "max_", "expr_action",
    "walk_tokens",
]


def _and(a: Any, b: Any) -> Any:
    return a and b


def _or(a: Any, b: Any) -> Any:
    return a or b


def _not(a: Any, b: Any) -> Any:
    return not a


#: The operator behind each binary symbol. Every DSL-built node carries
#: exactly these functions, so a node's symbol determines its semantics;
#: :func:`walk_tokens` checks that before trusting a symbol.
_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "mod": operator.mod,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "and": _and,
    "or": _or,
}


class Expr:
    """A symbolic expression over program variables."""

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def __call__(self, state: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return _Binary(self, _lift(other), "+", _OPS["+"])

    def __radd__(self, other: Any) -> "Expr":
        return _Binary(_lift(other), self, "+", _OPS["+"])

    def __sub__(self, other: Any) -> "Expr":
        return _Binary(self, _lift(other), "-", _OPS["-"])

    def __rsub__(self, other: Any) -> "Expr":
        return _Binary(_lift(other), self, "-", _OPS["-"])

    def __mul__(self, other: Any) -> "Expr":
        return _Binary(self, _lift(other), "*", _OPS["*"])

    def __rmul__(self, other: Any) -> "Expr":
        return _Binary(_lift(other), self, "*", _OPS["*"])

    def __mod__(self, other: Any) -> "Expr":
        return _Binary(self, _lift(other), "mod", _OPS["mod"])

    # -- comparisons (produce BoolExpr) --------------------------------
    def __eq__(self, other: Any) -> "BoolExpr":  # type: ignore[override]
        return BoolExpr(self, _lift(other), "=", _OPS["="])

    def __ne__(self, other: Any) -> "BoolExpr":  # type: ignore[override]
        return BoolExpr(self, _lift(other), "!=", _OPS["!="])

    def __lt__(self, other: Any) -> "BoolExpr":
        return BoolExpr(self, _lift(other), "<", _OPS["<"])

    def __le__(self, other: Any) -> "BoolExpr":
        return BoolExpr(self, _lift(other), "<=", _OPS["<="])

    def __gt__(self, other: Any) -> "BoolExpr":
        return BoolExpr(self, _lift(other), ">", _OPS[">"])

    def __ge__(self, other: Any) -> "BoolExpr":
        return BoolExpr(self, _lift(other), ">=", _OPS[">="])

    __hash__ = object.__hash__  # identity; == is overloaded symbolically


class _Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def __call__(self, state: Mapping[str, Any]) -> Any:
        return state[self.name]

    def render(self) -> str:
        return self.name


class _Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __call__(self, state: Mapping[str, Any]) -> Any:
        return self.value

    def render(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


class _Binary(Expr):
    __slots__ = ("left", "right", "symbol", "op")

    def __init__(self, left: Expr, right: Expr, symbol: str,
                 op: Callable[[Any, Any], Any]) -> None:
        self.left = left
        self.right = right
        self.symbol = symbol
        self.op = op

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def __call__(self, state: Mapping[str, Any]) -> Any:
        return self.op(self.left(state), self.right(state))

    def render(self) -> str:
        return f"({self.left.render()} {self.symbol} {self.right.render()})"


class BoolExpr(_Binary):
    """A boolean-valued expression; supports ``&``, ``|``, ``~``."""

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return BoolExpr(self, other, "and", _OPS["and"])

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return BoolExpr(self, other, "or", _OPS["or"])

    def __invert__(self) -> "BoolExpr":
        return _Not(self)

    def predicate(self, *, name: str | None = None) -> Predicate:
        """Lower to a :class:`Predicate` with inferred support.

        The predicate keeps a reference to this expression in its
        ``source`` attribute, so static analysis can recompute the exact
        read set instead of trusting the declared support.
        """
        return Predicate(
            lambda state: bool(self(state)),
            name=name if name is not None else self.render(),
            support=self.variables(),
            source=self,
        )


class _Not(BoolExpr):
    def __init__(self, inner: BoolExpr) -> None:
        # A unary node wearing the binary interface: both sides inner.
        super().__init__(inner, inner, "not", _not)
        self.inner = inner

    def variables(self) -> frozenset[str]:
        return self.inner.variables()

    def __call__(self, state: Mapping[str, Any]) -> Any:
        return not self.inner(state)

    def render(self) -> str:
        return f"not {self.inner.render()}"


class _Ite(Expr):
    __slots__ = ("condition", "then", "otherwise")

    def __init__(self, condition: BoolExpr, then: Expr, otherwise: Expr) -> None:
        self.condition = condition
        self.then = then
        self.otherwise = otherwise

    def variables(self) -> frozenset[str]:
        return (
            self.condition.variables()
            | self.then.variables()
            | self.otherwise.variables()
        )

    def __call__(self, state: Mapping[str, Any]) -> Any:
        return self.then(state) if self.condition(state) else self.otherwise(state)

    def render(self) -> str:
        return (
            f"(if {self.condition.render()} then {self.then.render()} "
            f"else {self.otherwise.render()})"
        )


class _Fold(Expr):
    __slots__ = ("items", "op", "label")

    def __init__(self, items: tuple[Expr, ...], op: Callable, label: str) -> None:
        if not items:
            raise ValueError(f"{label} needs at least one operand")
        self.items = items
        self.op = op
        self.label = label

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for item in self.items:
            out |= item.variables()
        return out

    def __call__(self, state: Mapping[str, Any]) -> Any:
        return self.op(item(state) for item in self.items)

    def render(self) -> str:
        inner = ", ".join(item.render() for item in self.items)
        return f"{self.label}({inner})"


def V(name: str) -> Expr:
    """A variable reference."""
    return _Var(name)


def C(value: Any) -> Expr:
    """A constant."""
    return _Const(value)


def _lift(value: Any) -> Expr:
    return value if isinstance(value, Expr) else _Const(value)


def ite(condition: BoolExpr, then: Any, otherwise: Any) -> Expr:
    """If-then-else expression."""
    return _Ite(condition, _lift(then), _lift(otherwise))


def min_(*items: Any) -> Expr:
    """Minimum of the operands."""
    return _Fold(tuple(_lift(item) for item in items), min, "min")


def max_(*items: Any) -> Expr:
    """Maximum of the operands."""
    return _Fold(tuple(_lift(item) for item in items), max, "max")


def expr_action(
    name: str,
    guard: BoolExpr,
    updates: Mapping[str, Any],
    *,
    process: Any = None,
) -> Action:
    """Build an :class:`Action` from symbolic guard and updates.

    Read set, write set, and the guard's display name are all inferred
    from the expressions.
    """
    lifted = {target: _lift(rhs) for target, rhs in updates.items()}
    reads = set(guard.variables())
    for rhs in lifted.values():
        reads |= rhs.variables()
    reads |= set(lifted)  # written variables count as read-write state
    # Expressions are callables of the state, so they serve directly as
    # right-hand sides — and stay inspectable (``rhs.variables()``) for
    # static analysis, unlike an opaque wrapping lambda.
    effect = Assignment(dict(lifted))
    return Action(
        name,
        guard.predicate(),
        effect,
        reads=reads,
        process=process,
    )


#: Constant types whose ``repr`` is exact and process-independent.
_TOKEN_SCALARS = frozenset({type(None), bool, int, float, str})


def _token_constant(value: Any) -> bool:
    kind = type(value)
    if kind is tuple:
        return all(_token_constant(item) for item in value)
    return kind in _TOKEN_SCALARS


def walk_tokens(expr: Expr, names: dict[str, int], out: list[str]) -> bool:
    """Append an exact serialization of ``expr`` to ``out``, one token each.

    The tokens are the tree in prefix order: every operator has a fixed
    arity (a fold's is part of its token), so no brackets are needed.
    Variables are renamed by first use (``names`` maps each original
    name to its index, in insertion order), so two trees with the same
    tokens differ at most in their variable names; append the names to
    make the serialization exact. Returns ``False`` for anything whose
    semantics the tokens cannot capture: a node type outside the DSL, a
    binary node whose operator is not its symbol's, a custom fold, or a
    constant without an exact ``repr``. This is the one tokenizer of the
    DSL: the static discharger's proof memo and the verdict-cache keys
    of :mod:`repro.core.fingerprint` both use it.
    """
    # Exact-type dispatch: these are the DSL's only node types, and a
    # subclass someone slips in degrades to "not tokenizable", never to
    # a wrong token stream.
    kind = type(expr)
    if kind is BoolExpr or kind is _Binary:
        if _OPS.get(expr.symbol) is not expr.op:  # type: ignore[attr-defined]
            return False
        out.append(expr.symbol)  # type: ignore[attr-defined]
        return walk_tokens(expr.left, names, out) and walk_tokens(  # type: ignore[attr-defined]
            expr.right, names, out  # type: ignore[attr-defined]
        )
    if kind is _Var:
        index = names.get(expr.name)  # type: ignore[attr-defined]
        if index is None:
            index = len(names)
            names[expr.name] = index  # type: ignore[attr-defined]
        out.append(f"v{index}")
        return True
    if kind is _Const:
        value = expr.value  # type: ignore[attr-defined]
        value_kind = type(value)
        if value_kind not in _TOKEN_SCALARS and not _token_constant(value):
            return False
        out.append(f"c:{value_kind.__name__}:{value!r}")
        return True
    if kind is _Not:
        out.append("not")
        return walk_tokens(expr.inner, names, out)  # type: ignore[attr-defined]
    if kind is _Ite:
        out.append("ite")
        return (
            walk_tokens(expr.condition, names, out)  # type: ignore[attr-defined]
            and walk_tokens(expr.then, names, out)  # type: ignore[attr-defined]
            and walk_tokens(expr.otherwise, names, out)  # type: ignore[attr-defined]
        )
    if kind is _Fold and _FOLDS.get(expr.label) is expr.op:  # type: ignore[attr-defined]
        out.append(f"{expr.label}/{len(expr.items)}")  # type: ignore[attr-defined]
        return all(walk_tokens(item, names, out) for item in expr.items)  # type: ignore[attr-defined]
    return False


#: The folds :func:`min_` and :func:`max_` build, by label.
_FOLDS = {"min": min, "max": max}
