"""Abstract interpretation over the expression DSL.

The paper's side conditions (closure preservation, convergence in one
step, interference freedom — Sections 3 and 4) are implications between
guards, constraints, and post-states. The compositional certifier
discharges them by sweeping projected state spaces; this module proves
many of them *without any enumeration*, by evaluating the expressions
over abstract values instead of concrete states.

The abstract domain is a reduced product of three classic components,
keyed to the concrete :mod:`repro.core.domains`:

- **constant / finite-set**: the set of values a variable may hold,
  tracked exactly while small (:data:`VALUE_LIMIT`), dropped to the
  coarser components beyond that;
- **interval**: integer lower/upper bounds;
- **parity**: an even/odd bitmask for integer values.

Boolean questions are answered in three-valued logic — ``True``
(certainly holds in every concrete instance), ``False`` (certainly
fails), or ``None`` (don't know). Soundness is one-directional by
design: *don't know* never becomes a definite verdict, so a diagnostic
or a discharged obligation built on these answers is trustworthy, while
an opaque callable (no ``source`` expression) simply degrades to ⊤ and
leaves the obligation to the enumerative sweep.

Proof obligations that resist purely abstract evaluation fall back to a
*bounded case split*: a truth table over the free variables of the
expression itself (never the program's state space), capped at
:data:`DEFAULT_CASE_BUDGET` rows. This is the static analyzer's notion
of "zero enumeration" — the cost is a function of the formula, not of
the protocol size.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.core.domains import Domain, FiniteDomain, IntegerDomain
from repro.core.expr import (
    BoolExpr,
    Expr,
    _Binary,
    _Const,
    _Fold,
    _Ite,
    _Not,
    _Var,
    walk_tokens,
)

__all__ = [
    "VALUE_LIMIT",
    "DEFAULT_CASE_BUDGET",
    "AbstractValue",
    "TOP",
    "BOTTOM",
    "Proof",
    "AbstractContext",
    "eval_expr",
    "eval_bool",
    "assume",
    "substitute",
    "simplify",
    "exprs_equal",
]

#: Largest finite value set tracked exactly; larger sets collapse to the
#: interval/parity components.
VALUE_LIMIT = 64

#: Default cap on truth-table rows for the bounded case split.
DEFAULT_CASE_BUDGET = 32

_PARITY_EVEN = 1
_PARITY_ODD = 2
_PARITY_TOP = _PARITY_EVEN | _PARITY_ODD


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parity_of(value: int) -> int:
    return _PARITY_EVEN if value % 2 == 0 else _PARITY_ODD


@dataclass(frozen=True)
class AbstractValue:
    """One point of the reduced product lattice.

    Attributes:
        values: The finite set of possible values, or ``None`` when no
            finite enumeration (of size ≤ :data:`VALUE_LIMIT`) is known.
        lo: Integer lower bound, or ``None`` when unbounded/non-integer.
        hi: Integer upper bound, or ``None`` when unbounded/non-integer.
        parity: Bitmask of possible integer parities (1 = even may
            occur, 2 = odd may occur). ``3`` when unknown or when the
            value may be non-integer.
    """

    values: frozenset[Any] | None
    lo: int | None = None
    hi: int | None = None
    parity: int = _PARITY_TOP

    # -- constructors --------------------------------------------------
    @staticmethod
    def top() -> "AbstractValue":
        return TOP

    @staticmethod
    def bottom() -> "AbstractValue":
        return BOTTOM

    @staticmethod
    def of(*values: Any) -> "AbstractValue":
        """The abstraction of an explicit finite set of values."""
        return AbstractValue._from_set(frozenset(values))

    @staticmethod
    def _from_set(values: frozenset[Any]) -> "AbstractValue":
        if not values:
            return BOTTOM
        ints = [v for v in values if _is_int(v)]
        lo = min(ints) if ints and len(ints) == len(values) else None
        hi = max(ints) if ints and len(ints) == len(values) else None
        if ints and len(ints) == len(values):
            parity = 0
            for v in ints:
                parity |= _parity_of(v)
        else:
            parity = _PARITY_TOP
        if len(values) > VALUE_LIMIT:
            return AbstractValue(values=None, lo=lo, hi=hi, parity=parity)
        return AbstractValue(values=values, lo=lo, hi=hi, parity=parity)

    @staticmethod
    def interval(lo: int | None, hi: int | None,
                 parity: int = _PARITY_TOP) -> "AbstractValue":
        if lo is not None and hi is not None:
            if lo > hi or parity == 0:
                return BOTTOM
            if hi - lo + 1 <= VALUE_LIMIT:
                members = frozenset(
                    v for v in range(lo, hi + 1) if _parity_of(v) & parity
                )
                return AbstractValue._from_set(members)
        return AbstractValue(values=None, lo=lo, hi=hi, parity=parity)

    @staticmethod
    def from_domain(domain: Domain) -> "AbstractValue":
        """The abstraction of every value a concrete domain allows."""
        if isinstance(domain, FiniteDomain):
            return AbstractValue._from_set(frozenset(domain.values()))
        if isinstance(domain, IntegerDomain):
            return AbstractValue(values=None, lo=None, hi=None,
                                 parity=_PARITY_TOP)
        size = domain.size()
        if domain.is_finite and size is not None and size <= VALUE_LIMIT:
            return AbstractValue._from_set(frozenset(domain.values()))
        return TOP

    # -- lattice -------------------------------------------------------
    @property
    def is_bottom(self) -> bool:
        if self.values is not None:
            return not self.values
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            return True
        return self.parity == 0

    @property
    def is_singleton(self) -> bool:
        return self.values is not None and len(self.values) == 1

    @property
    def singleton(self) -> Any:
        if not self.is_singleton:
            raise ValueError("not a singleton abstract value")
        assert self.values is not None
        return next(iter(self.values))

    def join(self, other: "AbstractValue") -> "AbstractValue":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        if self.values is not None and other.values is not None:
            return AbstractValue._from_set(self.values | other.values)
        lo = None
        if self.lo is not None and other.lo is not None:
            lo = min(self.lo, other.lo)
        hi = None
        if self.hi is not None and other.hi is not None:
            hi = max(self.hi, other.hi)
        return AbstractValue(values=None, lo=lo, hi=hi,
                             parity=self.parity | other.parity)

    def meet(self, other: "AbstractValue") -> "AbstractValue":
        if self.is_bottom or other.is_bottom:
            return BOTTOM
        if self.values is not None and other.values is not None:
            return AbstractValue._from_set(self.values & other.values)
        if self.values is not None:
            return AbstractValue._from_set(
                frozenset(v for v in self.values if other.admits(v))
            )
        if other.values is not None:
            return AbstractValue._from_set(
                frozenset(v for v in other.values if self.admits(v))
            )
        lo = self.lo if other.lo is None else (
            other.lo if self.lo is None else max(self.lo, other.lo)
        )
        hi = self.hi if other.hi is None else (
            other.hi if self.hi is None else min(self.hi, other.hi)
        )
        parity = self.parity & other.parity
        if (lo is not None and hi is not None and lo > hi) or parity == 0:
            return BOTTOM
        return AbstractValue.interval(lo, hi, parity)

    def leq(self, other: "AbstractValue") -> bool:
        """Whether every concrete value this admits, ``other`` admits."""
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        if self.values is not None:
            return all(other.admits(v) for v in self.values)
        if other.values is not None:
            # A set-free value admits infinitely many (or unenumerated)
            # concretisations; a finite set cannot cover them unless the
            # interval pins everything down — stay conservative.
            return False
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        parity_ok = (self.parity | other.parity) == other.parity
        return lo_ok and hi_ok and parity_ok

    def admits(self, value: Any) -> bool:
        """Whether the concrete ``value`` is in this abstraction."""
        if self.values is not None:
            return value in self.values
        if not _is_int(value):
            # Interval/parity components only constrain integers.
            return self.lo is None and self.hi is None
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return bool(_parity_of(value) & self.parity)

    def __repr__(self) -> str:
        if self.is_bottom:
            return "AbstractValue(⊥)"
        if self.values is not None:
            inner = ", ".join(map(repr, sorted(self.values, key=repr)))
            return f"AbstractValue({{{inner}}})"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        par = {1: ", even", 2: ", odd", 3: ""}[self.parity or 3]
        return f"AbstractValue([{lo}, {hi}]{par})"


TOP = AbstractValue(values=None, lo=None, hi=None, parity=_PARITY_TOP)
BOTTOM = AbstractValue(values=frozenset(), lo=None, hi=None, parity=0)

_TRUE = AbstractValue.of(True)
_FALSE = AbstractValue.of(False)
_EITHER = AbstractValue.of(False, True)

_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_CONNECTIVES = frozenset({"and", "or", "not"})


def _pairwise(a: AbstractValue, b: AbstractValue, op: Any) -> AbstractValue | None:
    """Pointwise application over two finite sets when small enough."""
    if a.values is None or b.values is None:
        return None
    if len(a.values) * len(b.values) > VALUE_LIMIT * 4:
        return None
    out: set[Any] = set()
    for x in a.values:
        for y in b.values:
            try:
                out.add(op(x, y))
            except Exception:
                return None
    return AbstractValue._from_set(frozenset(out))


def _arith(a: AbstractValue, b: AbstractValue, symbol: str,
           op: Any) -> AbstractValue:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    exact = _pairwise(a, b, op)
    if exact is not None:
        return exact
    if symbol == "+":
        lo = a.lo + b.lo if a.lo is not None and b.lo is not None else None
        hi = a.hi + b.hi if a.hi is not None and b.hi is not None else None
        return AbstractValue.interval(lo, hi, _parity_add(a.parity, b.parity))
    if symbol == "-":
        lo = a.lo - b.hi if a.lo is not None and b.hi is not None else None
        hi = a.hi - b.lo if a.hi is not None and b.lo is not None else None
        return AbstractValue.interval(lo, hi, _parity_add(a.parity, b.parity))
    if symbol == "*":
        bounds = [x * y
                  for x in (a.lo, a.hi) for y in (b.lo, b.hi)
                  if x is not None and y is not None]
        if len(bounds) == 4:
            return AbstractValue.interval(
                min(bounds), max(bounds), _parity_mul(a.parity, b.parity)
            )
        return AbstractValue(values=None, lo=None, hi=None,
                             parity=_parity_mul(a.parity, b.parity))
    if symbol == "mod" and b.is_singleton:
        k = b.singleton
        if _is_int(k) and k > 0:
            return AbstractValue.interval(0, k - 1)
    return TOP


def _parity_add(p: int, q: int) -> int:
    out = 0
    if p & _PARITY_EVEN and q & _PARITY_EVEN:
        out |= _PARITY_EVEN
    if p & _PARITY_ODD and q & _PARITY_ODD:
        out |= _PARITY_EVEN
    if p & _PARITY_EVEN and q & _PARITY_ODD:
        out |= _PARITY_ODD
    if p & _PARITY_ODD and q & _PARITY_EVEN:
        out |= _PARITY_ODD
    return out or _PARITY_TOP


def _parity_mul(p: int, q: int) -> int:
    out = 0
    if p & _PARITY_EVEN or q & _PARITY_EVEN:
        out |= _PARITY_EVEN
    if p & _PARITY_ODD and q & _PARITY_ODD:
        out |= _PARITY_ODD
    return out or _PARITY_TOP


def _compare(a: AbstractValue, b: AbstractValue, symbol: str) -> bool | None:
    """Three-valued comparison between abstractions."""
    if a.is_bottom or b.is_bottom:
        return None
    if symbol == "=":
        if a.is_singleton and b.is_singleton:
            return bool(a.singleton == b.singleton)
        if a.meet(b).is_bottom:
            return False
        return None
    if symbol == "!=":
        eq = _compare(a, b, "=")
        return None if eq is None else not eq
    # Ordered comparisons need numeric bounds on both sides.
    a_lo, a_hi = _numeric_bounds(a)
    b_lo, b_hi = _numeric_bounds(b)
    if a_lo is None and a_hi is None and b_lo is None and b_hi is None:
        return None
    if symbol == "<":
        if a_hi is not None and b_lo is not None and a_hi < b_lo:
            return True
        if a_lo is not None and b_hi is not None and a_lo >= b_hi:
            return False
        return None
    if symbol == "<=":
        if a_hi is not None and b_lo is not None and a_hi <= b_lo:
            return True
        if a_lo is not None and b_hi is not None and a_lo > b_hi:
            return False
        return None
    if symbol == ">":
        return _compare(b, a, "<")
    if symbol == ">=":
        return _compare(b, a, "<=")
    return None


def _numeric_bounds(a: AbstractValue) -> tuple[Any, Any]:
    if a.values is not None:
        try:
            return min(a.values), max(a.values)
        except TypeError:
            return None, None
    return a.lo, a.hi


def eval_expr(expr: Expr, env: Mapping[str, AbstractValue]) -> AbstractValue:
    """Abstractly evaluate ``expr`` under ``env`` (missing vars are ⊤)."""
    if isinstance(expr, _Var):
        return env.get(expr.name, TOP)
    if isinstance(expr, _Const):
        return AbstractValue.of(expr.value)
    if isinstance(expr, _Not):
        truth = eval_bool(expr.inner, env)
        if truth is None:
            return _EITHER
        return _FALSE if truth else _TRUE
    if isinstance(expr, BoolExpr):
        truth = eval_bool(expr, env)
        if truth is None:
            return _EITHER
        return _TRUE if truth else _FALSE
    if isinstance(expr, _Binary):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        return _arith(left, right, expr.symbol, expr.op)
    if isinstance(expr, _Ite):
        truth = eval_bool(expr.condition, env)
        if truth is True:
            return eval_expr(expr.then, env)
        if truth is False:
            return eval_expr(expr.otherwise, env)
        return eval_expr(expr.then, env).join(eval_expr(expr.otherwise, env))
    if isinstance(expr, _Fold):
        parts = [eval_expr(item, env) for item in expr.items]
        if any(p.is_bottom for p in parts):
            return BOTTOM
        if all(p.values is not None for p in parts):
            combos = 1
            for p in parts:
                combos *= len(p.values)  # type: ignore[arg-type]
            if combos <= VALUE_LIMIT * 4:
                out: set[Any] = set()
                for choice in itertools.product(
                    *(p.values for p in parts)  # type: ignore[misc]
                ):
                    try:
                        out.add(expr.op(iter(choice)))
                    except Exception:
                        return TOP
                return AbstractValue._from_set(frozenset(out))
        los = [p.lo for p in parts]
        his = [p.hi for p in parts]
        if expr.label == "min":
            lo = min((x for x in los if x is not None), default=None)
            lo = lo if all(x is not None for x in los) else None
            hi = min((x for x in his if x is not None), default=None)
            return AbstractValue.interval(lo, hi)
        if expr.label == "max":
            lo = max((x for x in los if x is not None), default=None)
            hi = max((x for x in his if x is not None), default=None)
            hi = hi if all(x is not None for x in his) else None
            return AbstractValue.interval(lo, hi)
        return TOP
    return TOP


def eval_bool(expr: Expr, env: Mapping[str, AbstractValue]) -> bool | None:
    """Three-valued truth of a boolean expression under ``env``."""
    if isinstance(expr, _Not):
        inner = eval_bool(expr.inner, env)
        return None if inner is None else not inner
    if isinstance(expr, BoolExpr):
        if expr.symbol == "and":
            left = eval_bool(expr.left, env)
            right = eval_bool(expr.right, env)
            if left is False or right is False:
                return False
            if left is True and right is True:
                return True
            return None
        if expr.symbol == "or":
            left = eval_bool(expr.left, env)
            right = eval_bool(expr.right, env)
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        if expr.symbol in _COMPARISONS:
            left = eval_expr(expr.left, env)
            right = eval_expr(expr.right, env)
            return _compare(left, right, expr.symbol)
    value = eval_expr(expr, env)
    if value.is_singleton:
        return bool(value.singleton)
    if value.values is not None and not any(bool(v) for v in value.values):
        return False
    if value.values is not None and all(bool(v) for v in value.values):
        return True
    return None


def assume(expr: Expr, env: Mapping[str, AbstractValue],
           truth: bool = True) -> dict[str, AbstractValue]:
    """Refine ``env`` under the assumption that ``expr`` is ``truth``.

    Sound but incomplete: only variable-vs-expression comparisons and
    the boolean connectives refine anything; everything else returns the
    environment unchanged. The result always over-approximates the set
    of concrete states satisfying the assumption.
    """
    out = dict(env)
    _assume_into(expr, out, truth)
    return out


def _assume_into(expr: Expr, env: dict[str, AbstractValue],
                 truth: bool) -> None:
    if isinstance(expr, _Not):
        _assume_into(expr.inner, env, not truth)
        return
    if not isinstance(expr, BoolExpr):
        return
    if expr.symbol == "and":
        if truth:
            _assume_into(expr.left, env, True)
            _assume_into(expr.right, env, True)
        return
    if expr.symbol == "or":
        if not truth:
            _assume_into(expr.left, env, False)
            _assume_into(expr.right, env, False)
        return
    if expr.symbol not in _COMPARISONS:
        return
    symbol = expr.symbol if truth else _negate_symbol(expr.symbol)
    left, right = expr.left, expr.right
    if isinstance(right, _Var) and not isinstance(left, _Var):
        left, right = right, left
        symbol = _flip_symbol(symbol)
    if not isinstance(left, _Var):
        return
    other = eval_expr(right, env)
    current = env.get(left.name, TOP)
    refined = _refine(current, other, symbol)
    env[left.name] = refined
    if isinstance(right, _Var) and symbol == "=":
        env[right.name] = env.get(right.name, TOP).meet(current)


def _negate_symbol(symbol: str) -> str:
    return {"=": "!=", "!=": "=", "<": ">=", "<=": ">",
            ">": "<=", ">=": "<"}[symbol]


def _flip_symbol(symbol: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}[symbol]


def _refine(current: AbstractValue, other: AbstractValue,
            symbol: str) -> AbstractValue:
    if symbol == "=":
        return current.meet(other)
    if symbol == "!=":
        if other.is_singleton and current.values is not None:
            excluded = other.singleton
            return AbstractValue._from_set(
                frozenset(v for v in current.values if v != excluded)
            )
        return current
    lo, hi = _numeric_bounds(other)
    if symbol == "<" and hi is not None and _is_int(hi):
        return current.meet(AbstractValue.interval(None, hi - 1))
    if symbol == "<=" and hi is not None and _is_int(hi):
        return current.meet(AbstractValue.interval(None, hi))
    if symbol == ">" and lo is not None and _is_int(lo):
        return current.meet(AbstractValue.interval(lo + 1, None))
    if symbol == ">=" and lo is not None and _is_int(lo):
        return current.meet(AbstractValue.interval(lo, None))
    return current


# -- structural manipulation ------------------------------------------


class _Opaque(Exception):
    """Raised internally when an expression node cannot be handled."""


def exprs_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of two DSL expressions.

    ``False`` means "not syntactically identical", never "semantically
    different" — callers must treat it as *don't know*.
    """
    if a is b:
        return True
    if isinstance(a, _Var) and isinstance(b, _Var):
        return a.name == b.name
    if isinstance(a, _Const) and isinstance(b, _Const):
        return bool(a.value == b.value) and type(a.value) is type(b.value)
    if isinstance(a, _Not) and isinstance(b, _Not):
        return exprs_equal(a.inner, b.inner)
    if isinstance(a, _Not) or isinstance(b, _Not):
        return False
    if isinstance(a, _Binary) and isinstance(b, _Binary):
        return (
            a.symbol == b.symbol
            and type(a) is type(b)
            and exprs_equal(a.left, b.left)
            and exprs_equal(a.right, b.right)
        )
    if isinstance(a, _Ite) and isinstance(b, _Ite):
        return (
            exprs_equal(a.condition, b.condition)
            and exprs_equal(a.then, b.then)
            and exprs_equal(a.otherwise, b.otherwise)
        )
    if isinstance(a, _Fold) and isinstance(b, _Fold):
        return (
            a.label == b.label
            and len(a.items) == len(b.items)
            and all(exprs_equal(x, y) for x, y in zip(a.items, b.items))
        )
    return False


def substitute(expr: Expr, updates: Mapping[str, Expr]) -> Expr | None:
    """Substitute ``updates`` into ``expr`` (weakest-precondition step).

    Returns the expression with every ``_Var`` named in ``updates``
    replaced by its right-hand side, or ``None`` when the expression
    contains a node kind substitution cannot rebuild (sound degradation
    to *don't know*).
    """
    try:
        return _substitute(expr, updates)
    except _Opaque:
        return None


def _substitute(expr: Expr, updates: Mapping[str, Expr]) -> Expr:
    if isinstance(expr, _Var):
        return updates.get(expr.name, expr)
    if isinstance(expr, _Const):
        return expr
    if isinstance(expr, _Not):
        inner = _substitute(expr.inner, updates)
        if not isinstance(inner, BoolExpr):
            raise _Opaque
        return _Not(inner)
    if isinstance(expr, BoolExpr):
        return BoolExpr(
            _substitute(expr.left, updates),
            _substitute(expr.right, updates),
            expr.symbol,
            expr.op,
        )
    if isinstance(expr, _Binary):
        return _Binary(
            _substitute(expr.left, updates),
            _substitute(expr.right, updates),
            expr.symbol,
            expr.op,
        )
    if isinstance(expr, _Ite):
        condition = _substitute(expr.condition, updates)
        if not isinstance(condition, BoolExpr):
            raise _Opaque
        return _Ite(
            condition,
            _substitute(expr.then, updates),
            _substitute(expr.otherwise, updates),
        )
    if isinstance(expr, _Fold):
        return _Fold(
            tuple(_substitute(item, updates) for item in expr.items),
            expr.op,
            expr.label,
        )
    raise _Opaque


def _is_pure(expr: Expr) -> bool:
    """Whether the expression is built only from known node kinds.

    Purity licenses the reflexivity rewrite ``e = e → true``: known
    nodes are deterministic and side-effect free.
    """
    if isinstance(expr, (_Var, _Const)):
        return True
    if isinstance(expr, _Not):
        return _is_pure(expr.inner)
    if isinstance(expr, _Binary):
        return _is_pure(expr.left) and _is_pure(expr.right)
    if isinstance(expr, _Ite):
        return (
            _is_pure(expr.condition)
            and _is_pure(expr.then)
            and _is_pure(expr.otherwise)
        )
    if isinstance(expr, _Fold):
        return all(_is_pure(item) for item in expr.items)
    return False


def _const_of(expr: Expr) -> Any:
    if isinstance(expr, _Const):
        return expr.value
    raise _Opaque


def simplify(expr: Expr) -> Expr:
    """Bottom-up simplification: constant folding, reflexivity, units."""
    if isinstance(expr, _Var):
        return expr
    if isinstance(expr, _Const):
        return expr
    if isinstance(expr, _Not):
        inner = simplify(expr.inner)
        if isinstance(inner, _Const):
            return _Const(not inner.value)
        if isinstance(inner, BoolExpr):
            return _Not(inner)
        return expr
    if isinstance(expr, _Binary):
        left = simplify(expr.left)
        right = simplify(expr.right)
        if isinstance(left, _Const) and isinstance(right, _Const):
            try:
                folded = expr.op(left.value, right.value)
            except Exception:
                folded = _Opaque
            if folded is not _Opaque:
                return _Const(folded)
        if expr.symbol == "=" and _is_pure(left) and _is_pure(
            right
        ) and exprs_equal(left, right):
            return _Const(True)
        if expr.symbol == "!=" and _is_pure(left) and _is_pure(
            right
        ) and exprs_equal(left, right):
            return _Const(False)
        if expr.symbol == "and":
            if isinstance(left, _Const):
                return right if left.value else _Const(False)
            if isinstance(right, _Const):
                return left if right.value else _Const(False)
        if expr.symbol == "or":
            if isinstance(left, _Const):
                return _Const(True) if left.value else right
            if isinstance(right, _Const):
                return _Const(True) if right.value else left
        cls = BoolExpr if isinstance(expr, BoolExpr) else _Binary
        return cls(left, right, expr.symbol, expr.op)
    if isinstance(expr, _Ite):
        condition = simplify(expr.condition)
        if isinstance(condition, _Const):
            return simplify(expr.then if condition.value else expr.otherwise)
        then = simplify(expr.then)
        otherwise = simplify(expr.otherwise)
        if isinstance(condition, BoolExpr):
            return _Ite(condition, then, otherwise)
        return expr
    if isinstance(expr, _Fold):
        items = tuple(simplify(item) for item in expr.items)
        if all(isinstance(item, _Const) for item in items):
            try:
                return _Const(expr.op(item.value for item in items))  # type: ignore[union-attr]
            except Exception:
                pass
        return _Fold(items, expr.op, expr.label)
    return expr


def _is_const_true(expr: Expr) -> bool:
    return isinstance(expr, _Const) and expr.value is True


def _is_const_false(expr: Expr) -> bool:
    return isinstance(expr, _Const) and (
        expr.value is False or expr.value is None or expr.value == 0
    ) and not isinstance(expr.value, str)


def _canonical_tokens(expr: Expr, names: dict[str, int]) -> str | None:
    """A serialization of ``expr`` with variables renamed by first use.

    Two expressions with the same tokens differ only in variable names
    (``names`` maps each original name to its first-use index, in
    insertion order), so a proof of one transfers to the other provided
    the variables' domains agree — the key fact behind the proof cache.
    Returns ``None`` for node kinds whose semantics the tokens cannot
    capture (custom folds, unknown nodes); those are never cached.
    """
    out: list[str] = []
    if walk_tokens(expr, names, out):
        return "\x00".join(out)
    return None


@dataclass(frozen=True)
class Proof:
    """Evidence that a proof obligation was discharged statically.

    Attributes:
        rule: Which route succeeded — ``"simplify"`` (structural
            rewriting reached a constant), ``"abstract"`` (three-valued
            evaluation over the variable domains was definite), or
            ``"case-split"`` (bounded truth table over the formula's
            own variables).
        cases: Number of truth-table rows evaluated (0 for the
            enumeration-free routes).
    """

    rule: str
    cases: int

    def as_dict(self) -> dict[str, Any]:
        return {"rule": self.rule, "cases": self.cases}


class AbstractContext:
    """Proof context binding variable names to their concrete domains."""

    def __init__(self, domains: Mapping[str, Domain]) -> None:
        self._domains = dict(domains)
        self._env: dict[str, AbstractValue] = {
            name: AbstractValue.from_domain(domain)
            for name, domain in self._domains.items()
        }

    @property
    def env(self) -> dict[str, AbstractValue]:
        """A fresh copy of the domain-initial abstract environment."""
        return dict(self._env)

    def domain_value(self, name: str) -> AbstractValue:
        return self._env.get(name, TOP)

    def domain(self, name: str) -> Domain | None:
        return self._domains.get(name)

    # -- proving -------------------------------------------------------
    def prove_valid(self, expr: Expr, *,
                    budget: int = DEFAULT_CASE_BUDGET) -> Proof | None:
        """Prove ``expr`` true for every assignment of its variables.

        Tries, in order: structural simplification to the constant
        ``True``; definite abstract evaluation over the variable
        domains; a bounded truth table over the expression's own
        variables. Returns ``None`` (don't know) when all three fail —
        never a refutation.
        """
        reduced = simplify(expr)
        if _is_const_true(reduced):
            return Proof("simplify", 0)
        if isinstance(reduced, _Const):
            return None
        if eval_bool(reduced, self._env) is True:
            return Proof("abstract", 0)
        cases = self._case_split(reduced, budget, want=True)
        if cases is not None:
            return Proof("case-split", cases)
        return None

    def prove_unsat(self, expr: Expr, *,
                    budget: int = DEFAULT_CASE_BUDGET) -> Proof | None:
        """Prove ``expr`` false for every assignment of its variables."""
        reduced = simplify(expr)
        if _is_const_false(reduced):
            return Proof("simplify", 0)
        if isinstance(reduced, _Const):
            return None
        if eval_bool(reduced, self._env) is False:
            return Proof("abstract", 0)
        cases = self._case_split(reduced, budget, want=False)
        if cases is not None:
            return Proof("case-split", cases)
        return None

    def find_witness(self, expr: Expr, *,
                     budget: int = DEFAULT_CASE_BUDGET
                     ) -> dict[str, Any] | None:
        """A concrete assignment making ``expr`` true, if the bounded
        search finds one. ``None`` means *not found*, not *unsat*."""
        rows = self._rows(expr, budget)
        if rows is None:
            return None
        for row in rows:
            try:
                if bool(expr(row)):
                    return row
            except Exception:
                return None
        return None

    def _case_split(self, expr: Expr, budget: int,
                    *, want: bool) -> int | None:
        rows = self._rows(expr, budget)
        if rows is None:
            return None
        count = 0
        for row in rows:
            count += 1
            try:
                value = bool(expr(row))
            except Exception:
                return None
            if value is not want:
                return None
        return count

    def _rows(self, expr: Expr,
              budget: int) -> list[dict[str, Any]] | None:
        """Every assignment of the expression's variables, if affordable.

        This is a truth table over the *formula*, independent of the
        program's state space — the certificate records its size in
        ``cases`` so "zero enumeration" stays honest.
        """
        names = sorted(expr.variables())
        if not names:
            return [{}]
        columns: list[tuple[str, list[Any]]] = []
        total = 1
        for name in names:
            domain = self._domains.get(name)
            if domain is None or not domain.is_finite:
                return None
            size = domain.size()
            if size is None:
                return None
            total *= size
            if total > budget:
                return None
            columns.append((name, list(domain.values())))
        rows = []
        for choice in itertools.product(*(vals for _, vals in columns)):
            rows.append({name: value
                         for (name, _), value in zip(columns, choice)})
        return rows
