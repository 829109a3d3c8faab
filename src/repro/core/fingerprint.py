"""Exact, content-addressed fingerprints of programs, predicates and instances.

The verification service caches transition systems and verdicts keyed by
*what is being verified*, not by object identity: two calls that build
the same protocol instance must hit the same cache entry, and any change
to the instance — a variable, a domain, an action guard or statement, a
predicate — must miss it. The paper reduces tolerance to a question
about the program text (its actions, constraints and constraint graph),
so the key is built from that text alone. No state is ever evaluated:
the cost of a key depends only on the size of the program, never on its
state space.

Every key is one of two kinds:

- **exact** — a 64-hex-digit SHA-256 of a token stream that determines
  the instance's behaviour. Exact keys are stable across processes and
  sessions, so the :class:`~repro.verification.store.VerdictStore`
  persists verdicts under them.
- **local** — ``"local-"`` plus such a digest, made when some object in
  the instance has no exact serialization. That object stands in the
  stream as a per-process counter handed out by a :class:`LocalKeys`
  registry, which holds the object so its identity cannot be reused.
  A local key is valid only inside the process (and the registry) that
  made it: it is never persisted or ingested across processes.

:func:`derive_key` qualifies a key with further tokens (a fault rate,
say) without walking the program again; the derived key keeps the kind
of the key it came from. :func:`one_off_key` derives a local key that
no other call returns, for a request no later one may share.

What the stream contains, by object:

- **DSL trees** (:mod:`repro.core.expr`): the exact-type token walk
  :func:`~repro.core.expr.walk_tokens`, followed by the tree's variable
  names in first-use order.
- **Predicates**: the name, the support, the evaluation function, and the
  ``source`` and ``parts`` trees the vectorized engines evaluate instead.
  For the DSL's lowering and the combinators' own lambdas the closure
  holds exactly ``source``/``parts``, so hashing both costs one
  back-reference.
- **Programs, actions, assignments, variables**: every field, in order.
- **Functions**: the code object recursively (bytecode, names, constants
  including nested code), defaults, closure-cell contents and every
  global the code loads.
- **Values**: scalars by type and ``repr``; tuples, lists and dicts in
  order; sets and frozensets sorted; modules and classes by qualified
  name; frozen dataclasses (constraints, bindings, graph nodes) by their
  fields, and classes that declare ``_fingerprint_fields`` (domains,
  graphs, rings, trees, designs) by those attributes.

An object reached twice in one key is written once and then referred to
by position, which also makes cycles finite. Nothing in an exact key
comes from ``hash()`` or ``id()``.
"""

from __future__ import annotations

import dataclasses
import dis
import functools
import hashlib
import inspect
import itertools
import random
import types
from typing import Any

from repro.core.actions import Action, Assignment
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
from repro.core.predicates import Predicate, all_of, any_of, count_of
from repro.core.program import Program
from repro.core.state import State
from repro.core.variables import Variable

__all__ = [
    "LocalKeys",
    "derive_key",
    "fingerprint_program",
    "fingerprint_predicate",
    "fingerprint_instance",
    "is_trusted",
    "key_kind",
    "one_off_key",
    "probe_states",
]

#: Number of states :func:`probe_states` returns by default.
PROBE_STATES = 32

#: Values drawn per infinite domain when building probe states.
_INFINITE_DOMAIN_DRAWS = 8

#: Fixed seed for infinite-domain draws — probe batteries must be stable
#: across processes and sessions.
_PROBE_SEED = 0x5EED

#: The prefix that marks a process-local key.
_LOCAL_PREFIX = "local-"


def probe_states(program: Program, *, limit: int = PROBE_STATES) -> list[State]:
    """A deterministic battery of states of ``program``.

    States are built directly from the domains (value ``(j * (i + 3) + i)
    mod |D_i|`` of variable ``i`` in probe state ``j``), so the cost does
    not depend on the size of the full state space and unbounded domains
    are supported through their seeded sampling windows. Static analysis
    uses the battery to probe opaque callables; cache keys do not.
    """
    variables = list(program.variables.values())
    if not variables:
        return []
    rng = random.Random(_PROBE_SEED)
    per_variable: list[list[Any]] = []
    for variable in variables:
        if variable.domain.is_finite:
            values = list(variable.domain.values())
        else:
            values = [
                variable.domain.sample(rng) for _ in range(_INFINITE_DOMAIN_DRAWS)
            ]
        per_variable.append(values)
    states = []
    for j in range(limit):
        values = {
            variable.name: per_variable[i][(j * (i + 3) + i) % len(per_variable[i])]
            for i, variable in enumerate(variables)
        }
        states.append(State(values))
    return states


# ----------------------------------------------------------------------
# Local keys
# ----------------------------------------------------------------------

#: One counter per process, so local keys of different registries differ.
_LOCAL_COUNTER = itertools.count(1)


class LocalKeys:
    """The identity registry behind process-local keys.

    Each object without an exact serialization gets a number from a
    per-process counter the first time it is seen, and keeps it for the
    registry's lifetime. The registry holds the object, so no other
    object can take over its identity while a key that names it is in
    use. A :class:`~repro.verification.service.VerificationService` owns
    one for its lifetime; a key computed without a registry uses a fresh
    one, so it never equals another key.
    """

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held: dict[int, tuple[Any, int]] = {}

    def number(self, obj: Any) -> int:
        """The counter value standing for ``obj``."""
        held = self._held.get(id(obj))
        if held is None:
            held = (obj, next(_LOCAL_COUNTER))
            self._held[id(obj)] = held
        return held[1]


def key_kind(key: str) -> str:
    """``"local"`` for a process-local key, else ``"exact"``."""
    return "local" if key.startswith(_LOCAL_PREFIX) else "exact"


def derive_key(key: str, *tokens: str) -> str:
    """A key for ``key``'s instance qualified by ``tokens``.

    SHA-256 over ``key`` and the tokens, in constant time whatever the
    size of the program behind ``key``. The derived key is local exactly
    when ``key`` is: it names the same objects.
    """
    digest = hashlib.sha256(
        "\x00".join(("derive", key, *tokens)).encode()
    ).hexdigest()
    return _LOCAL_PREFIX + digest if key_kind(key) == "local" else digest


def one_off_key(key: str) -> str:
    """A process-local key derived from ``key`` that no other call returns.

    For a request whose input has no exact serialization and is not
    worth holding for a registry's lifetime (a supplied state list the
    codec cannot encode): its record is filed under a key no later
    request computes, and never persisted.
    """
    token = f"once#{next(_LOCAL_COUNTER)}"
    digest = hashlib.sha256("\x00".join((token, key)).encode()).hexdigest()
    return _LOCAL_PREFIX + digest


# ----------------------------------------------------------------------
# Code objects
# ----------------------------------------------------------------------

#: Opcodes that read a module global (or builtin) by name.
_GLOBAL_OPS = frozenset({"LOAD_GLOBAL", "LOAD_NAME", "LOAD_FROM_DICT_OR_GLOBALS"})

#: Code object -> (digest, global names it uses). Keyed by identity and
#: holding the code object, so an identity is never reused while cached.
_CODE_CACHE: dict[int, tuple[types.CodeType, str, tuple[str, ...]]] = {}

#: Entries kept before the code cache starts over (dynamically compiled
#: code would otherwise grow it without bound).
_CODE_CACHE_LIMIT = 4096


def _code_entry(code: types.CodeType) -> tuple[str, tuple[str, ...]] | None:
    """The digest of ``code`` and the globals it (or nested code) uses.

    Covers what the code does, not where it was written: no name, file
    or line number, and no ``CO_NESTED`` flag (a lambda in a function
    behaves like the same lambda at module level). ``None`` when a
    constant has no exact serialization.
    """
    cached = _CODE_CACHE.get(id(code))
    if cached is not None:
        return cached[1], cached[2]
    hasher = _Hasher(None)
    out = hasher.out
    out.append(code.co_code.hex())
    out.append(repr(code.co_names))
    out.append(repr(code.co_varnames))
    out.append(repr(code.co_freevars))
    out.append(repr(code.co_cellvars))
    out.append(
        f"{code.co_argcount},{code.co_posonlyargcount},"
        f"{code.co_kwonlyargcount},{code.co_flags & ~inspect.CO_NESTED}"
    )
    names = {
        instruction.argval
        for instruction in dis.get_instructions(code)
        if instruction.opname in _GLOBAL_OPS
    }
    for constant in code.co_consts:
        if type(constant) is types.CodeType:
            nested = _code_entry(constant)
            if nested is None:
                return None
            out.append(nested[0])
            names.update(nested[1])
        else:
            hasher.value(constant)
    if hasher.local:
        return None
    entry = (hasher.digest(), tuple(sorted(names)))
    if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
        _CODE_CACHE.clear()
    _CODE_CACHE[id(code)] = (code, *entry)
    return entry


# ----------------------------------------------------------------------
# The hasher
# ----------------------------------------------------------------------

#: Types serialized as ``type:repr`` — their ``repr`` is exact and
#: process-independent — with their token prefixes.
_SCALARS = {
    kind: f"{kind.__name__}:"
    for kind in (
        type(None), bool, int, float, complex, str, bytes, range, type(Ellipsis)
    )
}


@functools.lru_cache(maxsize=256)
def _content_fields(kind: type) -> tuple[str, ...] | None:
    """The attributes that make up an instance of ``kind``, if declared.

    A class's own ``_fingerprint_fields``, else the fields of a frozen
    dataclass. Looked up on the class itself, never inherited: a
    subclass may change behaviour its base's fields do not show.
    """
    fields = kind.__dict__.get("_fingerprint_fields")
    if fields is not None:
        return tuple(fields)
    params = kind.__dict__.get("__dataclass_params__")
    if params is not None and params.frozen:
        return tuple(field.name for field in dataclasses.fields(kind))
    return None


class _Hasher:
    """One key's token stream."""

    __slots__ = ("out", "local", "_keys", "_seen", "_alive")

    def __init__(self, keys: LocalKeys | None) -> None:
        self.out: list[str] = []
        #: Whether some object was serialized by identity.
        self.local = False
        self._keys = keys
        #: id -> position of every non-scalar object written so far.
        self._seen: dict[int, int] = {}
        #: Keeps those objects alive, so their ids stay theirs.
        self._alive: list[Any] = []

    def digest(self) -> str:
        digest = hashlib.sha256("\x00".join(self.out).encode()).hexdigest()
        return _LOCAL_PREFIX + digest if self.local else digest

    def _registry(self) -> LocalKeys:
        if self._keys is None:
            self._keys = LocalKeys()
        return self._keys

    def opaque(self, obj: Any) -> None:
        """Write ``obj`` by identity: the key becomes local."""
        self.local = True
        self.out.append(f"local#{self._registry().number(obj)}")

    def value(self, obj: Any) -> None:
        kind = type(obj)
        prefix = _SCALARS.get(kind)
        if prefix is not None:
            self.out.append(prefix + repr(obj))
            return
        seen = self._seen
        position = seen.get(id(obj))
        if position is not None:
            self.out.append(f"@{position}")
            return
        seen[id(obj)] = len(seen)
        self._alive.append(obj)
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self, obj)
            return
        fields = _content_fields(kind)
        if fields is not None:
            self._class(kind)
            for name in fields:
                self.value(getattr(obj, name))
            return
        if isinstance(obj, type):
            self._class(obj)
            return
        self.opaque(obj)

    # -- containers ----------------------------------------------------
    def _sequence(self, obj: tuple | list) -> None:
        self.out.append(f"{type(obj).__name__}[{len(obj)}")
        for item in obj:
            self.value(item)
        self.out.append("]")

    def _dict(self, obj: dict) -> None:
        self.out.append(f"dict[{len(obj)}")
        for key, item in obj.items():
            self.value(key)
            self.value(item)
        self.out.append("]")

    def _set(self, obj: set | frozenset) -> None:
        # Iteration order of a set depends on the hash seed: sort.
        if all(type(item) in _SCALARS for item in obj):
            items = sorted(_SCALARS[type(item)] + repr(item) for item in obj)
        else:
            items = []
            for item in obj:
                nested = _Hasher(self._registry())
                nested.value(item)
                self.local = self.local or nested.local
                items.append(nested.digest())
            items.sort()
        self.out.append(f"{type(obj).__name__}[{len(items)}")
        self.out.extend(items)
        self.out.append("]")

    # -- code ----------------------------------------------------------
    def _class(self, cls: type) -> None:
        if "<locals>" in cls.__qualname__:
            # Defined inside a function: the name does not pin the body.
            self.opaque(cls)
            return
        self.out.append(f"class:{cls.__module__}.{cls.__qualname__}")

    def _function(self, fn: types.FunctionType) -> None:
        entry = _code_entry(fn.__code__)
        if entry is None:
            self.opaque(fn)
            return
        digest, names = entry
        self.out.append(f"fn:{digest}")
        self.value(fn.__defaults__)
        self.value(fn.__kwdefaults__)
        for cell in fn.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:
                self.out.append("cell:empty")
                continue
            self.value(contents)
        namespace = fn.__globals__
        for name in names:
            self.out.append(f"global:{name}")
            if name in namespace:
                self.value(namespace[name])
            elif name in fn.__builtins__:
                self.value(fn.__builtins__[name])
            else:
                self.out.append("unbound")

    def _builtin(self, fn: types.BuiltinFunctionType) -> None:
        owner = fn.__self__
        self.out.append(f"builtin:{fn.__module__}.{fn.__qualname__}")
        if owner is not None and type(owner) is not types.ModuleType:
            self.value(owner)

    def _module(self, module: types.ModuleType) -> None:
        self.out.append(f"module:{module.__name__}")

    # -- the model -----------------------------------------------------
    def _expr(self, expr: Expr) -> None:
        out = self.out
        out.append("expr")
        start = len(out)
        names: dict[str, int] = {}
        if not walk_tokens(expr, names, out):
            del out[start:]
            self.opaque(expr)
            return
        out.append(repr(tuple(names)))

    def _predicate(self, predicate: Predicate) -> None:
        self.out.append(f"predicate:{predicate.name!r}")
        support = predicate.support
        self.out.append(repr(sorted(support)) if support is not None else "?")
        self.value(predicate.source)
        self.value(predicate.parts)
        fn = predicate._fn
        if not is_trusted(predicate):
            self.value(fn)
            return
        # The DSL's lowering or a combinator's own lambda, in its own
        # module: its code and globals are fixed (it takes no defaults),
        # and its closure holds the source tree or the operands just
        # written (back-references).
        self.out.append(_TRUSTED_CODES[id(fn.__code__)][0])
        for cell in fn.__closure__:
            self.value(cell.cell_contents)

    def _variable(self, variable: Variable) -> None:
        self.out.append(f"variable:{variable.name!r}")
        self.value(variable.domain)
        self.value(variable.process)

    def _assignment(self, assignment: Assignment) -> None:
        self.out.append(f"assignment[{len(assignment._updates)}")
        for target, rhs in assignment._updates.items():
            self.out.append(repr(target))
            self.value(rhs)

    def _action(self, action: Action) -> None:
        self.out.append(f"action:{action.name!r}")
        self.value(action.process)
        self.out.append(repr(sorted(action.reads)))
        self.out.append(repr(sorted(action.writes)))
        self.value(action.guard)
        self.value(action.effect)

    def _program(self, program: Program) -> None:
        self.out.append(f"program:{program.name!r}")
        for variable in program.variables.values():
            self.value(variable)
        for action in program.actions:
            self.value(action)


_HANDLERS: dict[type, Any] = {
    tuple: _Hasher._sequence,
    list: _Hasher._sequence,
    dict: _Hasher._dict,
    set: _Hasher._set,
    frozenset: _Hasher._set,
    types.FunctionType: _Hasher._function,
    types.BuiltinFunctionType: _Hasher._builtin,
    types.ModuleType: _Hasher._module,
    Predicate: _Hasher._predicate,
    Variable: _Hasher._variable,
    Assignment: _Hasher._assignment,
    Action: _Hasher._action,
    Program: _Hasher._program,
}
# Every DSL node type hashes by the token walk, which itself refuses
# anything it cannot serialize exactly.
for _node in (BoolExpr, _Binary, _Const, _Fold, _Ite, _Not, _Var):
    _HANDLERS[_node] = _Hasher._expr


def _lambda_code(function: types.FunctionType) -> types.CodeType:
    """The code of the one lambda defined in ``function``."""
    (code,) = (
        constant
        for constant in function.__code__.co_consts
        if type(constant) is types.CodeType and constant.co_name == "<lambda>"
    )
    return code


#: The library's own evaluation lambdas, by code identity, with their
#: token, module globals and the ``parts`` tag they record (``None`` for
#: the DSL lowering, which records ``source``): the DSL lowering and the
#: predicate combinators. (The code objects live as long as their
#: modules, so their ids are never reused.)
_TRUSTED_CODES: dict[int, tuple[str, dict[str, Any], str | None]] = {
    id(_lambda_code(function)): (
        f"trusted:{function.__qualname__}", function.__globals__, tag
    )
    for function, tag in (
        (BoolExpr.predicate, None),
        (Predicate.__and__, "and"),
        (Predicate.__or__, "or"),
        (Predicate.__invert__, "not"),
        (Predicate.implies, "implies"),
        (all_of, "all"),
        (any_of, "any"),
        (count_of, "count"),
    )
}


def is_trusted(predicate: Predicate) -> bool:
    """Whether ``predicate`` evaluates exactly what it records.

    True when its evaluation function is the DSL lowering's or a
    combinator's own lambda, in its own module, and the closure holds
    exactly the record: the lowering's ``source`` (with no ``parts``),
    or a combinator's operands (and count) as its ``parts`` list them,
    under that combinator's tag (with no ``source``). A trusted node's
    truth value is then its record's, evaluated the way the combinator
    evaluates it; each operand is a node of its own, trusted or not.

    The one recognizer of the library's own lambdas: cache keys hash a
    trusted node by its record instead of its function, and the
    compositional certifier answers support and decomposition
    obligations from trees only when every node is trusted.
    """
    fn = predicate._fn
    trusted = _TRUSTED_CODES.get(id(getattr(fn, "__code__", None)))
    if trusted is None or fn.__globals__ is not trusted[1]:
        return False
    tag = trusted[2]
    try:
        if tag is None:  # the lowering's one cell is its tree
            return (
                predicate.parts is None
                and fn.__closure__[0].cell_contents is predicate.source
            )
        cells = dict(
            zip(fn.__code__.co_freevars, [c.cell_contents for c in fn.__closure__])
        )
    except ValueError:  # an empty cell: not the library's own closure
        return False
    parts = predicate.parts
    if predicate.source is not None or not parts or parts[0] != tag:
        return False
    if "preds" in cells:
        operands = cells["preds"]
        rest = (cells["count"],) if tag == "count" else ()
    else:
        operands = [cells["self"]] + ([cells["other"]] if "other" in cells else [])
        rest = ()
    recorded = parts[1]
    return (
        len(parts) == 2 + len(rest)
        and all(a is b for a, b in zip(parts[2:], rest))
        and len(operands) == len(recorded)
        and all(a is b for a, b in zip(operands, recorded))
    )


# ----------------------------------------------------------------------
# Public keys
# ----------------------------------------------------------------------


def fingerprint_program(program: Program, *, local: LocalKeys | None = None) -> str:
    """The key of ``program``: its variables, domains and actions.

    Sensitive to the name, every variable with its domain and owning
    process, and every action's name, process, read/write sets, guard
    and right-hand sides. ``local`` is the registry for objects without
    an exact serialization (see :class:`LocalKeys`).
    """
    hasher = _Hasher(local)
    hasher.value(program)
    return hasher.digest()


def fingerprint_predicate(
    predicate: Predicate, *, local: LocalKeys | None = None
) -> str:
    """The key of ``predicate``: its name, support and definition."""
    hasher = _Hasher(local)
    hasher.value(predicate)
    return hasher.digest()


def fingerprint_instance(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate | None = None,
    *,
    fairness: str = "weak",
    extra: tuple[str, ...] = (),
    context: tuple[Any, ...] = (),
    local: LocalKeys | None = None,
) -> str:
    """The cache key of one verification instance.

    Covers the program, the invariant, the fault span, the computation
    model, any caller-supplied discriminators (e.g. a state-window
    label for instances verified over a subset of the space) and any
    further ``context`` objects the answer depends on (the design a
    certificate is built from). The key is local if any part of it is.
    """
    hasher = _Hasher(local)
    hasher.value(program)
    hasher.value(invariant)
    hasher.value(fault_span)
    hasher.out.append(f"fairness={fairness!r}")
    hasher.out.extend(f"extra={item!r}" for item in extra)
    for item in context:
        hasher.value(item)
    return hasher.digest()
