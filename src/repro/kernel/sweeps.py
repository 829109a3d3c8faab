"""Vectorized frontier sweeps over packed code and CSR arrays.

The packed kernel (PR 4) already stores the state space as mixed-radix
integer codes and the transition relation as CSR arrays — but every hot
sweep still walked those arrays one state at a time in Python. This
module rewrites the sweeps as numpy array operations:

- **Membership masks**: a predicate is decomposed along its recorded
  combinator structure (``Predicate.parts``) into small-support leaves;
  each leaf becomes a projection table indexed by the leaf's mixed-radix
  key, so the mask of a code range is a handful of table gathers and
  boolean reductions instead of one Python call per state.
- **Successor columns**: a table-mode action's memoized entries are laid
  out as flat arrays over its read projection, so the successors of a
  whole code range are ``codes + shift[key]`` (every write also read) or
  ``codes + Σ_w (digit_w[key] - digit_w(codes)) * weight_w`` (general
  digit replacement). Direct-mode actions still evaluate per state.
- **CSR assembly**: the per-action columns are interleaved into the
  exact row-major ``offsets``/``targets``/``action_ids`` order the
  scalar sweep produces, so everything downstream is bit-identical.
- **Closure checks**: one boolean reduction per predicate —
  ``mask[sources] & ~mask[targets]`` — with the first five failing edges
  decoded into the same witnesses the scalar walk reports.
- **Deadlock/bad-state partitioning**: the convergence prefilter finds
  the first bad deadlock by mask arithmetic and proves the bad-state
  subgraph acyclic with a vectorized Kahn peel; only when a cycle
  actually exists does the exact SCC analysis
  (:func:`~repro.verification.convergence.check_convergence`) run, and
  only over the bad states the peel left behind.
- **One Kahn peel** (:func:`kahn_peel`): a round-synchronous peel of a
  region over an edge list, yielding each round's frontier, so a state
  that peels in round ``r`` has the longest path ``r`` to an exit. Over
  a materialized CSR it returns each bad state's level
  (:func:`bad_region_acyclic`): the verdict is acyclic iff every bad
  state peels, and the same levels answer the quantitative layer's
  adversarial game value (level ``+ 1``) and order its exact solve.
  Per shard and across shard boundaries on the streaming path it
  decides acyclicity alone (:func:`peel_shard_edges`,
  :func:`edge_list_acyclic`). The scalar sweep runs its pure-Python
  twin (:func:`scalar_peel`), which needs no numpy.
- **Frontier BFS**: reachability over ``offsets``/``targets`` as array
  gather/scatter (:func:`frontier_reach`).

Everything here is soundness-gated exactly like the scalar kernel's
table tier: a leaf predicate is only projected onto its support after
the same probe-based read inference that gates action tables (RW001),
and symbolic leaves use their exact read set. A predicate's ``parts``
and ``source`` are only followed on nodes
:func:`~repro.core.fingerprint.is_trusted` accepts; any other node is an
opaque leaf, however it describes itself. Whenever a construct falls
outside the vectorized fragment — an opaque monolithic predicate, a raw
(out-of-domain) successor, a missing numpy — :class:`SweepUnsupported`
is raised and the caller falls back to the pure-Python scalar sweep,
whose results the differential suite pins bit-identical.
"""

from __future__ import annotations

import itertools
from array import array

from repro.core.fingerprint import is_trusted
from repro.core.predicates import Predicate
from repro.kernel.compile import _MISSING, compile_predicate_fn
from repro.kernel.engine import PackedKernel

try:  # numpy is optional: without it every entry point raises
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the fallback CI leg
    _np = None

__all__ = [
    "FORCE_CODE_DTYPE",
    "HAVE_NUMPY",
    "MAX_ACTION_PROJECTION",
    "MAX_LEAF_PROJECTION",
    "SweepUnsupported",
    "SweepPlan",
    "VECTOR_MIN_STATES",
    "bad_region_acyclic",
    "closure_scan",
    "edge_list_acyclic",
    "first_bad_deadlock",
    "frontier_reach",
    "kahn_peel",
    "merge_fragments",
    "peel_shard_edges",
    "scalar_peel",
]

#: Whether numpy was importable; without it the scalar sweep is used.
HAVE_NUMPY = _np is not None

#: Below this state count the scalar sweep wins (numpy's fixed per-array
#: overhead dominates); tests force the vectorized path by lowering it.
VECTOR_MIN_STATES = 1024

#: A predicate leaf whose support projection exceeds this is not
#: tabulated; the whole sweep falls back to the scalar path.
MAX_LEAF_PROJECTION = 1 << 16

#: An action whose read projection exceeds this is not laid out as flat
#: arrays (enumerating it would cost as much as the scalar sweep).
MAX_ACTION_PROJECTION = 1 << 20

#: Override the per-instance code dtype (``"int16"``/``"int32"``/
#: ``"int64"`` or ``None`` for the codec's own width). The differential
#: suite flips this to pin that narrow-dtype sweeps are bit-identical to
#: the int64 baseline, and benchmarks use it to emulate the kernel v2
#: memory profile.
FORCE_CODE_DTYPE: str | None = None


class SweepUnsupported(Exception):
    """The instance falls outside the vectorized fragment.

    Raised during planning or sweeping; callers catch it and fall back
    to the scalar packed sweep, which handles every instance.
    """


def _require_numpy() -> None:
    if _np is None:
        raise SweepUnsupported("numpy is not installed")


# ----------------------------------------------------------------------
# Range context: digit and key arrays of a contiguous code range
# ----------------------------------------------------------------------


class _RangeContext:
    """Digit/key arrays for the codes ``lo .. hi-1``, computed lazily."""

    __slots__ = ("lo", "hi", "codes", "_weights", "_radices", "_digits")

    def __init__(self, codec, lo: int, hi: int, dtype=None) -> None:
        self.lo = lo
        self.hi = hi
        self.codes = _np.arange(
            lo, hi, dtype=_np.int64 if dtype is None else dtype
        )
        self._weights = codec.weights
        self._radices = codec.radices
        self._digits: dict[int, object] = {}

    def digit(self, position: int):
        """The digit of every code in the range at ``position``."""
        cached = self._digits.get(position)
        if cached is None:
            # A weight or radix past the code dtype's maximum (one
            # variable spanning a whole 2^15-state int16 space) would
            # overflow as an operand; codes never reach it, so the
            # quotient is 0 and the modulo is the identity.
            top = _np.iinfo(self.codes.dtype).max
            weight = self._weights[position]
            radix = self._radices[position]
            if weight > top:
                cached = _np.zeros_like(self.codes)
            else:
                cached = self.codes // weight
                if radix <= top:
                    cached %= radix
            self._digits[position] = cached
        return cached

    def key(self, pairs: tuple[tuple[int, int], ...]):
        """Mixed-radix projection keys onto ``(position, radix)`` pairs.

        Matches the scalar kernel's per-action key layout
        (:meth:`CompiledAction._key_fn`): digits of ascending positions,
        most significant first.
        """
        if not pairs:
            return _np.zeros(self.hi - self.lo, dtype=_np.int32)
        # Projections are capped at 2^20 entries, so int32 keys always
        # suffice regardless of the code dtype.
        key = self.digit(pairs[0][0]).astype(_np.int32)
        for position, radix in pairs[1:]:
            key = key * radix + self.digit(position)
        return key


# ----------------------------------------------------------------------
# Predicate masks
# ----------------------------------------------------------------------


class _LeafMask:
    """One leaf predicate tabulated over its support projection."""

    __slots__ = ("pairs", "table")

    def __init__(self, predicate: Predicate, codec, positions: list[int]) -> None:
        self.pairs = tuple(
            (position, codec.radices[position]) for position in positions
        )
        projection = 1
        for _, radix in self.pairs:
            projection *= radix
        if projection > MAX_LEAF_PROJECTION:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} projects onto {projection} "
                "entries, above the leaf-table cap"
            )
        from repro.kernel.compile import DigitStateView

        view = DigitStateView(codec)
        evaluate = compile_predicate_fn(predicate, codec, view)
        values = [column[0] for column in codec.domain_values]
        table = _np.empty(projection, dtype=bool)
        domain_values = codec.domain_values
        try:
            for key, combo in enumerate(
                itertools.product(*[range(radix) for _, radix in self.pairs])
            ):
                for (position, _), digit in zip(self.pairs, combo):
                    values[position] = domain_values[position][digit]
                table[key] = bool(evaluate(values))
        except SweepUnsupported:
            raise
        except Exception as error:
            # The scalar engines may never evaluate this predicate on
            # these representative states (short-circuiting); do not
            # let the tabulation crash where they would not.
            raise SweepUnsupported(
                f"predicate {predicate.name!r} raised during tabulation: "
                f"{error!r}"
            ) from error
        self.table = table

    def mask(self, ctx: _RangeContext):
        if not self.pairs:
            value = bool(self.table[0])
            return _np.full(ctx.hi - ctx.lo, value, dtype=bool)
        return self.table[ctx.key(self.pairs)]


class _MaskNode:
    """A predicate compiled to a mask evaluator over code ranges."""

    __slots__ = ("kind", "operands", "count", "leaf")

    def __init__(self, kind, operands=(), count=0, leaf=None) -> None:
        self.kind = kind
        self.operands = operands
        self.count = count
        self.leaf = leaf

    def mask(self, ctx: _RangeContext):
        kind = self.kind
        if kind == "leaf":
            return self.leaf.mask(ctx)
        masks = [operand.mask(ctx) for operand in self.operands]
        if kind == "not":
            return ~masks[0]
        if kind == "implies":
            return ~masks[0] | masks[1]
        # all/any/count may have no operands at all
        size = ctx.hi - ctx.lo
        if kind == "all":
            out = _np.ones(size, dtype=bool)
            for mask in masks:
                out &= mask
            return out
        if kind == "any":
            out = _np.zeros(size, dtype=bool)
            for mask in masks:
                out |= mask
            return out
        # count: exactly ``self.count`` of the operands hold
        total = _np.zeros(size, dtype=_np.int16)
        for mask in masks:
            total += mask
        return total == self.count


def _compile_mask(
    predicate: Predicate, codec, battery_of: "_BatteryCache"
) -> _MaskNode:
    """Recursively compile ``predicate`` into a :class:`_MaskNode`.

    Only a node :func:`~repro.core.fingerprint.is_trusted` accepts is
    decomposed along its ``parts`` or projected onto its ``source``'s
    variables; any other node is an opaque leaf, whose function is
    tabulated over its declared support once the probe check passes.

    Raises:
        SweepUnsupported: when some leaf cannot be soundly tabulated.
    """
    trusted = is_trusted(predicate)
    parts = predicate.parts
    if trusted and parts is not None:
        kind = parts[0]
        operands = tuple(
            _compile_mask(operand, codec, battery_of) for operand in parts[1]
        )
        if kind in ("and", "all"):
            return _MaskNode("all", operands)
        if kind in ("or", "any"):
            return _MaskNode("any", operands)
        if kind in ("not", "implies"):
            return _MaskNode(kind, operands)
        return _MaskNode("count", operands, count=parts[2])

    # Leaf: find a sound support to project onto. A trusted lowering
    # carries its exact read set; an opaque leaf must pass the same
    # probe-based read inference that gates action tables (RW001).
    if trusted:
        names = predicate.source.variables()
    else:
        if predicate.support is None:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} has no declared support"
            )
        names = predicate.support
        inferred = battery_of.predicate_reads(predicate)
        if not inferred <= names:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} reads outside its declared "
                "support; projection would be unsound"
            )
    positions = []
    for name in names:
        position = codec._positions.get(name)
        if position is None:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} reads unknown variable {name!r}"
            )
        positions.append(position)
    return _MaskNode(
        "leaf", leaf=_LeafMask(predicate, codec, sorted(positions))
    )


class _BatteryCache:
    """Lazily computed probe battery shared across leaf gates."""

    __slots__ = ("program", "_battery")

    def __init__(self, program) -> None:
        self.program = program
        self._battery = None

    def predicate_reads(self, predicate: Predicate) -> frozenset[str]:
        from repro.core.introspect import infer_predicate_reads
        from repro.kernel.compile import probe_battery

        if self._battery is None:
            self._battery = probe_battery(self.program)
        try:
            return infer_predicate_reads(predicate, self._battery).reads
        except Exception as error:
            raise SweepUnsupported(
                f"probing predicate {predicate.name!r} failed: {error!r}"
            ) from error


# ----------------------------------------------------------------------
# Action successor columns
# ----------------------------------------------------------------------


class _TableColumns:
    """A table-mode action laid out as flat arrays over its projection.

    The layout mirrors the scalar memo's normalized entries: a
    *shift-form* action (every written variable also read) stores one
    packed-code shift per key; a *delta-form* action stores the target
    digit of every written position per key. Both evaluate a whole code
    range with a couple of gathers. Enumerating the projection also
    fills the action's scalar memo (``action._table``), so table
    hit/miss accounting is identical on both paths.
    """

    __slots__ = ("pairs", "enabled", "shift", "deltas")

    def __init__(self, action, codec, dtype) -> None:
        pairs = action._read_pairs
        projection = 1
        for _, radix in pairs:
            projection *= radix
        if projection > MAX_ACTION_PROJECTION:
            raise SweepUnsupported(
                f"action {action.name!r} projects onto {projection} entries, "
                "above the action-table cap"
            )
        self.pairs = pairs
        written = [
            (position, codec.weights[position])
            for _target, position, _weight, _digits, _evaluator in action._updates
        ]
        shift_form = all(position in action._read_set for position, _ in written)
        enabled = _np.zeros(projection, dtype=bool)
        # Shifts (``successor - code``) range over ``(-size, size)`` and
        # per-position deltas are digits, so both fit the code dtype.
        shift = _np.zeros(projection, dtype=dtype) if shift_form else None
        deltas = (
            None
            if shift_form
            else [
                (position, weight, _np.zeros(projection, dtype=dtype))
                for position, weight in written
            ]
        )
        digits = [0] * len(codec.names)
        values = [column[0] for column in codec.domain_values]
        domain_values = codec.domain_values
        table = action._table
        evaluate = action._evaluate
        try:
            for key, combo in enumerate(
                itertools.product(*[range(radix) for _, radix in pairs])
            ):
                for (position, _), digit in zip(pairs, combo):
                    digits[position] = digit
                    values[position] = domain_values[position][digit]
                entry = table.get(key, _MISSING)
                if entry is _MISSING:
                    entry = evaluate(0, digits, values)
                    table[key] = entry
                if entry is None:
                    continue
                enabled[key] = True
                if type(entry) is int:
                    shift[key] = entry
                    continue
                tag, payload = entry
                if tag != "delta":  # "raw": out-of-domain successor value
                    raise SweepUnsupported(
                        f"action {action.name!r} produces an out-of-domain "
                        "successor; raw states need the scalar sweep"
                    )
                by_position = {position: digit for position, digit, _ in payload}
                for position, _weight, column in deltas:
                    column[key] = by_position[position]
        except SweepUnsupported:
            raise
        except Exception as error:
            raise SweepUnsupported(
                f"action {action.name!r} raised during tabulation: {error!r}"
            ) from error
        self.enabled = enabled
        self.shift = shift
        self.deltas = deltas

    def columns(self, ctx: _RangeContext):
        key = ctx.key(self.pairs)
        enabled = self.enabled[key]
        if self.shift is not None:
            return enabled, ctx.codes + self.shift[key]
        successors = ctx.codes.copy()
        for position, weight, column in self.deltas:
            successors += (column[key] - ctx.digit(position)) * weight
        return enabled, successors


class _DirectColumns:
    """Direct/fallback-mode actions, evaluated per state in one shared walk."""

    __slots__ = ("members",)

    def __init__(self, members: list[tuple[int, object]]) -> None:
        self.members = members  # [(action_id, CompiledAction)]

    def columns(self, kernel: PackedKernel, ctx: _RangeContext):
        n = ctx.hi - ctx.lo
        dtype = ctx.codes.dtype
        results = {
            action_id: (
                _np.zeros(n, dtype=bool),
                _np.zeros(n, dtype=dtype),
            )
            for action_id, _ in self.members
        }
        members = [
            (results[action_id], action.successor, action.name)
            for action_id, action in self.members
        ]
        lo = ctx.lo
        for code, digits, values in kernel.iter_range(ctx.lo, ctx.hi):
            row = code - lo
            for (enabled, successors), successor_fn, name in members:
                successor = successor_fn(code, digits, values)
                if successor is None:
                    continue
                if type(successor) is not int:
                    raise SweepUnsupported(
                        f"action {name!r} produces an out-of-domain "
                        "successor; raw states need the scalar sweep"
                    )
                enabled[row] = True
                successors[row] = successor
        return results


# ----------------------------------------------------------------------
# The sweep plan: compiled once, swept per shard
# ----------------------------------------------------------------------


class Fragment:
    """One swept code range: masks plus a local CSR fragment.

    ``offsets`` is local (``offsets[0] == 0``); ``targets`` hold global
    packed codes. Fragments merge by concatenation in shard order, which
    reproduces the unsharded sweep exactly.
    """

    __slots__ = ("lo", "hi", "s_mask", "t_mask", "offsets", "targets", "action_ids")

    def __init__(self, lo, hi, s_mask, t_mask, offsets, targets, action_ids):
        self.lo = lo
        self.hi = hi
        self.s_mask = s_mask
        self.t_mask = t_mask
        self.offsets = offsets
        self.targets = targets
        self.action_ids = action_ids


class SweepPlan:
    """Vectorized evaluators for one ``(program, S, T)`` instance.

    Built once — leaf and action projection tables are enumerated here,
    in the parent process, so forked shard workers inherit them — then
    :meth:`sweep_range` turns any contiguous code range into a
    :class:`Fragment` with pure array operations (plus one per-state
    walk when the program has direct-mode actions).

    Raises:
        SweepUnsupported: when the instance falls outside the vectorized
            fragment; the caller falls back to the scalar sweep.
    """

    def __init__(self, kernel: PackedKernel, invariant, fault_span) -> None:
        _require_numpy()
        self.kernel = kernel
        codec = kernel.codec
        forced = FORCE_CODE_DTYPE
        self.code_dtype = _np.dtype(
            codec.code_dtype if forced is None else forced
        )
        # Offsets count edges, bounded by size * n_actions; int32 when
        # that bound fits, int64 otherwise (or when the width is forced
        # wide to emulate the v2 memory profile).
        edge_bound = codec.size * max(1, len(kernel.actions))
        wide_offsets = forced == "int64" or edge_bound > 2**31 - 1
        self.offset_dtype = _np.dtype(_np.int64 if wide_offsets else _np.int32)
        battery = _BatteryCache(kernel.program)
        self.s_node = _compile_mask(invariant, codec, battery)
        # fault_span is None for the stabilizing span (T == TRUE).
        self.t_node = (
            None
            if fault_span is None
            else _compile_mask(fault_span, codec, battery)
        )
        table_members: list[tuple[int, _TableColumns]] = []
        direct_members: list[tuple[int, object]] = []
        for action_id, action in enumerate(kernel.actions):
            if action.mode == "table":
                table_members.append(
                    (action_id, _TableColumns(action, codec, self.code_dtype))
                )
            else:
                direct_members.append((action_id, action))
        self.table_members = table_members
        self.direct = (
            _DirectColumns(direct_members) if direct_members else None
        )
        self.n_actions = len(kernel.actions)

    def _context(self, lo: int, hi: int) -> _RangeContext:
        return _RangeContext(self.kernel.codec, lo, hi, self.code_dtype)

    def mask_range(self, lo: int, hi: int):
        """Only the ``(s_mask, t_mask)`` of ``lo .. hi-1`` (no CSR).

        The streaming verdict path sweeps masks first — one byte per
        state — so closure, implication, and span classification never
        require the materialized transition relation.
        """
        ctx = self._context(lo, hi)
        s_mask = self.s_node.mask(ctx)
        t_mask = None if self.t_node is None else self.t_node.mask(ctx)
        return s_mask, t_mask

    def column_range(self, lo: int, hi: int):
        """The per-action ``(enabled, successors)`` columns of a range.

        Returns ``(ctx, columns)`` where ``columns[action_id]`` is the
        pair of arrays; nothing is interleaved into CSR form, so the
        streaming path can reduce and free each column set shard by
        shard.
        """
        ctx = self._context(lo, hi)
        columns: dict[int, tuple] = {}
        for action_id, member in self.table_members:
            columns[action_id] = member.columns(ctx)
        if self.direct is not None:
            columns.update(self.direct.columns(self.kernel, ctx))
        return ctx, columns

    def sweep_range(self, lo: int, hi: int) -> Fragment:
        """Sweep the codes ``lo .. hi-1`` into a :class:`Fragment`."""
        ctx = self._context(lo, hi)
        n = hi - lo
        s_mask = self.s_node.mask(ctx)
        t_mask = None if self.t_node is None else self.t_node.mask(ctx)

        columns: dict[int, tuple] = {}
        for action_id, member in self.table_members:
            columns[action_id] = member.columns(ctx)
        if self.direct is not None:
            columns.update(self.direct.columns(self.kernel, ctx))

        # Row-major CSR assembly in (state, action) order — the exact
        # edge order of the scalar sweep.
        degrees = _np.zeros(n, dtype=_np.int16)
        for action_id in range(self.n_actions):
            degrees += columns[action_id][0]
        offsets = _np.empty(n + 1, dtype=self.offset_dtype)
        offsets[0] = 0
        _np.cumsum(degrees, dtype=self.offset_dtype, out=offsets[1:])
        targets = _np.empty(int(offsets[-1]), dtype=self.code_dtype)
        action_ids = _np.empty(int(offsets[-1]), dtype=_np.int16)
        cursor = offsets[:-1].copy()
        for action_id in range(self.n_actions):
            enabled, successors = columns[action_id]
            rows = _np.flatnonzero(enabled)
            slots = cursor[rows]
            targets[slots] = successors[rows]
            action_ids[slots] = action_id
            cursor[rows] += 1
        return Fragment(lo, hi, s_mask, t_mask, offsets, targets, action_ids)


def merge_fragments(fragments: list[Fragment]):
    """Concatenate shard fragments into global sweep arrays.

    Fragments must be contiguous and in code order; the result is then
    bit-identical to a single sweep of the full range.

    Returns ``(s_mask, t_mask, offsets, targets, action_ids)`` with
    ``t_mask`` ``None`` when the span is TRUE.
    """
    _require_numpy()
    if len(fragments) == 1:
        fragment = fragments[0]
        return (
            fragment.s_mask,
            fragment.t_mask,
            fragment.offsets,
            fragment.targets,
            fragment.action_ids,
        )
    s_mask = _np.concatenate([fragment.s_mask for fragment in fragments])
    t_mask = (
        None
        if fragments[0].t_mask is None
        else _np.concatenate([fragment.t_mask for fragment in fragments])
    )
    sizes = [fragment.offsets.size - 1 for fragment in fragments]
    offsets = _np.empty(sum(sizes) + 1, dtype=fragments[0].offsets.dtype)
    offsets[0] = 0
    base_state = 1
    base_edge = 0
    for fragment in fragments:
        span = fragment.offsets.size - 1
        offsets[base_state : base_state + span] = fragment.offsets[1:] + base_edge
        base_state += span
        base_edge += int(fragment.offsets[-1])
    targets = _np.concatenate([fragment.targets for fragment in fragments])
    action_ids = _np.concatenate([fragment.action_ids for fragment in fragments])
    return s_mask, t_mask, offsets, targets, action_ids


# ----------------------------------------------------------------------
# Sweeps over assembled CSR arrays
# ----------------------------------------------------------------------


def closure_scan(mask, offsets, targets, *, max_witnesses: int = 5):
    """Closure check of the state set ``mask`` over the CSR arrays.

    One boolean reduction: an edge fails iff its source is in the set
    and its target is not. Returns ``(ok, checked, witness_edges)``
    where ``witness_edges`` are the CSR indices of the first
    ``max_witnesses`` failing edges (in edge order, which is the scalar
    walk's witness order) and ``checked`` reproduces the scalar walk's
    early-exit count: sources examined up to and including the one
    carrying the last reported witness.
    """
    _require_numpy()
    edge_sources = _np.repeat(mask, _np.diff(offsets))
    failing = _np.flatnonzero(edge_sources & ~mask[targets])
    if failing.size == 0:
        return True, int(_np.count_nonzero(mask)), []
    witnesses = failing[:max_witnesses]
    if failing.size >= max_witnesses:
        last_source = int(
            _np.searchsorted(offsets, witnesses[-1], side="right") - 1
        )
        checked = int(_np.count_nonzero(mask[: last_source + 1]))
    else:
        checked = int(_np.count_nonzero(mask))
    return False, checked, [int(k) for k in witnesses]


def first_bad_deadlock(bad_mask, offsets):
    """The first (lowest-position) bad state with no outgoing edge.

    This is the deadlock the scalar convergence scan reports (it walks
    bad positions in ascending order). Returns the position or ``None``.
    """
    _require_numpy()
    deadlocks = _np.flatnonzero(bad_mask & (_np.diff(offsets) == 0))
    if deadlocks.size == 0:
        return None
    return int(deadlocks[0])


def _gather_ranges(starts, counts):
    """Indices covering ``[starts[i], starts[i]+counts[i])`` for all i."""
    total = int(counts.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64)
    bases = _np.repeat(
        starts - _np.concatenate(([0], _np.cumsum(counts)[:-1])), counts
    )
    return bases + _np.arange(total, dtype=_np.int64)


def _csr_sources(offsets, like):
    """The source row of every CSR edge, in edge order.

    Rows come in ``like``'s (narrow) code dtype when it can index every
    row, in int64 otherwise.
    """
    _require_numpy()
    n = offsets.size - 1
    dtype = _np.dtype(like)
    if not (dtype.kind in "iu" and n <= _np.iinfo(dtype).max + 1):
        dtype = _np.dtype(_np.int64)
    return _np.repeat(_np.arange(n, dtype=dtype), _np.diff(offsets))


def _group_order(keys, bound: int):
    """An argsort of the integer ``keys``, all in ``0 .. bound-1``, that
    groups equal keys; the order within a group is unspecified.

    The key width picks the fastest sort: numpy radix-sorts 16-bit keys
    (``kind="stable"``) in linear time, so int16 keys are sorted as they
    are and wider keys below ``2**16`` through a ``uint16`` copy; wider
    ranges take the default introsort.
    """
    _require_numpy()
    if keys.dtype.itemsize <= 2:
        return _np.argsort(keys, kind="stable")
    if bound <= 1 << 16:
        return _np.argsort(keys.astype(_np.uint16), kind="stable")
    return _np.argsort(keys)


def _reverse_csr(sources, sinks, n: int, metrics=None):
    """Predecessors grouped by sink: ``(indptr, by_sink_source)``.

    ``by_sink_source[indptr[v]:indptr[v + 1]]`` are the sources of the
    edges into ``v``. Neither the Kahn peel nor the frontier BFS depends
    on the order of a sink's predecessors, so one :func:`_group_order` of
    the sinks groups them (a linear radix sort whenever the space has at
    most ``2**16`` states). ``by_sink_source`` keeps the dtype of
    ``sources``. Each build adds 1 to the ``kernel.reverse_csr`` counter
    of ``metrics``, when one is given.
    """
    _require_numpy()
    if metrics is not None:
        metrics.counter("kernel.reverse_csr").add()
    indptr = _np.empty(n + 1, dtype=_np.int64)
    indptr[0] = 0
    _np.cumsum(_np.bincount(sinks, minlength=n), out=indptr[1:])
    return indptr, sources[_group_order(sinks, n)]


def kahn_peel(region, sources, sinks, outdegree=None, metrics=None):
    """Round-synchronous Kahn peel of ``region`` over an edge list.

    Yields one frontier per round, as sorted state indices. Round 0 is
    every region state with no counted out-edge; after that a state
    peels in the round after its last counted successor did, so a state
    peeling in round ``r`` has ``r == 1 + max`` round over its
    successors (the longest path to an exit). A state on or above a
    cycle never peels and is never yielded, and an edge whose sink never
    peels — a sink outside ``region``, say — blocks its source forever.

    Every edge source must lie in ``region``. ``outdegree`` is each
    state's counted out-edges (default: the edges given) and is
    decremented in place; a caller can count extra edges that are not
    in the list, whose sinks therefore never peel (the shard-local peel
    counts its boundary edges this way). The peel builds one reverse
    CSR (:func:`_reverse_csr`, counted in ``metrics``); each round
    gathers the frontier's predecessors from it and decrements their
    counters with one ``unique(return_counts=True)``. A peeled state has
    no counted edge left, so it is never decremented again and enters
    the frontier exactly once.
    """
    _require_numpy()
    n = region.size
    if outdegree is None:
        outdegree = _np.bincount(sources, minlength=n)
    indptr, by_sink_source = _reverse_csr(sources, sinks, n, metrics)
    ends = indptr[1:]
    frontier = _np.flatnonzero(region & (outdegree == 0))
    while frontier.size:
        yield frontier
        # The frontier may hold narrow codes: index ``ends`` rather than
        # adding 1 to them, which would wrap at the dtype's maximum.
        starts = indptr[frontier]
        predecessors = by_sink_source[
            _gather_ranges(starts, ends[frontier] - starts)
        ]
        if not predecessors.size:
            return
        predecessors, hits = _np.unique(predecessors, return_counts=True)
        left = outdegree[predecessors] - hits
        outdegree[predecessors] = left
        frontier = predecessors[left == 0]


def _level_dtype(n: int):
    """The narrowest signed dtype holding every level of ``n`` states.

    Levels run from ``-1`` (never peels) up to at most ``n - 1``.
    """
    _require_numpy()
    for dtype in (_np.int16, _np.int32):
        if n <= _np.iinfo(dtype).max:
            return _np.dtype(dtype)
    return _np.dtype(_np.int64)


def bad_region_acyclic(bad_mask, offsets, targets, metrics=None):
    """The Kahn peel levels of the bad states; ``-1`` where none.

    The peel (:func:`kahn_peel`) of the bad states over their bad→bad
    edges; an edge into a good state is an exit and is not counted, so
    a bad state's level is the number of bad→bad edges on its longest
    path out of the bad region. That is the paper's §8 variant function
    on a finite instance, and level ``+ 1`` is the adversarial
    scheduler's game value (:mod:`repro.quantitative`). A bad state with
    no out-edge is a deadlock and never peels, and neither does a state
    on a bad cycle or one that can be steered into either. Good states
    are ``-1`` too.

    The bad region is acyclic and deadlock-free — convergence holds
    under *any* fairness, and the exact (but per-node) SCC analysis is
    skipped entirely — iff no bad state is ``-1``. Levels come in
    the narrowest signed dtype that holds them
    (:func:`_level_dtype`).
    """
    _require_numpy()
    degrees = _np.diff(offsets)
    internal = _np.repeat(bad_mask, degrees)
    internal &= bad_mask[targets]
    # Only the bad→bad edges stay alive while the peel runs.
    sources = _csr_sources(offsets, targets.dtype)[internal]
    sinks = targets[internal]
    del internal
    levels = _np.full(bad_mask.size, -1, dtype=_level_dtype(bad_mask.size))
    for level, frontier in enumerate(
        kahn_peel(bad_mask & (degrees > 0), sources, sinks, metrics=metrics)
    ):
        levels[frontier] = level
    return levels


def scalar_peel(bad, offsets, targets):
    """:func:`bad_region_acyclic` in pure Python, over ``array`` buffers.

    ``bad`` holds one truth value per row (a ``bytearray`` on the scalar
    sweep) and ``offsets``/``targets`` are the CSR. Returns the same
    levels — ``-1`` for a good state, a bad deadlock, and every bad
    state that never peels — as an ``array`` of the same width
    :func:`_level_dtype` picks, so ``numpy.asarray`` of it equals the
    numpy peel's result. The numpy-free sweep decides convergence with
    it, as the vectorized sweep does with :func:`bad_region_acyclic`.
    """
    n = len(bad)
    typecode = "h" if n <= 0x7FFF else "i" if n <= 0x7FFFFFFF else "q"
    levels = array(typecode, [-1]) * n
    # Per bad row: its bad→bad edges not yet peeled, and the bad rows
    # with an edge into it.
    left = [0] * n
    predecessors: list[list[int]] = [[] for _ in range(n)]
    frontier = []
    for row in itertools.compress(range(n), bad):
        lo, hi = offsets[row], offsets[row + 1]
        if lo == hi:
            continue  # a deadlock never peels
        count = 0
        for target in targets[lo:hi]:
            if bad[target]:
                count += 1
                predecessors[target].append(row)
        if count:
            left[row] = count
        else:
            frontier.append(row)
    level = 0
    while frontier:
        peeled = []
        for row in frontier:
            levels[row] = level
            for source in predecessors[row]:
                remaining = left[source] - 1
                left[source] = remaining
                if not remaining:
                    peeled.append(source)
        frontier = peeled
        level += 1
    return levels


def peel_shard_edges(lo, hi, bad_slice, sources, sinks, metrics=None):
    """Shard-local Kahn peel treating out-of-shard sinks as alive.

    ``sources``/``sinks`` are the global codes of the bad→bad edges
    whose source lies in ``lo .. hi-1``; ``bad_slice`` is the bad mask
    over that range. Every in-shard chain that provably drains without
    leaving the shard is peeled here (sound: a state peels only once all
    its bad successors have, and boundary-crossing sinks never do — the
    peel counts them in the initial out-degree but cannot reach them),
    so the streaming verdict path retains only the boundary frontier for
    the global exchange.

    Returns ``(resolved, sources, sinks)``: ``resolved`` marks the
    locally-drained states over the range, and the returned edge arrays
    keep only edges between still-unresolved endpoints (an out-of-shard
    sink counts as unresolved here — the global exchange filters it once
    its own shard has peeled).
    """
    _require_numpy()
    n = hi - lo
    local_src = sources - lo
    in_shard = (sinks >= lo) & (sinks < hi)
    local_sinks = sinks[in_shard] - lo
    resolved = _np.zeros(n, dtype=bool)
    for frontier in kahn_peel(
        bad_slice,
        local_src[in_shard],
        local_sinks,
        outdegree=_np.bincount(local_src, minlength=n),
        metrics=metrics,
    ):
        resolved[frontier] = True
    keep = ~resolved[local_src]
    keep[in_shard] &= ~resolved[local_sinks]
    return resolved, sources[keep], sinks[keep]


def edge_list_acyclic(sources, sinks, bad_mask, metrics=None) -> bool:
    """Kahn peel over an explicit global bad→bad edge list.

    The streaming verdict path's boundary-frontier exchange: after the
    shard-local peels (:func:`peel_shard_edges`) drained everything they
    could, ``bad_mask`` marks the still-unresolved bad states and
    ``sources``/``sinks`` the surviving edges between them. The region
    is acyclic iff this global peel empties it — the same fixpoint
    :func:`bad_region_acyclic` computes over a materialized CSR.
    """
    _require_numpy()
    remaining = int(_np.count_nonzero(bad_mask))
    for frontier in kahn_peel(bad_mask, sources, sinks, metrics=metrics):
        remaining -= frontier.size
    return remaining == 0


def frontier_reach(offsets, targets, roots, size: int):
    """The states reachable from ``roots``, as a boolean mask.

    Frontier BFS as array gather/scatter: each round gathers the whole
    frontier's CSR edge ranges at once, drops the visited successors,
    scatters the rest into the visited mask and dedupes them into the
    next frontier — no per-state Python.
    """
    _require_numpy()
    visited = _np.zeros(size, dtype=bool)
    frontier = _np.unique(
        roots
        if isinstance(roots, _np.ndarray)
        else _np.asarray(roots, dtype=_np.int64)
    )
    visited[frontier] = True
    offsets = _np.asarray(offsets)
    targets = _np.asarray(targets)
    ends = offsets[1:]
    while frontier.size:
        # Narrow successor codes: index ``ends``, never add 1 to them.
        starts = offsets[frontier]
        successors = targets[
            _gather_ranges(starts, ends[frontier] - starts)
        ]
        successors = successors[~visited[successors]]
        visited[successors] = True
        frontier = _np.unique(successors)
    return visited
