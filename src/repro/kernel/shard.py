"""Sharded full-space exploration.

The mixed-radix code range ``0 .. size-1`` *is* the full state space
(:mod:`repro.kernel.codec`), so splitting it into contiguous shards
partitions the space with no handshaking: every shard sweeps its range
independently (membership masks plus successor CSR fragment, via
:class:`~repro.kernel.sweeps.SweepPlan`) and the fragments concatenate
back — in shard order — into arrays bit-identical to an unsharded sweep.

Shards run on the same process-pool helper the batch verifier uses
(:func:`repro.verification.parallel.run_on_pool`). The compiled plan
holds program closures and cannot cross a process boundary by pickling;
it is published in :data:`_ACTIVE` before the pool is created so
fork-started workers inherit it. On platforms without fork (or with a
single CPU, or a pool that cannot start) the shards are swept
sequentially in-process — the merge is deterministic either way, which
is what makes ``shards=N`` results bit-identical to ``shards=1``.

Fragments travel back to the parent through the pool's result pipe
(pickled once in the worker, unpickled once in the parent). At the
sizes that shard at all this costs memory, not time; the 10^7-state
scale runs under ``memory_budget=`` and streams in-process instead
(``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import multiprocessing
import os

from repro.kernel.sweeps import Fragment, SweepPlan, merge_fragments

__all__ = [
    "SHARD_AUTO_THRESHOLD",
    "SHARD_TARGET",
    "MAX_AUTO_SHARDS",
    "plan_shards",
    "sweep_merged",
]

#: Auto-sharding aims at roughly this many states per shard.
SHARD_TARGET = 1 << 21

#: Below this size auto mode uses a single shard (fixed per-shard numpy
#: and fork overhead would dominate).
SHARD_AUTO_THRESHOLD = 1 << 22

#: Auto mode never plans more shards than this.
MAX_AUTO_SHARDS = 64

#: The plan the pool's fork-children inherit; see module docstring.
_ACTIVE: SweepPlan | None = None


def plan_shards(size: int, shards: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` code ranges covering ``0 .. size-1``.

    ``shards=None`` is the auto heuristic: one shard for small spaces,
    otherwise about :data:`SHARD_TARGET` states per shard, capped at
    :data:`MAX_AUTO_SHARDS`. An explicit ``shards`` is clamped to
    ``[1, size]``. Ranges differ in length by at most one state.
    """
    if size <= 0:
        return []
    if shards is None:
        if size < SHARD_AUTO_THRESHOLD:
            count = 1
        else:
            count = min(MAX_AUTO_SHARDS, -(-size // SHARD_TARGET))
    else:
        count = max(1, min(int(shards), size))
    base, extra = divmod(size, count)
    ranges = []
    lo = 0
    for index in range(count):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _sweep_worker(bounds: tuple[int, int]) -> Fragment:
    """Sweep one shard using the fork-inherited plan."""
    plan = _ACTIVE
    if plan is None:
        raise RuntimeError(
            "no active sweep plan in this process; sharded sweeps share "
            "the plan by fork inheritance only"
        )
    return plan.sweep_range(*bounds)


def _pool_usable(ranges, workers: int) -> bool:
    if len(ranges) <= 1 or workers <= 1:
        return False
    try:
        return multiprocessing.get_start_method() == "fork"
    except Exception:
        return False


def sweep_merged(
    plan: SweepPlan,
    ranges: list[tuple[int, int]],
    *,
    workers: int | None = None,
    metrics=None,
):
    """Sweep every range of ``plan``, in parallel when worthwhile, and merge.

    The fragments are merged **in range order**. Returns ``((s_mask,
    t_mask, offsets, targets, action_ids), transfer)`` with ``transfer``
    ``"pickle"`` when the shards ran on the pool, else ``"inline"``.
    Counters (when a metrics registry is passed):
    ``kernel.sweep.vectorized`` per shard swept, ``kernel.shard.merged``
    with the shard count of a multi-shard run.

    Raises:
        SweepUnsupported: propagated from a shard whose range falls
            outside the vectorized fragment (raw successors).
    """
    global _ACTIVE
    if workers is None:
        workers = min(len(ranges), os.cpu_count() or 1)
    pool = _pool_usable(ranges, workers)
    if pool:
        from repro.verification.parallel import run_on_pool

        _ACTIVE = plan
        try:
            fragments = run_on_pool(_sweep_worker, ranges, workers=workers)
        finally:
            _ACTIVE = None
    else:
        fragments = [plan.sweep_range(lo, hi) for lo, hi in ranges]
    if metrics is not None:
        metrics.counter("kernel.sweep.vectorized").add(len(ranges))
        if len(ranges) > 1:
            metrics.counter("kernel.shard.merged").add(len(ranges))
    return merge_fragments(fragments), ("pickle" if pool else "inline")
