"""Full-space exploration over in-process code ranges.

The mixed-radix code range ``0 .. size-1`` *is* the full state space
(:mod:`repro.kernel.codec`), so splitting it into contiguous code
ranges partitions the space with no handshaking: every range is swept
independently (membership masks plus successor CSR fragment, via
:class:`~repro.kernel.sweeps.SweepPlan`) and the fragments concatenate
back — in range order — into arrays bit-identical to a one-range sweep.

The ranges are swept one after another in this process. A range bounds
the transient arrays of one sweep step, and the streaming verdict path
(``memory_budget=``) reuses the same ranges as its chunks, so a range
count is a memory knob that never changes results
(``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from repro.kernel.sweeps import SweepPlan, merge_fragments

__all__ = [
    "SHARD_AUTO_THRESHOLD",
    "SHARD_TARGET",
    "MAX_AUTO_SHARDS",
    "plan_shards",
    "sweep_merged",
]

#: Auto mode aims at roughly this many states per code range.
SHARD_TARGET = 1 << 21

#: Below this size auto mode uses a single range (the fixed per-range
#: numpy overhead would dominate).
SHARD_AUTO_THRESHOLD = 1 << 22

#: Auto mode never plans more ranges than this.
MAX_AUTO_SHARDS = 64


def plan_shards(size: int, shards: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` code ranges covering ``0 .. size-1``.

    ``shards=None`` is the auto heuristic: one range for small spaces,
    otherwise about :data:`SHARD_TARGET` states per range, capped at
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


def sweep_merged(plan: SweepPlan, ranges: list[tuple[int, int]], *, metrics=None):
    """Sweep every range of ``plan`` in process, in order, and merge.

    Returns the merged ``(s_mask, t_mask, offsets, targets,
    action_ids)``. Counters (when a metrics registry is passed):
    ``kernel.sweep.vectorized`` per range swept, ``kernel.shard.merged``
    with the range count of a multi-range sweep.

    Raises:
        SweepUnsupported: propagated from a range that falls outside the
            vectorized fragment (raw successors).
    """
    fragments = [plan.sweep_range(lo, hi) for lo, hi in ranges]
    if metrics is not None:
        metrics.counter("kernel.sweep.vectorized").add(len(ranges))
        if len(ranges) > 1:
            metrics.counter("kernel.shard.merged").add(len(ranges))
    return merge_fragments(fragments)
