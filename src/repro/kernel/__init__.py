"""Packed-state exploration kernel.

Encodes each program state as a single mixed-radix integer
(:class:`StateCodec`), compiles guards and statements into closures over
decoded digit/value lists (:mod:`repro.kernel.compile`), memoizes each
action's successor function over its read-support projection when the
declared supports pass the RW001-RW003 soundness gate, and backs
the one :class:`~repro.verification.explorer.TransitionSystem` type
with flat ``array('q')`` buffers of packed codes.

Selected via ``engine="packed"`` (or the default ``engine="auto"``,
which falls back to the dict engine on :class:`PackedUnsupported`) in
:func:`repro.verification.explorer.build_transition_system`,
:func:`repro.verification.explorer.explore`,
:func:`repro.verify`, and
:meth:`repro.verification.service.VerificationService.verify_tolerance`.

See ``docs/PERFORMANCE.md`` for the codec layout and the locality
argument that makes projection-keyed successor tables sound.
"""

from repro.kernel.codec import PackedUnsupported, StateCodec
from repro.kernel.compile import (
    CompiledAction,
    DigitStateView,
    action_supports_ok,
    compile_expr,
    compile_predicate_fn,
)
from repro.kernel.engine import (
    PackedKernel,
    build_packed_system,
    compile_program,
    explore_packed,
    kernel_supported,
)
from repro.kernel.verify import check_tolerance_packed

__all__ = [
    "CompiledAction",
    "DigitStateView",
    "PackedKernel",
    "PackedUnsupported",
    "StateCodec",
    "action_supports_ok",
    "build_packed_system",
    "check_tolerance_packed",
    "compile_expr",
    "compile_predicate_fn",
    "compile_program",
    "explore_packed",
    "kernel_supported",
]
