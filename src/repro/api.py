"""The stable public facade: :func:`repro.verify` and the Verdict protocol.

One entry point covers the common question — *is this thing T-tolerant
for S?* — regardless of how the thing is spelled:

- a **library case name** (``"diffusing-chain"``) builds the registered
  instance, using its full design when one is available;
- a :class:`~repro.core.design.NonmaskingDesign` verifies the design's
  own candidate invariant over its augmented program;
- a bare :class:`~repro.core.program.Program` verifies the supplied
  invariant ``s`` (required in this spelling).

Every call routes through a :class:`~repro.verification.VerificationService`
(the module keeps a default instance, so repeated calls hit its cache;
pass ``service=`` to control caching and observability), honours the
``method`` switch (``"compositional"`` certifies from per-edge
projections, ``"auto"`` tries that and falls back to full exploration),
and returns a :class:`~repro.verification.ServiceVerdict` — one of the
types satisfying the :class:`Verdict` protocol.

Deprecation policy (see ``docs/API.md``): the legacy entry points —
``repro.verification.check_tolerance`` and the liveness names that used
to live in ``repro.verification.service`` — have been removed, and
importing them fails; this facade replaces them.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any, Protocol, runtime_checkable

from repro.core.design import NonmaskingDesign
from repro.core.errors import ValidationError
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.quantitative import DEFAULT_FAULT_RATE
from repro.verification.service import ServiceVerdict, VerificationService

__all__ = ["Verdict", "verify"]


@runtime_checkable
class Verdict(Protocol):
    """What every verification outcome in this library answers.

    Satisfied (structurally — no registration needed) by
    :class:`~repro.verification.ToleranceReport`,
    :class:`~repro.core.theorems.TheoremCertificate`,
    :class:`~repro.staticcheck.LintReport`,
    :class:`~repro.compositional.CompositionalCertificate` and
    :class:`~repro.verification.ServiceVerdict`.

    Attributes:
        ok: The verdict proper — ``True`` means the checked property
            holds (or, for a lint report, no error-severity findings).
    """

    ok: bool

    def describe(self) -> str:
        """Human-readable multi-line rendering of the outcome."""
        ...

    def to_json(self) -> dict[str, Any]:
        """JSON-able summary with a stable key set."""
        ...


#: Lazily created default service backing facade calls without ``service=``.
_default_service: VerificationService | None = None


def default_service() -> VerificationService:
    """The shared :class:`VerificationService` behind :func:`verify`.

    Created on first use (in-memory cache only, no tracer/metrics).
    Repeated facade calls for the same instance answer from its cache;
    tests and tools that need isolation pass their own ``service=``.
    """
    global _default_service
    if _default_service is None:
        _default_service = VerificationService()
    return _default_service


def verify(
    subject: str | NonmaskingDesign | Program,
    *,
    s: Predicate | None = None,
    t: Predicate | None = None,
    states: Iterable[State] | None = None,
    size: int | None = None,
    fairness: str = "weak",
    engine: str = "auto",
    method: str = "auto",
    lint: bool = False,
    quantify: bool = False,
    fault_rate: float = DEFAULT_FAULT_RATE,
    service: VerificationService | None = None,
) -> ServiceVerdict:
    """Verify that ``subject`` is ``t``-tolerant for ``s``.

    Args:
        subject: A library case name, a full design, or a bare program.
        s: The invariant ``S``. Required when ``subject`` is a program;
            optional otherwise (defaults to the case's/design's own
            invariant; supplying it disables the compositional method,
            whose certificate is about the design's invariant).
        t: The fault span ``T``; defaults to ``TRUE`` (stabilization).
        states: The instance's state set; defaults to the full space.
            Supplied subsets force full exploration (a projection cannot
            see which states were left out).
        size: Instance size for a case-name subject (defaults to the
            case's registered default size); rejected otherwise.
        fairness: Computation model for convergence (``"weak"`` is the
            paper's).
        engine: ``"packed"``, ``"dict"`` or ``"auto"`` — how the full
            method represents states (verdict-identical either way).
        method: ``"full"``, ``"compositional"`` or ``"auto"`` (try
            compositional when a design is at hand, fall back to full on
            refusal). See :mod:`repro.compositional`.
        lint: Run the :mod:`repro.staticcheck` passes first and fail
            fast on error-severity findings.
        quantify: Also run the quantitative tolerance analysis
            (:mod:`repro.quantitative`) and attach a
            :class:`~repro.quantitative.QuantitativeReport` — itself a
            :class:`Verdict` — to the returned verdict
            (``verdict.quantitative``; the record gains
            ``"quantitative"``). Needs state-space exploration, so it
            cannot combine with ``method="compositional"``.
        fault_rate: Relative fault-action weight for the quantitative
            fault-weighted convergence expectation.
        service: The caching service to route through; defaults to the
            module-wide :func:`default_service`.

    Returns:
        A :class:`~repro.verification.ServiceVerdict` (a :class:`Verdict`).

    Raises:
        ValidationError: on an unknown case name, a program subject
            without ``s``, ``size=`` for a non-case subject, or an
            invalid ``engine``/``method``/``fairness`` spelling.
    """
    if size is not None and not isinstance(subject, str):
        raise ValidationError(
            "size= only applies to library case names; instance size is "
            "fixed once a Program or NonmaskingDesign is built"
        )
    design: NonmaskingDesign | None = None
    case: str | None = None

    if isinstance(subject, str):
        from repro.protocols.library import CASES, build_case

        entry = CASES.get(subject)
        if entry is None:
            known = ", ".join(CASES)
            raise ValidationError(
                f"unknown verification case {subject!r}; known cases: {known}"
            )
        chosen = size if size is not None else entry.default_size
        case = f"{subject} (n={chosen})"
        if entry.build_design is not None and s is None and method != "full":
            design = entry.build_design(chosen)
            program, invariant = design.program, design.candidate.invariant
        else:
            program, invariant = build_case(subject, chosen)
            if s is not None:
                invariant = s
    elif isinstance(subject, NonmaskingDesign):
        program = subject.program
        if s is None:
            design = subject
            invariant = subject.candidate.invariant
        else:
            invariant = s
        case = subject.name
    elif isinstance(subject, Program):
        if s is None:
            raise ValidationError(
                "verify(program, ...) needs the invariant: pass s=; only "
                "case names and designs carry their own"
            )
        program, invariant = subject, s
        case = subject.name
    else:
        raise ValidationError(
            f"cannot verify a {type(subject).__name__}; expected a library "
            "case name, a NonmaskingDesign, or a Program"
        )

    backend = service if service is not None else default_service()
    return backend.verify_tolerance(
        program,
        invariant,
        t,
        states,
        fairness=fairness,
        engine=engine,
        method=method,
        design=design,
        case=case,
        lint=lint,
        quantify=quantify,
        fault_rate=fault_rate,
    )
