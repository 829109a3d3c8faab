"""The :func:`repro.verify` facade and the deprecation shims.

Two guarantees are pinned here:

- **Parity** — for every library case x engine x method combination the
  facade's verdict agrees bit-for-bit (``ok``, ``classification``,
  ``stabilizing``) with the legacy direct checker;
- **Deprecation mechanics** — each legacy entry point still works, still
  returns the legacy type, and warns exactly once per call.

CI runs this file under ``-W error::DeprecationWarning``: everything
except the explicitly guarded shim calls must be warning-free.
"""

import warnings

import pytest

import repro
from repro.api import Verdict, default_service
from repro.core.errors import ValidationError
from repro.core.predicates import TRUE
from repro.protocols.library import CASES, build_case
from repro.quantitative import HAVE_NUMPY
from repro.verification import (
    METHODS,
    ServiceVerdict,
    ToleranceReport,
    VerificationService,
    check_tolerance,
    validate_engine,
    validate_method,
)
from repro.verification.checker import _check_tolerance

#: Every library case small enough to explore exhaustively in a test,
#: including all four design-capable ones and one bare program/invariant
#: case (dijkstra-ring, which has no compositional path).
PARITY_CASES = (
    "diffusing-chain",
    "diffusing-star",
    "coloring-chain",
    "leader-election-star",
    "dijkstra-ring",
)
SIZE = 3


class TestFacadeParity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("engine", ("auto", "dict", "packed"))
    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_matches_legacy_checker(self, name, engine, method):
        if method == "compositional" and CASES[name].build_design is None:
            with pytest.raises(ValidationError):
                repro.verify(name, size=SIZE, engine=engine, method=method,
                             service=VerificationService())
            return
        verdict = repro.verify(
            name,
            size=SIZE,
            engine=engine,
            method=method,
            service=VerificationService(),
        )
        program, invariant = build_case(name, SIZE)
        legacy = _check_tolerance(program, invariant, TRUE, engine=engine)
        assert verdict.record["ok"] == legacy.ok
        assert verdict.record["classification"] == legacy.classification
        assert verdict.record["stabilizing"] == legacy.stabilizing
        assert verdict.ok is legacy.ok

    def test_design_subject_matches_case_subject(self):
        design = CASES["diffusing-chain"].build_design(SIZE)
        by_design = repro.verify(design, service=VerificationService())
        by_name = repro.verify("diffusing-chain", size=SIZE,
                               service=VerificationService())
        for field in ("ok", "classification", "stabilizing", "method"):
            assert by_design.record[field] == by_name.record[field]

    def test_program_subject_requires_invariant(self):
        program, invariant = build_case("coloring-chain", SIZE)
        with pytest.raises(ValidationError, match="pass s="):
            repro.verify(program)
        verdict = repro.verify(program, s=invariant,
                               service=VerificationService())
        assert verdict.ok
        assert verdict.record["method"] == "full"  # no design to decompose

    def test_size_rejected_for_built_subjects(self):
        program, invariant = build_case("coloring-chain", SIZE)
        with pytest.raises(ValidationError, match="size="):
            repro.verify(program, s=invariant, size=4)

    def test_unknown_case_name(self):
        with pytest.raises(ValidationError, match="unknown verification case"):
            repro.verify("quantum-ring")

    def test_unknown_subject_type(self):
        with pytest.raises(ValidationError, match="cannot verify"):
            repro.verify(42)  # type: ignore[arg-type]

    def test_default_service_is_shared_and_overridable(self):
        assert default_service() is default_service()
        own = VerificationService()
        verdict = repro.verify("coloring-chain", size=SIZE, service=own)
        assert isinstance(verdict, ServiceVerdict)
        assert own.misses == 1


class TestMethodAwareCaching:
    def test_no_stale_cross_method_hits(self):
        service = VerificationService()
        full = repro.verify("diffusing-chain", size=SIZE, method="full",
                            service=service)
        assert not full.cached
        compositional = repro.verify("diffusing-chain", size=SIZE,
                                     method="compositional", service=service)
        assert not compositional.cached  # distinct key despite same instance
        assert compositional.record["method"] == "compositional"
        again = repro.verify("diffusing-chain", size=SIZE, method="full",
                             service=service)
        assert again.cached
        assert again.record["method"] == "full"

    def test_auto_reuses_the_compositional_entry(self):
        service = VerificationService()
        first = repro.verify("diffusing-chain", size=SIZE, service=service)
        assert first.record["method"] == "compositional"
        second = repro.verify("diffusing-chain", size=SIZE, service=service)
        assert second.cached
        assert second.record["method"] == "compositional"


class TestVerdictProtocol:
    def test_runtime_checkable_across_verdict_types(self):
        program, invariant = build_case("coloring-chain", SIZE)
        report = _check_tolerance(program, invariant, TRUE)
        assert isinstance(report, Verdict)

        from repro.compositional import certify_compositional

        certificate = certify_compositional(
            CASES["diffusing-chain"].build_design(SIZE)
        )
        assert isinstance(certificate, Verdict)

        design = CASES["diffusing-chain"].build_design(SIZE)
        theorem = design.validate(list(design.program.state_space())).selected
        assert isinstance(theorem, Verdict)

        from repro.staticcheck import lint_case

        assert isinstance(lint_case("coloring-chain"), Verdict)

        verdict = repro.verify("coloring-chain", size=SIZE,
                               service=VerificationService())
        assert isinstance(verdict, Verdict)

    def test_validators_are_exported(self):
        validate_engine("auto")
        validate_method("auto")
        with pytest.raises(ValidationError):
            validate_engine("warp")
        with pytest.raises(ValidationError):
            validate_method("warp")


class TestDeprecationShims:
    def test_check_tolerance_warns_once_and_returns_legacy_type(self):
        program, invariant = build_case("coloring-chain", SIZE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = check_tolerance(program, invariant, TRUE)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "repro.verify" in str(deprecations[0].message)
        assert isinstance(report, ToleranceReport)
        assert report.ok == _check_tolerance(program, invariant, TRUE).ok

    def test_facade_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            verdict = repro.verify("diffusing-chain", size=SIZE,
                                   service=VerificationService())
        assert verdict.ok

    @pytest.mark.skipif(
        not HAVE_NUMPY, reason="the quantitative layer requires numpy"
    )
    def test_quantified_facade_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            quantified = repro.verify("coloring-chain", size=SIZE,
                                      quantify=True,
                                      service=VerificationService())
        assert quantified.ok and quantified.quantitative.ok
