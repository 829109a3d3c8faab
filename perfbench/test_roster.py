"""Cross-check every hand-written expectation of the benchmark rosters.

The dict engine is the independent oracle: each expectation is checked
against it at a small size of the same family, so an answer the
benchmark accepts is never just what the program under test happened to
say.
"""

from __future__ import annotations

import pytest

import roster
from spans import SpanRecorder, layer_totals
from repro.verification import VerificationService


def _oracle_ok(program, invariant, *, states=None, fairness="weak") -> bool:
    verdict = VerificationService().verify_tolerance(
        program, invariant, states=states, method="full", engine="dict",
        fairness=fairness,
    )
    return verdict.ok


@pytest.mark.parametrize(
    "op", roster.SWEEP_OPS + roster.SWEEP_WARMUP, ids=lambda op: op.name
)
def test_sweep_expectation_matches_oracle(op):
    program, invariant = roster.build_program(op.family, op.small)
    states = list(program.state_space()) if op.supplied else None
    assert _oracle_ok(program, invariant, states=states) == (op.expect == roster.OK)


def test_negative_family_fails_at_every_small_size():
    for size in (4, 6):
        program, invariant = roster.build_program("dijkstra-ring-half-k", size)
        assert not _oracle_ok(program, invariant)


@pytest.mark.parametrize(
    "op", roster.CERTIFY_OPS + roster.CERTIFY_WARMUP, ids=lambda op: op.name
)
def test_certify_expectation_matches_oracle(op):
    # Every certify family is tolerant: a certificate must agree with the
    # oracle, and a refusal must never hide a negative verdict.
    design = roster.build_design(op.family, op.small)
    assert _oracle_ok(design.program, design.candidate.invariant)
    if op.expect == roster.OK:
        certified = VerificationService().verify_tolerance(
            design.program, design.candidate.invariant,
            method="compositional", design=design,
        )
        assert certified.ok


@pytest.mark.parametrize(
    "op",
    [op for op in roster.CERTIFY_OPS + roster.CERTIFY_WARMUP
     if op.expect == roster.REFUSED],
    ids=lambda op: op.name,
)
def test_refusal_expectation_holds_at_roster_size(op):
    design = roster.build_design(op.family, op.size)
    verdict = VerificationService().verify_tolerance(
        design.program, design.candidate.invariant,
        method=op.method, design=design,
    )
    assert verdict.record["status"] == "refused"
    assert verdict.record["refusal"].startswith(op.refusal)


@pytest.mark.parametrize(
    "item", roster.SERVE_VERIFY, ids=lambda item: f"{item[0]}-{item[2]}"
)
def test_serve_verify_expectation_matches_oracle(item):
    import repro
    from repro.protocols.library import build_case

    case, size, fairness, expect, method = item
    program, invariant = build_case(case, size)
    assert _oracle_ok(program, invariant, fairness=fairness) == (expect == roster.OK)
    verdict = repro.verify(
        case, size=size, fairness=fairness, service=VerificationService()
    )
    assert verdict.record["method"] == method


@pytest.mark.parametrize("item", roster.SERVE_LINT, ids=lambda item: item[0])
def test_serve_lint_expectation(item):
    from repro.staticcheck import lint_case

    case, size, expect = item
    assert lint_case(case, size).ok == (expect == roster.OK)


@pytest.mark.parametrize("item", roster.SERVE_MISS, ids=lambda item: item[0])
def test_serve_miss_expectation_matches_oracle(item):
    from repro.protocols.library import build_case

    case, size, expect = item
    program, invariant = build_case(case, size)
    assert _oracle_ok(program, invariant) == (expect == roster.OK)


def test_self_time_subtracts_children():
    spans = [
        (1, 0, "outer", 0.0, 10.0, None),
        (2, 1, "inner", 1.0, 4.0, None),
        (3, 1, "inner", 5.0, 7.0, None),
    ]
    totals = layer_totals(spans)
    assert totals["outer"] == {"calls": 1, "seconds": 10.0, "self": 5.0}
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self"] == 5.0


def test_wrappers_record_nested_spans_and_uninstall():
    import repro.kernel.sweeps as sweeps

    original = sweeps.closure_scan
    recorder = SpanRecorder("test")
    recorder.install()
    try:
        assert sweeps.closure_scan is not original
        program, invariant = roster.build_program("dijkstra-ring", 5)
        recorder.span(
            "op",
            VerificationService().verify_tolerance,
            program, invariant, method="full", shards=1,
        )
    finally:
        recorder.uninstall()
    assert sweeps.closure_scan is original
    names = {span[2] for span in recorder.spans}
    assert {"op", "kernel.compile", "kernel.plan", "kernel.sweep",
            "kernel.closure", "fingerprint"} <= names
    ops = {span[0] for span in recorder.spans if span[2] == "op"}
    assert all(span[1] in ops for span in recorder.spans if span[2] == "fingerprint")
