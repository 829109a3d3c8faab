"""E17 — compositional certification vs full exploration.

The compositional certifier (:mod:`repro.compositional`) discharges the
Theorem 1/2 antecedents over per-edge *projections* of the state space
instead of the product space. The acceptance bar from the certifier PR:

- a 200-node diffusing chain (``4^200`` product states — far beyond what
  either full engine can even represent) must certify, with every
  projection at or below the certifier's limit;
- on every small instance where both methods run, the certified verdict
  must agree bit-for-bit with full exploration (``ok``,
  ``classification``, ``stabilizing``);
- the n=200 chain sweeps exactly as many obligations (``enumerated``)
  as the n=8 chain: its other edges are renamed twins of the first
  few, recorded as ``symmetric`` without a sweep. A timing-free guard
  that sweeps no longer grow with ``n``;
- after certifying freshly built designs of the four large families
  (the benchmark's certify-large roster), no canonicalizer, projector
  or static discharger is left alive, so no ``id()``-keyed entry
  outlives its certification; diffusing-chain60 and coloring-chain150
  answer ``support-honesty`` and ``invariant-decomposition`` from their
  trees, with no probe state checked.

Timings land in ``BENCH_verification.json`` under the ``compositional``
suite.

Run standalone as a CI perf smoke (small instances plus the n=200
certification, seconds)::

    PYTHONPATH=src python benchmarks/bench_e17_compositional.py --quick
"""

import gc
import time

from repro import compositional
from repro.analysis import render_table
from repro.compositional import DEFAULT_PROJECTION_LIMIT, certify_compositional
from repro.core.errors import StateSpaceTooLargeError
from repro.core.predicates import TRUE
from repro.protocols.coloring import build_coloring_design
from repro.protocols.diffusing import build_diffusing_design
from repro.protocols.leader_election import build_leader_election_design
from repro.protocols.library import CASES
from repro.staticcheck import interference
from repro.staticcheck.interference import Canonicalizer, StaticDischarger
from repro.topology import chain_tree, star_tree
from repro.verification.checker import _check_tolerance

#: The design-capable library cases — the certifier's whole domain.
DESIGN_CASES = (
    "diffusing-chain",
    "diffusing-star",
    "coloring-chain",
    "leader-election-star",
)

#: Differential sizes: small enough for full exploration on every case.
SMALL_SIZES = (2, 3, 4, 5)

#: The scale demonstration: a chain no full engine can even represent.
LARGE_CHAIN = 200

#: A chain with every kind of edge the large one has.
SMALL_CHAIN = 8


#: Freshly built designs of the certify-large families, by name.
LARGE_DESIGNS = {
    "diffusing-chain60": lambda: build_diffusing_design(chain_tree(60)),
    "leader-election-star30": lambda: build_leader_election_design(
        star_tree(30)
    ),
    "coloring-chain150": lambda: build_coloring_design(chain_tree(150), k=3),
    "diffusing-star30": lambda: build_diffusing_design(star_tree(30)),
}

#: The designs whose support honesty and decomposition the trees answer.
TREE_ANSWERED = ("diffusing-chain60", "coloring-chain150")


def _certify_large_scope() -> list[str]:
    """Certify the large families; return what breaks the scope bars."""
    failures = []
    for name, build in LARGE_DESIGNS.items():
        certificate = certify_compositional(build())
        probed = [
            (ob.name, ob.checked)
            for ob in certificate.obligations
            if ob.name in ("support-honesty", "invariant-decomposition")
        ]
        print(f"  {name:<22} {certificate.status:<9} probes {probed}")
        if name in TREE_ANSWERED and (
            len(probed) != 2 or any(checked for _name, checked in probed)
        ):
            failures.append(f"{name}: probe battery used: {probed}")
        del certificate
    gc.collect()
    alive = [
        type(obj).__name__
        for obj in gc.get_objects()
        if isinstance(
            obj, (Canonicalizer, StaticDischarger, compositional._Projector)
        )
    ]
    # Process-wide state may hold only the token-keyed proof memo.
    alive += [
        f"{owner.__name__}.{attribute}"
        for owner in (interference, compositional, StaticDischarger)
        for attribute, value in vars(owner).items()
        if isinstance(value, dict)
        and attribute != "_memo"
        and any(isinstance(key, int) for key in value)
    ]
    print(f"  id-keyed memos alive afterwards: {len(alive)}")
    if alive:
        failures.append(f"id-keyed memos outlived their certification: {alive}")
    return failures


def _enumerated(certificate) -> int:
    return sum(
        1 for ob in certificate.obligations if ob.discharged_by == "enumerated"
    )


def _differential_sweep(sizes):
    """Certify and fully verify every case x size; assert bit-agreement.

    Returns ``(rows, instances)`` for the report table and the timings
    payload.
    """
    rows = []
    instances = []
    for name in DESIGN_CASES:
        for size in sizes:
            design = CASES[name].build_design(size)
            started = time.perf_counter()
            certificate = certify_compositional(design)
            compositional_seconds = time.perf_counter() - started
            assert certificate.ok, f"{name} n={size}: {certificate.refusal}"
            started = time.perf_counter()
            full = _check_tolerance(
                design.program, design.candidate.invariant, TRUE
            )
            full_seconds = time.perf_counter() - started
            for field in ("ok", "classification", "stabilizing"):
                assert getattr(certificate, field) == getattr(full, field), (
                    f"{name} n={size}: methods disagree on {field}"
                )
            rows.append(
                [
                    f"{name} n={size}",
                    str(full.total_states),
                    str(certificate.max_projection),
                    f"{full_seconds:.3f}s",
                    f"{compositional_seconds:.3f}s",
                ]
            )
            instances.append(
                {
                    "case": f"{name} (n={size})",
                    "total_states": full.total_states,
                    "max_projection": certificate.max_projection,
                    "obligations": len(certificate.obligations),
                    "full_seconds": full_seconds,
                    "compositional_seconds": compositional_seconds,
                }
            )
    return rows, instances


def _certify_large_chain():
    """Certify the n=200 chain; assert full exploration refuses first."""
    design = CASES["diffusing-chain"].build_design(LARGE_CHAIN)
    try:
        _check_tolerance(
            design.program, design.candidate.invariant, TRUE, engine="dict"
        )
    except StateSpaceTooLargeError:
        pass
    else:  # pragma: no cover - would mean the guard rail vanished
        raise AssertionError(
            "full exploration unexpectedly accepted the n=200 chain"
        )
    started = time.perf_counter()
    certificate = certify_compositional(design)
    seconds = time.perf_counter() - started
    assert certificate.ok, certificate.refusal
    assert certificate.max_projection <= DEFAULT_PROJECTION_LIMIT
    return certificate, seconds


def test_e17_compositional(benchmark, report, bench_timings):
    benchmark(
        lambda: certify_compositional(CASES["diffusing-chain"].build_design(8))
    )

    rows, instances = _differential_sweep(SMALL_SIZES)

    certificate, seconds = _certify_large_chain()
    rows.append(
        [
            f"diffusing-chain n={LARGE_CHAIN}",
            f"4^{LARGE_CHAIN}",
            str(certificate.max_projection),
            "refused (too large)",
            f"{seconds:.3f}s",
        ]
    )

    report(
        "e17_compositional",
        render_table(
            ["instance", "total states", "max projection", "full", "compositional"],
            rows,
            title="E17: compositional certification vs full exploration",
        ),
    )
    bench_timings(
        "compositional",
        {
            "projection_limit": DEFAULT_PROJECTION_LIMIT,
            "instances": instances,
            "large_chain": {
                "case": f"diffusing-chain (n={LARGE_CHAIN})",
                "obligations": len(certificate.obligations),
                "max_projection": certificate.max_projection,
                "seconds": seconds,
            },
        },
    )


# ----------------------------------------------------------------------
# CI perf smoke: python benchmarks/bench_e17_compositional.py --quick
# ----------------------------------------------------------------------


def run_quick() -> int:
    """Fast certifier smoke: small differential sweep plus the n=200 chain.

    Returns a process exit code.
    """
    failures = []
    print(
        f"compositional perf smoke: {len(DESIGN_CASES)} cases, "
        f"differential n=3 plus chain n={LARGE_CHAIN}"
    )
    for name in DESIGN_CASES:
        design = CASES[name].build_design(3)
        started = time.perf_counter()
        certificate = certify_compositional(design)
        seconds = time.perf_counter() - started
        if not certificate.ok:
            failures.append(f"{name}: refused: {certificate.refusal}")
            continue
        full = _check_tolerance(
            design.program, design.candidate.invariant, TRUE
        )
        agree = all(
            getattr(certificate, field) == getattr(full, field)
            for field in ("ok", "classification", "stabilizing")
        )
        print(
            f"  {name:<22} obligations={len(certificate.obligations):4} "
            f"projection<={certificate.max_projection:<6} {seconds:6.3f}s  "
            f"{'agree' if agree else 'DISAGREE'}"
        )
        if not agree:
            failures.append(f"{name}: verdict differs from full exploration")
    try:
        certificate, seconds = _certify_large_chain()
        print(
            f"  chain n={LARGE_CHAIN:<15} obligations="
            f"{len(certificate.obligations):4} "
            f"projection<={certificate.max_projection:<6} {seconds:6.3f}s  "
            "certified"
        )
    except AssertionError as error:
        failures.append(f"chain n={LARGE_CHAIN}: {error}")
    else:
        small = certify_compositional(
            CASES["diffusing-chain"].build_design(SMALL_CHAIN)
        )
        swept = {
            SMALL_CHAIN: _enumerated(small),
            LARGE_CHAIN: _enumerated(certificate),
        }
        print(
            f"  enumerated obligations: chain n={SMALL_CHAIN} "
            f"{swept[SMALL_CHAIN]}, chain n={LARGE_CHAIN} {swept[LARGE_CHAIN]}"
        )
        if swept[SMALL_CHAIN] != swept[LARGE_CHAIN]:
            failures.append(
                f"chain n={LARGE_CHAIN} swept {swept[LARGE_CHAIN]} obligations, "
                f"n={SMALL_CHAIN} swept {swept[SMALL_CHAIN]}: sweeps grow with n"
            )
    failures += _certify_large_scope()
    if failures:
        import sys

        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "compositional perf smoke passed: verdicts agree, "
        f"n={LARGE_CHAIN} certifies, caches scoped to one certification"
    )
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the fast certifier smoke instead of the full benchmark",
    )
    arguments = parser.parse_args()
    if arguments.quick:
        raise SystemExit(run_quick())
    import pytest

    raise SystemExit(pytest.main([__file__, "-q"]))
