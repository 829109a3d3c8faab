"""The three workloads' inputs and their hand-written expected answers.

Every op of every workload has an expected answer written down here,
not computed by the program under test: ``OK`` (T-tolerant for S),
``NOT_OK`` (a negative verdict) or ``REFUSED`` (the compositional
certifier declines). ``test_roster.py`` cross-checks each expectation
against the dict engine, the independent oracle, at a small size of the
same family.

This module imports ``repro`` only inside builders, so the serve-mix
client can read the rosters without loading the library.
"""

from __future__ import annotations

from dataclasses import dataclass

OK = "ok"
NOT_OK = "not-ok"
REFUSED = "refused"

# ----------------------------------------------------------------------
# Instance families. Each returns a freshly built instance: nothing is
# taken from the library's design caches, so kernel compiles, successor
# tables, verdict caches and identity-keyed proof memos all start empty.
# ----------------------------------------------------------------------


def build_program(family: str, size: int):
    """``(program, invariant)`` of a program family at ``size``."""
    if family == "dijkstra-ring-half-k":
        # K = n // 2 < n - 1 counters: too few for Dijkstra's ring, so a
        # fault can leave it cycling outside the legitimate states.
        from repro.protocols.token_ring import build_dijkstra_ring

        return build_dijkstra_ring(size, size // 2)
    from repro.protocols.library import build_case

    return build_case(family, size)


def build_design(family: str, size: int):
    """A fresh :class:`NonmaskingDesign` of a design family at ``size``."""
    from repro.topology import chain_tree, star_tree

    if family == "diffusing-chain":
        from repro.protocols.diffusing import build_diffusing_design

        return build_diffusing_design(chain_tree(size))
    if family == "diffusing-star":
        from repro.protocols.diffusing import build_diffusing_design

        return build_diffusing_design(star_tree(size))
    if family == "coloring-chain":
        from repro.protocols.coloring import build_coloring_design

        return build_coloring_design(chain_tree(size), k=3)
    if family == "leader-election-star":
        from repro.protocols.leader_election import build_leader_election_design

        return build_leader_election_design(star_tree(size))
    raise ValueError(f"unknown design family {family!r}")


# ----------------------------------------------------------------------
# sweep-cold: one op per packed path of the kernel.
#
# Sizes keep every op between ~10 and ~200 ms, so a 30 s run repeats
# each op dozens of times and its median scaled time is steady.
# ----------------------------------------------------------------------

#: A memory budget far below the 46,656-state ring's materialized CSR,
#: so the streaming count-only path runs.
STREAM_BUDGET = 1 << 16


@dataclass(frozen=True)
class SweepOp:
    """One cold full-space verdict.

    ``path`` is where the op must run, read from the kernel's public
    counters: ``vectorized``, ``sharded``, ``streaming`` or ``scalar``.
    ``small`` is the size the oracle test checks the expectation at.
    """

    name: str
    family: str
    size: int
    expect: str
    states: int
    path: str
    small: int
    shards: int | None = None
    memory_budget: int | None = None
    supplied: bool = False
    quantify: bool = False


SWEEP_OPS = [
    SweepOp("ring6", "dijkstra-ring", 6, OK, 6**6, "vectorized", 3),
    SweepOp("ring6-sharded", "dijkstra-ring", 6, OK, 6**6, "sharded", 3, shards=2),
    SweepOp(
        "ring6-streaming", "dijkstra-ring", 6, OK, 6**6, "streaming", 3,
        memory_budget=STREAM_BUDGET,
    ),
    SweepOp("diffusing-chain8", "diffusing-chain", 8, OK, 4**8, "vectorized", 3),
    # 729 states: below the size where numpy's fixed cost pays off, so
    # the kernel keeps it on the scalar packed sweep.
    SweepOp("matching-cycle6", "matching-cycle", 6, OK, 3**6, "scalar", 6),
    SweepOp(
        "ring7-k3", "dijkstra-ring-half-k", 7, NOT_OK, 3**7, "vectorized", 4
    ),
    SweepOp(
        "ring5-supplied", "dijkstra-ring", 5, OK, 5**5, "scalar", 3,
        supplied=True,
    ),
    SweepOp(
        "diffusing-chain7-quantify", "diffusing-chain", 7, OK, 4**7,
        "vectorized", 3, quantify=True,
    ),
]

#: The set-up warm-up: every sweep-cold path once at a small size, so
#: numpy, the shard pool, shared memory and the quantitative module are
#: loaded before the first timed op.
SWEEP_WARMUP = [
    SweepOp("w-ring5", "dijkstra-ring", 5, OK, 5**5, "vectorized", 3, shards=1),
    SweepOp("w-ring5-sharded", "dijkstra-ring", 5, OK, 5**5, "sharded", 3, shards=2),
    SweepOp(
        "w-ring5-streaming", "dijkstra-ring", 5, OK, 5**5, "streaming", 3,
        shards=1, memory_budget=1024,
    ),
    SweepOp("w-mp-ring2", "mp-token-ring", 2, OK, 6**2, "scalar", 2),
    SweepOp(
        "w-ring4-supplied", "dijkstra-ring", 4, OK, 4**4, "scalar", 3,
        supplied=True,
    ),
    SweepOp(
        "w-diffusing-chain5-quantify", "diffusing-chain", 5, OK, 4**5,
        "vectorized", 3, quantify=True,
    ),
]

# ----------------------------------------------------------------------
# certify-large: designs far too large to enumerate.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyOp:
    """One compositional certification of a freshly built design.

    ``method`` is passed to ``repro.verify``; an ``OK`` op must come back
    with ``record["method"] == "compositional"``, a ``REFUSED`` op with a
    refusal whose reason starts with ``refusal``.
    """

    name: str
    family: str
    size: int
    expect: str
    small: int
    method: str = "auto"
    refusal: str = ""
    #: Lowest share of obligations the static discharger must prove.
    min_static_share: float = 0.0


CERTIFY_OPS = [
    # 4^60 states.
    CertifyOp(
        "diffusing-chain60", "diffusing-chain", 60, OK, 4,
        min_static_share=0.6,
    ),
    CertifyOp(
        "diffusing-chain60", "diffusing-chain", 60, OK, 4,
        min_static_share=0.6,
    ),
    CertifyOp(
        "leader-election-star30", "leader-election-star", 30, OK, 3,
        min_static_share=0.7,
    ),
    CertifyOp(
        "leader-election-star30", "leader-election-star", 30, OK, 3,
        min_static_share=0.7,
    ),
    CertifyOp(
        "coloring-chain150", "coloring-chain", 150, OK, 4,
        min_static_share=0.99,
    ),
    # The hub's obligations project over every leaf's variables, far
    # above the certifier's projection limit, so an explicit
    # compositional request is refused (never a negative verdict).
    CertifyOp(
        "diffusing-star30", "diffusing-star", 30, REFUSED, 4,
        method="compositional", refusal="projection-size",
    ),
]

CERTIFY_WARMUP = [
    CertifyOp("w-diffusing-chain6", "diffusing-chain", 6, OK, 4),
    CertifyOp(
        "w-diffusing-star10", "diffusing-star", 10, REFUSED, 4,
        method="compositional", refusal="projection-size",
    ),
]

# ----------------------------------------------------------------------
# serve-mix: the daemon's warm roster, its lint roster and its misses.
# ----------------------------------------------------------------------

#: (case, size, fairness, expected verdict, expected resolved method).
#: Under weak fairness, cases with a registered design certify
#: compositionally; under no fairness the certifier refuses and the
#: daemon falls back to full exploration.
_CASES = [
    ("diffusing-chain", 4, True),
    ("diffusing-star", 3, True),
    ("dijkstra-ring", 5, False),
    ("coloring-chain", 4, True),
    ("leader-election-star", 3, True),
    ("spanning-tree-path", 4, False),
    ("matching-cycle", 4, False),
    ("mis-cycle", 5, False),
    ("mp-token-ring", 3, False),
    ("reset-chain", 3, False),
    ("graph-coloring-cycle", 4, False),
    ("four-state-line", 5, False),
]

SERVE_VERIFY = [
    (case, size, fairness, OK,
     "compositional" if has_design and fairness == "weak" else "full")
    for case, size, has_design in _CASES
    for fairness in ("weak", "none")
]

#: (case, size, expected lint verdict).
SERVE_LINT = [(case, size, OK) for case, size, _ in _CASES]

#: Cold misses: ``quantify: true`` with a fault rate not used before in
#: the run, so every one is computed. (case, size, expected verdict).
SERVE_MISS = [("diffusing-chain", 4, OK), ("reset-chain", 3, OK)]

#: Request shares of the serve-mix closed loop.
SERVE_SHARES = {"hit": 0.80, "lint": 0.15, "miss": 0.05}
