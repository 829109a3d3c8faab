"""The design workflow of Section 3.

Given a candidate triple ``(p, S, T)`` — closure actions preserving both
``S`` and ``T`` — and a set of convergence bindings, this module builds
the augmented program ``p ∪ {ca.1, …, ca.n}`` and validates it against
the paper's sufficient conditions.

:class:`NonmaskingDesign` is the designer-facing bundle: it holds the
candidate, the bindings, the node partition of the constraint graph, and
(for Theorem 3 designs) the layer partition. :meth:`NonmaskingDesign.validate`
selects the strongest applicable theorem automatically: Theorem 1 when the
graph is an out-tree, else Theorem 2 when it is self-looping, else
Theorem 3 when layers were supplied.

Merging: the paper merges convergence actions with closure actions sharing
a statement (Section 5.1). A binding whose action carries the same *name*
as a closure action of the candidate replaces that closure action in the
augmented program, so the deployed program contains one merged action, as
in the paper's final program listings.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.candidate import CandidateTriple
from repro.core.constraint_graph import ConstraintGraph, GraphNode
from repro.core.constraints import ConvergenceBinding
from repro.core.errors import DesignError
from repro.core.program import Program
from repro.core.state import State
from repro.core.theorems import (
    TheoremCertificate,
    validate_theorem1,
    validate_theorem2,
    validate_theorem3,
)

__all__ = ["augment", "DesignReport", "NonmaskingDesign"]


def augment(
    candidate: CandidateTriple,
    bindings: Sequence[ConvergenceBinding],
    *,
    name: str | None = None,
) -> Program:
    """Build the augmented program ``p ∪ {ca.1, …, ca.n}``.

    A convergence action whose name matches a closure action replaces it
    (the paper's merged form); all other convergence actions are appended.
    """
    merged: dict[str, object] = {}
    for binding in bindings:
        existing = merged.get(binding.action.name)
        if existing is not None and existing is not binding.action:
            raise DesignError(
                f"two different actions share the name {binding.action.name!r}; "
                "a single action object may serve several bindings, distinct "
                "actions need distinct names"
            )
        merged[binding.action.name] = binding.action
    actions = [
        merged.pop(action.name, action) for action in candidate.program.actions
    ]
    actions.extend(merged.values())
    program_name = name if name is not None else f"{candidate.program.name}+q"
    return Program(program_name, candidate.program.variables.values(), actions)  # type: ignore[arg-type]


@dataclass(frozen=True)
class DesignReport:
    """Result of validating a nonmasking design.

    Attributes:
        ok: Whether some theorem's conditions were fully satisfied.
        selected: The certificate that validated the design, or the most
            specific failed certificate when none did.
        certificates: Every certificate attempted, in the order tried.
    """

    ok: bool
    selected: TheoremCertificate
    certificates: tuple[TheoremCertificate, ...]

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        header = "design VALID" if self.ok else "design NOT validated"
        return f"{header}\n{self.selected.describe()}"


class NonmaskingDesign:
    """A complete nonmasking fault-tolerance design.

    Bundles the candidate triple, the convergence bindings, the constraint
    graph partition, and the optional Theorem 3 layers. Protocol modules
    construct one of these per protocol so that examples, tests and
    benchmarks all validate through the same entry point.
    """

    #: The attributes :mod:`repro.core.fingerprint` hashes (the augmented
    #: program and the constraint graph are derived from them).
    _fingerprint_fields = ("name", "candidate", "bindings", "nodes", "layers")

    def __init__(
        self,
        name: str,
        candidate: CandidateTriple,
        bindings: Sequence[ConvergenceBinding],
        nodes: Sequence[GraphNode],
        *,
        layers: Sequence[Sequence[ConvergenceBinding]] | None = None,
    ) -> None:
        if not bindings:
            raise DesignError("a design needs at least one convergence binding")
        bound = {id(b.constraint) for b in bindings}
        declared = {id(c) for c in candidate.constraints}
        if not bound <= declared:
            raise DesignError(
                "every binding's constraint must come from the candidate triple"
            )
        if layers is not None:
            flat = [binding for layer in layers for binding in layer]
            if {id(b) for b in flat} != {id(b) for b in bindings}:
                raise DesignError("layers must partition exactly the given bindings")
        self.name = name
        self.candidate = candidate
        self.bindings = tuple(bindings)
        self.nodes = tuple(nodes)
        self.layers = tuple(tuple(layer) for layer in layers) if layers else None
        self._graph: ConstraintGraph | None = None
        self._program: Program | None = None

    @property
    def graph(self) -> ConstraintGraph:
        """The constraint graph of all convergence bindings."""
        if self._graph is None:
            self._graph = ConstraintGraph.from_bindings(self.nodes, self.bindings)
        return self._graph

    @property
    def program(self) -> Program:
        """The augmented (deployed) program, with merged actions deduped."""
        if self._program is None:
            self._program = augment(self.candidate, self.bindings, name=self.name)
        return self._program

    def validate(
        self,
        states: Sequence[State],
        *,
        theorem: str = "auto",
    ) -> DesignReport:
        """Validate the design against the paper's sufficient conditions.

        Args:
            states: The finite state set over which preservation
                obligations are discharged (typically the full state space
                of the instance, or its fault-span).
            theorem: ``"auto"`` picks by graph shape; ``"1"``, ``"2"`` or
                ``"3"`` forces a specific theorem.
        """
        states = list(states)
        attempted: list[TheoremCertificate] = []

        def t1() -> TheoremCertificate:
            return validate_theorem1(self.candidate, self.graph, states)

        def t2() -> TheoremCertificate:
            return validate_theorem2(self.candidate, self.graph, states)

        def t3() -> TheoremCertificate:
            if self.layers is None:
                raise DesignError(
                    f"design {self.name!r} has no layer partition; Theorem 3 "
                    "requires one"
                )
            return validate_theorem3(self.candidate, self.layers, self.nodes, states)

        if theorem == "1":
            certificate = t1()
            attempted.append(certificate)
        elif theorem == "2":
            certificate = t2()
            attempted.append(certificate)
        elif theorem == "3":
            certificate = t3()
            attempted.append(certificate)
        elif theorem == "auto":
            if self.layers is not None:
                certificate = t3()
                attempted.append(certificate)
            elif self.graph.is_out_tree():
                certificate = t1()
                attempted.append(certificate)
            else:
                certificate = t2()
                attempted.append(certificate)
        else:
            raise DesignError(f"unknown theorem selector {theorem!r}")

        return DesignReport(
            ok=certificate.ok,
            selected=certificate,
            certificates=tuple(attempted),
        )

    def __repr__(self) -> str:
        layered = f", {len(self.layers)} layers" if self.layers else ""
        return (
            f"NonmaskingDesign({self.name!r}, {len(self.bindings)} bindings"
            f"{layered})"
        )
