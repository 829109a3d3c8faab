"""Constraint graphs (Section 4 of the paper).

A constraint graph of a set of convergence actions is a directed graph
with one edge per action, such that:

(i)  each node is labeled with a set of variables, and node labels are
     mutually exclusive;
(ii) the action labeling the edge ``v -> w`` reads only variables in
     ``vars(v) | vars(w)`` and writes only variables in ``vars(w)``.

The shape of the graph determines which of the paper's theorems applies:

- **out-tree** (one node of indegree 0, all others indegree 1, weakly
  connected) — Theorem 1;
- **self-looping** (no cycle of length greater than 1) — Theorem 2;
- otherwise **cyclic** — Theorem 3 via layering, or the Section 7 state
  refinements.

:class:`ConstraintGraph` validates well-formedness on construction,
derives edges from convergence bindings, classifies itself, computes the
rank function used in the theorem proofs, and supports the two refinements
of Section 7 (restriction to a state subset; restriction to a subset of
the convergence actions, for layered designs).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Hashable

from repro.core.constraints import ConvergenceBinding
from repro.core.errors import IllFormedGraphError
from repro.core.program import Program
from repro.core.state import State

__all__ = ["GraphNode", "GraphEdge", "ConstraintGraph"]


@dataclass(frozen=True)
class GraphNode:
    """A constraint-graph node: a name plus its variable label."""

    name: str
    variables: frozenset[str]

    def __repr__(self) -> str:
        return f"GraphNode({self.name!r}: {{{', '.join(sorted(self.variables))}}})"


@dataclass(frozen=True)
class GraphEdge:
    """A constraint-graph edge: one convergence binding between two nodes."""

    source: GraphNode
    target: GraphNode
    binding: ConvergenceBinding

    @property
    def is_self_loop(self) -> bool:
        return self.source == self.target

    def __repr__(self) -> str:
        return (
            f"GraphEdge({self.source.name} -> {self.target.name} "
            f"[{self.binding.constraint.name}])"
        )


class ConstraintGraph:
    """A validated constraint graph over a set of convergence bindings."""

    def __init__(self, nodes: Iterable[GraphNode], edges: Iterable[GraphEdge]) -> None:
        self.nodes: tuple[GraphNode, ...] = tuple(nodes)
        self.edges: tuple[GraphEdge, ...] = tuple(edges)
        self._validate()
        # Edges by target and by source, in edge order: the edge tuple
        # never changes, so per-node queries need not scan it.
        self._incoming: dict[GraphNode, list[GraphEdge]] = {}
        self._outgoing: dict[GraphNode, list[GraphEdge]] = {}
        for edge in self.edges:
            self._incoming.setdefault(edge.target, []).append(edge)
            self._outgoing.setdefault(edge.source, []).append(edge)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bindings(
        cls,
        nodes: Iterable[GraphNode],
        bindings: Iterable[ConvergenceBinding],
    ) -> "ConstraintGraph":
        """Derive edges from bindings given a node partition.

        For each binding: the target is the unique node containing the
        action's writes; the source contributes the remaining reads. An
        action whose reads fit entirely inside the target node yields a
        self-loop.
        """
        node_list = list(nodes)
        owner: dict[str, GraphNode] = {}
        for node in node_list:
            # Sorted so a multi-way label overlap names the same variable
            # every run (set iteration order varies with hash seeding).
            for variable in sorted(node.variables):
                if variable in owner:
                    raise IllFormedGraphError(
                        f"variable {variable!r} appears in the labels of both "
                        f"{owner[variable].name!r} and {node.name!r}; labels "
                        "must be mutually exclusive"
                    )
                owner[variable] = node

        edges: list[GraphEdge] = []
        for binding in bindings:
            action = binding.action
            target = cls._unique_owner(owner, action.writes, action.name, "writes")
            external_reads = action.reads - target.variables
            if external_reads:
                source = cls._unique_owner(
                    owner, external_reads, action.name, "reads"
                )
            else:
                source = target
            edges.append(GraphEdge(source=source, target=target, binding=binding))
        return cls(node_list, edges)

    @classmethod
    def from_process_partition(
        cls,
        program: Program,
        bindings: Iterable[ConvergenceBinding],
        *,
        include: Iterable[Hashable] | None = None,
    ) -> "ConstraintGraph":
        """Build nodes from variable ownership: one node per process.

        This is the natural partition for the paper's distributed designs,
        where each node of the graph is a process and its label is the set
        of variables the process owns.
        """
        by_process: dict[Hashable, set[str]] = {}
        for variable in program.variables.values():
            if variable.process is None:
                raise IllFormedGraphError(
                    f"variable {variable.name!r} has no owning process; use "
                    "ConstraintGraph.from_bindings with an explicit partition"
                )
            by_process.setdefault(variable.process, set()).add(variable.name)
        wanted = set(include) if include is not None else set(by_process)
        nodes = [
            GraphNode(name=str(process), variables=frozenset(variables))
            for process, variables in sorted(
                by_process.items(), key=lambda item: str(item[0])
            )
            if process in wanted
        ]
        return cls.from_bindings(nodes, bindings)

    @staticmethod
    def _unique_owner(
        owner: Mapping[str, GraphNode],
        variables: frozenset[str],
        action_name: str,
        role: str,
    ) -> GraphNode:
        found: set[GraphNode] = set()
        # Sorted so the uncovered-variable error names the same variable
        # every run, not whichever the set happens to yield first.
        for variable in sorted(variables):
            if variable not in owner:
                raise IllFormedGraphError(
                    f"action {action_name!r} {role} variable {variable!r} "
                    "which no node label covers"
                )
            found.add(owner[variable])
        if len(found) != 1:
            names = sorted(node.name for node in found)
            raise IllFormedGraphError(
                f"action {action_name!r} {role} span multiple nodes {names}; "
                "each edge has exactly one source and one target node"
            )
        return next(iter(found))

    def _validate(self) -> None:
        owner: dict[str, GraphNode] = {}
        for node in self.nodes:
            for variable in sorted(node.variables):
                if variable in owner and owner[variable] != node:
                    raise IllFormedGraphError(
                        f"variable {variable!r} labels two nodes"
                    )
                owner[variable] = node
        node_set = set(self.nodes)
        for edge in self.edges:
            if edge.source not in node_set or edge.target not in node_set:
                raise IllFormedGraphError(f"edge {edge!r} uses an unknown node")
            action = edge.binding.action
            edge_label = f"{edge.source.name!r} -> {edge.target.name!r}"
            escaped_writes = action.writes - edge.target.variables
            if escaped_writes:
                raise IllFormedGraphError(
                    f"action {action.name!r} on edge {edge_label} writes "
                    f"{sorted(escaped_writes)} outside its target node "
                    f"{edge.target.name!r} (label {sorted(edge.target.variables)})"
                )
            allowed = edge.source.variables | edge.target.variables
            escaped_reads = action.reads - allowed
            if escaped_reads:
                raise IllFormedGraphError(
                    f"action {action.name!r} on edge {edge_label} reads "
                    f"{sorted(escaped_reads)} outside the union of its nodes "
                    f"(label {sorted(allowed)})"
                )
            escaped_support = edge.binding.constraint.support - allowed
            if escaped_support:
                raise IllFormedGraphError(
                    f"constraint {edge.binding.constraint.name!r} on edge "
                    f"{edge_label} reads {sorted(escaped_support)} outside the "
                    f"union of its nodes (label {sorted(allowed)})"
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def bindings(self) -> tuple[ConvergenceBinding, ...]:
        return tuple(edge.binding for edge in self.edges)

    def active_nodes(self) -> list[GraphNode]:
        """Nodes incident to at least one edge, in declaration order."""
        incident = {edge.source for edge in self.edges}
        incident |= {edge.target for edge in self.edges}
        return [node for node in self.nodes if node in incident]

    def incoming(self, node: GraphNode) -> list[GraphEdge]:
        """Edges whose target is ``node`` (self-loops included)."""
        return list(self._incoming.get(node, ()))

    def outgoing(self, node: GraphNode) -> list[GraphEdge]:
        """Edges whose source is ``node`` (self-loops included)."""
        return list(self._outgoing.get(node, ()))

    def indegree(self, node: GraphNode) -> int:
        return len(self._incoming.get(node, ()))

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def is_weakly_connected(self) -> bool:
        """Whether the active nodes form one weakly connected component."""
        active = self.active_nodes()
        if len(active) <= 1:
            return True
        neighbours: dict[GraphNode, set[GraphNode]] = {node: set() for node in active}
        for edge in self.edges:
            neighbours[edge.source].add(edge.target)
            neighbours[edge.target].add(edge.source)
        seen = {active[0]}
        frontier = [active[0]]
        while frontier:
            node = frontier.pop()
            for other in neighbours[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(active)

    def is_out_tree(self) -> bool:
        """Whether the graph is an out-tree (Theorem 1's shape).

        One active node of indegree zero, every other active node of
        indegree one, weakly connected. Self-loops count toward indegree,
        so any self-loop disqualifies the graph, as in the paper's
        definition.
        """
        active = self.active_nodes()
        if not active:
            return False
        indegrees = [self.indegree(node) for node in active]
        roots = sum(1 for d in indegrees if d == 0)
        others_ok = all(d == 1 for d in indegrees if d != 0)
        return roots == 1 and others_ok and self.is_weakly_connected()

    def has_proper_cycle(self) -> bool:
        """Whether some cycle of length greater than 1 exists."""
        order = self._topological_order_ignoring_self_loops()
        return order is None

    def is_self_looping(self) -> bool:
        """Whether every cycle is a self-loop (Theorem 2's shape).

        Out-trees are a special case: an acyclic graph is trivially
        self-looping.
        """
        return not self.has_proper_cycle()

    def _topological_order_ignoring_self_loops(self) -> list[GraphNode] | None:
        """Kahn's algorithm over non-self-loop edges; ``None`` if cyclic."""
        active = self.active_nodes()
        indegree = {node: 0 for node in active}
        successors: dict[GraphNode, list[GraphNode]] = {node: [] for node in active}
        for edge in self.edges:
            if edge.is_self_loop:
                continue
            indegree[edge.target] += 1
            successors[edge.source].append(edge.target)
        ready = [node for node in active if indegree[node] == 0]
        order: list[GraphNode] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for nxt in successors[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(active):
            return None
        return order

    def ranks(self) -> dict[GraphNode, int]:
        """The rank function from the proofs of Theorems 1 and 2.

        ``rank(j) = 1 + max{rank(k) | edge k -> j, k != j}`` with the max
        of the empty set taken as 0, so source nodes have rank 1. Defined
        only for self-looping graphs.

        Raises:
            IllFormedGraphError: if the graph has a proper cycle.
        """
        order = self._topological_order_ignoring_self_loops()
        if order is None:
            raise IllFormedGraphError(
                "ranks are defined only for self-looping constraint graphs"
            )
        rank: dict[GraphNode, int] = {}
        for node in order:
            best = 0
            for edge in self.incoming(node):
                if not edge.is_self_loop:
                    best = max(best, rank[edge.source])
            rank[node] = 1 + best
        return rank

    def classification(self) -> str:
        """One of ``"out-tree"``, ``"self-looping"``, ``"cyclic"``."""
        if self.is_out_tree():
            return "out-tree"
        if self.is_self_looping():
            return "self-looping"
        return "cyclic"

    # ------------------------------------------------------------------
    # Section 7 refinements
    # ------------------------------------------------------------------

    def restricted_to_states(self, states: Sequence[State]) -> "ConstraintGraph":
        """Drop edges whose constraint holds at every supplied state.

        Section 7, first refinement: in reasoning about a closed state
        subset ``R``, edges of constraints true throughout ``R`` can be
        ignored. A cyclic graph may become self-looping this way.
        """
        kept = [
            edge
            for edge in self.edges
            if not all(edge.binding.constraint.holds(state) for state in states)
        ]
        return ConstraintGraph(self.nodes, kept)

    def subgraph(self, bindings: Iterable[ConvergenceBinding]) -> "ConstraintGraph":
        """The graph restricted to a subset of the convergence actions.

        Section 7, layered refinement: each layer of a hierarchical
        partition has its own constraint graph over the same nodes.
        """
        wanted = {id(binding) for binding in bindings}
        kept = [edge for edge in self.edges if id(edge.binding) in wanted]
        return ConstraintGraph(self.nodes, kept)

    def __repr__(self) -> str:
        return (
            f"ConstraintGraph({len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"{self.classification()})"
        )
