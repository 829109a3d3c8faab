"""Undirected graphs for protocol substrates.

A tiny, dependency-free adjacency structure used by the protocol library
(maximal matching, spanning trees, coloring on general graphs). Nodes are
arbitrary hashable identifiers; edges are unordered pairs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

__all__ = ["Graph"]

NodeId = Hashable


class Graph:
    """A simple undirected graph with deterministic iteration order."""

    #: The attributes :mod:`repro.core.fingerprint` hashes.
    _fingerprint_fields = ("_adjacency",)

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[tuple[NodeId, NodeId]] = (),
    ) -> None:
        self._adjacency: dict[NodeId, list[NodeId]] = {}
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, node: NodeId) -> None:
        self._adjacency.setdefault(node, [])

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adjacency[u]:
            self._adjacency[u].append(v)
            self._adjacency[v].append(u)

    @property
    def nodes(self) -> list[NodeId]:
        return list(self._adjacency)

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Each undirected edge once, in insertion order of its endpoints."""
        seen: set[frozenset[NodeId]] = set()
        for u in self._adjacency:
            for v in self._adjacency[u]:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def neighbors(self, node: NodeId) -> list[NodeId]:
        return list(self._adjacency[node])

    def degree(self, node: NodeId) -> int:
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        return max((len(adj) for adj in self._adjacency.values()), default=0)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: object) -> bool:
        return node in self._adjacency

    def is_connected(self) -> bool:
        nodes = self.nodes
        if not nodes:
            return True
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            node = frontier.pop()
            for other in self._adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(nodes)

    def bfs_levels(self, root: NodeId) -> dict[NodeId, int]:
        """Breadth-first distance of every reachable node from ``root``."""
        if root not in self._adjacency:
            raise KeyError(f"unknown node {root!r}")
        levels = {root: 0}
        frontier = [root]
        while frontier:
            next_frontier: list[NodeId] = []
            for node in frontier:
                for other in self._adjacency[node]:
                    if other not in levels:
                        levels[other] = levels[node] + 1
                        next_frontier.append(other)
            frontier = next_frontier
        return levels

    def __repr__(self) -> str:
        return f"Graph({len(self)} nodes, {sum(1 for _ in self.edges())} edges)"
