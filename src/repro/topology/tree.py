"""Rooted trees.

The diffusing computation (Section 5.1) runs on a finite rooted tree. The
paper's convention: ``P.j`` is the parent of ``j``, and the root is its own
parent. :class:`RootedTree` stores the parent map, derives children and
leaves, and validates that the structure really is a tree (single root,
no cycles, connected).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping

__all__ = ["RootedTree"]

NodeId = Hashable


class RootedTree:
    """A finite rooted tree given by its parent map.

    The root maps to itself, matching the paper's ``P.j = j`` convention.
    """

    #: The attributes :mod:`repro.core.fingerprint` hashes.
    _fingerprint_fields = ("_parent",)

    def __init__(self, parent: Mapping[NodeId, NodeId]) -> None:
        if not parent:
            raise ValueError("a tree must have at least one node")
        self._parent = dict(parent)
        roots = [node for node, par in self._parent.items() if node == par]
        if len(roots) != 1:
            raise ValueError(
                f"expected exactly one root (node with P.j = j), found {roots}"
            )
        self.root: NodeId = roots[0]
        self._children: dict[NodeId, list[NodeId]] = {
            node: [] for node in self._parent
        }
        for node, par in self._parent.items():
            if node == par:
                continue
            if par not in self._parent:
                raise ValueError(f"node {node!r} has unknown parent {par!r}")
            self._children[par].append(node)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        for start in self._parent:
            node = start
            steps = 0
            while node != self.root:
                node = self._parent[node]
                steps += 1
                if steps > len(self._parent):
                    raise ValueError(f"cycle in parent map reachable from {start!r}")

    @property
    def nodes(self) -> list[NodeId]:
        return list(self._parent)

    def parent(self, node: NodeId) -> NodeId:
        """``P.j`` — the parent of ``node``; the root is its own parent."""
        return self._parent[node]

    def children(self, node: NodeId) -> list[NodeId]:
        return list(self._children[node])

    def is_leaf(self, node: NodeId) -> bool:
        return not self._children[node]

    def leaves(self) -> list[NodeId]:
        return [node for node in self._parent if self.is_leaf(node)]

    def non_root_nodes(self) -> list[NodeId]:
        return [node for node in self._parent if node != self.root]

    def depth(self, node: NodeId) -> int:
        """Distance from the root (the root has depth 0)."""
        depth = 0
        while node != self.root:
            node = self._parent[node]
            depth += 1
        return depth

    def height(self) -> int:
        """The maximum depth over all nodes."""
        return max(self.depth(node) for node in self._parent)

    def preorder(self) -> Iterator[NodeId]:
        """Nodes in depth-first preorder from the root."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: object) -> bool:
        return node in self._parent

    def __repr__(self) -> str:
        return f"RootedTree({len(self)} nodes, root={self.root!r})"
