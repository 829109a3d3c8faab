"""Rings.

The token-ring design (Section 7.1) uses ``N+1`` nodes numbered ``0``
through ``N`` organized in a ring where the successor of node ``j`` is
``j+1 mod N+1``.
"""

from __future__ import annotations

__all__ = ["Ring"]


class Ring:
    """A directed ring of ``size`` nodes numbered ``0 .. size-1``.

    For the paper's token ring, construct ``Ring(N + 1)``: the paper
    numbers nodes ``0 .. N`` inclusive.
    """

    #: The attributes :mod:`repro.core.fingerprint` hashes.
    _fingerprint_fields = ("size",)

    def __init__(self, size: int) -> None:
        if size < 2:
            raise ValueError("a ring needs at least 2 nodes")
        self.size = size

    @property
    def nodes(self) -> list[int]:
        return list(range(self.size))

    def successor(self, node: int) -> int:
        """``j + 1 mod size`` — the node that receives ``j``'s privilege."""
        return (node + 1) % self.size

    def predecessor(self, node: int) -> int:
        return (node - 1) % self.size

    @property
    def last(self) -> int:
        """``N``, the highest-numbered node (the paper's ``x.N``)."""
        return self.size - 1

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Ring({self.size})"
