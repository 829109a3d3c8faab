"""Variable domains.

The paper's program model (Section 2) gives every variable a predefined
nonempty domain. This module provides the domain kinds needed by the
paper's designs and by the protocol library:

- :class:`FiniteDomain` — an explicit finite set of values.
- :class:`BooleanDomain` — ``{False, True}`` (session numbers ``sn.j``).
- :class:`EnumDomain` — a named finite domain (colors ``{green, red}``).
- :class:`IntegerRangeDomain` — ``[lo, hi]`` inclusive (bounded counters).
- :class:`ModularDomain` — ``0 .. modulus-1`` with wraparound helpers
  (Dijkstra's K-state token ring).
- :class:`IntegerDomain` — the unbounded integers, for the paper's
  token-ring formulation; it cannot be enumerated, so programs using it
  are exercised by simulation rather than exhaustive verification.

Domains are immutable value objects: they compare by content and can be
shared freely between variables.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any

from repro.core.errors import StateSpaceTooLargeError

__all__ = [
    "Domain",
    "FiniteDomain",
    "BooleanDomain",
    "EnumDomain",
    "IntegerRangeDomain",
    "ModularDomain",
    "IntegerDomain",
]


class Domain:
    """Abstract base class for variable domains.

    Subclasses implement ``__contains__`` and, when finite, ``values``.
    """

    @property
    def is_finite(self) -> bool:
        """Whether the domain has finitely many values."""
        raise NotImplementedError

    def __contains__(self, value: Any) -> bool:
        raise NotImplementedError

    def values(self) -> Iterator[Any]:
        """Iterate over every value of the domain.

        Raises:
            StateSpaceTooLargeError: if the domain is infinite.
        """
        raise StateSpaceTooLargeError(
            f"domain {self!r} is infinite and cannot be enumerated"
        )

    def size(self) -> int | None:
        """Number of values, or ``None`` when infinite."""
        return None

    def sample(self, rng: Any) -> Any:
        """Draw a uniformly random value using ``rng`` (a ``random.Random``).

        Infinite domains draw from a documented bounded window instead,
        since a uniform draw over all integers does not exist.
        """
        raise NotImplementedError


class FiniteDomain(Domain):
    """An explicit, finite, nonempty set of values.

    Values are kept in the order given (first occurrence wins), so
    enumeration order is deterministic.
    """

    #: The attributes :mod:`repro.core.fingerprint` hashes. Each domain
    #: class declares its own, so a subclass is never hashed as its base.
    _fingerprint_fields = ("_values",)

    __slots__ = ("_values", "_value_set")

    def __init__(self, values: Sequence[Any]) -> None:
        ordered: list[Any] = []
        seen: set[Any] = set()
        for value in values:
            if value not in seen:
                seen.add(value)
                ordered.append(value)
        if not ordered:
            raise ValueError("a domain must be nonempty")
        self._values = tuple(ordered)
        self._value_set = frozenset(self._values)

    @property
    def is_finite(self) -> bool:
        return True

    def __contains__(self, value: Any) -> bool:
        return value in self._value_set

    def values(self) -> Iterator[Any]:
        return iter(self._values)

    def size(self) -> int:
        return len(self._values)

    def sample(self, rng: Any) -> Any:
        return rng.choice(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteDomain):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._values)!r})"


class BooleanDomain(FiniteDomain):
    """The domain ``{False, True}``, used for session numbers ``sn.j``."""

    _fingerprint_fields = ("_values",)

    def __init__(self) -> None:
        super().__init__((False, True))

    def __repr__(self) -> str:
        return "BooleanDomain()"


class EnumDomain(FiniteDomain):
    """A finite domain of named symbolic values, e.g. ``{green, red}``."""

    _fingerprint_fields = ("_values",)

    def __init__(self, *names: str) -> None:
        super().__init__(names)

    def __repr__(self) -> str:
        return f"EnumDomain({', '.join(map(repr, self.values()))})"


class IntegerRangeDomain(FiniteDomain):
    """All integers in ``[lo, hi]`` inclusive."""

    _fingerprint_fields = ("_values",)

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        super().__init__(range(lo, hi + 1))

    def sample(self, rng: Any) -> int:
        return rng.randint(self.lo, self.hi)

    def __repr__(self) -> str:
        return f"IntegerRangeDomain({self.lo}, {self.hi})"


class ModularDomain(IntegerRangeDomain):
    """Integers ``0 .. modulus-1`` with modular increment helpers.

    This is the domain of ``x.j`` in Dijkstra's K-state token ring, the
    finite-state variant of the paper's Section 7.1 design used for
    exhaustive verification.
    """

    _fingerprint_fields = ("_values",)

    def __init__(self, modulus: int) -> None:
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        self.modulus = modulus
        super().__init__(0, modulus - 1)

    def succ(self, value: int) -> int:
        """The value plus one, modulo the modulus."""
        return (value + 1) % self.modulus

    def __repr__(self) -> str:
        return f"ModularDomain({self.modulus})"


class IntegerDomain(Domain):
    """The unbounded integers.

    Used by the paper's original token-ring formulation where ``x.0`` is
    incremented without bound. ``sample`` draws from ``[sample_lo,
    sample_hi]`` because no uniform distribution over all integers exists;
    the window is part of the domain object so experiments are explicit
    about it.
    """

    _fingerprint_fields = ("sample_lo", "sample_hi")

    __slots__ = ("sample_lo", "sample_hi")

    def __init__(self, sample_lo: int = -100, sample_hi: int = 100) -> None:
        if sample_lo > sample_hi:
            raise ValueError("empty sampling window")
        self.sample_lo = sample_lo
        self.sample_hi = sample_hi

    @property
    def is_finite(self) -> bool:
        return False

    def __contains__(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def sample(self, rng: Any) -> int:
        return rng.randint(self.sample_lo, self.sample_hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerDomain):
            return NotImplemented
        return (self.sample_lo, self.sample_hi) == (other.sample_lo, other.sample_hi)

    def __hash__(self) -> int:
        return hash(("IntegerDomain", self.sample_lo, self.sample_hi))

    def __repr__(self) -> str:
        return f"IntegerDomain(sample_lo={self.sample_lo}, sample_hi={self.sample_hi})"
