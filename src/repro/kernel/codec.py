"""Mixed-radix integer encoding of program states.

The dict-backed :class:`~repro.core.state.State` hashes via
``frozenset(items)`` and pays one dict per state, which dominates
exhaustive verification cost. A :class:`StateCodec` replaces the dict
with a single integer: each finite-domain variable contributes one
mixed-radix digit, so a whole state is a Python ``int`` — hashable for
free, comparable for free, and storable in flat integer buffers at the
narrowest safe width (:attr:`StateCodec.code_typecode`).

Digit layout: variables in *program order* ``v0 .. v(n-1)`` with the
**last variable varying fastest** (weight 1), exactly mirroring
:func:`repro.core.state.enumerate_states`, which drives
``itertools.product`` with the last domain innermost. Consequently the
packed code of the ``k``-th enumerated state is ``k`` — full-space
exploration never encodes or decodes at all, it just counts.

Encoding is exact and total on the program's state space: every
in-domain state round-trips bit-identically through
``decode_state(encode_state(s)) == s``. States outside the space (an
out-of-domain value after a fault, an unbounded counter) raise
:class:`PackedUnsupported`, which is the signal for the ``engine="auto"``
dispatch to fall back to the dict engine.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from typing import Any

from repro.core.errors import ReproError
from repro.core.program import Program
from repro.core.state import State

__all__ = ["PackedUnsupported", "StateCodec"]

#: Largest space whose codes fit a signed 16-bit buffer (codes are
#: ``0 .. size-1``, so ``size == 2**15`` still tops out at 32767).
_INT16_SPACE = 1 << 15
#: Largest space whose codes fit a signed 32-bit buffer.
_INT32_SPACE = 1 << 31

_TYPECODE_BYTES = {"h": 2, "i": 4, "q": 8}
_TYPECODE_DTYPE = {"h": "int16", "i": "int32", "q": "int64"}


class PackedUnsupported(ReproError):
    """The packed engine cannot represent this program, state, or value.

    Raised for infinite variable domains, states carrying out-of-domain
    values, and successors escaping their variable's domain. ``auto``
    engine dispatch catches it and falls back to the dict engine.
    """


class StateCodec:
    """Bijection between program states and ``0 .. size-1`` integers.

    Attributes:
        names: Variable names in program declaration order.
        radices: Domain size per variable, same order.
        weights: Mixed-radix place value per variable (last variable has
            weight 1, so codes enumerate in
            :func:`~repro.core.state.enumerate_states` order).
        domain_values: Per-variable tuple of domain values, in domain
            enumeration order (digit ``d`` of variable ``i`` means value
            ``domain_values[i][d]``).
        size: Total number of states (the product of the radices).
    """

    __slots__ = (
        "names",
        "radices",
        "weights",
        "domain_values",
        "size",
        "_value_digits",
        "_positions",
    )

    def __init__(self, names: Iterable[str], domain_values: Iterable[tuple]) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.domain_values: tuple[tuple[Any, ...], ...] = tuple(
            tuple(values) for values in domain_values
        )
        if len(self.names) != len(self.domain_values):
            raise ValueError("one value tuple is required per variable name")
        self.radices: tuple[int, ...] = tuple(
            len(values) for values in self.domain_values
        )
        weights = [1] * len(self.radices)
        for position in range(len(self.radices) - 2, -1, -1):
            weights[position] = weights[position + 1] * self.radices[position + 1]
        self.weights: tuple[int, ...] = tuple(weights)
        self.size = 1
        for radix in self.radices:
            self.size *= radix
        self._value_digits: tuple[dict[Any, int], ...] = tuple(
            {value: digit for digit, value in enumerate(values)}
            for values in self.domain_values
        )
        self._positions: dict[str, int] = {
            name: position for position, name in enumerate(self.names)
        }

    @classmethod
    def for_program(cls, program: Program) -> "StateCodec":
        """The codec of ``program``'s full state space.

        Raises:
            PackedUnsupported: if any variable's domain is infinite.
        """
        names = []
        domain_values = []
        for variable in program.variables.values():
            if not variable.domain.is_finite:
                raise PackedUnsupported(
                    f"variable {variable.name!r} has an infinite domain; "
                    "the packed engine requires finite domains"
                )
            names.append(variable.name)
            domain_values.append(tuple(variable.domain.values()))
        return cls(names, domain_values)

    def position_of(self, name: str) -> int:
        """The digit position of variable ``name``."""
        return self._positions[name]

    # ------------------------------------------------------------------
    # Code width (kernel v3: arrays pick the narrowest safe dtype)
    # ------------------------------------------------------------------

    @property
    def code_typecode(self) -> str:
        """The narrowest ``array`` typecode that holds every code.

        ``'h'`` (int16) when the space has at most 2^15 states, ``'i'``
        (int32) up to 2^31, ``'q'`` (int64) beyond. Signed widths are
        deliberate: sweep deltas (``successor - code``) range over
        ``(-size, size)`` and must fit the same width as the codes.
        """
        if self.size <= _INT16_SPACE:
            return "h"
        if self.size <= _INT32_SPACE:
            return "i"
        return "q"

    @property
    def code_dtype(self) -> str:
        """The numpy dtype name matching :attr:`code_typecode`."""
        return _TYPECODE_DTYPE[self.code_typecode]

    @property
    def code_bytes(self) -> int:
        """Bytes per packed code at the selected width (2, 4, or 8)."""
        return _TYPECODE_BYTES[self.code_typecode]

    def encode_state(self, state: Mapping[str, Any]) -> int:
        """The packed code of ``state``.

        Raises:
            PackedUnsupported: if the state does not cover exactly this
                codec's variables or carries an out-of-domain value.
        """
        if len(state) != len(self.names):
            raise PackedUnsupported(
                f"state has {len(state)} variables, codec expects "
                f"{len(self.names)}"
            )
        code = 0
        try:
            for position, name in enumerate(self.names):
                code += self._value_digits[position][state[name]] * self.weights[
                    position
                ]
        except (KeyError, TypeError) as error:
            raise PackedUnsupported(
                f"state value for {name!r} is not in its finite domain: {error}"
            ) from None
        return code

    def encode_states(self, states: Iterable[Mapping[str, Any]]) -> array:
        """The packed codes of ``states``, in order, at :attr:`code_typecode`.

        The one state-list encoder: each state is encoded exactly once.

        Raises:
            PackedUnsupported: as :meth:`encode_state`, for the first
                state that cannot be encoded.
        """
        return array(self.code_typecode, map(self.encode_state, states))

    def decode_digits(self, code: int) -> list[int]:
        """The digit list of ``code`` (one digit per variable, in order)."""
        digits = [0] * len(self.radices)
        for position in range(len(self.radices) - 1, -1, -1):
            code, digits[position] = divmod(code, self.radices[position])
        return digits

    def decode_values(self, code: int) -> list[Any]:
        """The variable values of ``code``, in program order."""
        digits = self.decode_digits(code)
        return [
            self.domain_values[position][digit]
            for position, digit in enumerate(digits)
        ]

    def decode_state(self, code: int) -> State:
        """The :class:`State` of ``code`` (content-equal to the dict engine's)."""
        return State._adopt(dict(zip(self.names, self.decode_values(code))))

    def __repr__(self) -> str:
        return (
            f"StateCodec({len(self.names)} variables, {self.size} states)"
        )
