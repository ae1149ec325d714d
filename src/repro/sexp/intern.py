"""Decoded values shared by the canonical bytes they were decoded from.

A server sees the same few issuer keys and tags in every certificate it
is shown, and every kept proof keeps its certificate's key and tag — so
their decoders intern what they build, one object per distinct
encoding.  Only immutable values whose equal encodings decode to equal
values belong in a table: a hit is then exactly what the decode would
have built.
"""

from __future__ import annotations

from typing import Dict, Generic, Optional, TypeVar

#: Bound on each intern table: what a peer showing ever-new encodings
#: can pin is this many values a table.
INTERN_LIMIT = 4096

V = TypeVar("V")


class InternTable(Generic[V]):
    """Values by canonical bytes, bounded at :data:`INTERN_LIMIT`: a full
    table is cleared and refills."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[bytes, V] = {}

    def get(self, wire: bytes) -> Optional[V]:
        """The value interned under exactly these bytes, or ``None``."""
        return self._values.get(wire)

    def add(self, wire: bytes, value: V) -> V:
        """Intern ``value`` under ``wire`` and return it."""
        values = self._values
        if len(values) >= INTERN_LIMIT:
            values.clear()
        values[wire] = value
        return value

    def clear(self) -> None:
        self._values.clear()

    def __len__(self) -> int:
        return len(self._values)
