"""Byte-size units and the sentinel for limits a platform does not impose."""

from __future__ import annotations

import math
from typing import Union

MB = 2**20
GB = 2**30


def mb_bytes(mb: float) -> int:
    """Whole bytes in ``mb`` MB; ValueError unless that is a finite number of bytes."""
    n_bytes = mb * MB
    if not math.isfinite(n_bytes):
        raise ValueError("too large for a size in bytes" if math.isfinite(mb)
                         else "must be a finite number")
    return round(n_bytes)


def mb_text(n_bytes: int) -> str:
    """``n_bytes`` as MB for display, e.g. ``250 MB`` or ``0.5 MB``."""
    return f"{n_bytes / MB:g} MB"


class Unlimited:
    """Singleton standing in for an absent platform limit.

    Deliberately not a number: "no limit" must never be confused with a
    limit of zero, and comparisons against it are a bug rather than a
    silent pass.
    """

    _instance: "Unlimited | None" = None

    def __new__(cls) -> "Unlimited":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNLIMITED"

    def __copy__(self) -> "Unlimited":
        return self

    def __deepcopy__(self, memo) -> "Unlimited":
        return self

    def __reduce__(self):
        return (Unlimited, ())


UNLIMITED = Unlimited()

# A byte budget that a platform may simply not restrict.
Limit = Union[int, Unlimited]
