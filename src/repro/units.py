"""Unit helpers and constants used throughout the simulator.

The simulator keeps every duration in **seconds** (floats) and every data size
in **bytes** (ints).  These helpers exist so call sites read naturally
(``millis(12)`` instead of ``12e-3``) and so unit mistakes are easy to spot in
review.
"""

from __future__ import annotations

#: One microsecond, in seconds.
MICROSECOND = 1e-6
#: One millisecond, in seconds.
MILLISECOND = 1e-3

#: One kibibyte.
KIB = 1024
#: One mebibyte.
MIB = 1024 * KIB
#: One gibibyte.
GIB = 1024 * MIB

#: Kilobyte / megabyte (decimal), used for bandwidth figures that the paper
#: quotes in MB/s.
KB = 1000
MB = 1000 * KB


def micros(value: float) -> float:
    """Return ``value`` microseconds expressed in seconds."""
    return value * MICROSECOND


def millis(value: float) -> float:
    """Return ``value`` milliseconds expressed in seconds."""
    return value * MILLISECOND


def to_millis(value: float) -> float:
    """Convert a duration in seconds to milliseconds."""
    return value / MILLISECOND
