"""Exact-number helpers: ``_to_float`` and ``_float_tuple``, the
range-checked conversions of exact values to floats, and ``pochhammer``, the
rising factorial, which no package code calls (the benchmark traces it).

Everything here is a pure function on immutable values, so all operations are
safe under arbitrary concurrent use.
"""

from __future__ import annotations

__all__ = ["pochhammer"]


def _to_float(x, what: str) -> float:
    """float(x), raising a ValueError that names what in place of float()'s
    OverflowError."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} lies outside the float range") from None


def _float_tuple(values, what: str) -> tuple[float, ...]:
    """``tuple(map(float, values))`` for a sequence of numbers; ``_to_float``
    names the first entry past the float range."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        for i, v in enumerate(values):
            _to_float(v, f"{what} {i}")
        raise


# Kept for the benchmark, which traces it by name; no package module calls it.
def pochhammer(x, m: int):
    """Rising factorial (x)_(m) = x(x+1)...(x+m-1), with (x)_(0) = 1.

    Exact for int/Fraction arguments; the result type follows the argument.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1
    for j in range(m):
        out = out * (x + j)
    return out
