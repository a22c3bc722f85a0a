"""Exact rational arithmetic helpers and the combinatorial special functions
(double factorials, Pochhammer symbols, binomials, Beta) that the walk-weight
formulas are assembled from.

Everything here is a pure function on immutable values, so all operations are
safe under arbitrary concurrent use. Results are exact ``Fraction``/``int``
values, apart from ``_float_tuple`` and ``_to_float``, the range-checked
conversions of exact values to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "double_factorial",
    "pochhammer",
    "binomial",
    "pochhammer_split_identity",
    "frisch_identity_sides",
    "beta",
]

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


def double_factorial(k: int) -> int:
    """Odd double factorial of order k: (2k-1)!! = prod_{i=1..k} (2i-1).

    The empty product gives 1 for k = 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    out = 1
    for i in range(1, k + 1):
        out *= 2 * i - 1
    return out


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


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention C(a, b) = 0 for b < 0 or b > a."""
    if a < 0:
        raise ValueError("a must be >= 0")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def pochhammer_split_identity(x, k: int, l: int) -> bool:
    """Self-test oracle for (x)_(k) (x+k)_(l) == (x)_(k+l), checked exactly."""
    return pochhammer(x, k) * pochhammer(x + k, l) == pochhammer(x, k + l)


def frisch_identity_sides(k: int, b: int, c: int) -> tuple[Fraction, Fraction]:
    """Both sides of the alternating binomial-reciprocal sum identity

        sum_{i=0..k} (-1)^i C(k,i) / C(b+i,c)  ==  (c/(k+c)) / C(k+b, b-c)

    for integers b >= c >= 1 and k >= 0. The left side is computed by direct
    summation, the right from the closed form; both are returned exactly so
    callers can compare them.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if c < 1 or b < c:
        raise ValueError("need b >= c >= 1")
    lhs = Fraction(0)
    for i in range(k + 1):
        lhs += Fraction((-1) ** i * binomial(k, i), binomial(b + i, c))
    rhs = Fraction(c, k + c) / binomial(k + b, b - c)
    return lhs, rhs


def beta(x, y) -> Fraction:
    """Beta function B(x, y) = Gamma(x)Gamma(y) / Gamma(x+y), exactly.

    Both arguments must be positive integers or half-integers, and at least
    one must be an integer k; then B(x, k) = (k-1)! / (x)_(k) is an exact
    Fraction, with no Gamma evaluation at half-integers. Two genuine
    half-integers are rejected: their sqrt(pi) factors multiply instead of
    cancelling, so the value is irrational.
    """
    qx, qy = Fraction(x), Fraction(y)
    if qx <= 0 or qy <= 0:
        raise ValueError("beta requires positive arguments")
    if qx.denominator > 2 or qy.denominator > 2:
        raise ValueError("beta supports integer or half-integer arguments only")
    if qy.denominator != 1:
        qx, qy = qy, qx
    if qy.denominator != 1:
        raise ValueError("beta needs at least one integer argument")
    k = int(qy)
    return Fraction(math.factorial(k - 1)) / pochhammer(qx, k)
