"""Closed-form dimension-walk weight rows.

A weight row (w_0, ..., w_k) expresses one expansion coefficient 2k sphere
dimensions up as a linear combination of base-dimension coefficients:

    b[n, 2k+1] = sum_i w_i * b[n+2i, 1]     odd-target rows (Fourier base)
    b[n, 2k+2] = sum_i w_i * b[n+2i, 2]     even-target rows (Legendre base)

All weights are exact rationals, built from plain integer products with one
reduced Fraction per entry; no Fraction arithmetic happens along the way.
Rows are memoised per (n, k); the cache is fill-once and read-only, so
concurrent use behaves as if it were absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import double_factorial, pochhammer

__all__ = [
    "ODD",
    "EVEN",
    "WalkWeights",
    "odd_weights",
    "even_weights",
    "odd_weight_endpoints",
    "weight_row_sum",
]

ODD = "odd"    # target dimension 2k+1, built on dimension-1 coefficients
EVEN = "even"  # target dimension 2k+2, built on dimension-2 coefficients


@dataclass(frozen=True)
class WalkWeights:
    """One exact weight row for coefficient index n and dimension jump 2k."""

    n: int
    k: int
    parity: str  # ODD or EVEN, the parity of the target dimension
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.parity not in (ODD, EVEN):
            raise ValueError(f"parity must be {ODD!r} or {EVEN!r}")
        if len(self.weights) != self.k + 1:
            raise ValueError("a weight row must have exactly k+1 entries")

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)


def _check_nk(n: int, k: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1 (the k = 0 walk is the identity)")


@lru_cache(maxsize=None)
def odd_weights(n: int, k: int) -> WalkWeights:
    """Exact weights taking dimension-1 coefficients to dimension 2k+1.

    Entry i is

        (-1)^i / 2^k * C(k,i) * (n+k)(n+2i) / (2k-1)!!
                     * (n+1)_(2k-1) / (n+i)_(k+1)

    except for the piecewise value 1 at (i, n) = (0, 0), which is a
    definition rather than a limit of the product. The rising factorials are
    integer falling-factorial ratios, (x)_(m) = perm(x+m-1, m).
    """
    _check_nk(n, k)
    top = (n + k) * math.perm(n + 2 * k - 1, 2 * k - 1)
    scale = 2**k * double_factorial(k)
    ws = []
    for i in range(k + 1):
        if i == 0 and n == 0:
            ws.append(Fraction(1))
            continue
        num = (-1) ** i * math.comb(k, i) * (n + 2 * i) * top
        ws.append(Fraction(num, scale * math.perm(n + i + k, k + 1)))
    return WalkWeights(n=n, k=k, parity=ODD, weights=tuple(ws))


@lru_cache(maxsize=None)
def even_weights(n: int, k: int) -> WalkWeights:
    """Exact weights taking dimension-2 coefficients to dimension 2k+2.

    Entry i is

        (-1)^i * (2k-1)!!/2^k * C(k,i) * C(2k+n,n)
               / [ (n+i+1/2)_(k-i) * (n+k+3/2)_(i) ]

    The half-integer Pochhammer product in the denominator is 2^-k times the
    integer P_i, the product of the odd numbers from 2n+2i+1 to 2n+2k+2i+1
    without 2n+2k+1. The 2^k factors cancel, and P_(i+1) follows from P_i by
    one exact multiply and one exact divide, so a row costs O(k) integer
    operations.
    """
    _check_nk(n, k)
    pref = double_factorial(k) * math.comb(2 * k + n, n)
    odd_product = math.prod(range(2 * n + 1, 2 * n + 2 * k, 2))  # P_0
    ws = []
    for i in range(k + 1):
        ws.append(Fraction((-1) ** i * math.comb(k, i) * pref, odd_product))
        odd_product = odd_product * (2 * (n + k + i) + 3) // (2 * (n + i) + 1)
    return WalkWeights(n=n, k=k, parity=EVEN, weights=tuple(ws))


def odd_weight_endpoints(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Simplified first and last odd-target weights for the generic rows:

        w_0 = (n+k)_(k) / (2^k (2k-1)!!)
        w_k = (-1/2)^k (n+1)_(k) / (2k-1)!!

    Only valid for n >= 1; the n = 0 row starts with the piecewise value 1.
    """
    if n < 1:
        raise ValueError("endpoint simplifications hold for n >= 1 only")
    _check_nk(n, k)
    dfact = double_factorial(k)
    first = Fraction(pochhammer(n + k, k), 2**k * dfact)
    last = Fraction((-1) ** k * pochhammer(n + 1, k), 2**k * dfact)
    return first, last


def weight_row_sum(row: WalkWeights) -> Fraction:
    """Exact sum of an odd-target row (1/2 when n = 0, otherwise 0).

    Even-target rows are rejected: no closed form for their sum is
    established, so nothing is asserted about them here.
    """
    if row.parity != ODD:
        raise ValueError("row sums are only asserted for odd-target rows")
    return sum(row.weights, Fraction(0))
