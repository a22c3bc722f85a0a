"""Closed-form dimension-walk weight rows.

A weight row (w_0, ..., w_k) expresses one expansion coefficient 2k sphere
dimensions up as a linear combination of base-dimension coefficients:

    b[n, 2k+1] = sum_i w_i * b[n+2i, 1]     odd-target rows (Fourier base)
    b[n, 2k+2] = sum_i w_i * b[n+2i, 2]     even-target rows (Legendre base)

One definition, ``_row_terms``, writes a row as w_0, a product of k integer
quotients, and k integer term ratios w_(i+1)/w_i, for an int n or an array
n. Exact rows multiply these integers into one reduced Fraction per
entry; the closed-form walks run Horner's rule over the same terms and build
no row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import _float_tuple

__all__ = [
    "ODD",
    "EVEN",
    "WalkWeights",
    "odd_weights",
    "even_weights",
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
        """The weights as floats; ValueError names the first one past the float range."""
        return _float_tuple(self.weights, "weight i =")


def _check_nk(n: int, k: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1 (the k = 0 walk is the identity)")


def _row_terms(parity: str, n, k: int):
    """Iterators over the k factors (num, den) of w_0 and the k term ratios
    (num, den) of w_(i+1)/w_i of a row, for an int n or an array n of
    floats or (object dtype) ints:

        odd:  w_0 = prod_j (n+k+j) / (2(2j+1))
              w_(i+1)/w_i = -(k-i)/(i+1) * (n+2i+2)/(n+2i) * (n+i)/(n+i+k+1)
        even: w_0 = prod_j (n+2j+1)(n+2j+2) / (2(j+1)(2n+2j+1))
              w_(i+1)/w_i = -(k-i)/(i+1) * (2n+2i+1)/(2n+2k+2i+3)

    The odd (n+i)/(n+2i) is written as 1 at i = 0, so odd n = 0 stays finite.
    Every num and den is an integer; doubles hold them exactly below 2^53.
    """
    if parity == ODD:
        factors = ((n + k + j, 2 * (2 * j + 1)) for j in range(k))
        ratios = ((-(k - i) * (n + 2 * i + 2) * (n + i if i else 1),
                   (i + 1) * (n + 2 * i if i else 1) * (n + i + k + 1)) for i in range(k))
    else:
        factors = (((n + 2 * j + 1) * (n + 2 * j + 2), 2 * (j + 1) * (2 * n + 2 * j + 1))
                   for j in range(k))
        ratios = ((-(k - i) * (2 * n + 2 * i + 1), (i + 1) * (2 * n + 2 * k + 2 * i + 3))
                  for i in range(k))
    return factors, ratios


def _exact_row(parity: str, n: int, k: int) -> list[Fraction]:
    """w_0..w_k from ``_row_terms``, each one Fraction of integer products."""
    _check_nk(n, k)
    factors, ratios = _row_terms(parity, n, k)
    nums, dens = zip(*factors)
    ws = [Fraction(math.prod(nums), math.prod(dens))]
    for a, b in ratios:
        ws.append(Fraction(ws[-1].numerator * a, ws[-1].denominator * b))
    return ws


def odd_weights(n: int, k: int) -> WalkWeights:
    """Exact weights taking dimension-1 coefficients to dimension 2k+1.

    Entry i is

        (-1)^i / 2^k * C(k,i) * (n+k)(n+2i) / (2k-1)!!
                     * (n+1)_(2k-1) / (n+i)_(k+1)

    except for the piecewise value 1 at (i, n) = (0, 0), which is a
    definition rather than a limit of the product.
    """
    ws = _exact_row(ODD, n, k)
    if n == 0:
        ws[0] = Fraction(1)
    return WalkWeights(n=n, k=k, parity=ODD, weights=tuple(ws))


def even_weights(n: int, k: int) -> WalkWeights:
    """Exact weights taking dimension-2 coefficients to dimension 2k+2.

    Entry i is

        (-1)^i * (2k-1)!!/2^k * C(k,i) * C(2k+n,n)
               / [ (n+i+1/2)_(k-i) * (n+k+3/2)_(i) ]
    """
    return WalkWeights(n=n, k=k, parity=EVEN, weights=tuple(_exact_row(EVEN, n, k)))
