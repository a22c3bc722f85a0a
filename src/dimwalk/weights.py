"""Closed-form dimension-walk weight rows.

A weight row (w_0, ..., w_k) expresses one expansion coefficient 2k sphere
dimensions up as a linear combination of coefficients at dimension d:

    b[n, d+2k] = sum_i w_i * b[n+2i, d]

It is the Gegenbauer connection formula (DLMF 18.18.16) with lambda =
(d-1)/2 and mu = lambda + k, whose factor (-k)_i ends it at k+1 entries.
``odd_weights`` and ``even_weights`` are the rows from d = 1 and d = 2.

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
from itertools import chain

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


def _row_terms(d: int, n, k: int):
    """Iterators over the k factors (num, den) of w_0 and the k term ratios
    (num, den) of w_(j+1)/w_j of the row from dimension d, for an int n or
    an array n of floats or (object dtype) ints. Both are single-pass, so
    the terms live only while the caller holds them. With lambda = (d-1)/2
    the Gegenbauer connection formula gives, in the normalized basis,

        w_0 = (lambda)_k (n+2 lambda)_(2k) / ((n+lambda)_k (2 lambda)_(2k))
            = prod_j (n+2j+d-1)(n+2j+d) / ((2j+d)(2n+2j+d-1))
        w_(j+1)/w_j = -(k-j)/(j+1) * (2n+2j+d-1)(n+2j+1)(n+2j+2)
                                   / ((2n+2j+2k+d+1)(n+2j+d-1)(n+2j+d))

    where the ratio's linear factors n+2j+t shared above and below cancel.
    d = 1 is the limit lambda -> 0, whose j = 0 terms are 0/0 at n = 0; the
    limit there is w_0 = 1 and w_1/w_0 = -k/(k+1).

    Every num and den is an integer, exact in doubles below 2^53: for n up
    to about 9.4e6 at d <= 3 (k <= 50), but from d = 4, where the ratio is
    cubic in n, only up to 44,700 (k = 50) to 165,000 (k = 1); at d = 5,
    k = 4 the largest numerator passes 2^53 near n = 104,000.
    """
    top, bottom = {1, 2} - {d - 1, d}, {d - 1, d} - {1, 2}
    h = 2 * n + d - 1
    ratios = []
    for j in range(k):
        m, g = n + 2 * j, h + 2 * j
        ratios.append((math.prod((m + t for t in top), start=-(k - j) * g),
                       math.prod((m + t for t in bottom), start=(j + 1) * (g + (2 * k + 2)))))
    factors = (((n + (2 * j + d - 1)) * (n + (2 * j + d)), (2 * j + d) * (h + 2 * j))
               for j in range(k))
    if d == 1:  # the j = 0 terms are 0/0 at n = 0: add the limit's 1/1 and -k/(k+1) there
        at0 = n == 0
        (a, b), (c, e) = next(factors), ratios[0]
        factors, ratios[0] = chain([(a + at0, b + at0)], factors), (c - k * at0, e + (k + 1) * at0)
    return factors, iter(ratios)


def _exact_row(d: int, n: int, k: int) -> list[Fraction]:
    """w_0..w_k from ``_row_terms``, each one Fraction of integer products."""
    _check_nk(n, k)
    factors, ratios = _row_terms(d, n, k)
    nums, dens = zip(*factors)
    ws = [Fraction(math.prod(nums), math.prod(dens))]
    for a, b in ratios:
        ws.append(Fraction(ws[-1].numerator * a, ws[-1].denominator * b))
    return ws


def odd_weights(n: int, k: int) -> WalkWeights:
    """Exact weights taking dimension-1 coefficients to dimension 2k+1, the
    d = 1 row of ``_row_terms``. Entry i is

        (-1)^i / 2^k * C(k,i) * (n+k)(n+2i) / (2k-1)!!
                     * (n+1)_(2k-1) / (n+i)_(k+1)

    except at (i, n) = (0, 0), where this product is 1/2 and the entry is
    1, the lambda -> 0 limit of the connection formula.
    """
    return WalkWeights(n=n, k=k, parity=ODD, weights=tuple(_exact_row(1, n, k)))


def even_weights(n: int, k: int) -> WalkWeights:
    """Exact weights taking dimension-2 coefficients to dimension 2k+2, the
    d = 2 row of ``_row_terms``. Entry i is

        (-1)^i * (2k-1)!!/2^k * C(k,i) * C(2k+n,n)
               / [ (n+i+1/2)_(k-i) * (n+k+3/2)_(i) ]
    """
    return WalkWeights(n=n, k=k, parity=EVEN, weights=tuple(_exact_row(2, n, k)))
