"""Shared test fixtures-in-code: deterministic random sequences."""

from __future__ import annotations

import random
from fractions import Fraction

from dimwalk import CoeffSeq


def random_exact_normalized(rnd: random.Random, n_max: int, dimension: int = 1) -> CoeffSeq:
    """Nonnegative exact sequence with entries summing to exactly 1."""
    vals = [Fraction(rnd.randrange(0, 100)) for _ in range(n_max + 1)]
    vals[rnd.randrange(n_max + 1)] += 1  # guard against the all-zero draw
    total = sum(vals)
    return CoeffSeq.exact(dimension, [v / total for v in vals])


def random_exact_signed(rnd: random.Random, n_max: int, dimension: int = 1) -> CoeffSeq:
    """Exact sequence with signed small-rational entries."""
    vals = [Fraction(rnd.randrange(-50, 51), rnd.randrange(1, 9)) for _ in range(n_max + 1)]
    return CoeffSeq.exact(dimension, vals)


def with_shifted_entry(walk_fn, n: int):
    """walk_fn with output entry n moved by (|b_n| + 1) / 10^6: an injected
    disagreement that exact and float comparisons must both reject."""

    def shifted(seq, k):
        out = walk_fn(seq, k)
        vals = list(out.values)
        vals[n] += (abs(vals[n]) + 1) / 10**6
        return CoeffSeq(out.dimension, tuple(vals), out.kind)

    return shifted


def signed_with_zeros(rnd: random.Random, size: int) -> list[Fraction]:
    """size signed small rationals with zero entries inside and 4 trailing zeros."""
    values = list(random_exact_signed(rnd, size - 5).values) + [Fraction(0)] * 4
    values[1] = values[size // 2] = Fraction(0)
    return values


def with_nudged_pair(closed_pairs):
    """closed_pairs with its largest entry p/q moved by 1/(10^40 q): an
    injected disagreement that no float or tolerance comparison can see."""

    def nudged(num, den, d, k):
        p, q = closed_pairs(num, den, d, k)
        i = max(range(len(p)), key=lambda j: abs(Fraction(p[j], q[j])))
        p, q = p.copy(), q.copy()
        p[i], q[i] = p[i] * 10**40 + 1, q[i] * 10**40
        return p, q

    return nudged
