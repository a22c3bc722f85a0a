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
