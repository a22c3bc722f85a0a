"""Sequence-level dimension walks.

A CoeffSeq holds a truncated expansion-coefficient sequence b_0..b_N at a
fixed sphere dimension. Each two-dimension step consumes the two trailing
entries (nothing is ever extrapolated past the truncation), so a k-step walk
shortens the sequence by 2k while raising the dimension by 2k.

Two routes compute the same walk: repeated application of the two-step
recursion (``walk_recursive``, k calls of ``step_up``) and the closed-form
weight rows (``walk_closed_form``). ``verify_walk_equivalence`` runs both
and compares.
All transformations are pure; rows are computed independently of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .weights import even_weights, odd_weights

__all__ = [
    "EXACT",
    "FLOAT",
    "CoeffSeq",
    "step_up",
    "walk_recursive",
    "walk_closed_form",
    "verify_walk_equivalence",
    "zero_row_identity_check",
]

EXACT = "exact"
FLOAT = "float"

# Float walks agree within this relative tolerance or their rounding bound.
REL_TOL = 1e-12


@dataclass(frozen=True)
class CoeffSeq:
    """Truncated coefficient sequence: values[n] = b_n for n = 0..n_max."""

    dimension: int
    values: tuple
    kind: str

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind not in (EXACT, FLOAT):
            raise ValueError(f"kind must be {EXACT!r} or {FLOAT!r}")
        if len(self.values) == 0:
            raise ValueError("sequence must contain at least one value")
        if self.kind == EXACT:
            vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)
        else:
            vals = tuple(float(v) for v in self.values)
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("all values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def exact(cls, dimension: int, values) -> "CoeffSeq":
        return cls(dimension, tuple(values), EXACT)

    @classmethod
    def floats(cls, dimension: int, values) -> "CoeffSeq":
        return cls(dimension, tuple(values), FLOAT)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def total(self):
        """Sum of all entries; exact for exact sequences."""
        if self.kind == EXACT:
            return sum(self.values, Fraction(0))
        return math.fsum(self.values)

    def to_floats(self) -> "CoeffSeq":
        if self.kind == FLOAT:
            return self
        return CoeffSeq.floats(self.dimension, (float(v) for v in self.values))


def _step_entry(n: int, d: int, x, y, exact: bool):
    """Output entry n of a d -> d+2 step from x = b_n and y = b_{n+2}.

    With the step written as b'_n = (p/q) b_n - (r/s) b_{n+2} in integers
    p, q, r, s, an exact entry is one reduced Fraction built from integer
    numerators and denominators. Float entries keep the displayed operation
    order of ``step_up``.
    """
    if d == 1:
        p, q, r, s = (1, 1, 1, 2) if n == 0 else (n + 1, 2, n + 1, 2)
    else:
        p, q = (n + d - 1) * (n + d), d * (2 * n + d - 1)
        r, s = (n + 1) * (n + 2), d * (2 * n + d + 3)
    if exact:
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        return Fraction(p * s * xn * yd - r * q * yn * xd, q * s * xd * yd)
    if d == 1:
        return x - 0.5 * y if n == 0 else p / q * (x - y)
    return p / q * x - r / s * y


def step_up(seq: CoeffSeq) -> CoeffSeq:
    """One d -> d+2 step of the coefficient recursion; n_max drops by 2.

    Dimension 1 has its own displayed form (the generic ratio degenerates to
    0/0 at n = 0):

        b'_0 = b_0 - b_2 / 2,   b'_n = (n+1)(b_n - b_{n+2}) / 2

    while for d >= 2 every row uses

        b'_n = (n+d-1)(n+d) / (d(2n+d-1)) * b_n
             - (n+1)(n+2) / (d(2n+d+3))   * b_{n+2}.
    """
    if seq.n_max < 2:
        raise ValueError("need n_max >= 2 to form any output entry")
    d = seq.dimension
    exact = seq.kind == EXACT
    v = seq.values
    out = tuple(_step_entry(n, d, v[n], v[n + 2], exact) for n in range(seq.n_max - 1))
    return CoeffSeq(d + 2, out, seq.kind)


def _check_walk(seq: CoeffSeq, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if seq.n_max < 2 * k:
        raise ValueError(f"sequence n_max = {seq.n_max} too short for k = {k} (need >= {2 * k})")


def walk_recursive(seq: CoeffSeq, k: int) -> CoeffSeq:
    """Walk a sequence of any dimension up by 2k through k calls of ``step_up``;
    output n_max = n_max - 2k."""
    _check_walk(seq, k)
    for _ in range(k):
        seq = step_up(seq)
    return seq


def walk_closed_form(seq: CoeffSeq, k: int) -> CoeffSeq:
    """Walk a dimension-1 or dimension-2 sequence up by 2k in one shot.

    Output entry n is sum_i w_i(n,k) * values[n+2i] with the odd- or
    even-target weight row; output n_max = n_max - 2k.
    """
    if seq.dimension not in (1, 2):
        raise ValueError(
            f"closed-form walks start at dimension 1 or 2 (input is {seq.dimension}); "
            "use the recursion for higher dimensions"
        )
    _check_walk(seq, k)
    rows = odd_weights if seq.dimension == 1 else even_weights
    exact = seq.kind == EXACT
    out = []
    for n in range(seq.n_max - 2 * k + 1):
        row = rows(n, k)
        if exact:
            # sum w_i * b_{n+2i} as one unreduced integer fraction, reduced once
            num, den = 0, 1
            for i, w in enumerate(row.weights):
                v = seq.values[n + 2 * i]
                if v:
                    a, b = w.numerator * v.numerator, w.denominator * v.denominator
                    num, den = num * b + a * den, den * b
            out.append(Fraction(num, den))
        else:
            out.append(
                math.fsum(w * seq.values[n + 2 * i] for i, w in enumerate(row.as_floats()))
            )
    return CoeffSeq(seq.dimension + 2 * k, tuple(out), seq.kind)


def verify_walk_equivalence(seq: CoeffSeq, k: int) -> bool:
    """True iff k repeated steps and the closed-form walk agree entrywise.

    Exact sequences must match exactly; float sequences within relative
    1e-12 or the two routes' rounding bounds, whichever is larger.
    """
    return _walks_agree(seq, k, walk_closed_form(seq, k).values, walk_recursive(seq, k).values)


def _rounding_bound(seq: CoeffSeq, k: int) -> list[float]:
    """Both float routes' forward error bounds together, 2 * 4(k+1) u A_k(n),
    where A_k is the k-step walk with every step coefficient and input taken
    by absolute value. The step coefficients are positive and b_{n+2} is
    subtracted, so the weight of b_{n+2i} in entry n has the sign s(n) s(n+2i),
    s(m) = (-1)^(m//2): u A_k(n) is s(n) times the cancellation-free walk of
    s(m) u |b_m|. The walk adds the smallest subnormal to each u |b_m| to
    cover underflow, and overflows only where u A_k(n) itself would.
    """
    sign = [-1.0 if m // 2 % 2 else 1.0 for m in range(seq.n_max + 1)]
    signed = [s * (abs(v) * 2.0**-53 + 2.0**-1074) for s, v in zip(sign, seq.values)]
    walked = walk_recursive(CoeffSeq.floats(seq.dimension, signed), k).values
    return [8 * (k + 1) * s * a for s, a in zip(sign, walked)]


def _walks_agree(seq: CoeffSeq, k: int, closed: tuple, stepped: tuple) -> bool:
    if seq.kind == EXACT:
        return closed == stepped
    return all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=e)
        for a, b, e in zip(closed, stepped, _rounding_bound(seq, k))
    )


def zero_row_identity_check(seq: CoeffSeq) -> bool:
    """Check the n = 0 output of a step against b'_0 = b_0 - 2/(d(d+3)) b_2."""
    if seq.n_max < 2:
        raise ValueError("need n_max >= 2")
    d, exact = seq.dimension, seq.kind == EXACT
    top = _step_entry(0, d, seq.values[0], seq.values[2], exact)
    coeff = Fraction(2, d * (d + 3)) if exact else 2 / (d * (d + 3))
    head = CoeffSeq(d, seq.values[:3], seq.kind)
    return _walks_agree(head, 1, (top,), (seq.values[0] - coeff * seq.values[2],))
