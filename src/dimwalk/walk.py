"""Sequence-level dimension walks.

A CoeffSeq holds a truncated expansion-coefficient sequence b_0..b_N at a
fixed sphere dimension. Each two-dimension step consumes the two trailing
entries (nothing is ever extrapolated past the truncation), so a k-step walk
shortens the sequence by 2k while raising the dimension by 2k.

Two routes compute the same walk: the two-step recursion
(``walk_recursive``, k steps in one kernel call; ``step_up`` is one step)
and the closed form (``walk_closed_form``), Horner's rule over the term
ratios of the weight rows (``weights._row_terms``), compensated for floats.
``verify_walk_equivalence`` runs both. Exact walks build one reduced
Fraction per entry. Float walks are numpy array chains over the whole index
range: a step, or a Horner level, is one vector expression. All
transformations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import _float_tuple, _to_float
# odd_weights is not called here; it is kept for the benchmark, which traces it by name.
from .weights import _row_terms, odd_weights  # noqa: F401

__all__ = [
    "EXACT",
    "FLOAT",
    "CoeffSeq",
    "step_up",
    "walk_recursive",
    "walk_closed_form",
    "verify_walk_equivalence",
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
            vals = _float_tuple(self.values, "value n =")
            if not all(map(math.isfinite, vals)):
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
        """Sum of all entries; exact for exact sequences, correctly rounded for floats."""
        if self.kind == EXACT:
            return sum(self.values, Fraction(0))
        try:
            return math.fsum(self.values)
        except OverflowError:  # fsum raises it for an overflowing partial sum too
            return CoeffSeq.exact(self.dimension, self.values).float_total()

    def float_total(self) -> float:
        """total() as a float; ValueError if it lies outside the float range."""
        return _to_float(self.total(), "the coefficient sum")

    def to_floats(self) -> "CoeffSeq":
        """The sequence as floats; ValueError names the first value past the float range."""
        if self.kind == FLOAT:
            return self
        return CoeffSeq.floats(self.dimension, self.values)


def _step_terms(n: np.ndarray, d: int):
    """Integers (p, q, r, s) of the d -> d+2 step b'_n = (p/q) b_n - (r/s) b_(n+2)
    for an index array n of int64 or (object dtype) ints."""
    if d == 1:
        q = np.full_like(n, 2)
        q[0] = 1  # b'_0 = b_0 - b_2 / 2
        return n + 1, q, n + 1, 2
    return (n + d - 1) * (n + d), d * (2 * n + d - 1), (n + 1) * (n + 2), d * (2 * n + d + 3)


def _exact_steps(values: tuple, d: int, k: int) -> tuple:
    """k exact steps from dimension d over object arrays of integer numerators
    and denominators, reduced by their gcd between steps; one Fraction per
    entry after the last step, which Fraction reduces itself."""
    num, den = np.array([v.as_integer_ratio() for v in values], dtype=object).T
    for step in range(k):
        if step:
            g = np.gcd(num, den)
            num, den = num // g, den // g
        p, q, r, s = _step_terms(np.arange(len(num) - 2, dtype=object), d + 2 * step)
        xn, xd, yn, yd = num[:-2], den[:-2], num[2:], den[2:]
        num, den = p * s * xn * yd - r * q * yn * xd, q * s * xd * yd
    return tuple(map(Fraction, num, den))


def _float_steps(v: np.ndarray, d: int, k: int) -> tuple[np.ndarray, bool]:
    """k float steps from dimension d, each one array expression in the
    displayed operation order of ``step_up``: the last array, and whether
    every step stayed finite. Overflow gives inf silently."""
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            n = np.arange(len(v) - 2)
            x, y = v[:-2], v[2:]
            if d == 1:
                head = x[0] - 0.5 * y[0]
                v = (n + 1) / 2 * (x - y)
                v[0] = head
            else:
                p, q, r, s = _step_terms(n, d)
                v = p / q * x - r / s * y
            finite = finite and bool(np.isfinite(v).all())
            d += 2
    return v, finite


def _steps(seq: CoeffSeq, k: int) -> CoeffSeq:
    """k steps of the recursion in one kernel call; output n_max = n_max - 2k."""
    d = seq.dimension
    if seq.kind == EXACT:
        out = _exact_steps(seq.values, d, k)
    else:
        v, finite = _float_steps(np.array(seq.values), d, k)
        if not finite:  # an overflow the later steps dropped
            raise ValueError("all values must be finite")
        out = tuple(v.tolist())
    return CoeffSeq(d + 2 * k, out, seq.kind)


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
    return _steps(seq, 1)


def _check_walk(seq: CoeffSeq, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if seq.n_max < 2 * k:
        raise ValueError(f"sequence n_max = {seq.n_max} too short for k = {k} (need >= {2 * k})")


def walk_recursive(seq: CoeffSeq, k: int) -> CoeffSeq:
    """Walk a sequence of any dimension up by 2k: the k steps of ``step_up``
    in one kernel call; output n_max = n_max - 2k."""
    _check_walk(seq, k)
    return _steps(seq, k)


def _two_sum(a, b):
    """Knuth's TwoSum: s = fl(a + b) and e with s + e = a + b exactly."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_product(a, b):
    """Dekker's TwoProduct: p = fl(a * b) and e with p + e = a * b exactly,
    from splits into 26-bit halves (numpy has no FMA). The splits overflow
    for |a| or |b| from about 2^997, and e is then not finite."""
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    p = a * b
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _quotient(a, c):
    """r = fl(a / c) for integers a, c below 2^53, and rho = fl((a - r c) / c)
    from the remainder a - r c, which is a float and computed exactly."""
    r = a / c
    p, e = _two_product(r, c)
    return r, ((a - p) - e) / c


def walk_closed_form(seq: CoeffSeq, k: int) -> CoeffSeq:
    """Walk a sequence of any dimension d up by 2k in one shot.

    Output entry n is sum_i w_i(n,k) * values[n+2i] with the weight row from
    dimension d, taken by Horner's rule over the term ratios
    r_i = w_(i+1)/w_i of ``_row_terms`` as
    w_0 * (b_n + r_0 * (b_(n+2) + ... + r_(k-1) * b_(n+2k))), one array
    expression per level over all n; output n_max = n_max - 2k.

    Floats run the compensated Horner scheme (Graillat, Langlois & Louvet,
    2005): error-free transformations carry the rounding error of every
    ratio, product and sum, and of the product w_0 of k quotients, in a
    second array that is added once at the end. Where that correction is
    not finite (the splits overflow from about 2^997), the entry keeps the
    plain Horner value w_0 * acc, whose high parts the scheme shares.
    """
    _check_walk(seq, k)
    count = seq.n_max - 2 * k + 1
    exact = seq.kind == EXACT
    n = np.arange(count, dtype=object if exact else float)
    factors, ratios = _row_terms(seq.dimension, n, k)
    levels = reversed(list(enumerate(ratios)))
    if exact:
        # each entry one unreduced integer fraction p/q, reduced once
        num, den = np.array([v.as_integer_ratio() for v in seq.values], dtype=object).T
        p, q = num[2 * k :], den[2 * k :]
        for i, (a, c) in levels:
            x, y = num[2 * i : 2 * i + count], den[2 * i : 2 * i + count]
            p, q = x * c * q + a * p * y, y * c * q
        nums, dens = zip(*factors)
        out = list(map(Fraction, p * math.prod(nums), q * math.prod(dens)))
    else:
        b = np.array(seq.values)
        with np.errstate(over="ignore", invalid="ignore"):
            acc, err = b[2 * k :], 0.0
            for i, (a, c) in levels:
                r, rho = _quotient(a, c)
                p, pi = _two_product(r, acc)
                s, sigma = _two_sum(b[2 * i : 2 * i + count], p)
                acc, err = s, sigma + pi + r * err + rho * acc
            w0, w0_err = 1.0, 0.0
            for num, den in factors:
                q, rho = _quotient(num, den)
                p, e = _two_product(w0, q)
                w0, w0_err = p, e + w0 * rho + w0_err * q
            p, e = _two_product(w0, acc)
            corr = e + w0 * err + w0_err * acc
            out = np.where(np.isfinite(corr), p + corr, p).tolist()
    return CoeffSeq(seq.dimension + 2 * k, tuple(out), seq.kind)


def verify_walk_equivalence(seq: CoeffSeq, k: int) -> bool:
    """True iff k repeated steps and the closed-form walk agree entrywise.

    Exact sequences must match exactly; float sequences within relative
    1e-12 or the two routes' rounding bounds, whichever is larger.
    """
    return _walks_agree(seq, k, walk_closed_form(seq, k).values, walk_recursive(seq, k).values)


def _rounding_bound(seq: CoeffSeq, k: int) -> np.ndarray:
    """Both float routes' forward error bounds together, 2 * 4(k+1) u A_k(n),
    where A_k is the k-step walk with every step coefficient and input taken
    by absolute value. The step coefficients are positive and b_{n+2} is
    subtracted, so the weight of b_{n+2i} in entry n has the sign s(n) s(n+2i),
    s(m) = (-1)^(m//2): u A_k(n) is s(n) times the cancellation-free walk of
    s(m) u |b_m|. The walk adds the smallest subnormal to each u |b_m| to
    cover underflow, and overflows only where u A_k(n) itself would.
    """
    sign = np.where(np.arange(seq.n_max + 1) // 2 % 2, -1.0, 1.0)
    signed = sign * (np.abs(seq.values) * 2.0**-53 + 2.0**-1074)
    walked, _ = _float_steps(signed, seq.dimension, k)
    return 8 * (k + 1) * sign[: len(walked)] * walked


def _walks_agree(seq: CoeffSeq, k: int, closed: tuple, stepped: tuple) -> bool:
    """Exact walks must be equal. Float entries a, b pass iff
    math.isclose(a, b, rel_tol=REL_TOL, abs_tol=bound), applied over arrays."""
    if seq.kind == EXACT:
        return closed == stepped
    a, b = np.array(closed, dtype=float), np.array(stepped, dtype=float)
    tol = np.maximum(REL_TOL * np.maximum(np.abs(a), np.abs(b)), _rounding_bound(seq, k))
    with np.errstate(over="ignore", invalid="ignore"):
        close = np.isfinite(a) & np.isfinite(b) & (np.abs(b - a) <= tol)
    return bool(np.all((a == b) | close))
