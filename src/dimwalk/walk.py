"""Sequence-level dimension walks.

A CoeffSeq holds a truncated expansion-coefficient sequence b_0..b_N at a
fixed sphere dimension. Each two-dimension step consumes the two trailing
entries (nothing is ever extrapolated past the truncation), so a k-step walk
shortens the sequence by 2k while raising the dimension by 2k.

Two routes compute the same walk: the two-step recursion
(``walk_recursive``, k steps in one kernel call; ``step_up`` is one step)
and the closed form (``walk_closed_form``), Horner's rule over the weight
rows' term ratios, compensated for floats, with the terms drawn one level
at a time from ``weights`` so that memory does not grow with k;
``_gap_to_recursion`` compares the two. Exact walks run on integer
numerator and denominator arrays, with step and row terms in int64 where
they fit, and build one reduced Fraction per output entry; exact comparison
uses cross products and builds none. Float walks are numpy array chains: a
step, or a Horner level, is one vector expression. All walks are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactnum import _float_tuple, _to_float
# odd_weights is not called here; it is kept for the benchmark, which traces it by name.
from .weights import _factor, _ratio, odd_weights  # noqa: F401

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
            vals = tuple(self.values)
            if {*map(type, vals)} != {Fraction}:  # convert all but plain Fractions
                vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vals)
        else:
            vals = _float_tuple(self.values, "value n =")
            if not all(map(math.isfinite, vals)):
                raise ValueError("all values must be finite")
        object.__setattr__(self, "values", vals)

    def __getstate__(self) -> dict:
        """Pickle and copy the fields alone: the arrays ``dimwalk.series`` keeps
        in ``__dict__`` are rebuilt on first use."""
        return {"dimension": self.dimension, "values": self.values, "kind": self.kind}

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


def _indices(count: int, d: int, k: int) -> np.ndarray:
    """The indices 0..count-1 of an exact walk by k from dimension d: int64
    while every step and row term fits, else Python ints. Each term is at
    most k M^3 <= M^4 in magnitude, M = 2 (count + d + 2k), so the guard is
    M^4 < 2^62, that is count + d + 2k <= 23,170. Past the terms, the
    kernels multiply int64 arrays only into object arrays."""
    fits = (2 * (count + d + 2 * k)) ** 4 < 2**62
    return np.arange(count, dtype=np.int64 if fits else object)


def _pairs(values: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of Fractions as two object arrays of ints."""
    num, den = zip(*map(Fraction.as_integer_ratio, values))
    return np.array(num, dtype=object), np.array(den, dtype=object)


def _step_pairs(num: np.ndarray, den: np.ndarray, d: int, k: int) -> tuple[np.ndarray, ...]:
    """k exact steps from dimension d over object arrays of integer numerators
    and denominators, reduced by their gcd between steps: the last step's
    unreduced (num, den), every den positive. As s_n = q_(n+2), the step's
    p s x_num y_den - r q y_num x_den over q s x_den y_den is
    p x_num Q_(n+2) - r y_num Q_n over Q_n Q_(n+2) with Q = q den. The step
    terms are int64 where they fit (``_indices``)."""
    n = _indices(len(num), d, k)
    for step in range(k):
        if step:
            g = np.gcd(num, den)
            num, den = num // g, den // g
        p, q, r, _ = _step_terms(n[: len(num)], d + 2 * step)
        qd = q * den
        num, den = p[:-2] * num[:-2] * qd[2:] - r[:-2] * num[2:] * qd[:-2], qd[:-2] * qd[2:]
    return num, den


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


def step_up(seq: CoeffSeq) -> CoeffSeq:
    """One d -> d+2 step of the coefficient recursion; n_max drops by 2.

    Dimension 1 has its own displayed form (the generic ratio degenerates to
    0/0 at n = 0):

        b'_0 = b_0 - b_2 / 2,   b'_n = (n+1)(b_n - b_{n+2}) / 2

    while for d >= 2 every row uses

        b'_n = (n+d-1)(n+d) / (d(2n+d-1)) * b_n
             - (n+1)(n+2) / (d(2n+d+3))   * b_{n+2}.
    """
    return walk_recursive(seq, 1)


def _check_walk(seq: CoeffSeq, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if seq.n_max < 2 * k:
        raise ValueError(f"sequence n_max = {seq.n_max} too short for k = {k} (need >= {2 * k})")


def walk_recursive(seq: CoeffSeq, k: int) -> CoeffSeq:
    """Walk a sequence of any dimension up by 2k: the k steps of ``step_up``
    in one kernel call; output n_max = n_max - 2k.

    Exact sequences go through ``_step_pairs``: integer numerator and
    denominator arrays, reduced by their gcd between steps, with the step
    terms in int64 where they fit, and one Fraction per output entry built
    from the last step's pairs.
    """
    _check_walk(seq, k)
    d = seq.dimension
    if seq.kind == EXACT:
        out = tuple(map(Fraction, *_step_pairs(*_pairs(seq.values), d, k)))
    else:
        v, finite = _float_steps(np.array(seq.values), d, k)
        if not finite:  # an overflow the later steps dropped
            raise ValueError("all values must be finite")
        out = tuple(v.tolist())
    return CoeffSeq(d + 2 * k, out, seq.kind)


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
    dimension d, by Horner's rule over the term ratios r_i = w_(i+1)/w_i as
    w_0 * (b_n + r_0 * (b_(n+2) + ... + r_(k-1) * b_(n+2k))), one array
    expression per level over all n; output n_max = n_max - 2k. Level i
    draws r_i from ``_ratio`` and w_0 takes its k factors from ``_factor``
    one at a time, so the walk holds one level's terms whatever k is.

    Floats run the compensated Horner scheme (Graillat, Langlois & Louvet,
    2005): error-free transformations carry the rounding error of every
    ratio, product and sum, and of the product w_0 of k quotients, in a
    second array that is added once at the end. Where that correction is
    not finite (the splits overflow from about 2^997), the entry keeps the
    plain Horner value w_0 * acc, whose high parts the scheme shares.

    Exact sequences go through ``_closed_pairs``: Horner's rule over
    unreduced integer (numerator, denominator) pairs, with the row terms in
    int64 where they fit, and one Fraction per output entry, reducing once.
    """
    _check_walk(seq, k)
    if seq.kind == EXACT:
        out = tuple(map(Fraction, *_closed_pairs(*_pairs(seq.values), seq.dimension, k)))
        return CoeffSeq(seq.dimension + 2 * k, out, EXACT)
    d, count = seq.dimension, seq.n_max - 2 * k + 1
    n, b = np.arange(count, dtype=float), np.array(seq.values)
    with np.errstate(over="ignore", invalid="ignore"):
        acc, err = b[2 * k :], 0.0
        for i in reversed(range(k)):
            r, rho = _quotient(*_ratio(d, n, k, i))
            p, pi = _two_product(r, acc)
            s, sigma = _two_sum(b[2 * i : 2 * i + count], p)
            acc, err = s, sigma + pi + r * err + rho * acc
        w0, w0_err = 1.0, 0.0
        for j in range(k):
            q, rho = _quotient(*_factor(d, n, j))
            p, e = _two_product(w0, q)
            w0, w0_err = p, e + w0 * rho + w0_err * q
        p, e = _two_product(w0, acc)
        corr = e + w0 * err + w0_err * acc
        out = np.where(np.isfinite(corr), p + corr, p).tolist()
    return CoeffSeq(seq.dimension + 2 * k, tuple(out), FLOAT)


def _closed_pairs(num: np.ndarray, den: np.ndarray, d: int, k: int) -> tuple[np.ndarray, ...]:
    """The exact closed-form walk from dimension d of the entries num/den, by
    Horner's rule over unreduced integer pairs: each output entry one
    (num, den), every den positive. The row terms are int64 where they fit
    (``_indices``)."""
    count = len(num) - 2 * k
    n = _indices(count, d, k)
    p, q = num[2 * k :], den[2 * k :]
    for i in reversed(range(k)):
        (a, c), x, y = _ratio(d, n, k, i), num[2 * i : 2 * i + count], den[2 * i : 2 * i + count]
        p, q = x * c * q + a * p * y, y * c * q
    for a, c in (_factor(d, n, j) for j in range(k)):  # into p, q: no two int64 factors meet
        p, q = p * a, q * c
    return p, q


def verify_walk_equivalence(seq: CoeffSeq, k: int) -> bool:
    """True iff k repeated steps and the closed-form walk agree entrywise:
    exact sequences exactly, float ones within relative 1e-12 or the two
    routes' rounding bounds, whichever is larger (``_gap_to_recursion``)."""
    return _gap_to_recursion(seq, k)[1]


def _gap_to_recursion(seq: CoeffSeq, k: int, closed=None) -> tuple[Fraction | float, bool]:
    """The largest entrywise |closed - recursive| of the walks of seq by k,
    and whether the two routes agree; ``closed`` is the closed-form walk when
    the caller already holds it. Exact walks compare their integer pairs in
    ``_exact_gap``; float walks pass by ``_walks_agree``."""
    _check_walk(seq, k)
    if seq.kind == EXACT:
        pairs = _pairs(seq.values)
        ends = _closed_pairs(*pairs, seq.dimension, k) if closed is None else _pairs(closed.values)
        gap = _exact_gap(ends, _step_pairs(*pairs, seq.dimension, k))
        return gap, gap == 0
    closed = (walk_closed_form(seq, k) if closed is None else closed).values
    stepped = walk_recursive(seq, k).values
    gap = max(abs(a - b) for a, b in zip(closed, stepped))
    return gap, _walks_agree(seq, k, closed, stepped)


def _exact_gap(closed: tuple, stepped: tuple) -> Fraction:
    """The largest |p/q - r/s| over the entries of two exact walks given as
    integer pairs (p, q) and (r, s), 0 iff they agree. Every denominator is
    positive, so the cross products p s - r q decide that exactly, and a
    Fraction is built only for an entry where they differ."""
    (p, q), (r, s) = closed, stepped
    diff = p * s - r * q
    gaps = (abs(Fraction(diff[i], q[i] * s[i])) for i in np.flatnonzero(diff))
    return max(gaps, default=Fraction(0))


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
    """Float entries a, b of the two walks pass iff
    math.isclose(a, b, rel_tol=REL_TOL, abs_tol=bound), applied over arrays."""
    a, b = np.array(closed, dtype=float), np.array(stepped, dtype=float)
    tol = np.maximum(REL_TOL * np.maximum(np.abs(a), np.abs(b)), _rounding_bound(seq, k))
    with np.errstate(over="ignore", invalid="ignore"):
        close = np.isfinite(a) & np.isfinite(b) & (np.abs(b - a) <= tol)
    return bool(np.all((a == b) | close))
