"""Property tests for the walks on random small inputs from start dimensions
1 to 12: the exact closed form equals k exact steps, exact walks are linear,
the float routes give, bit for bit, what the displayed float expressions
give, each float route stays within its rounding bound of the exact walk,
and the compensated float closed form stays within its own second-order
bound.
"""

import math
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dimwalk.walk import (  # noqa: E402
    CoeffSeq,
    _rounding_bound,
    step_up,
    verify_walk_equivalence,
    walk_closed_form,
    walk_recursive,
)

RATIONALS = st.fractions(min_value=-10, max_value=10, max_denominator=64)
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
# magnitudes down to the subnormal range, where rounding is absolute
TINY = st.floats(min_value=-(2.0**-1018), max_value=2.0**-1018)
# normal-range magnitudes, where every error-free transformation is exact
NORMAL = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, m: sign * m, st.sampled_from((-1.0, 1.0)), st.floats(1e-5, 1e5)),
)
U = Fraction(1, 2**53)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def walk_cases(draw, elements, count=1):
    """(d, k, sequences): count equal-length value lists long enough for k steps."""
    d = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    size = draw(st.integers(2 * k + 1, 2 * k + 12))
    seqs = [draw(st.lists(elements, min_size=size, max_size=size)) for _ in range(count)]
    return d, k, seqs


def _stepped(seq, k):
    for _ in range(k):
        seq = step_up(seq)
    return seq


def _float_step_reference(v, d):
    out = []
    for n in range(len(v) - 2):
        if d == 1:
            if n == 0:
                out.append(v[0] - 0.5 * v[2])
            else:
                c = (n + 1) / 2
                out.append(c * (v[n] - v[n + 2]))
        else:
            a = (n + d - 1) * (n + d) / (d * (2 * n + d - 1))
            b = (n + 1) * (n + 2) / (d * (2 * n + d + 3))
            out.append(a * v[n] - b * v[n + 2])
    return out


def _closed_terms(n, d, k):
    """The integer (a, c) of the k term ratios r_i = a/c, i = 0..k-1, and the
    integer (num, den) of the k quotients whose product is w_0, for the row
    from dimension d. From d = 3 the connection formula keeps its shared
    factors. At d = 1, n = 0 the terms are the lambda -> 0 limit, w_0 = 1
    and r_0 = -k/(k+1)."""
    quotients = [((n + 2 * j + d - 1) * (n + 2 * j + d), (2 * j + d) * (2 * n + 2 * j + d - 1))
                 for j in range(k)]
    if d == 1:
        ratios = [(-(k - i) * (n + 2 * i + 2) * (n + i), (i + 1) * (n + 2 * i) * (n + i + k + 1))
                  for i in range(k)]
        if n == 0:
            ratios[0], quotients[0] = (-k, k + 1), (1, 1)
    elif d == 2:
        ratios = [(-(k - i) * (2 * n + 2 * i + 1), (i + 1) * (2 * n + 2 * k + 2 * i + 3))
                  for i in range(k)]
    else:
        ratios = [(-(k - i) * (2 * n + 2 * i + d - 1) * (n + 2 * i + 1) * (n + 2 * i + 2),
                   (i + 1) * (2 * n + 2 * i + 2 * k + d + 1) * (n + 2 * i + d - 1) * (n + 2 * i + d))
                  for i in range(k)]
    return ratios, quotients


def _two_sum(a, b):
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_product(a, b):
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _quotient(a, c):
    r = a / c
    p, e = _two_product(r, c)
    return r, ((a - p) - e) / c


def _float_closed_reference(v, d, k):
    """The float closed form entry by entry: compensated Horner. Level i
    (from k-1 down to 0) takes r = a/c with its residual rho, the exact
    product r * acc = p + pi and the exact sum b_(n+2i) + p = s + sigma, and
    carries err = sigma + pi + r err + rho acc; w_0 is the compensated
    product of its k quotients. The entry is w_0 * acc plus the correction
    e + w_0 err + w_0_err acc, or w_0 * acc alone where that correction is
    not finite."""
    out = []
    for n in range(len(v) - 2 * k):
        ratios, quotients = _closed_terms(n, d, k)
        acc, err = v[n + 2 * k], 0.0
        for i in reversed(range(k)):
            r, rho = _quotient(*ratios[i])
            p, pi = _two_product(r, acc)
            s, sigma = _two_sum(v[n + 2 * i], p)
            acc, err = s, sigma + pi + r * err + rho * acc
        w0, w0_err = 1.0, 0.0
        for num, den in quotients:
            q, rho = _quotient(num, den)
            p, e = _two_product(w0, q)
            w0, w0_err = p, e + w0 * rho + w0_err * q
        p, e = _two_product(w0, acc)
        corr = e + w0 * err + w0_err * acc
        out.append(p + corr if math.isfinite(corr) else p)
    return out


def _plain_closed_reference(v, d, k):
    """Plain Horner over the same rounded terms,
    w_0 * (b_n + r_0 * (b_(n+2) + ... + r_(k-1) * b_(n+2k))): the high parts
    of the compensated scheme, and its value where the correction is not
    finite."""
    out = []
    for n in range(len(v) - 2 * k):
        ratios, quotients = _closed_terms(n, d, k)
        acc = v[n + 2 * k]
        for i in reversed(range(k)):
            a, c = ratios[i]
            acc = v[n + 2 * i] + a / c * acc
        w = 1.0
        for num, den in quotients:
            w *= num / den
        out.append(w * acc)
    return out


def _bits(values):
    return [float(x).hex() for x in values]


@PROPERTY
@given(walk_cases(RATIONALS))
def test_exact_closed_form_equals_k_steps(case):
    d, k, (values,) = case
    seq = CoeffSeq.exact(d, values)
    stepped = _stepped(seq, k).values
    assert walk_closed_form(seq, k).values == stepped
    assert walk_recursive(seq, k).values == stepped


@PROPERTY
@given(walk_cases(RATIONALS, count=2), RATIONALS)
def test_exact_walks_are_linear(case, a):
    d, k, (xs, ys) = case
    x, y = CoeffSeq.exact(d, xs), CoeffSeq.exact(d, ys)
    mixed = CoeffSeq.exact(d, [a * u + v for u, v in zip(xs, ys)])
    for walk in (lambda s: walk_closed_form(s, k), lambda s: _stepped(s, k)):
        expected = tuple(a * u + v for u, v in zip(walk(x).values, walk(y).values))
        assert walk(mixed).values == expected


@PROPERTY
@given(walk_cases(FLOATS))
def test_float_walks_match_displayed_expressions_bitwise(case):
    d, k, (values,) = case
    seq = CoeffSeq.floats(d, values)
    assert _bits(walk_closed_form(seq, k).values) == _bits(
        _float_closed_reference(values, d, k)
    )
    walked = walk_recursive(seq, k)
    expected = values
    for step in range(k):
        seq = step_up(seq)
        expected = _float_step_reference(expected, d + 2 * step)
        assert _bits(seq.values) == _bits(expected)
    assert _bits(walked.values) == _bits(expected)


@settings(max_examples=300, deadline=None)
@given(walk_cases(st.one_of(FLOATS, TINY)))
def test_float_walks_within_rounding_bound_of_exact_walk(case):
    d, k, (values,) = case
    seq = CoeffSeq.floats(d, values)
    exact = walk_closed_form(CoeffSeq.exact(d, [Fraction(v) for v in values]), k).values
    # _rounding_bound covers both routes together; each route takes half
    bounds = _rounding_bound(seq, k)
    for route in (walk_closed_form, walk_recursive):
        for got, want, bound in zip(route(seq, k).values, exact, bounds):
            assert abs(Fraction(got) - want) <= Fraction(bound) / 2


# C of the compensated closed-form bound 2u|y| + C k^2 u^2 A_k(n), for inputs
# whose error-free transformations are exact (no underflow, no split
# overflow). Write y = W T_0, with T_i = b_(n+2i) + R_i T_(i+1) over the
# exact ratios R_i, W the exact w_0, Ahat_i the same recursion over |b|, |R|,
# so |W| Ahat_0 = A_k(n), and gamma_m ~ m u.
# - a/c and its residual: the remainder a - r c is computed exactly, so
#   |R - r| <= u|R| and |R - r - rho| <= u^2 |R|.
# - Plain Horner: E_i = T_i - acc_i has |E_i| <= gamma_(3(k-i)) Ahat_i.
# - Level i: T_i = s + sigma + pi + r E_(i+1) + (R - r) acc + (R - r) E_(i+1)
#   exactly. err_i misses it by the rounding of its 4-term sum
#   (gamma_3 (3u + 3(k-i-1)u) Ahat_i), (R - r - rho) acc (u^2 Ahat_i),
#   (R - r) E_(i+1) (3(k-i-1) u^2 Ahat_i) and r times the miss of level
#   i+1. Summed through the levels: |E_0 - err_0| <= 6k(k+1) u^2 Ahat_0.
# - w_0: the same argument over k quotients gives 6j u^2 |W| at factor j,
#   so |W - w_0 - w_0_err| <= 3k(k+1) u^2 |W|, and |W - w_0| <= gamma_2k |W|.
# - The end: y = p + e + w_0 E_0 + (W - w_0) acc + (W - w_0) E_0 exactly.
#   The correction misses it by 6k(k+1) + 3k(k+1) + 6k^2 (the last term)
#   + (13k + 2) (its rounding), all times u^2 A_k(n): 15k^2 + 22k + 2 <= 39k^2.
# - fl(p + corr) adds u|y| and a factor 1 + u. With the (1 + O(ku)) factors
#   dropped above, below 1 + 1e-13 for k <= 50, C = 40 holds.
# The d = 1, n = 0 entry takes the same route, with an exact w_0 = 1.
COMPENSATED_C = 40


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 3, 4, 7)), st.integers(1, 50), st.data())
def test_float_closed_form_within_compensated_bound_of_exact_walk(d, k, data):
    values = data.draw(st.lists(NORMAL, min_size=2 * k + 1, max_size=2 * k + 12))
    exact = walk_closed_form(CoeffSeq.exact(d, map(Fraction, values)), k).values
    # A_k(n) is |the exact walk of s(m)|b_m||, s(m) = (-1)^(m//2): see _rounding_bound
    signed = [(-1) ** (m // 2) * abs(Fraction(v)) for m, v in enumerate(values)]
    absolute = walk_closed_form(CoeffSeq.exact(d, signed), k).values
    got = walk_closed_form(CoeffSeq.floats(d, values), k).values
    for n, (g, y, a) in enumerate(zip(got, exact, absolute)):
        bound = 2 * U * abs(y) + COMPENSATED_C * k * k * U * U * abs(a)
        assert abs(Fraction(g) - y) <= bound, (n, g, float(y))


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("k", (1, 3, 8))
def test_float_closed_form_falls_back_to_plain_horner_near_overflow(d, k):
    # 134217729 |b| overflows for |b| above about 1.34e300, so the first
    # split fails in every entry and no correction is finite
    rnd = random.Random(10 * k + d)
    values = [rnd.choice((-1.0, 1.0)) * rnd.uniform(1.4e300, 4e300) for _ in range(2 * k + 9)]
    seq = CoeffSeq.floats(d, values)
    assert _bits(walk_closed_form(seq, k).values) == _bits(_plain_closed_reference(values, d, k))
    assert verify_walk_equivalence(seq, k) is True
