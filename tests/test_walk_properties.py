"""Property tests for the walks on random small inputs: the exact closed form
equals k exact steps, exact walks are linear, the float routes give, bit for
bit, what the displayed float expressions give, and each float route stays
within its rounding bound of the exact walk.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dimwalk.walk import (  # noqa: E402
    CoeffSeq,
    _rounding_bound,
    step_up,
    walk_closed_form,
    walk_recursive,
)

from oracles import odd_row_reference  # noqa: E402

RATIONALS = st.fractions(min_value=-10, max_value=10, max_denominator=64)
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
# magnitudes down to the subnormal range, where rounding is absolute
TINY = st.floats(min_value=-(2.0**-1018), max_value=2.0**-1018)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def walk_cases(draw, elements, count=1):
    """(d, k, sequences): count equal-length value lists long enough for k steps."""
    d = draw(st.sampled_from((1, 2)))
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


def _float_closed_reference(v, d, k):
    """The float closed form entry by entry: Horner's rule
    w_0 * (b_n + r_0 * (b_(n+2) + ... + r_(k-1) * b_(n+2k))) with rounded
    term ratios r_i and w_0 a product of k rounded factors. The odd n = 0
    entry is the exact piecewise row, rounded, its terms summed in order of i."""
    out = []
    for n in range(len(v) - 2 * k):
        if d == 1 and n == 0:
            ws = [float(w) for w in odd_row_reference(0, k)]
            total = ws[0] * v[0]
            for i in range(1, k + 1):
                total += ws[i] * v[2 * i]
            out.append(total)
            continue
        acc = v[n + 2 * k]
        for i in reversed(range(k)):
            if d == 1:
                r = (-(k - i) * (n + 2 * i + 2) * (n + i)
                     / ((i + 1) * (n + 2 * i) * (n + i + k + 1)))
            else:
                r = -(k - i) * (2 * n + 2 * i + 1) / ((i + 1) * (2 * n + 2 * k + 2 * i + 3))
            acc = v[n + 2 * i] + r * acc
        w = 1.0
        for j in range(k):
            if d == 1:
                w *= (n + k + j) / (2 * (2 * j + 1))
            else:
                w *= (n + 2 * j + 1) * (n + 2 * j + 2) / (2 * (j + 1) * (2 * n + 2 * j + 1))
        out.append(w * acc)
    return out


def _bits(values):
    return [float(x).hex() for x in values]


@PROPERTY
@given(walk_cases(RATIONALS))
def test_exact_closed_form_equals_k_steps(case):
    d, k, (values,) = case
    seq = CoeffSeq.exact(d, values)
    assert walk_closed_form(seq, k).values == _stepped(seq, k).values


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
    expected = values
    for step in range(k):
        seq = step_up(seq)
        expected = _float_step_reference(expected, d + 2 * step)
        assert _bits(seq.values) == _bits(expected)


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
