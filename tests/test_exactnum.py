"""Unit tests for the exact combinatorial kernel."""

import math
from fractions import Fraction as Q

import pytest

from dimwalk.exactnum import (
    beta,
    binomial,
    double_factorial,
    frisch_identity_sides,
    pochhammer,
    pochhammer_split_identity,
)


@pytest.mark.parametrize("k,expected", [(0, 1), (1, 1), (2, 3), (4, 105)])
def test_double_factorial_values(k, expected):
    assert double_factorial(k) == expected


def test_double_factorial_matches_factorial_form():
    # (2k-1)!! == (2k)! / (2^k k!)
    for k in range(21):
        assert double_factorial(k) == math.factorial(2 * k) // (2**k * math.factorial(k))


def test_double_factorial_rejects_negative():
    with pytest.raises(ValueError):
        double_factorial(-1)


def test_pochhammer_values():
    assert pochhammer(3, 3) == 60
    assert pochhammer(Q(1, 2), 2) == Q(3, 4)
    for x in (0, 5, Q(-7, 2), Q(2, 3)):
        assert pochhammer(x, 0) == 1


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        pochhammer(2, -1)


@pytest.mark.parametrize("a,b,expected", [(4, 2, 6), (5, 0, 1), (3, 5, 0), (4, -1, 0)])
def test_binomial_values(a, b, expected):
    assert binomial(a, b) == expected


def test_binomial_rejects_negative_a():
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_split_identity_holds_everywhere():
    xs = [Q(-3), Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(2), Q(7, 3)]
    for x in xs:
        for k in range(6):
            for l in range(6):
                assert pochhammer_split_identity(x, k, l)


@pytest.mark.parametrize(
    "k,b,c,expected",
    [
        (1, 2, 1, Q(1, 6)),   # 1/2 - 1/3 by direct summation
        (0, 3, 2, Q(1, 3)),   # single term 1/C(3,2)
        (2, 2, 2, Q(1, 2)),   # 1 - 2/3 + 1/6
    ],
)
def test_frisch_frozen_values(k, b, c, expected):
    lhs, rhs = frisch_identity_sides(k, b, c)
    assert lhs == rhs == expected


def test_frisch_identity_on_grid():
    for k in range(13):
        for b in range(1, 13):
            for c in range(1, b + 1):
                lhs, rhs = frisch_identity_sides(k, b, c)
                assert lhs == rhs


@pytest.mark.parametrize("k,b,c", [(1, 1, 2), (2, 3, 0), (-1, 3, 2)])
def test_frisch_rejects_bad_arguments(k, b, c):
    with pytest.raises(ValueError):
        frisch_identity_sides(k, b, c)


def test_beta_exact_values():
    assert beta(1, 1) == 1
    assert beta(2, 2) == Q(1, 6)        # Gamma(2)Gamma(2)/Gamma(4)
    assert beta(3, 2) == Q(1, 12)
    assert beta(Q(1, 2), 2) == Q(4, 3)  # sqrt(pi) factors cancel
    assert beta(2, Q(1, 2)) == Q(4, 3)  # symmetric


def test_beta_exact_rejections():
    with pytest.raises(ValueError):
        beta(0, 2)
    with pytest.raises(ValueError):
        beta(2, Q(-1, 2))
    with pytest.raises(ValueError):
        beta(Q(1, 2), Q(3, 2))  # two genuine half-integers: value is irrational
    with pytest.raises(ValueError):
        beta(Q(1, 3), 2)
