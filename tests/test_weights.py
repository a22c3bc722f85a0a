"""Walk-weight rows: frozen anchor values, the summation law, endpoint
simplifications, sign structure, and agreement with the symbolic recursion
oracle on a small grid (the acceptance suite runs the full grid).
"""

from fractions import Fraction as Q

import pytest

from dimwalk.exactnum import binomial
from dimwalk.weights import (
    EVEN,
    ODD,
    WalkWeights,
    even_weights,
    odd_weight_endpoints,
    odd_weights,
    weight_row_sum,
)

from oracles import (
    even_row_reference,
    odd_row_reference,
    recursion_weight_tables,
    weight_vector,
)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (3, 1, (Q(2), Q(-2))),
        (0, 2, (Q(1), Q(-2, 3), Q(1, 6))),
        (1, 2, (Q(1), Q(-3, 2), Q(1, 2))),
    ],
)
def test_odd_rows_frozen(n, k, expected):
    assert odd_weights(n, k).weights == expected


def test_odd_first_column_n1_k4_is_one():
    assert odd_weights(1, 4).weights[0] == 1


def test_odd_n0_rows_reduce_to_binomial_ratio():
    # w_i(0, k) == (-1)^i C(k,i) / C(k+i, k), including the piecewise i = 0
    for k in range(1, 51):
        row = odd_weights(0, k).weights
        for i, w in enumerate(row):
            assert w == Q((-1) ** i * binomial(k, i), binomial(k + i, k))


_KAPPA = Q(1, 1680)


def _k4_quartics(n):
    return (
        _KAPPA * (n + 4) * (n + 5) * (n + 6) * (n + 7),
        -4 * _KAPPA * (n + 2) * (n + 4) * (n + 6) * (n + 7),
        6 * _KAPPA * (n + 1) * (n + 4) ** 2 * (n + 7),
        -4 * _KAPPA * (n + 1) * (n + 2) * (n + 4) * (n + 6),
        _KAPPA * (n + 1) * (n + 2) * (n + 3) * (n + 4),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_odd_k4_rows_match_quartic_products(n):
    assert odd_weights(n, 4).weights == _k4_quartics(n)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (1, 2, (Q(1), Q(1, 2))),
        (2, 1, (Q(3, 2), Q(-3, 2))),
    ],
)
def test_endpoints_frozen(n, k, expected):
    assert odd_weight_endpoints(n, k) == expected


def test_endpoints_equal_general_formula():
    for n in range(1, 41):
        for k in range(1, 9):
            row = odd_weights(n, k).weights
            assert odd_weight_endpoints(n, k) == (row[0], row[k])


def test_endpoints_reject_n_zero():
    with pytest.raises(ValueError):
        odd_weight_endpoints(0, 3)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (0, 1, (Q(1), Q(-1, 5))),
        (1, 1, (Q(1), Q(-3, 7))),
        (0, 2, (Q(1), Q(-2, 7), Q(1, 21))),
    ],
)
def test_even_rows_frozen(n, k, expected):
    assert even_weights(n, k).weights == expected


def test_row_sums_frozen():
    assert weight_row_sum(odd_weights(5, 3)) == 0
    assert weight_row_sum(odd_weights(0, 7)) == Q(1, 2)
    assert weight_row_sum(odd_weights(1, 1)) == 0


def test_row_sum_law_on_grid():
    for k in range(1, 11):
        assert weight_row_sum(odd_weights(0, k)) == Q(1, 2)
        for n in range(1, 41):
            assert weight_row_sum(odd_weights(n, k)) == 0


def test_row_sum_rejects_even_rows():
    with pytest.raises(ValueError):
        weight_row_sum(even_weights(2, 3))


def test_sign_alternation_and_nonzero():
    for rows in (odd_weights, even_weights):
        for k in range(1, 11):
            for n in list(range(13)) + [40]:
                for i, w in enumerate(rows(n, k).weights):
                    assert w != 0
                    assert (w > 0) == (i % 2 == 0)


def test_invalid_arguments_rejected():
    for rows in (odd_weights, even_weights):
        with pytest.raises(ValueError):
            rows(3, 0)
        with pytest.raises(ValueError):
            rows(-1, 2)


def test_walkweights_validates_shape():
    with pytest.raises(ValueError):
        WalkWeights(n=0, k=2, parity=ODD, weights=(Q(1),))
    with pytest.raises(ValueError):
        WalkWeights(n=0, k=0, parity="diagonal", weights=(Q(1),))


def test_recursion_oracle_agreement_small_grid():
    n_max, k_max = 12, 4
    for base, rows, parity in ((1, odd_weights, ODD), (2, even_weights, EVEN)):
        tables = recursion_weight_tables(base, k_max, n_max)
        for k in range(1, k_max + 1):
            for n in range(n_max + 1):
                expected = weight_vector(tables[k][n], n, k)
                got = rows(n, k)
                assert got.parity == parity
                assert list(got.weights) == expected


@pytest.mark.parametrize("k", [*range(1, 17), 32, 50])
def test_rows_equal_pochhammer_reference(k):
    # n = 0 covers the piecewise (i, n) = (0, 0) odd entry
    for n in [*range(41), 599, 1999]:
        assert list(odd_weights(n, k).weights) == odd_row_reference(n, k), (n, k)
        assert list(even_weights(n, k).weights) == even_row_reference(n, k), (n, k)
