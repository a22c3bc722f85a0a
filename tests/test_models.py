"""Model families: the inverse-square cosine family and its walked closed
form, the dimension-2 power-decay family, and the registry.
"""

import math
import random
import sys
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest

from dimwalk.models import (
    HSModelSpec,
    MODEL_NAMES,
    example_closed_form,
    example_fourier_seq,
    example_psi,
    example_walked_closed_form_seq,
    example_walked_seq,
    get_model,
    hs_model_seq,
)
from dimwalk.series import check_membership, evaluate_series
from dimwalk.weights import odd_weights

from oracles import beta


# -- inverse-square family ---------------------------------------------------


def test_fourier_seq_values():
    seq = example_fourier_seq(10)
    assert seq.dimension == 1 and seq.kind == "float"
    assert seq.values[0] == 0.0
    assert seq.values[1] == pytest.approx(6 / math.pi**2, rel=1e-15)
    assert seq.values[2] == pytest.approx(6 / (4 * math.pi**2), rel=1e-15)


def test_fourier_seq_monotone_tail_and_total():
    seq = example_fourier_seq(10_000)
    vals = seq.values
    assert all(vals[n] > vals[n + 1] for n in range(1, 10_000))
    # truncated total approaches 1 from below; tail is bracketed by integrals
    defect = 1.0 - seq.total()
    assert 6 / (math.pi**2 * 10_001) < defect < 6 / (math.pi**2 * 10_000)


def test_psi_closed_form_matches_series():
    assert example_psi(0.0) == 1.0
    assert example_psi(math.pi) == pytest.approx(-0.5, abs=1e-15)
    seq = example_fourier_seq(5000)
    for t in (0.3, 1.0, 2.5, math.pi):
        assert example_psi(t) == pytest.approx(evaluate_series(seq, t), abs=1e-6)


def test_closed_form_anchor_value():
    # cross-check b at n=2, k=1 two ways: the closed form and the k=1 walk
    # (3/2)(b_2 - b_4) = (3/2)(6/pi^2)(1/4 - 1/16) = 27/(16 pi^2)
    assert example_closed_form(2, 1) == pytest.approx(27 / (16 * math.pi**2), rel=1e-14)


def test_closed_form_positivity():
    for n in range(1, 51):
        for k in range(1, 51):
            assert example_closed_form(n, k) > 0.0, (n, k)


def test_closed_form_matches_weighted_sum():
    # sum_i w_i(n,k) * 6/(pi^2 (n+2i)^2) against the closed form
    for n in range(1, 31):
        for k in range(1, 4):
            row = odd_weights(n, k).weights
            exact = sum(w * Q(6) / (n + 2 * i) ** 2 for i, w in enumerate(row))
            via_walk = float(exact) / math.pi**2
            direct = example_closed_form(n, k)
            assert abs(direct - via_walk) <= 1e-11 * abs(direct)


def test_closed_form_float_path_matches_exact_form():
    # large n, against the exact Beta form
    for n, k in ((1500, 1), (4000, 3)):
        b_half = beta(Q(n, 2), k)
        b_full = beta(n, 2 * k)
        expected = float(
            Q(3 * k * (n + k), n * (n + 2 * k) ** 2) * b_half**2 / b_full
        ) / math.pi**2
        assert example_closed_form(n, k) == pytest.approx(expected, rel=1e-11)


def test_closed_form_rejects_bad_indices():
    with pytest.raises(ValueError):
        example_closed_form(0, 1)
    with pytest.raises(ValueError):
        example_closed_form(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        example_closed_form(3, 0)


def test_walked_closed_form_seq():
    seq = example_walked_closed_form_seq(40, 2)
    assert seq.dimension == 5 and seq.n_max == 40
    assert seq.values[0] == 0.0
    for n in range(1, 41):
        assert seq.values[n] == example_closed_form(n, 2)
    assert check_membership(seq).nonneg_ok
    # the array form is bitwise the scalar one, up to n = 1e6
    n = np.array([1.0, 2.0, 3.0, 4097.0, 999_999.0, 1e6])
    for k in (1, 8, 50):
        assert example_closed_form(n, k).tolist() == [example_closed_form(int(m), k) for m in n]


def test_fourier_seq_requires_positive_n_max():
    # n_max = 0 is the one-term sequence (see test_every_family_accepts_n_max_zero)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        example_fourier_seq(-1)


@pytest.mark.filterwarnings("error")
def test_sequence_builders_reject_bad_arguments():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        example_walked_closed_form_seq(-1, 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        example_walked_closed_form_seq(5, 0)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        example_walked_seq(-1, 2)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        hs_model_seq(HSModelSpec(epsilon=1.0), -1)
    # c * 3/2 overflows at n = 1: an error naming c and n, and no numpy warning
    with pytest.raises(ValueError, match=r"c = 1\.5e\+308 puts entry n = 1 "):
        hs_model_seq(HSModelSpec(epsilon=1.0, c=1.5e308), 3)


@pytest.mark.parametrize("build, dimension, b0", [
    (example_fourier_seq, 1, 0.0),
    (lambda n_max: example_walked_closed_form_seq(n_max, 2), 5, 0.0),
    (lambda n_max: example_walked_seq(n_max, 1), 3, -3 / (4 * math.pi**2)),
    (lambda n_max: hs_model_seq(HSModelSpec(epsilon=1.0, c0=3.0), n_max), 2, 1.5),
])
def test_every_family_accepts_n_max_zero(build, dimension, b0):
    seq = build(0)
    assert seq.dimension == dimension and seq.n_max == 0
    assert seq.values[0] == pytest.approx(b0, rel=1e-15)


# -- dimension-2 power-decay family -------------------------------------------


def test_hs_seq_frozen_values():
    seq = hs_model_seq(HSModelSpec(epsilon=1.0), 4)
    assert seq.dimension == 2
    assert seq.values[0] == 0.5
    assert seq.values[1] == pytest.approx(1.5, rel=1e-15)
    assert seq.values[2] == pytest.approx(5 / 16, rel=1e-15)


@pytest.mark.parametrize("epsilon", [0.5, 1.0, 1.5, 3.7, 10.0])
def test_hs_seq_within_two_ulp(epsilon):
    spec = HSModelSpec(epsilon=epsilon, c=0.7)
    vals = hs_model_seq(spec, 2000).values
    with mpmath.workdps(40):
        for n in range(1, 2001):
            exact = mpmath.mpf(0.7) * (2 * n + 1) / 2 / mpmath.power(n, 2 + mpmath.mpf(epsilon))
            assert abs(vals[n] - exact) <= 2 * math.ulp(float(exact)), n


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.5, 3.7, 10.0, 60.0, 400.0])
def test_hs_seq_is_the_halved_expression_bit_for_bit(epsilon):
    # c n^-(2+eps) (n + 1/2) against c n^-(2+eps) (2n+1) / 2: halving is exact.
    # At c = 1e308 the old form overflows at n = 1, where b_1 = 1.5e308 is a float
    n = np.arange(1, 3001, dtype=float)
    for c in (1e-300, 0.7, 1.0, 3.0, 1e10, 1e300, 1e308):
        with np.errstate(over="ignore"):
            old = c * n ** -(2.0 + epsilon) * (2 * n + 1) / 2.0
        finite = np.isfinite(old)
        new = np.array(hs_model_seq(HSModelSpec(epsilon=epsilon, c=c), 3000).values[1:])
        assert new[0] == c * 1.5 and finite[1:].all()
        assert np.array_equal(new[finite], old[finite]), c


def test_hs_seq_large_epsilon_underflows_to_zero():
    # 6^-402 * 13/2 is subnormal, 7^-402 is below the smallest subnormal
    vals = hs_model_seq(HSModelSpec(epsilon=400.0), 10).values
    assert all(math.isfinite(v) for v in vals)
    assert 0.0 < vals[6] < sys.float_info.min
    assert vals[7:] == (0.0,) * 4


def test_hs_spec_validation():
    with pytest.raises(ValueError):
        HSModelSpec(epsilon=0.0)
    with pytest.raises(ValueError):
        HSModelSpec(epsilon=1.0, c0=-1.0)


def test_hs_walked_two_dimensions_up_stays_nonnegative():
    # construction principle: fast-decaying dimension-2 coefficients walk to
    # a (reported, not guaranteed) nonnegative dimension-4 sequence
    from dimwalk.walk import walk_closed_form

    seq = hs_model_seq(HSModelSpec(epsilon=2.5), 202)
    walked = walk_closed_form(seq, 1)
    assert walked.dimension == 4 and walked.n_max == 200
    report = check_membership(walked)
    assert report.nonneg_ok and not report.violations


def test_hs_partial_sums_stabilize():
    seq = hs_model_seq(HSModelSpec(epsilon=1.0), 40_000)
    vals = np.array(seq.values)
    assert np.all(vals > 0)
    partial = np.cumsum(vals)
    assert np.all(np.diff(partial) > 0)
    assert vals[-1] < 1e-9  # increments past n ~ 3e4 are below 1e-9


# -- registry -------------------------------------------------------------------


def test_registry_names_and_psi_at_zero():
    assert MODEL_NAMES == ("one", "cosine", "example31", "hs")
    for name in ("one", "cosine", "example31"):
        model = get_model(name)
        assert model.evaluator(0.0) == pytest.approx(1.0, abs=1e-12)


def test_registry_evaluators_take_arrays():
    thetas = np.linspace(0.0, math.pi, 7)
    for name in MODEL_NAMES:
        model = get_model(name)
        got = model.evaluator(thetas)
        assert isinstance(got, np.ndarray) and got.shape == thetas.shape
        want = [model.evaluator(float(t)) for t in thetas]
        assert all(isinstance(v, float) for v in want)
        assert got.tolist() == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_registry_hs_model():
    model = get_model("hs", epsilon=2.0, n_trunc=200)
    # the evaluator sums the truncated series
    assert model.evaluator(0.0) == pytest.approx(
        hs_model_seq(HSModelSpec(epsilon=2.0), 200).total(), rel=1e-12
    )


def test_registry_hs_model_is_its_series():
    seq = hs_model_seq(HSModelSpec(epsilon=1.5, c0=2.0, c=0.5), 300)
    model = get_model("hs", epsilon=1.5, c0=2.0, c=0.5, n_trunc=300)
    thetas = np.linspace(0.0, math.pi, 17)
    assert model.evaluator(thetas).tolist() == evaluate_series(seq, thetas).tolist()
    assert model.evaluator(0.0) == seq.total()


def test_registry_errors():
    with pytest.raises(KeyError):
        get_model("sinc")
    with pytest.raises(ValueError):
        get_model("one", epsilon=1.0)
    with pytest.raises(ValueError):
        get_model("hs", smoothing=2)
