"""Model families: the inverse-square cosine family and its walked closed
form, the dimension-2 power-decay family, and the registry.
"""

import math
import random
from fractions import Fraction as Q

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


def test_fourier_seq_requires_positive_n_max():
    with pytest.raises(ValueError):
        example_fourier_seq(0)


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
        example_closed_form(3, 0)


def test_walked_closed_form_seq():
    seq = example_walked_closed_form_seq(40, 2)
    assert seq.dimension == 5 and seq.n_max == 40
    assert seq.values[0] == 0.0
    for n in range(1, 41):
        assert seq.values[n] == example_closed_form(n, 2)
    assert check_membership(seq).nonneg_ok


def test_sequence_builders_reject_bad_arguments():
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        example_walked_closed_form_seq(0, 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        example_walked_closed_form_seq(5, 0)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        example_walked_seq(-1, 2)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        hs_model_seq(HSModelSpec(epsilon=1.0), -1)


# -- dimension-2 power-decay family -------------------------------------------


def test_hs_seq_frozen_values():
    seq = hs_model_seq(HSModelSpec(epsilon=1.0), 4)
    assert seq.dimension == 2
    assert seq.values[0] == 0.5
    assert seq.values[1] == pytest.approx(1.5, rel=1e-15)
    assert seq.values[2] == pytest.approx(5 / 16, rel=1e-15)


def test_hs_seq_overflowing_epsilon_names_epsilon_and_n():
    # 5^402 fits in a float, 6^402 does not
    with pytest.raises(ValueError, match=r"epsilon = 400\.0 .* at n = 6$"):
        hs_model_seq(HSModelSpec(epsilon=400.0), 10)
    assert len(hs_model_seq(HSModelSpec(epsilon=400.0), 5).values) == 6


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
