"""Series numerics: basis evaluation against scipy, Clenshaw vs direct
summation, quadrature rules against textbook values and numpy, extraction
round-trips, the walk/extraction commutation, membership evidence, the
eigenvalue wrapper's contract, and Gram positive-definiteness spot checks.
"""

import math
import random
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_legendre

from dimwalk.models import HSModelSpec, example_fourier_seq, get_model, hs_model_seq
from dimwalk.series import (
    GRAM_EIGEN_TOL,
    MembershipReport,
    ResolutionError,
    SphericalModel,
    _basis_rows,
    check_membership,
    evaluate_series,
    extract_fourier,
    extract_legendre,
    gauss_legendre_rule,
    gram_psd_check,
    model_from_seq,
    normalized_basis,
    symmetric_eigenvalues,
)
from dimwalk.walk import CoeffSeq, walk_closed_form

from helpers import random_exact_normalized, random_exact_signed
from oracles import project_series


# -- basis ---------------------------------------------------------------


def test_basis_trivial_values():
    for d in (1, 2, 3, 7):
        assert normalized_basis(d, 0, 1.234) == 1.0
        for n in (0, 1, 5, 40):
            assert normalized_basis(d, n, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert normalized_basis(1, 2, math.pi / 2) == pytest.approx(-1.0, abs=1e-15)
    assert normalized_basis(2, 2, math.pi / 2) == pytest.approx(-0.5, abs=1e-15)


def test_basis_argument_errors():
    with pytest.raises(ValueError):
        normalized_basis(0, 1, 0.5)
    with pytest.raises(ValueError):
        normalized_basis(2, -1, 0.5)
    with pytest.raises(ValueError):
        normalized_basis(2, 1, -0.1)
    with pytest.raises(ValueError):
        normalized_basis(2, 1, math.pi + 0.1)


def test_basis_matches_scipy():
    thetas = np.linspace(0.0, math.pi, 23)
    for n in (0, 1, 2, 7, 12, 50):
        for t in thetas:
            x = math.cos(t)
            assert normalized_basis(1, n, t) == pytest.approx(math.cos(n * t), abs=1e-12)
            assert normalized_basis(2, n, t) == pytest.approx(
                float(eval_legendre(n, x)), rel=1e-10, abs=1e-12
            )
            for d in (3, 4, 5, 9):
                lam = (d - 1) / 2
                ref = float(eval_gegenbauer(n, lam, x) / eval_gegenbauer(n, lam, 1.0))
                assert normalized_basis(d, n, t) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_basis_is_bounded_by_one():
    thetas = np.linspace(0.0, math.pi, 1000)
    x = np.cos(thetas)
    for d in range(1, 10):
        mat = np.array(list(_basis_rows(d, 200, x)))
        assert float(np.max(np.abs(mat))) <= 1.0 + 1e-12


# -- series evaluation ----------------------------------------------------


def test_evaluate_at_zero_is_exact_total():
    seq = CoeffSeq.exact(3, [Q(1, 3), Q(1, 3), Q(1, 3)])
    assert evaluate_series(seq, 0.0) == 1.0
    fseq = CoeffSeq.floats(2, [0.25, 0.5, 0.25])
    assert evaluate_series(fseq, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_simple_cases():
    e1 = CoeffSeq.exact(1, [0, 1])
    for t in (0.3, 1.1, math.pi):
        assert evaluate_series(e1, t) == pytest.approx(math.cos(t), abs=1e-15)
    seq = CoeffSeq.exact(2, [Q(1, 2), 0, Q(1, 2)])
    assert evaluate_series(seq, math.pi / 2) == pytest.approx(0.25, abs=1e-15)


def test_clenshaw_matches_direct_sum():
    rnd = random.Random(77)
    thetas = [0.1, 0.7, 1.5707, 2.9, math.pi]
    for d in (2, 3, 5):
        vals = [rnd.uniform(-1, 1) for _ in range(41)]
        seq = CoeffSeq.floats(d, vals)
        for t in thetas:
            direct = math.fsum(
                v * normalized_basis(d, n, t) for n, v in enumerate(vals)
            )
            got = evaluate_series(seq, t)
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_evaluate_rejects_out_of_range_theta():
    seq = CoeffSeq.floats(2, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        evaluate_series(seq, 3.2)
    for bad in (3.2, -0.1, math.nan):
        with pytest.raises(ValueError, match="theta must lie"):
            evaluate_series(seq, np.array([0.0, 1.0, bad]))
    with pytest.raises(ValueError, match="theta must lie"):
        evaluate_series(seq, math.nan)


def test_evaluate_value_past_float_range_names_its_angle():
    # b_0 + b_1 cos(theta) lies past the float range for theta below ~0.65
    seq = CoeffSeq.floats(1, [1e308, 1e308])
    assert evaluate_series(seq, 3.0) == pytest.approx(1e308 * (1 + math.cos(3.0)))
    with pytest.raises(ValueError, match=r"theta = 0\.5 lies outside the float range"):
        evaluate_series(seq, 0.5)
    with pytest.raises(ValueError, match=r"theta = 0\.1 lies outside the float range"):
        evaluate_series(seq, np.array([[3.0, 0.1], [0.5, 2.0]]))
    # a model's coefficient sum is 0, its value at theta = 3 is not a float
    model = model_from_seq(CoeffSeq.floats(1, [1e308, -1e308]))
    with pytest.raises(ValueError, match=r"theta = 3\.0 lies outside the float range"):
        model.evaluator(np.array([0.0, 2.0, 3.0]))


def test_evaluate_array_matches_scalar_calls():
    rnd = random.Random(5)
    thetas = np.array([[0.0, 0.4, 1.3], [2.2, 3.0, math.pi]])
    for d in (1, 2, 3, 5):
        exact = random_exact_signed(rnd, 30, dimension=d)
        for seq in (exact, exact.to_floats()):
            got = evaluate_series(seq, thetas)
            assert isinstance(got, np.ndarray) and got.shape == thetas.shape
            want = [evaluate_series(seq, float(t)) for t in thetas.flat]
            assert all(isinstance(v, float) for v in want)
            # same arithmetic; only the cosine routine may differ by an ulp
            scale = math.fsum(abs(float(v)) for v in seq.values)
            assert got.ravel() == pytest.approx(want, rel=0, abs=1e-12 * scale)
            assert got[0, 0] == want[0] == float(seq.total())


# -- quadrature -----------------------------------------------------------


def test_gauss_rule_small_orders():
    x1, w1 = gauss_legendre_rule(1)
    assert x1 == pytest.approx([0.0], abs=1e-15)
    assert w1 == pytest.approx([2.0], abs=1e-15)
    x2, w2 = gauss_legendre_rule(2)
    assert x2 == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert w2 == pytest.approx([1.0, 1.0], abs=1e-14)


def test_gauss_rule_degree_exactness():
    x3, w3 = gauss_legendre_rule(3)
    assert float(np.sum(w3 * x3**4)) == pytest.approx(0.4, abs=1e-14)
    # degree 2*order-1 is exact; degree 2*order is not integrated exactly
    x2, w2 = gauss_legendre_rule(2)
    assert float(np.sum(w2 * x2**3)) == pytest.approx(0.0, abs=1e-15)


def test_gauss_rule_invariants():
    for order in (1, 2, 3, 7, 20, 64):
        nodes, weights = gauss_legendre_rule(order)
        assert float(np.sum(weights)) == pytest.approx(2.0, abs=1e-13)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        assert float(np.max(np.abs(nodes + nodes[::-1]))) <= 1e-13
        assert float(np.max(np.abs(nodes))) < 1.0


def test_gauss_rule_matches_numpy():
    for order in (5, 20, 64):
        nodes, weights = gauss_legendre_rule(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(nodes - ref_x)) <= 1e-13
        assert np.max(np.abs(weights - ref_w)) <= 1e-13


def test_gauss_rule_cached_arrays_are_read_only():
    # the lru_cache hands one pair to every caller, so no caller may write it
    nodes, weights = gauss_legendre_rule(8)
    before = nodes.copy(), weights.copy()
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    again = gauss_legendre_rule(8)
    assert again[0] is nodes and again[1] is weights
    assert np.array_equal(again[0], before[0]) and np.array_equal(again[1], before[1])


def test_gauss_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)


# -- extraction -----------------------------------------------------------


def test_extract_fourier_orthogonality():
    cos_model = get_model("cosine")
    got = extract_fourier(cos_model, 2, 11)
    assert got.dimension == 1
    assert got.values == pytest.approx([0.0, 1.0, 0.0], abs=1e-13)
    one = get_model("one")
    got = extract_fourier(one, 4, 11)
    assert got.values == pytest.approx([1.0, 0, 0, 0, 0], abs=1e-13)


def test_extract_fourier_round_trip_inverse_square_family():
    seq = example_fourier_seq(50)
    got = extract_fourier(model_from_seq(seq), 50, 101)
    for a, b in zip(got.values, seq.values):
        assert abs(a - b) <= 1e-12


def test_extract_fourier_rejects_small_grid():
    with pytest.raises(ResolutionError):
        extract_fourier(get_model("one"), 50, 11)
    with pytest.raises(ResolutionError):
        extract_fourier(get_model("one"), 0, 1)


def test_extract_fourier_equals_dense_trapezoid():
    model = get_model("example31")
    for grid_size in (2, 3, 10, 11, 64, 65):
        n_max = (grid_size - 1) // 2
        theta = np.linspace(0.0, math.pi, grid_size)
        w = np.full(grid_size, math.pi / (grid_size - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        cosines = np.cos(np.outer(np.arange(n_max + 1), theta))
        dense = (2 / math.pi) * (cosines @ (w * model.evaluator(theta)))
        dense[0] *= 0.5
        got = extract_fourier(model, n_max, grid_size)
        assert got.values == pytest.approx(dense.tolist(), rel=0, abs=1e-14)


def test_scalar_only_evaluators_fall_back_to_per_angle_calls():
    branching = SphericalModel("step", lambda t: 1.0 if t < 1.0 else 0.5)
    vectorized = SphericalModel("step", lambda t: np.where(t < 1.0, 1.0, 0.5))
    assert extract_fourier(branching, 8, 33) == extract_fourier(vectorized, 8, 33)
    constant = SphericalModel("const", lambda t: 1.0)  # a float even for an array
    assert extract_legendre(constant, 5, 16) == extract_legendre(get_model("one"), 5, 16)


def test_extract_legendre_orthogonality():
    got = extract_legendre(get_model("cosine"), 5, 32)
    assert got.dimension == 2
    assert got.values == pytest.approx([0, 1, 0, 0, 0, 0], abs=1e-13)
    got = extract_legendre(get_model("one"), 5, 32)
    assert got.values == pytest.approx([1, 0, 0, 0, 0, 0], abs=1e-13)


def test_extract_legendre_round_trip():
    rnd = random.Random(21)
    seq = random_exact_normalized(rnd, 40, dimension=2)
    got = extract_legendre(model_from_seq(seq), 40, 64)
    for a, b in zip(got.values, seq.values):
        assert abs(a - float(b)) <= 1e-11


@pytest.mark.parametrize("n_max, order", [(200, 256), (2000, 2001)])
def test_extract_legendre_matches_dense_product(n_max, order):
    # the streamed row-by-row dot products against one dense matrix-vector
    # product: two summation orders of sums with |row| <= 1 differ by at
    # most 2*order*u*sum|w psi| before the (n + 1/2) factor
    model = get_model("hs", epsilon=1.0)
    nodes, weights = gauss_legendre_rule(order)
    wpsi = weights * model.evaluator(np.arccos(nodes))
    dense = np.array(list(_basis_rows(2, n_max, nodes))) @ wpsi
    scale = np.arange(n_max + 1) + 0.5
    u = np.finfo(float).eps / 2
    bound = 2 * order * u * scale * float(np.sum(np.abs(wpsi)))
    got = np.array(extract_legendre(model, n_max, order).values)
    assert np.all(np.abs(got - scale * dense) <= bound)


def test_extract_legendre_memory_is_linear_in_order():
    # the dense (n_max+1) x order basis would be 32 MB here
    model = get_model("hs", epsilon=1.0)
    gauss_legendre_rule(2001)
    tracemalloc.start()
    try:
        extract_legendre(model, 2000, 2001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_extract_legendre_rejects_small_order():
    with pytest.raises(ResolutionError):
        extract_legendre(get_model("one"), 40, 20)


def test_walk_and_extraction_commute():
    # band-limited psi from a dimension-1 sequence: extracting then walking
    # equals projecting the same function onto the higher-dimensional basis
    rnd = random.Random(4)
    seq = random_exact_normalized(rnd, 30, dimension=1)
    model = model_from_seq(seq)
    base = extract_fourier(model, 30, 101)
    for k in (1, 2, 3):
        walked = walk_closed_form(base, k)
        direct = project_series(model.evaluator, 2 * k + 1, walked.n_max, 30)
        for a, b in zip(walked.values, direct):
            assert abs(a - b) <= 1e-10


# -- membership -----------------------------------------------------------


def test_membership_inverse_square_family():
    report = check_membership(example_fourier_seq(100))
    assert report.nonneg_ok and not report.violations
    # the truncation tail sum_{n>100} 6/(pi^2 n^2) is bracketed by integrals
    assert 6 / (math.pi**2 * 101) < report.normalization_defect < 6 / (math.pi**2 * 100)


def test_membership_flags_negative_entry():
    seq = CoeffSeq.floats(2, [0.6, 0.5, -0.1])
    report = check_membership(seq)
    assert not report.nonneg_ok
    assert report.violations == (2,)
    assert not report.ok


def test_membership_strict_evidence():
    e0 = CoeffSeq.exact(2, [1, 0, 0])
    loose = check_membership(e0)
    assert loose.ok and loose.normalization_defect == 0.0
    strict = check_membership(e0, strict=True)
    assert strict.positive_even == 1 and strict.positive_odd == 0
    assert not strict.strict_evidence_ok
    assert not strict.ok
    assert isinstance(strict, MembershipReport)


# -- symmetric eigenvalues -------------------------------------------------


def test_jacobi_matches_numpy_up_to_contract_size():
    rng = np.random.default_rng(3)
    for n in (3, 30, 120, 200):
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        mine = symmetric_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        norm = float(np.linalg.norm(a, 2))
        assert float(np.max(np.abs(mine - ref))) <= 1e-8 * norm


def test_jacobi_handles_clustered_spectrum():
    rng = np.random.default_rng(8)
    diag = np.array([1.0, 1.0, 1.0 + 1e-9, 5.0, -2.0])
    qm, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = qm @ np.diag(diag) @ qm.T
    assert symmetric_eigenvalues(a)[0] == pytest.approx(-2.0, abs=1e-10)
    assert symmetric_eigenvalues(a) == pytest.approx(np.linalg.eigvalsh(a), abs=1e-14)


def test_jacobi_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.all(symmetric_eigenvalues(np.zeros((4, 4))) == 0.0)
    assert symmetric_eigenvalues(np.zeros((0, 0))).shape == (0,)


# -- gram spot checks -------------------------------------------------------


def test_gram_constant_model_is_rank_one():
    report = gram_psd_check(get_model("one"), 2, 20, seed=1)
    assert report.psd_pass
    assert abs(report.min_eigen_estimate) <= 1e-9
    assert report.point_count == 20 and report.seed == 1
    assert report.generator == "pcg64"


def test_gram_cosine_passes_on_s2():
    assert gram_psd_check(get_model("cosine"), 2, 20, seed=7).psd_pass


def test_gram_detects_negative_coefficient():
    bad = SphericalModel("negcos", lambda t: -math.cos(t))
    report = gram_psd_check(bad, 2, 20, seed=7)
    assert not report.psd_pass
    assert report.min_eigen_estimate < -1.0


def test_gram_exact_sequence_matches_its_float_image():
    rnd = random.Random(9)
    seq = random_exact_normalized(rnd, 40, dimension=3)
    assert float(seq.total()) == seq.to_floats().total()
    exact = gram_psd_check(model_from_seq(seq), 3, 25, seed=2)
    floats = gram_psd_check(model_from_seq(seq.to_floats()), 3, 25, seed=2)
    assert exact == floats


def test_gram_is_deterministic_in_the_seed():
    model = get_model("cosine")
    a = gram_psd_check(model, 2, 15, seed=3)
    b = gram_psd_check(model, 2, 15, seed=3)
    assert a == b


def test_gram_argument_errors():
    with pytest.raises(ValueError):
        gram_psd_check(get_model("one"), 0, 10)
    with pytest.raises(ValueError):
        gram_psd_check(get_model("one"), 2, 1)


def test_membership_pass_implies_gram_pass():
    # nonnegative coefficients in the dimension-d basis give a positive
    # definite kernel on the dimension-d sphere; 50 seeded trials in all
    rnd = random.Random(17)
    candidates = [
        CoeffSeq.exact(2, [0, 1]),
        random_exact_normalized(rnd, 20, dimension=2),
        random_exact_normalized(rnd, 20, dimension=3),
        hs_model_seq(HSModelSpec(epsilon=2.5), 60),
        CoeffSeq.floats(2, [0.5, 0.3, 0.2]),
    ]
    seeds = range(10)
    for seq in candidates:
        assert check_membership(seq).nonneg_ok
        model = model_from_seq(seq)
        for seed in seeds:
            report = gram_psd_check(model, seq.dimension, 12, seed=seed)
            assert report.psd_pass, (seq.dimension, seed, report)
            assert report.min_eigen_estimate >= -GRAM_EIGEN_TOL * 12
