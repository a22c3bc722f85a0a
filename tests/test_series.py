"""Series numerics: unit-vector series against scipy's basis functions,
evaluation vs direct summation and 40-digit sums near the poles, the
arrays each sequence keeps (one conversion and one baby-step matrix, no
hash, threads, pickling), a frozen digest of series values,
quadrature rules against textbook values and numpy, extraction round-trips,
the walk/extraction commutation, membership evidence, the eigenvalue
wrapper's contract, and Gram positive-definiteness spot checks.
"""

import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest
from scipy.special import eval_gegenbauer, eval_legendre

from dimwalk import series
from dimwalk.models import HSModelSpec, example_fourier_seq, get_model, hs_model_seq
from dimwalk.series import (
    GRAM_EIGEN_TOL,
    MembershipReport,
    ResolutionError,
    SphericalModel,
    _cosine_coeffs,
    _legendre_rows,
    check_membership,
    evaluate_series,
    extract_fourier,
    extract_legendre,
    gauss_legendre_rule,
    gram_psd_check,
    model_from_seq,
    symmetric_eigenvalues,
)
from dimwalk.walk import CoeffSeq, walk_closed_form

from helpers import random_exact_normalized, random_exact_signed
from oracles import project_series


# -- basis ---------------------------------------------------------------


def basis(d, n, theta):
    """The degree-n basis function at theta, as the series of the unit vector e_n."""
    return evaluate_series(CoeffSeq.floats(d, [0.0] * n + [1.0]), theta)


def scipy_basis(d, n, theta):
    """cos(n theta), or the Gegenbauer polynomial of parameter (d-1)/2 over its value at 1."""
    if d == 1:
        return math.cos(n * theta)
    lam = (d - 1) / 2
    return float(eval_gegenbauer(n, lam, math.cos(theta)) / eval_gegenbauer(n, lam, 1.0))


def test_basis_trivial_values():
    for d in (1, 2, 3, 7):
        assert basis(d, 0, 1.234) == 1.0
        for n in (0, 1, 5, 40):
            assert basis(d, n, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert basis(1, 2, math.pi / 2) == pytest.approx(-1.0, abs=1e-15)
    assert basis(2, 2, math.pi / 2) == pytest.approx(-0.5, abs=1e-15)


def test_basis_argument_errors():
    with pytest.raises(ValueError):
        basis(0, 1, 0.5)
    with pytest.raises(ValueError):
        basis(2, 1, -0.1)
    with pytest.raises(ValueError):
        basis(2, 1, math.pi + 0.1)


def test_basis_matches_scipy():
    thetas = np.linspace(0.0, math.pi, 23)
    for n in (0, 1, 2, 7, 12, 50):
        for t in thetas:
            x = math.cos(t)
            assert basis(1, n, t) == pytest.approx(math.cos(n * t), abs=1e-12)
            assert basis(2, n, t) == pytest.approx(
                float(eval_legendre(n, x)), rel=1e-10, abs=1e-12
            )
            for d in (3, 4, 5, 9):
                ref = scipy_basis(d, n, t)
                assert basis(d, n, t) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_basis_is_bounded_by_one():
    thetas = np.linspace(0.0, math.pi, 1000)
    for d in range(1, 10):
        for n in range(201):
            assert float(np.max(np.abs(basis(d, n, thetas)))) <= 1.0 + 1e-12, (d, n)


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


def test_series_matches_direct_sum():
    rnd = random.Random(77)
    thetas = [0.1, 0.7, 1.5707, 2.9, math.pi]
    for d in (1, 2, 3, 5):
        vals = [rnd.uniform(-1, 1) for _ in range(41)]
        seq = CoeffSeq.floats(d, vals)
        for t in thetas:
            direct = math.fsum(v * scipy_basis(d, n, t) for n, v in enumerate(vals))
            got = evaluate_series(seq, t)
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)


def mp_series(vals, d, t):
    """sum_n b_n Q_n(cos t) to 40 digits, by the normalized recurrence
    Q_(j+1) = (2(j+lam) x Q_j - j Q_(j-1)) / (j + 2 lam), lam = (d-1)/2, and
    Q_1 = x."""
    with mpmath.workdps(40):
        x, lam = mpmath.cos(mpmath.mpf(t)), mpmath.mpf(d - 1) / 2
        q0, q1, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
        for j, v in enumerate(vals):
            total += mpmath.mpf(v) * q1
            q0, q1 = q1, (2 * (j + lam) * x * q1 - j * q0) / (j + 2 * lam) if j else x
        return float(total)


def test_cosine_series_is_accurate_near_the_poles():
    # the normalized n^-1.1 sequence: its slow decay makes a recurrence in
    # x = cos(theta) lose about n^2 u near theta = 0; the cosine series summed
    # in powers of e^(i theta) does not, at any d, for arrays and single angles
    n_max = 2000
    raw = [0.0] + [n**-1.1 for n in range(1, n_max + 1)]
    total = math.fsum(raw)
    vals = [v / total for v in raw]
    bound = 16 * 2.0**-53 * len(vals) * math.fsum(map(abs, vals))
    thetas = [1e-8, 1e-6, 1e-4, math.pi - 1e-6]
    for d in (1, 2, 3, 5):
        seq = CoeffSeq.floats(d, vals)
        got = evaluate_series(seq, np.array(thetas))
        for t, value in zip(thetas, got):
            ref = mp_series(vals, d, t)
            assert abs(value - ref) <= bound, (d, t)
            assert abs(evaluate_series(seq, t) - ref) <= bound, (d, t)


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


def test_series_past_float_range_raises_after_one_evaluator_call():
    # the array call already names the first angle past the float range, so
    # extraction does not retry the 4097 angles one by one
    model = model_from_seq(CoeffSeq.floats(1, [1e308, -1e308] + [0.0] * 1999))
    calls = []

    def counted(theta):
        calls.append(np.shape(theta))
        return model.evaluator(theta)

    angle = r"theta = 2\.4950197514959953 lies outside the float range"
    with pytest.raises(ValueError, match=angle):
        extract_fourier(SphericalModel("counted", counted), 10, 4097)
    assert calls == [(4097,)]


def test_evaluate_array_matches_scalar_calls():
    # a single angle takes the same route as an array, bit for bit; at d = 17,
    # 1001 and 2097153 the Pochhammer symbols of the cosine conversion would
    # overflow, and its scaled ratios do not
    rnd = random.Random(5)
    thetas = np.array([[0.0, 0.4, 1.3], [2.2, 3.0, math.pi]])
    for d in (1, 2, 3, 5, 17, 1001, 2097153):
        exact = random_exact_signed(rnd, 30, dimension=d)
        for seq in (exact, exact.to_floats()):
            got = evaluate_series(seq, thetas)
            assert isinstance(got, np.ndarray) and got.shape == thetas.shape
            want = [evaluate_series(seq, float(t)) for t in thetas.flat]
            assert all(isinstance(v, float) for v in want)
            assert got.ravel().tolist() == want
            assert got[0, 0] == want[0] == float(seq.total())


@pytest.mark.parametrize("d, n_terms", [(2, 2001), (5, 2000), (1001, 12001), (2097153, 2001)])
def test_cosine_weights_of_each_degree_sum_to_one(d, n_terms):
    # the cosine weights of Q_n are positive and sum to Q_n(1) = 1; at d = 1001
    # and 2097153 the chains of cos(m theta) from m = 2287 and 1022 on start
    # below the normal floats and run down from the top degree, which at
    # 12001 terms holds 5e-9 of the mass
    for n in (n_terms - 1, n_terms - 2):
        b = np.zeros(n_terms)
        b[n] = 1.0
        a = _cosine_coeffs(b, d)
        assert np.all(a >= 0.0) and abs(math.fsum(a) - 1.0) <= 1e-13, n


def test_cosine_series_is_converted_once_per_sequence(monkeypatch):
    # 32 single angles on one sequence pay one conversion, which the sequence
    # keeps, read-only, and which nothing else holds: the sequence is collected
    calls = []

    def counted(b, d):
        calls.append(d)
        return _cosine_coeffs(b, d)

    monkeypatch.setattr(series, "_cosine_coeffs", counted)
    seq = CoeffSeq.floats(5, np.linspace(1.0, 0.0, 200).tolist())
    for t in np.linspace(0.1, 3.0, 32):
        evaluate_series(seq, t)
    assert calls == [5]
    assert not series._cosine_series(seq).flags.writeable
    ref = weakref.ref(seq)
    del seq
    gc.collect()
    assert ref() is None


def test_sum_plan_is_built_once_and_read_only(monkeypatch):
    # 32 single angles and two arrays on one sequence build one baby-step
    # matrix, which the sequence keeps, read-only, and which nothing else holds
    calls, build = [], series._baby_step_matrix

    def counted(a):
        calls.append(a.size)
        return build(a)

    monkeypatch.setattr(series, "_baby_step_matrix", counted)
    seq = CoeffSeq.floats(2, np.linspace(1.0, 0.0, 300).tolist())
    for t in np.linspace(0.1, 3.0, 32):
        evaluate_series(seq, t)
    evaluate_series(seq, np.linspace(0.0, math.pi, 7))
    evaluate_series(seq, np.linspace(0.2, 2.0, 400).reshape(20, 20))
    assert calls == [300]
    with pytest.raises(ValueError):
        series._sum_plan(seq)[0, 0] = 1.0
    ref = weakref.ref(seq)
    del seq
    gc.collect()
    assert ref() is None


def test_pickling_drops_the_kept_arrays():
    # an evaluated sequence pickles and copies as its fields alone, and the
    # copy evaluates bit for bit like the original
    thetas = np.linspace(0.0, math.pi, 33)
    for seq, fresh in (
        (CoeffSeq.floats(2, np.linspace(1.0, 0.0, 2001).tolist()),
         CoeffSeq.floats(2, np.linspace(1.0, 0.0, 2001).tolist())),
        (CoeffSeq.exact(5, [Q(1, n + 2) for n in range(40)]),
         CoeffSeq.exact(5, [Q(1, n + 2) for n in range(40)])),
    ):
        want = evaluate_series(seq, thetas)
        single = evaluate_series(seq, 0.7)
        assert pickle.dumps(seq) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(seq)), copy.deepcopy(seq), copy.copy(seq)):
            assert twin == seq and vars(twin) == vars(fresh)
            assert evaluate_series(twin, thetas).tobytes() == want.tobytes()
            assert evaluate_series(twin, 0.7).hex() == single.hex()


def _series_digest() -> str:
    """SHA-256 of evaluate_series values by float.hex, at single angles and on
    arrays of 1, 33 and 300 angles, over d in {1, 2, 3, 5, 17, 2097153} and
    N in {1, 2, 30, 401, 2001}, for exact and float inputs seeded through
    random.Random."""
    singles = (0.0, 1e-8, 0.7, math.pi - 1e-6, math.pi)
    rnd = random.Random(25)
    arrays = [np.array([2.5]), np.linspace(0.0, math.pi, 33),
              np.array([math.pi * rnd.random() for _ in range(300)])]
    h = hashlib.sha256()
    for d in (1, 2, 3, 5, 17, 2097153):
        for n_terms in (1, 2, 30, 401, 2001):
            rnd = random.Random(1000 * d + n_terms)
            floats = CoeffSeq.floats(d, [(2 * rnd.random() - 1) / (n + 1) for n in range(n_terms)])
            exact = CoeffSeq.exact(
                d, [Q(int(2001 * rnd.random()) - 1000, 1 + int(720 * rnd.random())) for _ in range(n_terms)]
            )
            for seq in (floats, exact):
                values = [evaluate_series(seq, t) for t in singles]
                for thetas in arrays:
                    values.extend(evaluate_series(seq, thetas).tolist())
                h.update(" ".join(map(float.hex, values)).encode())
    return h.hexdigest()


def test_series_outputs_are_bit_identical_to_a_frozen_digest():
    # the accuracy tests allow a tolerance, so only this test sees a
    # reordered sum move the last bits of a series value. OpenBLAS picks its
    # matrix-product kernel by CPU, and the kernel families round the
    # baby-step product differently: one digest per family, each frozen with
    # OPENBLAS_CORETYPE set to the first kernel named
    frozen = {
        "SkylakeX, CooperLake": "c9ec9f8dc53823c2cf798a1577a248321061614258988c2ce1ce62058f6a5020",
        "Haswell, Zen": "3d9d330d3a9e0426be49fe9581905a6401c11d9b93874a217c27d6251b578dda",
        "Sandybridge, Nehalem, Katmai": "91b9983cd61da2bee3579dc5668e7474bebe1a4e1122063d8e905f340d01da12",
    }
    assert _series_digest() in frozen.values()


def test_evaluate_series_never_hashes_its_sequence(monkeypatch):
    def refuse(self):
        raise AssertionError("the sequence was hashed")

    monkeypatch.setattr(CoeffSeq, "__hash__", refuse)
    for seq in (CoeffSeq.floats(3, [0.5, 0.25, 0.25]), CoeffSeq.exact(2, [Q(1, 2), Q(1, 2)])):
        for _ in range(2):  # the first call converts, the second reuses
            evaluate_series(seq, 0.7)
            evaluate_series(seq, np.array([0.0, 0.7, 2.0]))


def test_equal_sequences_give_identical_values():
    # two equal sequences each convert their own values, bit for bit alike
    rng = np.random.default_rng(12)
    thetas = rng.uniform(0.0, math.pi, 64)
    for d in (1, 2, 5):
        vals = rng.uniform(-1.0, 1.0, 500).tolist()
        a, b = CoeffSeq.floats(d, vals), CoeffSeq.floats(d, vals)
        assert a == b and a is not b
        assert np.array_equal(evaluate_series(a, thetas), evaluate_series(b, thetas))
        assert [evaluate_series(a, float(t)) for t in thetas[:8]] == [
            evaluate_series(b, float(t)) for t in thetas[:8]
        ]


def test_evaluated_sequence_keeps_its_value_semantics():
    seq = CoeffSeq.floats(2, [0.5, 0.3, 0.2])
    twin = CoeffSeq.floats(2, [0.5, 0.3, 0.2])
    before = (hash(seq), repr(seq), dataclasses.fields(seq))
    evaluate_series(seq, 1.0)
    assert seq == twin and twin == seq
    assert (hash(seq), repr(seq), dataclasses.fields(seq)) == before
    assert hash(seq) == hash(twin) and repr(seq) == repr(twin)


def test_cosine_memo_under_threads():
    # more threads than cores race to fill and drop memo entries; a race may
    # convert a sequence twice, but every value equals the one-thread value
    rng = np.random.default_rng(8)
    vals = [rng.uniform(-1.0, 1.0, 300).tolist() for _ in range(3)]
    thetas = np.linspace(0.1, 3.0, 16)
    want = [evaluate_series(CoeffSeq.floats(3, v), thetas).tolist() for v in vals]
    errors = []

    def work(i):
        try:
            for j in range(12):
                seq = CoeffSeq.floats(3, vals[(i + j) % 3])
                got = [evaluate_series(seq, float(t)) for t in thetas]
                assert got == want[(i + j) % 3]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []


def test_array_values_do_not_depend_on_their_position():
    # angles go through fixed-size chunks and one matrix product per chunk:
    # a value is the same bit for bit in any sub-array, order or shape
    rng = np.random.default_rng(6)
    thetas = rng.uniform(0.0, math.pi, 1500)
    for d, n_terms in ((1, 301), (2, 301), (5, 2001), (2, 3)):
        seq = CoeffSeq.floats(d, rng.uniform(-1.0, 1.0, n_terms).tolist())
        full = evaluate_series(seq, thetas)
        for start, stop in ((0, 1), (7, 8), (1, 3), (3, 300), (255, 1500), (1, 1500)):
            assert np.array_equal(evaluate_series(seq, thetas[start:stop]), full[start:stop])
        assert np.array_equal(evaluate_series(seq, thetas[::-1]), full[::-1])
        assert np.array_equal(evaluate_series(seq, thetas.reshape(30, 50)), full.reshape(30, 50))


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
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        extract_fourier(get_model("one"), -1, 11)


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


def test_wrong_shape_evaluator_raises_after_one_call():
    calls = []

    def constant(theta):  # a float even for an array of angles
        calls.append(np.shape(theta))
        return 1.0

    model = SphericalModel("const", constant)
    with pytest.raises(ValueError, match="model 'const'"):
        extract_legendre(model, 5, 16)
    assert calls == [(16,)]
    calls.clear()
    with pytest.raises(ValueError, match="model 'const'"):
        extract_fourier(model, 8, 33)
    assert calls == [(33,)]
    calls.clear()
    with pytest.raises(ValueError, match="model 'const'"):
        gram_psd_check(model, 2, 5)
    assert calls == [(11,)]


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
    dense = np.array(list(_legendre_rows(n_max, nodes))) @ wpsi
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
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        extract_legendre(get_model("one"), -1, 20)


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
    assert report.strict_evidence_ok


def test_membership_strict_evidence():
    e0 = CoeffSeq.exact(2, [1, 0, 0])
    report = check_membership(e0)
    assert report.nonneg_ok and report.normalization_defect == 0.0
    assert report.positive_even == 1 and report.positive_odd == 0
    assert not report.strict_evidence_ok
    assert isinstance(report, MembershipReport)
    both = check_membership(CoeffSeq.exact(2, [Q(1, 2), Q(1, 2)]))
    assert both.nonneg_ok and both.strict_evidence_ok


# -- symmetric eigenvalues -------------------------------------------------


def test_symmetric_eigenvalues_matches_numpy_up_to_contract_size():
    rng = np.random.default_rng(3)
    for n in (3, 30, 120, 200):
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        mine = symmetric_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        norm = float(np.linalg.norm(a, 2))
        assert float(np.max(np.abs(mine - ref))) <= 1e-8 * norm


def test_symmetric_eigenvalues_handles_clustered_spectrum():
    rng = np.random.default_rng(8)
    diag = np.array([1.0, 1.0, 1.0 + 1e-9, 5.0, -2.0])
    qm, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = qm @ np.diag(diag) @ qm.T
    assert symmetric_eigenvalues(a)[0] == pytest.approx(-2.0, abs=1e-10)
    assert symmetric_eigenvalues(a) == pytest.approx(np.linalg.eigvalsh(a), abs=1e-14)


def test_symmetric_eigenvalues_input_validation():
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
    bad = SphericalModel("negcos", lambda t: -np.cos(t))
    report = gram_psd_check(bad, 2, 20, seed=7)
    assert not report.psd_pass
    assert report.min_eigen_estimate < -1.0


def test_gram_gate_scales_with_psi0():
    # a PSD series scaled by 1e9 passes, where rounding puts its minimum
    # eigenvalue far below -1e-9 * m; a non-PSD one scaled by 1e-9 fails,
    # where its minimum eigenvalue lies above -1e-9 * m
    ex31 = [1e9 * v for v in example_fourier_seq(400).values]
    big = gram_psd_check(model_from_seq(CoeffSeq.floats(1, ex31)), 1, 1000, seed=7)
    assert big.min_eigen_estimate < -GRAM_EIGEN_TOL * 1000 and big.psd_pass
    tiny = [1e-9 * v for v in (0.5, -0.05, 0.3, 0.25)]
    small = gram_psd_check(model_from_seq(CoeffSeq.floats(1, tiny)), 1, 200, seed=7)
    assert -GRAM_EIGEN_TOL * 200 < small.min_eigen_estimate < 0.0 and not small.psd_pass


def test_gram_gate_with_psi0_at_most_zero():
    # psi(0) < 0 is a negative diagonal: FAIL, however small; psi = 0 is the
    # zero matrix, PSD
    neg = gram_psd_check(model_from_seq(CoeffSeq.floats(2, [-1e-20])), 2, 20, seed=1)
    assert neg.min_eigen_estimate > -GRAM_EIGEN_TOL * 20 and not neg.psd_pass
    zero = gram_psd_check(model_from_seq(CoeffSeq.floats(2, [0.0, 0.0])), 2, 20, seed=1)
    assert zero.min_eigen_estimate == 0.0 and zero.psd_pass


def test_gram_exact_sequence_matches_its_float_image():
    rnd = random.Random(9)
    seq = random_exact_normalized(rnd, 40, dimension=3)
    assert float(seq.total()) == seq.to_floats().total()
    exact = gram_psd_check(model_from_seq(seq), 3, 25, seed=2)
    floats = gram_psd_check(model_from_seq(seq.to_floats()), 3, 25, seed=2)
    assert exact == floats


@pytest.mark.parametrize("d, m, seed", [(1, 2, 0), (1, 40, 7), (2, 25, 3), (5, 60, 11)])
def test_gram_uses_the_documented_points(d, m, seed):
    # normalized rows of default_rng(seed).standard_normal((m, d + 1)), never
    # redrawn; the kernel built the same way gives the same eigenvalue bit for bit
    model = model_from_seq(random_exact_normalized(random.Random(seed), 12, dimension=d))
    pts = np.random.default_rng(seed).standard_normal((m, d + 1))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    upper = np.triu_indices(m, 1)
    g = np.empty((m, m))
    g[upper] = model.evaluator(np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)[upper]))
    g[upper[::-1]] = g[upper]
    np.fill_diagonal(g, model.evaluator(0.0))
    expected = float(np.linalg.eigvalsh(g)[0])
    assert gram_psd_check(model, d, m, seed).min_eigen_estimate == expected


def test_gram_calls_the_evaluator_once():
    # psi(0) for the diagonal comes first in the one array of angles
    calls = []

    def counted(theta):
        calls.append(np.array(theta))
        return np.cos(theta)

    m = 17
    assert gram_psd_check(SphericalModel("counted", counted), 2, m, seed=4).psd_pass
    assert [c.shape for c in calls] == [(m * (m - 1) // 2 + 1,)]
    assert calls[0][0] == 0.0


@pytest.mark.parametrize("model, matrices", [
    pytest.param(get_model("example31"), 4, id="example31"),
    pytest.param(get_model("cosine"), 4, id="cosine"),
    # a series model sums its angles in fixed-size chunks, with no
    # temporaries the size of the angle array
    pytest.param(model_from_seq(hs_model_seq(HSModelSpec(epsilon=1.0), 199)), 3, id="hs-series"),
])
def test_gram_memory_stays_below_four_matrices(model, matrices):
    # the kernel matrix, its upper-triangle angles and their psi values: the
    # traced peak stays under four (three for a series) m x m float matrices
    m = 400
    gram_psd_check(model, 2, m, seed=1)
    tracemalloc.start()
    try:
        gram_psd_check(model, 2, m, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrices * m * m * 8


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
