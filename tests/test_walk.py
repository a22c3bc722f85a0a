"""Sequence walks: the two-step recursion, the closed-form route, their
equivalence, truncation bookkeeping, linearity, and the n = 0 identity.
"""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest

from dimwalk import walk as walk_module, weights as weights_module
from dimwalk.models import example_fourier_seq, hs_model_seq, HSModelSpec
from dimwalk.walk import (
    CoeffSeq,
    _rounding_bound,
    _walks_agree,
    step_up,
    verify_walk_equivalence,
    walk_closed_form,
    walk_recursive,
)
from dimwalk.weights import even_weights, odd_weights

from helpers import (
    random_exact_normalized,
    random_exact_signed,
    signed_with_zeros,
    with_nudged_pair,
)
from oracles import exact_walk


def test_step_up_frozen_example():
    seq = CoeffSeq.exact(1, [Q(1, 2), Q(3, 10), Q(1, 5)])
    out = step_up(seq)
    assert out.dimension == 3
    assert out.values == (Q(2, 5),)  # 1/2 - (1/2)(1/5)


def test_step_up_fixes_constant_function():
    seq = CoeffSeq.exact(1, [1, 0, 0, 0, 0])
    assert step_up(seq).values == (Q(1), Q(0), Q(0))


def test_step_up_d2_row_coefficients():
    # probe the n = 2 row at d = 2: coefficient of b_2 is 6/5, of b_4 is -2/3
    e2 = CoeffSeq.exact(2, [0, 0, 1, 0, 0])
    e4 = CoeffSeq.exact(2, [0, 0, 0, 0, 1])
    assert step_up(e2).values[2] == Q(6, 5)
    assert step_up(e4).values[2] == Q(-2, 3)


def test_step_up_requires_three_entries():
    with pytest.raises(ValueError):
        step_up(CoeffSeq.exact(1, [1, 0]))


def test_step_up_float_matches_exact():
    rnd = random.Random(5)
    for d in (1, 2, 3):
        seq = random_exact_signed(rnd, 12, dimension=d)
        exact = step_up(seq).to_floats()
        inexact = step_up(seq.to_floats())
        for a, b in zip(exact.values, inexact.values):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_closed_form_matches_frozen_step():
    seq = CoeffSeq.exact(1, [Q(1, 2), Q(3, 10), Q(1, 5)])
    assert walk_closed_form(seq, 1).values == (Q(2, 5),)


def test_closed_form_d2_first_entry():
    seq = CoeffSeq.exact(2, [Q(1, 3), Q(1, 3), Q(1, 3), 0, 0])
    out = walk_closed_form(seq, 1)
    assert out.dimension == 4
    assert out.values[0] == Q(4, 15)  # 1/3 - (1/5)(1/3)


def test_closed_form_delta_probe_frozen():
    e4 = CoeffSeq.exact(1, [0, 0, 0, 0, 1])
    out = walk_closed_form(e4, 2)
    assert out.dimension == 5
    assert out.values == (Q(1, 6),)  # only the n = 0 row survives truncation
    longer = CoeffSeq.exact(1, [0, 0, 0, 0, 1, 0, 0, 0, 0])
    assert walk_closed_form(longer, 2).values == (Q(1, 6), 0, Q(-8, 3), 0, Q(7, 2))


def test_dimension_and_truncation_bookkeeping():
    rnd = random.Random(1)
    for d, k in ((1, 1), (1, 4), (2, 3)):
        seq = random_exact_normalized(rnd, 20, dimension=d)
        out = walk_closed_form(seq, k)
        assert out.dimension == d + 2 * k
        assert out.n_max == seq.n_max - 2 * k


def test_closed_form_argument_errors():
    seq = CoeffSeq.exact(3, [1, 0, 0, 0, 0])
    assert walk_closed_form(seq, 1) == step_up(seq)  # any starting dimension walks
    short = CoeffSeq.exact(1, [1, 0, 0])
    with pytest.raises(ValueError):
        walk_closed_form(short, 2)  # n_max < 2k
    with pytest.raises(ValueError):
        walk_closed_form(short, 0)


def test_walk_recursive_is_k_steps():
    rnd = random.Random(5)
    for d in (1, 2, 3):
        seq = random_exact_signed(rnd, 12, dimension=d)
        stepped = seq
        for k in range(1, 7):
            stepped = step_up(stepped)
            assert walk_recursive(seq, k) == stepped


def test_walk_recursive_argument_errors():
    seq = CoeffSeq.exact(3, [1, 0, 0, 0, 0])
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            walk_recursive(seq, k)
    with pytest.raises(ValueError, match="too short"):
        walk_recursive(seq, 3)  # n_max < 2k
    # the closed form reports the same problems in the same words
    short = CoeffSeq.exact(1, [1, 0, 0])
    with pytest.raises(ValueError, match="too short"):
        walk_closed_form(short, 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        walk_closed_form(short, 0)
    assert walk_closed_form(seq, 2) == walk_recursive(seq, 2)


@pytest.mark.parametrize("base,rows", [(1, odd_weights), (2, even_weights)])
def test_delta_probes_reproduce_weight_columns(base, rows):
    # every output entry depends on exactly the stencil n, n+2, ..., n+2k
    n_max, k = 12, 3
    for m in range(n_max + 1):
        values = [0] * (n_max + 1)
        values[m] = 1
        out = walk_closed_form(CoeffSeq.exact(base, values), k)
        for n, v in enumerate(out.values):
            i2 = m - n
            if i2 >= 0 and i2 % 2 == 0 and i2 // 2 <= k:
                assert v == rows(n, k).weights[i2 // 2]
            else:
                assert v == 0


def test_walk_is_linear_in_exact_mode():
    rnd = random.Random(9)
    x = random_exact_signed(rnd, 14)
    y = random_exact_signed(rnd, 14)
    a, b = Q(2, 3), Q(-1, 5)
    mixed = CoeffSeq.exact(1, [a * u + b * v for u, v in zip(x.values, y.values)])
    lhs = walk_closed_form(mixed, 2).values
    rhs = tuple(
        a * u + b * v
        for u, v in zip(walk_closed_form(x, 2).values, walk_closed_form(y, 2).values)
    )
    assert lhs == rhs


def test_equivalence_exact_sequences():
    rnd = random.Random(30)
    seq = random_exact_normalized(rnd, 30, dimension=1)
    for k in range(1, 6):
        assert verify_walk_equivalence(seq, k)
    wide = random_exact_normalized(rnd, 30, dimension=1)
    assert verify_walk_equivalence(wide, 8)
    d2 = random_exact_normalized(rnd, 30, dimension=2)
    assert verify_walk_equivalence(d2, 8)


def test_equivalence_at_full_invariant_range():
    rnd = random.Random(60)
    for d in (1, 2):
        seq = random_exact_normalized(rnd, 60, dimension=d)
        assert verify_walk_equivalence(seq, 10)


def test_equivalence_float_model_sequence():
    # the two float routes round differently; entries far below 1 differ by
    # more than 1e-12 relative but stay within the rounding bound
    for seq in (hs_model_seq(HSModelSpec(epsilon=1.0), 100), example_fourier_seq(100)):
        for k in (3, 4, 8, 16):
            assert verify_walk_equivalence(seq, k) is True, (seq.dimension, k)


def test_equivalence_float_near_overflow():
    # the walks cancel to 0, while the absolute walk A_k exceeds the float range
    seq = CoeffSeq.floats(1, [0.0, 1e308, 0.0, 1e308])
    assert verify_walk_equivalence(seq, 1) is True


def test_float_recursion_rejects_an_overflow_a_later_step_drops():
    # step 1 overflows at n = 1, which step 2 (from n_max 2) never reads
    seq = CoeffSeq.floats(1, [0.0, 1e308, 0.0, -1e308, 0.0])
    with pytest.raises(ValueError, match="all values must be finite"):
        step_up(seq)
    with pytest.raises(ValueError, match="all values must be finite"):
        walk_recursive(seq, 2)


@pytest.mark.parametrize("k", (32, 50))
def test_exact_closed_form_equals_recursion_at_large_k(k):
    # a rational input padded with 2k zeros, past the property tests' k <= 6
    rnd = random.Random(k)
    for d in (1, 2, 5):
        values = random_exact_signed(rnd, 2 * k + 10).values + (Q(0),) * (2 * k)
        seq = CoeffSeq.exact(d, values)
        assert walk_closed_form(seq, k).values == walk_recursive(seq, k).values, d


@pytest.mark.parametrize("d", (1, 2, 5))
def test_exact_verification_sees_a_shift_of_1e_minus_40(monkeypatch, d):
    seq = CoeffSeq.exact(d, signed_with_zeros(random.Random(d), 30))
    assert verify_walk_equivalence(seq, 4)
    monkeypatch.setattr(walk_module, "_closed_pairs", with_nudged_pair(walk_module._closed_pairs))
    for k in (1, 4):
        assert verify_walk_equivalence(seq, k) is False, k
        closed, stepped = walk_closed_form(seq, k).values, walk_recursive(seq, k).values
        assert closed != stepped
        assert [float(x) for x in closed] == [float(x) for x in stepped]


@pytest.mark.parametrize("d", (1, 2, 7))
@pytest.mark.parametrize("k", (1, 2, 16))
def test_exact_walks_equal_plain_fractions(d, k):
    values = signed_with_zeros(random.Random(d * k), 2 * k + 30)
    seq, want = CoeffSeq.exact(d, values), tuple(exact_walk(values, d, k))
    assert walk_recursive(seq, k).values == want
    assert walk_closed_form(seq, k).values == want
    assert verify_walk_equivalence(seq, k)


@pytest.mark.parametrize("k", (1, 2))
def test_exact_walks_across_the_int64_guard(k):
    # walk._indices gives int64 while count + d + 2k <= 23,170: the recursion
    # counts every input entry, the closed form its len - 2k outputs. Past
    # the guard, at d = 2^21, the closed form's row terms pass 2^63.
    values = signed_with_zeros(random.Random(k), 300)
    edge = 23_170 - len(values) - 2 * k
    assert walk_module._indices(len(values), edge, k).dtype == np.int64
    assert walk_module._indices(len(values), edge + 1, k).dtype == object
    assert walk_module._indices(len(values) - 2 * k, edge + 2 * k, k).dtype == np.int64
    assert walk_module._indices(len(values) - 2 * k, edge + 2 * k + 1, k).dtype == object
    for d in (edge, edge + 1, edge + 2 * k, edge + 2 * k + 1, 2**21):
        seq, want = CoeffSeq.exact(d, values), tuple(exact_walk(values, d, k))
        assert walk_recursive(seq, k).values == want, d
        assert walk_closed_form(seq, k).values == want, d
        assert verify_walk_equivalence(seq, k), d


def test_closed_form_builds_no_rows(monkeypatch):
    calls = []

    def counted(rows):
        def wrapper(n, k):
            calls.append((rows.__name__, n, k))
            return rows(n, k)

        return wrapper

    for module in (walk_module, weights_module):
        for rows in (odd_weights, even_weights):
            if hasattr(module, rows.__name__):
                monkeypatch.setattr(module, rows.__name__, counted(rows))
    rnd = random.Random(3)
    for k, odd, even in (
        (16, example_fourier_seq(2000), hs_model_seq(HSModelSpec(epsilon=1.0), 2000)),
        (5, random_exact_signed(rnd, 40), random_exact_signed(rnd, 40, dimension=2)),
    ):
        walk_closed_form(odd, k)
        walk_closed_form(even, k)
    assert calls == []


def test_float_closed_form_at_k50_within_half_the_rounding_bound():
    for seq in (example_fourier_seq(300), hs_model_seq(HSModelSpec(epsilon=1.0), 300)):
        got = walk_closed_form(seq, 50).values
        exact = walk_closed_form(CoeffSeq.exact(seq.dimension, map(Q, seq.values)), 50).values
        assert all(math.isfinite(g) for g in got)
        for g, e, b in zip(got, exact, _rounding_bound(seq, 50)):
            assert abs(Q(g) - e) <= Q(b) / 2


def _closed_form_digest() -> str:
    """SHA-256 of closed-form walks (floats by float.hex, exact walks as
    reduced fractions) and exact weight rows over d in {1, 2, 5, 2097153}
    and k in {1, 16, 50}, on inputs seeded through random.Random.random.
    The smooth input makes the walk cancel, so its compensated values keep
    the last bits of every term expression and of their order."""
    h = hashlib.sha256()
    for d in (1, 2, 5, 2097153):
        rnd = random.Random(d)
        s, t = 1 + rnd.random(), 1 + rnd.random()
        noisy = CoeffSeq.floats(d, [2 * rnd.random() - 1 for _ in range(201)])
        smooth = CoeffSeq.floats(d, [t / ((n + s) * (n + s)) for n in range(201)])
        exact = CoeffSeq.exact(
            d, [Q(int(2001 * rnd.random()) - 1000, 1 + int(720 * rnd.random())) for _ in range(201)]
        )
        for k in (1, 16, 50):
            lines = [*(map(float.hex, walk_closed_form(seq, k).values) for seq in (noisy, smooth)),
                     map(str, walk_closed_form(exact, k).values),
                     *(map(str, weights_module._exact_row(d, n, k)) for n in (0, 1, 7))]
            h.update("\n".join(" ".join(line) for line in lines).encode())
    return h.hexdigest()


def test_closed_form_outputs_are_bit_identical_to_a_frozen_digest():
    # the route comparisons allow a tolerance, so only this test sees a
    # reordered term expression move the last bits of a float walk
    frozen = "edb4d825678b265067cb6e2f787cf654b706c0164505eca421f92778eccc05b4"
    assert _closed_form_digest() == frozen


def test_float_closed_form_memory_does_not_grow_with_k():
    seq = hs_model_seq(HSModelSpec(epsilon=1.0), 20_000)
    peaks = {}
    for k in (1, 50):
        tracemalloc.start()
        try:
            walk_closed_form(seq, k)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[50] < 2 * peaks[1], peaks


def test_zero_row_identity():
    # b'_0 = b_0 - 2/(d(d+3)) b_2: exact for exact inputs, within the walk
    # tolerance for floats
    rnd = random.Random(12)
    for d in (1, 2, 4):
        head = CoeffSeq.exact(d, random_exact_signed(rnd, 8, dimension=d).values[:3])
        b = head.values
        assert step_up(head).values[0] == b[0] - Q(2, d * (d + 3)) * b[2]
        fhead = head.to_floats()
        b = fhead.values
        want = (b[0] - 2 / (d * (d + 3)) * b[2],)
        assert _walks_agree(fhead, 1, step_up(fhead).values, want)


def test_zero_row_identity_coefficients():
    # the b_2 coefficient is 2/(d(d+3)): 1/2 at d=1, 1/5 at d=2, 1/14 at d=4
    for d, coeff in ((1, Q(1, 2)), (2, Q(1, 5)), (4, Q(1, 14))):
        e2 = CoeffSeq.exact(d, [0, 0, 1])
        assert step_up(e2).values[0] == -coeff


def test_coeffseq_validation_and_total():
    with pytest.raises(ValueError):
        CoeffSeq.exact(0, [1])
    with pytest.raises(ValueError):
        CoeffSeq(1, (1.0,), "approximate")
    with pytest.raises(ValueError):
        CoeffSeq.floats(1, [float("nan")])
    for bad in (float("nan"), -math.inf):
        with pytest.raises(ValueError, match="finite"):
            CoeffSeq.floats(1, [np.float64(0.5), 2, bad])
    mixed = CoeffSeq.floats(1, [np.float64(0.5), 2, Q(1, 4)])
    assert mixed.values == (0.5, 2.0, 0.25)
    assert all(type(v) is float for v in mixed.values)
    with pytest.raises(ValueError, match="n = 1 lies outside the float range"):
        CoeffSeq.floats(1, [0, 10**400])
    with pytest.raises(ValueError):
        CoeffSeq.exact(1, [])
    seq = CoeffSeq.exact(1, [Q(1, 3), Q(1, 3), Q(1, 3)])
    assert seq.total() == 1
    assert seq.to_floats().kind == "float"
    # fsum raises for the partial sum 2e308; the total 1e308 is a float
    assert CoeffSeq.floats(1, [1e308, 1e308, -1e308]).total() == 1e308
    for big in (CoeffSeq.floats(1, [1e308, 1e308]), CoeffSeq.exact(1, [10**308, 10**308])):
        with pytest.raises(ValueError, match="the coefficient sum lies outside the float range"):
            big.float_total()
