"""Acceptance suite. One test per criterion, each printing a pass line
(run with ``pytest -v -s tests/test_acceptance.py`` to see them).

 1. Odd-target weight rows equal the symbolic recursion iteration from
    dimension 1, exactly, for 0 <= n <= 40 and 1 <= k <= 8 (< 10 s).
 2. Even-target rows equal the iteration from dimension 2, same grid, exact.
 3. Odd row sums are exactly 0 for n >= 1 and 1/2 for n = 0, k up to 10.
 4. The alternating binomial-reciprocal identity holds exactly for
    0 <= k <= 12, 1 <= c <= b <= 12.
 5. The k = 4 rows equal the five quartic products over 1680, n = 1..20.
 6. The inverse-square family's walked closed form agrees with the weighted
    coefficient sum to 1e-11 relative for n <= 60, k <= 5 (< 5 s), with the
    anchor value 27/(16 pi^2) at n = 2, k = 1.
 7. n^2-scaled walked coefficients stabilize: spread below 5% across
    n in {1000, 1585, 3162, 10000} for k in {1, 2, 3}.
 8. Evaluate-then-extract round-trips recover random nonnegative normalized
    exact sequences (N = 50) to 1e-11, at dimension 1 (trapezoid) and
    dimension 2 (Gauss-Legendre order 64) (< 5 s).
 9. Gram matrices of the walked inverse-square models pass the PSD spot
    check on the 2- and 3-spheres: 25 seeds x 30 points, min eigenvalue
    >= -1e-9 * 30.
10. The CLI exit-code partition holds on a scripted matrix of valid and
    invalid invocations, and sequence files round-trip byte-identically.
"""

import json
import math
import random
import time
from fractions import Fraction as Q

from dimwalk import cli, walk
from dimwalk.models import (
    example_closed_form,
    example_fourier_seq,
    example_walked_closed_form_seq,
)
from dimwalk.seqio import read_sequence, write_sequence
from dimwalk.series import extract_fourier, extract_legendre, gram_psd_check, model_from_seq
from dimwalk.walk import CoeffSeq, walk_closed_form
from dimwalk.weights import even_weights, odd_weights

from helpers import random_exact_normalized, with_shifted_entry
from oracles import frisch_identity_sides, recursion_weight_tables, weight_vector

N_MAX, K_MAX = 40, 8


def test_criterion_1_odd_rows_equal_recursion_oracle():
    start = time.monotonic()
    tables = recursion_weight_tables(base_dim=1, k_max=K_MAX, n_max=N_MAX)
    for k in range(1, K_MAX + 1):
        for n in range(N_MAX + 1):
            expected = weight_vector(tables[k][n], n, k)
            assert list(odd_weights(n, k).weights) == expected, (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: odd rows == recursion oracle, exact ({elapsed:.2f} s)")


def test_criterion_2_even_rows_equal_recursion_oracle():
    start = time.monotonic()
    tables = recursion_weight_tables(base_dim=2, k_max=K_MAX, n_max=N_MAX)
    for k in range(1, K_MAX + 1):
        for n in range(N_MAX + 1):
            expected = weight_vector(tables[k][n], n, k)
            assert list(even_weights(n, k).weights) == expected, (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 2: even rows == recursion oracle, exact ({elapsed:.2f} s)")


def test_criterion_3_row_sum_law():
    for k in range(1, 11):
        assert sum(odd_weights(0, k).weights) == Q(1, 2), k
        for n in range(1, 41):
            assert sum(odd_weights(n, k).weights) == 0, (n, k)
    print("PASS criterion 3: odd row sums are exactly 0 (n >= 1) and 1/2 (n = 0)")


def test_criterion_4_binomial_reciprocal_identity():
    for k in range(13):
        for b in range(1, 13):
            for c in range(1, b + 1):
                lhs, rhs = frisch_identity_sides(k, b, c)
                assert lhs == rhs, (k, b, c)
    print("PASS criterion 4: summed and closed-form sides identical, exact")


def test_criterion_5_k4_quartic_rows():
    kappa = Q(1, 1680)
    for n in range(1, 21):
        expected = (
            kappa * (n + 4) * (n + 5) * (n + 6) * (n + 7),
            -4 * kappa * (n + 2) * (n + 4) * (n + 6) * (n + 7),
            6 * kappa * (n + 1) * (n + 4) ** 2 * (n + 7),
            -4 * kappa * (n + 1) * (n + 2) * (n + 4) * (n + 6),
            kappa * (n + 1) * (n + 2) * (n + 3) * (n + 4),
        )
        assert odd_weights(n, 4).weights == expected, n
    print("PASS criterion 5: k = 4 rows equal the quartic products / 1680, exact")


def test_criterion_6_closed_form_vs_weighted_sum():
    start = time.monotonic()
    anchor = example_closed_form(2, 1)
    assert abs(anchor - 27 / (16 * math.pi**2)) <= 1e-11 * anchor
    for n in range(1, 61):
        for k in range(1, 6):
            row = odd_weights(n, k).weights
            exact_sum = sum(w * Q(6) / (n + 2 * i) ** 2 for i, w in enumerate(row))
            via_walk = float(exact_sum) / math.pi**2
            direct = example_closed_form(n, k)
            assert abs(direct - via_walk) <= 1e-11 * abs(direct), (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 6: closed form == weighted sum to 1e-11 rel ({elapsed:.2f} s)")


def test_criterion_7_inverse_square_decay_ratio():
    points = (1000, 1585, 3162, 10000)  # 10^3, 10^3.2, 10^3.5, 10^4
    for k in (1, 2, 3):
        ratios = [n * n * example_closed_form(n, k) for n in points]
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 0.05, (k, ratios)
    print("PASS criterion 7: n^2-scaled coefficients spread < 5% over 10^3..10^4")


def test_criterion_8_round_trip_extraction():
    start = time.monotonic()
    rnd = random.Random(2024)
    seq1 = random_exact_normalized(rnd, 50, dimension=1)
    got1 = extract_fourier(model_from_seq(seq1), 50, 101)
    err1 = max(abs(a - float(b)) for a, b in zip(got1.values, seq1.values))
    assert err1 <= 1e-11
    seq2 = random_exact_normalized(rnd, 50, dimension=2)
    got2 = extract_legendre(model_from_seq(seq2), 50, 64)
    err2 = max(abs(a - float(b)) for a, b in zip(got2.values, seq2.values))
    assert err2 <= 1e-11
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        "PASS criterion 8: round-trip errors "
        f"{err1:.2e} (dim 1), {err2:.2e} (dim 2) <= 1e-11 ({elapsed:.2f} s)"
    )


def test_criterion_9_gram_psd_on_walked_models():
    points = 30
    sphere_and_model = [
        (2, model_from_seq(example_walked_closed_form_seq(60, 1))),  # dim 3 kernel on S^2
        (3, model_from_seq(example_walked_closed_form_seq(60, 2))),  # dim 5 kernel on S^3
    ]
    worst = math.inf
    for sphere_dim, model in sphere_and_model:
        for seed in range(25):
            report = gram_psd_check(model, sphere_dim, points, seed=seed)
            assert report.psd_pass, (sphere_dim, seed, report)
            assert report.min_eigen_estimate >= -1e-9 * points
            worst = min(worst, report.min_eigen_estimate)
    print(f"PASS criterion 9: 50 Gram checks pass; worst min eigenvalue {worst:.3e}")


def _cli(capsys, *argv):
    code = cli.main(list(argv))
    capsys.readouterr()
    return code


def test_criterion_10_cli_exit_code_partition(capsys, tmp_path, monkeypatch):
    d = tmp_path
    ex31 = d / "ex31.json"
    walked = d / "walked.json"
    neg = d / "neg.json"
    write_sequence(neg, CoeffSeq.floats(2, [0.6, 0.5, -0.1]))
    bad = d / "bad.json"
    bad.write_text("{ not json")
    sparse = d / "sparse.json"
    sparse.write_text(json.dumps({"grid_size": 11, "values": [1.0] * 11}))

    matrix = [
        # success paths for all six commands
        (0, ["coeffs", "--parity", "odd", "--n", "0", "--k", "2"]),
        (0, ["model", "example31", "--n-max", "30", "--output", str(ex31)]),
        (0, ["model", "hs", "--epsilon", "1.5", "--n-max", "20", "--output", str(d / "hs.json")]),
        (0, ["walk", "--input", str(ex31), "--k", "1", "--method", "both", "--output", str(walked)]),
        (0, ["extract", "--model", "one", "--dim", "2", "--n-max", "8", "--output", str(d / "x.json")]),
        (0, ["eval", "--input", str(ex31), "--theta", "0.0", "1.0"]),
        (0, ["verify", "--input", str(ex31)]),
        (0, ["verify", "--input", str(ex31), "--gram", "--dimension", "1", "--points", "12", "--seed", "3"]),
        # 2: usage and parse errors
        (2, ["coeffs", "--parity", "odd", "--n", "1", "--k", "0"]),
        (2, ["coeffs", "--parity", "up", "--n", "1", "--k", "1"]),
        (2, ["walk", "--input", str(bad), "--k", "1", "--output", str(d / "o.json")]),
        (2, ["walk", "--input", str(ex31), "--k", "99", "--output", str(d / "o.json")]),
        (2, ["extract", "--model", "unknown", "--dim", "1", "--n-max", "5", "--output", str(d / "o.json")]),
        (2, ["eval", "--input", str(ex31), "--theta", "9.9"]),
        (2, ["verify", "--input", str(d / "absent.json")]),
        (2, ["model", "hs", "--n-max", "10", "--output", str(d / "o.json")]),
        # 4: resolution insufficiency
        (4, ["extract", "--samples", str(sparse), "--dim", "1", "--n-max", "50", "--output", str(d / "o.json")]),
        (4, ["extract", "--model", "one", "--dim", "2", "--n-max", "50", "--order", "10", "--output", str(d / "o.json")]),
        # 5: membership / PSD failure
        (5, ["verify", "--input", str(neg)]),
    ]
    for expected, argv in matrix:
        assert _cli(capsys, *argv) == expected, argv
    # 3: walk verification failure, from a disagreement injected into one route
    monkeypatch.setattr(walk, "walk_closed_form", with_shifted_entry(walk_closed_form, 2))
    both = ["walk", "--input", str(ex31), "--k", "2", "--method", "both", "--output", str(d / "o.json")]
    assert _cli(capsys, *both) == 3

    # byte-identical write -> read -> write
    blob = walked.read_bytes()
    write_sequence(walked, read_sequence(walked))
    assert walked.read_bytes() == blob
    print(f"PASS criterion 10: exit-code partition holds on {len(matrix) + 1} invocations; "
          "files round-trip byte-identically")
