"""Command-line surface: output formats, exit-code partition, file handling.

Exit codes under test: 0 success, 2 usage/parse, 3 walk verification failure,
4 resolution insufficiency, 5 membership/PSD failure.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction as Q

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.fft import dct

from dimwalk import cli, walk
from dimwalk.models import example_closed_form
from dimwalk.seqio import read_sequence, write_sequence
from dimwalk.walk import CoeffSeq

from helpers import signed_with_zeros, with_nudged_pair, with_shifted_entry


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m dimwalk`` in a subprocess, so a warning shows on its stderr."""
    proc = subprocess.run([sys.executable, "-m", "dimwalk", *argv], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr.splitlines()


# -- coeffs -----------------------------------------------------------------


def test_coeffs_text_output(capsys):
    code, out, _ = run(capsys, "coeffs", "--parity", "odd", "--n", "0", "--k", "2")
    assert code == 0
    assert "1, -2/3, 1/6" in out
    code, out, _ = run(capsys, "coeffs", "--parity", "even", "--n", "0", "--k", "1")
    assert code == 0
    assert "1, -1/5" in out


def test_coeffs_csv_output(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--parity", "odd", "--n", "1", "--k", "4", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("1,")
    assert out.strip() == "1,-2,10/7,-1/2,1/14"


def test_coeffs_json_output(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--parity", "even", "--n", "0", "--k", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"] == ["1", "-2/7", "1/21"]
    assert doc["parity"] == "even" and doc["n"] == 0 and doc["k"] == 2
    assert doc["weights_float"][0] == 1.0
    assert Q(doc["row_sum"]) == Q(1) - Q(2, 7) + Q(1, 21)


def test_coeffs_bad_arguments(capsys):
    assert run(capsys, "coeffs", "--parity", "odd", "--n", "2", "--k", "0")[0] == 2
    assert run(capsys, "coeffs", "--parity", "odd", "--n", "-1", "--k", "2")[0] == 2
    assert run(capsys, "coeffs", "--parity", "diag", "--n", "1", "--k", "2")[0] == 2
    assert run(capsys, "coeffs", "--parity", "odd", "--k", "2")[0] == 2


def test_coeffs_weight_past_float_range_exits_2(capsys):
    # w_0 = (n+k)_(k) / (2^k (2k-1)!!) is about 10^356 here
    code, out, err = run(capsys, "coeffs", "--parity", "odd", "--n", "1000000000", "--k", "50")
    assert code == 2
    assert out == ""
    assert err == "error: weight i = 0 lies outside the float range\n"


# -- walk -------------------------------------------------------------------


def test_walk_both_methods_agree(capsys, tmp_path):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    write_sequence(src, CoeffSeq.exact(1, [Q(1, 2), Q(3, 10), Q(1, 5)]))
    code, out, _ = run(
        capsys, "walk", "--input", str(src), "--k", "1", "--method", "both",
        "--output", str(dst),
    )
    assert code == 0
    assert "max discrepancy: 0.0" in out
    walked = read_sequence(dst)
    assert walked.dimension == 3 and walked.values == (Q(2, 5),)


def test_walk_both_walks_once(capsys, tmp_path, monkeypatch):
    calls = []
    closed_form = walk.walk_closed_form
    monkeypatch.setattr(walk, "walk_closed_form", lambda *a: calls.append(a) or closed_form(*a))
    src = tmp_path / "in.json"
    write_sequence(src, CoeffSeq.exact(1, [Q(1, 2), Q(3, 10), Q(1, 5), 0, 0]))
    code, out, _ = run(
        capsys, "walk", "--input", str(src), "--k", "2", "--method", "both",
        "--output", str(tmp_path / "out.json"),
    )
    assert code == 0 and "max discrepancy: 0.0" in out
    assert len(calls) == 1


def test_walk_delta_probe_shortens(capsys, tmp_path):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    write_sequence(src, CoeffSeq.exact(1, [1, 0, 0, 0, 0]))
    code, _, _ = run(capsys, "walk", "--input", str(src), "--k", "2", "--output", str(dst))
    assert code == 0
    walked = read_sequence(dst)
    # output n_max = input n_max - 2k; nothing is extrapolated past the input
    assert walked.dimension == 5 and walked.n_max == 0
    assert walked.values == (Q(1),)


def test_walk_verification_failure_exits_3(capsys, tmp_path, monkeypatch):
    # a disagreement injected into one closed-form entry, on a float and on
    # an exact input
    monkeypatch.setattr(walk, "walk_closed_form", with_shifted_entry(walk.walk_closed_form, 0))
    values = [Q(1, 2), Q(1, 4), Q(1, 8), Q(1, 16), Q(1, 16)]
    for seq in (CoeffSeq.floats(1, values), CoeffSeq.exact(1, values)):
        src = tmp_path / f"{seq.kind}.json"
        dst = tmp_path / "out.json"
        write_sequence(src, seq)
        code, out, err = run(
            capsys, "walk", "--input", str(src), "--k", "2", "--method", "both",
            "--output", str(dst),
        )
        assert code == 3
        assert "max discrepancy" in out
        assert "disagree" in err
        assert not dst.exists()


@pytest.mark.parametrize("d", [1, 2, 5])
def test_walk_exact_disagreement_of_1e_minus_40_exits_3(capsys, tmp_path, monkeypatch, d):
    monkeypatch.setattr(walk, "_closed_pairs", with_nudged_pair(walk._closed_pairs))
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    write_sequence(src, CoeffSeq.exact(d, signed_with_zeros(random.Random(d), 30)))
    code, out, err = run(
        capsys, "walk", "--input", str(src), "--k", "4", "--method", "both", "--output", str(dst)
    )
    assert code == 3
    assert "disagree" in err
    assert not dst.exists()


@pytest.mark.parametrize("model", [["example31"], ["hs", "--epsilon", "1"]])
@pytest.mark.parametrize("k", [4, 8, 16])
def test_walk_both_accepts_float_model_files(capsys, tmp_path, model, k):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    assert run(capsys, "model", *model, "--n-max", "100", "--output", str(src))[0] == 0
    code, out, err = run(
        capsys, "walk", "--input", str(src), "--k", str(k), "--method", "both",
        "--output", str(dst),
    )
    assert code == 0, err
    assert read_sequence(dst).values == walk.walk_closed_form(read_sequence(src), k).values


def test_walk_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    dst = tmp_path / "out.json"
    assert run(capsys, "walk", "--input", str(bad), "--k", "1", "--output", str(dst))[0] == 2
    short = tmp_path / "short.json"
    write_sequence(short, CoeffSeq.exact(1, [1, 0, 0]))
    assert run(capsys, "walk", "--input", str(short), "--k", "2", "--output", str(dst))[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, "walk", "--input", str(missing), "--k", "1", "--output", str(dst))[0] == 2


def test_walk_recursive_supports_higher_dimensions(capsys, tmp_path):
    src = tmp_path / "d3.json"
    dst = tmp_path / "d5.json"
    write_sequence(src, CoeffSeq.exact(3, [Q(1, 2), Q(1, 4), Q(1, 8), Q(1, 16), 0]))
    code, _, _ = run(
        capsys, "walk", "--input", str(src), "--k", "1", "--method", "recursive",
        "--output", str(dst),
    )
    assert code == 0
    assert read_sequence(dst).dimension == 5
    # the closed form starts at any dimension and writes the same walk
    stepped = read_sequence(dst)
    assert run(
        capsys, "walk", "--input", str(src), "--k", "1", "--output", str(dst)
    )[0] == 0
    assert read_sequence(dst) == stepped


@pytest.mark.parametrize("method", ["closed", "recursive", "both"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_walk_rejects_k_below_one(capsys, tmp_path, method, k):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    write_sequence(src, CoeffSeq.exact(1, [1, 0, 0, 0, 0]))
    code, _, err = run(
        capsys, "walk", "--input", str(src), "--k", k, "--method", method, "--output", str(dst)
    )
    assert code == 2 and "k must be >= 1" in err
    assert not dst.exists()


# -- extract ----------------------------------------------------------------


def test_extract_example31_dimension_1(capsys, tmp_path):
    dst = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "extract", "--model", "example31", "--dim", "1", "--n-max", "50",
        "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == 1 and seq.n_max == 50
    assert abs(seq.values[1] - 6 / math.pi**2) <= 1e-6
    assert abs(seq.values[0]) <= 1e-6


def test_extract_constant_model_dimension_2(capsys, tmp_path):
    dst = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "extract", "--model", "one", "--dim", "2", "--n-max", "10",
        "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert abs(seq.values[0] - 1.0) <= 1e-12
    assert all(abs(v) <= 1e-12 for v in seq.values[1:])


def test_extract_unknown_model(capsys, tmp_path):
    code, _, err = run(
        capsys, "extract", "--model", "sinc", "--dim", "1", "--n-max", "5",
        "--output", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "invalid choice: 'sinc'" in err
    assert all(name in err for name in ("one", "cosine", "example31", "hs"))
    assert not (tmp_path / "x.json").exists()
    code, out, _ = run(capsys, "extract", "--help")
    assert code == 0 and "{one,cosine,example31,hs}" in out


def test_extract_sparse_samples_exit_4(capsys, tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"grid_size": 11, "values": [1.0] * 11}))
    code, _, _ = run(
        capsys, "extract", "--samples", str(samples), "--dim", "1", "--n-max", "50",
        "--output", str(tmp_path / "x.json"),
    )
    assert code == 4


def test_extract_small_grid_exit_4(capsys, tmp_path):
    code, _, _ = run(
        capsys, "extract", "--model", "one", "--dim", "1", "--n-max", "50",
        "--grid-size", "40", "--output", str(tmp_path / "x.json"),
    )
    assert code == 4
    code, _, _ = run(
        capsys, "extract", "--model", "one", "--dim", "2", "--n-max", "50",
        "--order", "20", "--output", str(tmp_path / "x.json"),
    )
    assert code == 4
    # a one-point grid has no spacing; 2*n_max + 1 = 1 alone would admit it
    code, _, err = run(
        capsys, "extract", "--model", "one", "--dim", "1", "--n-max", "0",
        "--grid-size", "1", "--output", str(tmp_path / "x.json"),
    )
    assert code == 4 and "grid_size" in err


def test_extract_hs_dimension_1(capsys, tmp_path):
    dst = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "extract", "--model", "hs", "--dim", "1", "--n-max", "200",
        "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == 1 and seq.n_max == 200
    # DCT-I of the 2000-term hs series on the default 4097-point grid
    n = np.arange(1, 2001)
    b = np.concatenate([[0.5], (2 * n + 1) / (2.0 * n**3)])
    psi = legval(np.cos(np.linspace(0.0, math.pi, 4097)), b)
    ref = dct(psi, type=1)[:10] / 4096
    ref[0] *= 0.5
    assert seq.values[:10] == pytest.approx(ref.tolist(), rel=0, abs=1e-12)


def test_extract_from_samples(capsys, tmp_path):
    grid = 41
    vals = [math.cos(j * math.pi / (grid - 1)) for j in range(grid)]
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"grid_size": grid, "values": vals}))
    dst = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "extract", "--samples", str(samples), "--dim", "1", "--n-max", "5",
        "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert abs(seq.values[1] - 1.0) <= 1e-12
    assert abs(seq.values[3]) <= 1e-12


def test_extract_samples_notes_interpolation(capsys, tmp_path):
    grid = 41
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"values": [1.0] * grid}))
    dst = tmp_path / "o.json"
    base = ["extract", "--samples", str(samples), "--n-max", "5", "--output", str(dst)]
    cases = [
        (["--dim", "1"], False),
        (["--dim", "1", "--grid-size", str(grid)], False),
        (["--dim", "1", "--grid-size", "61"], True),
        (["--dim", "2"], True),
    ]
    for extra, interpolates in cases:
        code, _, err = run(capsys, *base, *extra)
        assert code == 0
        assert (err.count("note:") == 1) == interpolates, extra
        assert read_sequence(dst).values[0] == pytest.approx(1.0, abs=1e-12)


def test_extract_samples_closes_its_file(tmp_path):
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"values": [1.0] * 41}))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "dimwalk",
         "extract", "--samples", str(samples), "--dim", "1", "--n-max", "5",
         "--output", str(tmp_path / "o.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ResourceWarning" not in proc.stderr


@pytest.mark.parametrize("text, message", [
    ("[1.0,", "sample file is not valid JSON: "),
    ('[1.0, 2.0]', "sample file must be an object with 'values'"),
    ('{"grid": [1.0, 2.0]}', "sample file must be an object with 'values'"),
    ('{"values": [1.0]}', "'values' must be a list of at least two numbers"),
    ('{"values": [1.0, "one"]}', "bad sample value: "),
    ('{"values": [1.0, null]}', "bad sample value: "),
    ('{"values": [1.0, "inf"]}', "sample values must be finite"),
    ('{"grid_size": 4, "values": [1.0, 2.0, 3.0]}',
     "declared grid_size 4 does not match 3 values"),
])
def test_extract_rejects_malformed_samples(capsys, tmp_path, text, message):
    samples = tmp_path / "s.json"
    samples.write_text(text)
    code, out, err = run(
        capsys, "extract", "--samples", str(samples), "--dim", "1", "--n-max", "0",
        "--output", str(tmp_path / "o.json"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("dim", ["1", "2"])
def test_extract_overflowing_samples_print_one_error(tmp_path, dim):
    # the samples are floats, their cosine and Legendre sums are not
    samples = tmp_path / "s.json"
    samples.write_text(json.dumps({"values": [1e308] * 3}))
    code, out, err = run_module(
        "extract", "--samples", str(samples), "--dim", dim, "--n-max", "1",
        "--output", str(tmp_path / "o.json"),
    )
    assert (code, out) == (2, "")
    # --dim 2 also notes that its quadrature nodes interpolate the samples
    assert [line for line in err if not line.startswith("note:")] == [
        "error: all values must be finite"
    ]


# -- eval ---------------------------------------------------------------------


def test_eval_outputs_rows(capsys, tmp_path):
    src = tmp_path / "e1.json"
    write_sequence(src, CoeffSeq.exact(1, [0, 1]))
    code, out, _ = run(capsys, "eval", "--input", str(src), "--theta", "0", str(math.pi))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,psi"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(lines[2].split(",")[1]) == pytest.approx(-1.0, abs=1e-12)


def test_eval_legendre_value(capsys, tmp_path):
    src = tmp_path / "e2.json"
    write_sequence(src, CoeffSeq.exact(2, [0, 0, 1]))
    code, out, _ = run(capsys, "eval", "--input", str(src), "--theta", str(math.pi / 2))
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(-0.5, abs=1e-12)


def _exact_file_past_float_range(tmp_path):
    src = tmp_path / "big.json"
    src.write_text(json.dumps(
        {"dimension": 1, "n_max": 3, "kind": "exact", "values": ["1/2", "1/4", "1e400", "1/4"]}
    ))
    return str(src)


@pytest.mark.parametrize("argv", [["eval", "--theta", "0.5"], ["verify"]])
def test_exact_value_past_float_range_exits_2(capsys, tmp_path, argv):
    src = _exact_file_past_float_range(tmp_path)
    code, out, err = run(capsys, *argv, "--input", src)
    assert code == 2
    assert out == ""
    assert err == "error: value n = 2 lies outside the float range\n"


@pytest.mark.parametrize("kind", ["exact", "float"])
@pytest.mark.parametrize("argv", [
    ["verify"], ["eval", "--theta", "0"], ["eval", "--theta", "0.5", "0"],
    ["verify", "--gram", "--points", "5"],
])
def test_total_past_float_range_exits_2(capsys, tmp_path, kind, argv):
    # every entry is a float, their sum is not
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"dimension": 1, "n_max": 1, "kind": kind, "values": ["1e308"] * 2}))
    code, out, err = run(capsys, *argv, "--input", str(src))
    assert code == 2
    assert out == ""
    what = "normalization defect" if kind == "exact" and argv[0] == "verify" else "coefficient sum"
    assert err == f"error: the {what} lies outside the float range\n"


def test_eval_series_past_float_range_exits_2(tmp_path):
    # the entries are floats; 1e308 + 1e308 cos(theta) is not at theta = 0.5, 0.1
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"dimension": 1, "n_max": 1, "kind": "exact", "values": ["1e308"] * 2}))
    code, out, err = run_module("eval", "--input", str(src), "--theta", "3.0", "0.5", "0.1")
    assert (code, out) == (2, "")
    assert err == ["error: the series value at theta = 0.5 lies outside the float range"]


def test_eval_rejects_out_of_range(capsys, tmp_path):
    src = tmp_path / "e1.json"
    write_sequence(src, CoeffSeq.exact(1, [0, 1]))
    assert run(capsys, "eval", "--input", str(src), "--theta", "4.0")[0] == 2


# -- verify -----------------------------------------------------------------


def test_verify_passes_on_nonnegative_file(capsys, tmp_path):
    src = tmp_path / "m.json"
    assert run(capsys, "model", "example31", "--n-max", "40", "--output", str(src))[0] == 0
    code, out, _ = run(capsys, "verify", "--input", str(src))
    assert code == 0
    assert "nonnegativity: pass" in out


def test_verify_flags_negative_entry(capsys, tmp_path):
    src = tmp_path / "neg.json"
    write_sequence(src, CoeffSeq.floats(2, [0.6, 0.5, -0.1]))
    code, out, _ = run(capsys, "verify", "--input", str(src))
    assert code == 5
    assert "FAIL" in out and "n = 2" in out


def test_verify_judges_exact_files_exactly(capsys, tmp_path):
    # -1e-13 lies inside NONNEG_TOL as a float, and 1e-400 underflows to 0.0
    src = tmp_path / "tiny.json"
    src.write_text(json.dumps({"dimension": 2, "n_max": 3, "kind": "exact",
                               "values": ["1", "-1/10000000000000", "1/10000000000000",
                                          "1/10" + "0" * 400]}))
    code, out, _ = run(capsys, "verify", "--input", str(src))
    assert code == 5
    assert "nonnegativity: FAIL" in out
    assert "  negative entries: 1 at n = 1\n" in out
    assert "positive entries: even 2, odd 1" in out


def test_verify_bounds_the_violation_list(capsys, tmp_path):
    # 1500 negative entries at odd n, each its own run, then one run 3000-3009
    vals = [0.001 if n % 2 == 0 else -0.001 for n in range(3000)] + [-0.001] * 10
    src = tmp_path / "neg.json"
    write_sequence(src, CoeffSeq.floats(2, vals))
    code, out, _ = run(capsys, "verify", "--input", str(src))
    assert code == 5
    (line,) = [x for x in out.splitlines() if "negative entries" in x]
    assert line == (
        "  negative entries: 1510 at n = 1, 3, 5, 7, 9, ..., 2991, 2993, 2995, 2997, 2999-3009"
    )
    assert len(line) < 120


def test_verify_gram_flags(capsys, tmp_path):
    src = tmp_path / "e1d2.json"
    write_sequence(src, CoeffSeq.exact(2, [0, 1]))
    code, out, _ = run(
        capsys, "verify", "--input", str(src), "--gram", "--dimension", "2",
        "--points", "30", "--seed", "7",
    )
    assert code == 0
    assert "gram:" in out and "pass" in out and "seed 7" in out


@pytest.mark.parametrize("values, flags, message", [
    (["0", "1"], ["--points", "1"], "point_count must be >= 2"),
    (["0", "1"], ["--dimension", "0"], "dimension must be >= 1"),
    # the sum is 0, the series value 1e308 (1 - cos theta) is past the float range near pi
    (["1e308", "-1e308"], [], "the series value at theta = "),
])
def test_verify_gram_error_prints_no_report(capsys, tmp_path, values, flags, message):
    src = tmp_path / "s.json"
    src.write_text(json.dumps({"dimension": 1, "n_max": 1, "kind": "float", "values": values}))
    code, out, err = run(capsys, "verify", "--input", str(src), "--gram", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_verify_strict_mode(capsys, tmp_path):
    src = tmp_path / "e0.json"
    write_sequence(src, CoeffSeq.exact(2, [1, 0, 0]))
    assert run(capsys, "verify", "--input", str(src))[0] == 0
    code, out, _ = run(capsys, "verify", "--input", str(src), "--strict")
    assert code == 5
    assert "strict evidence: FAIL" in out


# -- model ------------------------------------------------------------------


def test_model_example31_file(capsys, tmp_path):
    dst = tmp_path / "m.json"
    code, _, _ = run(capsys, "model", "example31", "--n-max", "100", "--output", str(dst))
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == 1 and seq.values[0] == 0.0
    assert seq.values[1] == pytest.approx(6 / math.pi**2, rel=1e-15)


def test_model_hs_file(capsys, tmp_path):
    dst = tmp_path / "hs.json"
    code, _, _ = run(
        capsys, "model", "hs", "--epsilon", "2.5", "--c", "1", "--n-max", "200",
        "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == 2 and seq.n_max == 200
    assert seq.values[1] == pytest.approx(1.5, rel=1e-15)


def test_model_walked_closed_form(capsys, tmp_path):
    dst = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "model", "example31", "--walked-k", "1", "--closed-form",
        "--n-max", "50", "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == 3
    assert seq.values[0] == 0.0
    assert seq.values[2] == pytest.approx(27 / (16 * math.pi**2), rel=1e-13)


def test_model_walked_recursion_route(capsys, tmp_path):
    dst = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "model", "example31", "--walked-k", "1", "--n-max", "50",
        "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == 3 and seq.n_max == 50
    # the raw walk keeps the (negative) n = 0 entry
    assert seq.values[0] == pytest.approx(-3 / (4 * math.pi**2), rel=1e-13)


def test_model_walked_entries_come_from_the_closed_form(capsys, tmp_path):
    dst = tmp_path / "w8.json"
    code, _, _ = run(
        capsys, "model", "example31", "--walked-k", "8", "--n-max", "4000",
        "--output", str(dst),
    )
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == 17 and seq.n_max == 4000
    assert all(seq.values[n] == example_closed_form(n, 8) for n in range(1, 4001))
    # n = 0: the exact recursive walk of 1/n^2, scaled by 6/pi^2 at 40 digits
    inverse_square = CoeffSeq.exact(1, [0] + [Q(1, n * n) for n in range(1, 17)])
    head = walk.walk_recursive(inverse_square, 8).values[0]
    with mpmath.workdps(40):
        exact = 6 * mpmath.mpf(head.numerator) / head.denominator / mpmath.pi**2
        assert abs(seq.values[0] - exact) <= 1e-15 * abs(exact)
    code, out, _ = run(capsys, "verify", "--input", str(dst))
    assert code == 5
    assert "negative entries: 1 at n = 0\n" in out


def test_model_argument_errors(capsys, tmp_path):
    dst = str(tmp_path / "x.json")
    assert run(capsys, "model", "hs", "--n-max", "10", "--output", dst)[0] == 2
    assert run(capsys, "model", "warp", "--n-max", "10", "--output", dst)[0] == 2
    assert run(
        capsys, "model", "example31", "--epsilon", "1.0", "--n-max", "10", "--output", dst
    )[0] == 2
    assert run(
        capsys, "model", "example31", "--closed-form", "--n-max", "10", "--output", dst
    )[0] == 2
    assert run(
        capsys, "model", "hs", "--epsilon", "1.0", "--walked-k", "1", "--n-max", "10",
        "--output", dst,
    )[0] == 2


def test_model_hs_large_epsilon_writes_underflowed_entries(capsys, tmp_path):
    dst = tmp_path / "x.json"
    code, out, err = run(capsys, "model", "hs", "--epsilon", "400", "--n-max", "10",
                         "--output", str(dst))
    assert (code, out, err) == (0, "", "")
    vals = read_sequence(dst).values
    assert 0.0 < vals[6] < sys.float_info.min and vals[7:] == (0.0,) * 4


def test_model_hs_c_near_the_float_maximum(capsys, tmp_path):
    dst = tmp_path / "x.json"
    code, out, err = run(capsys, "model", "hs", "--epsilon", "1", "--c", "1e308",
                         "--n-max", "3", "--output", str(dst))
    assert (code, out, err) == (0, "", "")
    assert read_sequence(dst).values[1] == 1.5e308
    code, out, err = run(capsys, "model", "hs", "--epsilon", "1", "--c", "1.5e308",
                         "--n-max", "3", "--output", str(tmp_path / "y.json"))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: c = 1.5e+308 puts entry n = 1 of the hs family past the float range"]
    assert not (tmp_path / "y.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--c0", "inf", "c0 must be finite, got inf"),
    ("--c0", "nan", "c0 and c must be > 0"),
    ("--c", "inf", "c = inf puts entry n = 1 of the hs family past the float range"),
], ids=["c0-inf", "c0-nan", "c-inf"])
def test_model_hs_non_finite_constants_are_named(capsys, tmp_path, flag, value, message):
    dst = tmp_path / "x.json"
    code, out, err = run(capsys, "model", "hs", "--epsilon", "1", flag, value,
                         "--n-max", "3", "--output", str(dst))
    assert (code, out, err.splitlines()) == (2, "", [f"error: {message}"])
    assert not dst.exists()


@pytest.mark.parametrize("flags, dimension", [
    (["example31"], 1),
    (["example31", "--walked-k", "1"], 3),
    (["example31", "--walked-k", "2", "--closed-form"], 5),
    (["hs", "--epsilon", "1"], 2),
])
def test_model_n_max_zero(capsys, tmp_path, flags, dimension):
    dst = tmp_path / "x.json"
    code, _, _ = run(capsys, "model", *flags, "--n-max", "0", "--output", str(dst))
    assert code == 0
    seq = read_sequence(dst)
    assert seq.dimension == dimension and seq.n_max == 0


def test_model_help_lists_both_models(capsys):
    code, out, _ = run(capsys, "model", "--help")
    assert code == 0
    assert "{example31,hs}" in out


def test_model_rejects_flags_of_the_other_model(capsys, tmp_path):
    dst = tmp_path / "x.json"
    for flags in (["example31", "--c", "1"], ["example31", "--c0", "1"],
                  ["hs", "--epsilon", "1", "--closed-form"]):
        assert run(capsys, "model", *flags, "--n-max", "10", "--output", str(dst))[0] == 2
    assert not dst.exists()


# -- general contract ----------------------------------------------------------


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dst in (a, b):
        assert run(
            capsys, "model", "hs", "--epsilon", "1.5", "--n-max", "64", "--output", str(dst)
        )[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
def test_refused_allocation_exits_2(capsys, tmp_path, monkeypatch, message):
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli.series, "extract_fourier", refuse)
    code, out, err = run(capsys, "extract", "--model", "one", "--dim", "1", "--n-max", "3",
                         "--output", str(tmp_path / "x.json"))
    assert (code, out) == (2, "")
    assert err == f"error: {message or 'MemoryError'}\n"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "dimwalk", "coeffs", "--parity", "odd", "--n", "0", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1, -1/2" in proc.stdout
