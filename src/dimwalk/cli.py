"""Batch command-line interface.

Commands: coeffs (walk weight rows), walk (apply a dimension walk to a
sequence file), extract (coefficients from a registered model or a sample
file), eval (series values), verify (membership and Gram checks), model
(write model coefficient files).

Exit codes partition the outcomes: 0 success, 2 usage or parse errors and
allocations the host refuses, 3 walk verification failure, 4 grid/order
resolution insufficiency, 5 membership or positive-definiteness failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import models, seqio, series, walk, weights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_WALK_VERIFY = 3
EXIT_RESOLUTION = 4
EXIT_MEMBERSHIP = 5

_DEFAULT_GRID_FLOOR = 4097


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_coeffs(args) -> int:
    row_fn = weights.odd_weights if args.parity == "odd" else weights.even_weights
    row = row_fn(args.n, args.k)
    exact = [str(w) for w in row.weights]
    floats = row.as_floats()
    row_sum = sum(row.weights)
    if args.format == "json":
        doc = {
            "parity": row.parity,
            "n": row.n,
            "k": row.k,
            "weights": exact,
            "weights_float": list(floats),
            "row_sum": str(row_sum),
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print(",".join(exact))
    else:
        print("exact: " + ", ".join(exact))
        print("float: " + ", ".join(repr(f) for f in floats))
        print(f"sum: {row_sum}")
    return EXIT_OK


def cmd_walk(args) -> int:
    seq = seqio.read_sequence(args.input)
    if args.method == "recursive":
        seqio.write_sequence(args.output, walk.walk_recursive(seq, args.k))
        return EXIT_OK
    closed = walk.walk_closed_form(seq, args.k)
    if args.method == "both":
        gap, agree = walk._gap_to_recursion(seq, args.k, closed)
        print(f"max discrepancy: {float(gap)!r}")
        if not agree:
            return _fail("closed-form and recursive walks disagree", EXIT_WALK_VERIFY)
    seqio.write_sequence(args.output, closed)
    return EXIT_OK


def _load_samples(path: str) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise seqio.SequenceFormatError(f"sample file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "values" not in doc:
        raise seqio.SequenceFormatError("sample file must be an object with 'values'")
    vals = doc["values"]
    if not isinstance(vals, list) or len(vals) < 2:
        raise seqio.SequenceFormatError("'values' must be a list of at least two numbers")
    try:
        arr = np.array([float(v) for v in vals])
    except (TypeError, ValueError) as exc:
        raise seqio.SequenceFormatError(f"bad sample value: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise seqio.SequenceFormatError("sample values must be finite")
    declared = doc.get("grid_size")
    if declared is not None and declared != len(vals):
        raise seqio.SequenceFormatError(
            f"declared grid_size {declared} does not match {len(vals)} values"
        )
    return arr


def cmd_extract(args) -> int:
    if args.model is not None:
        model = models.get_model(args.model)
    else:
        samples = _load_samples(args.samples)
        if len(samples) < 2 * args.n_max + 1:
            raise series.ResolutionError(
                f"sample file has {len(samples)} points; "
                f"need >= 2*n_max + 1 = {2 * args.n_max + 1}"
            )
        grid = np.linspace(0.0, math.pi, len(samples))
        model = series.SphericalModel("samples", lambda theta: np.interp(theta, grid, samples))
        if args.dim == 1 and args.grid_size is None:
            # integrate on the sample grid itself; interpolation never kicks in
            args.grid_size = len(samples)
        if args.dim == 2 or args.grid_size != len(samples):
            print("note: the quadrature nodes are off the sample grid; samples are "
                  "interpolated linearly", file=sys.stderr)
    if args.dim == 1:
        grid_size = args.grid_size
        if grid_size is None:
            grid_size = max(4 * args.n_max + 1, _DEFAULT_GRID_FLOOR)
        out = series.extract_fourier(model, args.n_max, grid_size)
    else:
        order = args.order
        if order is None:
            order = max(args.n_max + 1, 64)
        out = series.extract_legendre(model, args.n_max, order)
    seqio.write_sequence(args.output, out)
    return EXIT_OK


def cmd_eval(args) -> int:
    seq = seqio.read_sequence(args.input)
    psi = series.evaluate_series(seq, np.array(args.theta)).tolist()
    print("theta,psi")
    for t, v in zip(args.theta, psi):
        print(f"{t!r},{v!r}")
    return EXIT_OK


def _index_runs(indices) -> str:
    """Ascending indices as runs ("3-7, 9"); past ten runs only the first and
    last five are listed, around "..."."""
    runs = []
    for i in indices:
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    text = [str(a) if a == b else f"{a}-{b}" for a, b in runs]
    if len(text) > 10:
        text = text[:5] + ["..."] + text[-5:]
    return ", ".join(text)


def cmd_verify(args) -> int:
    seq = seqio.read_sequence(args.input)
    report = series.check_membership(seq)
    if args.gram:  # before the first print: an error leaves stdout empty
        dimension = args.dimension if args.dimension is not None else seq.dimension
        model = series.model_from_seq(seq)
        gram = series.gram_psd_check(model, dimension, args.points, args.seed)
    print(f"nonnegativity: {'pass' if report.nonneg_ok else 'FAIL'}")
    if report.violations:
        print(f"  negative entries: {len(report.violations)} at n = "
              + _index_runs(report.violations))
    print(f"normalization defect: {report.normalization_defect!r}")
    print(f"positive entries: even {report.positive_even}, odd {report.positive_odd}")
    if args.strict:
        print(f"strict evidence: {'pass' if report.strict_evidence_ok else 'FAIL'}")
    failed = not report.nonneg_ok or (args.strict and not report.strict_evidence_ok)
    if args.gram:
        print(
            f"gram: sphere dimension {dimension}, points {gram.point_count}, "
            f"seed {gram.seed}, rng {gram.generator}, "
            f"min eigenvalue {gram.min_eigen_estimate!r}, "
            f"{'pass' if gram.psd_pass else 'FAIL'}"
        )
        failed = failed or not gram.psd_pass
    return EXIT_MEMBERSHIP if failed else EXIT_OK


def cmd_model(args) -> int:
    if args.name == "hs":
        spec = models.HSModelSpec(epsilon=args.epsilon, c0=args.c0, c=args.c)
        seq = models.hs_model_seq(spec, args.n_max)
    elif args.walked_k is None:
        if args.closed_form:
            return _fail("--closed-form requires --walked-k", EXIT_USAGE)
        seq = models.example_fourier_seq(args.n_max)
    elif args.closed_form:
        seq = models.example_walked_closed_form_seq(args.n_max, args.walked_k)
    else:
        seq = models.example_walked_seq(args.n_max, args.walked_k)
    seqio.write_sequence(args.output, seq)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimwalk",
        description="Dimension walks for expansion coefficients of isotropic "
        "positive definite functions on spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print one exact walk-weight row")
    p.add_argument("--parity", choices=["odd", "even"], required=True,
                   help="parity of the target dimension (odd: 1 -> 2k+1, even: 2 -> 2k+2)")
    p.add_argument("--n", type=int, required=True, help="coefficient index (>= 0)")
    p.add_argument("--k", type=int, required=True, help="half the dimension jump (>= 1)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("walk", help="walk a sequence file up by 2k dimensions")
    p.add_argument("--input", required=True, help="input sequence JSON file")
    p.add_argument("--k", type=int, required=True, help="number of two-dimension steps")
    p.add_argument("--method", choices=["closed", "recursive", "both"], default="closed",
                   help="closed-form weights, repeated recursion, or both (verified)")
    p.add_argument("--output", required=True, help="output sequence JSON file")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("extract", help="extract coefficients from a model or sample file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", choices=models.MODEL_NAMES, help="registered model name")
    src.add_argument("--samples", help="JSON file with uniform [0, pi] grid samples")
    p.add_argument("--dim", type=int, choices=[1, 2], required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--grid-size", type=int, default=None,
                   help="trapezoid grid points for --dim 1 (default max(4*n_max+1, 4097))")
    p.add_argument("--order", type=int, default=None,
                   help="Gauss-Legendre order for --dim 2 (default max(n_max+1, 64))")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eval", help="evaluate a sequence file's series at angles")
    p.add_argument("--input", required=True)
    p.add_argument("--theta", type=float, nargs="+", required=True,
                   help="angles in [0, pi]")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="membership evidence and optional Gram check")
    p.add_argument("--input", required=True)
    p.add_argument("--strict", action="store_true",
                   help="also require positive entries of both parities")
    p.add_argument("--gram", action="store_true", help="run the random-point PSD check")
    p.add_argument("--dimension", type=int, default=None,
                   help="sphere dimension for --gram (default: the file's dimension)")
    p.add_argument("--points", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("model", help="write a model coefficient file")
    p.set_defaults(func=cmd_model)
    family = p.add_subparsers(dest="name", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n-max", type=int, required=True)
    common.add_argument("--output", required=True)
    # no abbreviations here: hs's --c would otherwise be read as --closed-form
    m = family.add_parser("example31", parents=[common], allow_abbrev=False,
                          help="inverse-square cosine family")
    m.add_argument("--walked-k", type=int, default=None,
                   help="walk the file up by 2k dimensions")
    m.add_argument("--closed-form", action="store_true",
                   help="with --walked-k: use the walked closed form (n = 0 entry written as 0)")
    m = family.add_parser("hs", parents=[common], help="dimension-2 power-decay family")
    m.add_argument("--epsilon", type=float, required=True, help="decay exponent (> 0)")
    m.add_argument("--c", type=float, default=models.HSModelSpec.c,
                   help="limit coefficient (default %(default)s)")
    m.add_argument("--c0", type=float, default=models.HSModelSpec.c0,
                   help="n = 0 coefficient (default %(default)s)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except series.ResolutionError as exc:
        return _fail(str(exc), EXIT_RESOLUTION)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a refused allocation
        return _fail(str(exc) or type(exc).__name__, EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
