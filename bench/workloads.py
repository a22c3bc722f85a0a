"""The benchmark's workloads: fixed rounds of operations and their checks.

Each workload is a closed loop driven from one process, one operation at a
time. A round is the same list of operations in the same order; the seed
only changes input values, never sizes. ``check`` compares the outputs of a
round against ``reference`` (which never imports dimwalk) and counts the
numerical outputs that agree to within ``reference.REL_TOL``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as R

U = R.U
WALK_KS = (1, 4, 16)
KMAX = max(WALK_KS)


class Failed:
    """Output of an operation that raised or exited with a nonzero code."""

    def __init__(self, message: str):
        self.message = message

    def __eq__(self, other):
        return False

    __hash__ = None


class Op:
    """One operation of a round. ``src`` names an earlier operation of the
    same round whose output is this one's input."""

    def __init__(self, name: str, fn, src: int | None = None, **meta):
        self.name, self.fn, self.src, self.meta = name, fn, src, meta


class Check:
    """Verdicts of one round: per-operation pass/fail and accurate outputs."""

    def __init__(self, ops):
        self.ok = [True] * len(ops)
        self.accurate = 0
        self.messages: list[str] = []
        self._names = [op.name for op in ops]

    def fail(self, i: int, why: str) -> None:
        self.ok[i] = False
        self.messages.append(f"{self._names[i]}: {why}")

    def expect(self, i: int, cond, why: str) -> bool:
        if not cond:
            self.fail(i, why)
        return bool(cond)

    def each(self, ops, outs, check_one) -> None:
        """check_one(i, op, out) for every operation not failed yet. A Failed
        output, or a check that raises on malformed output, fails it."""
        for i, (op, out) in enumerate(zip(ops, outs)):
            if not self.ok[i]:
                continue
            if isinstance(out, Failed):
                self.fail(i, out.message)
                continue
            try:
                check_one(i, op, out)
            except Exception as exc:  # malformed output fails its operation, not the run
                self.fail(i, f"malformed output: {exc!r}")


def _rationals(rng: random.Random, count: int, positive_only: bool = False) -> list[Fraction]:
    """Nonzero seeded rationals m/720. Every denominator divides 720, so the
    size of the exact arithmetic, and with it the run time, hardly depends on
    the seed."""
    lo = 1 if positive_only else -999
    out = []
    while len(out) < count:
        num = rng.randint(lo, 999)
        if num:
            out.append(Fraction(num, 720))
    return out


def _within(values, refs, tol) -> bool:
    err = np.abs(np.asarray(values, dtype=float) - np.asarray(refs, dtype=float))
    return bool(np.all(err <= tol))


class InProcess:
    """Operations are calls into dimwalk made from this process."""

    ops: list[Op]
    last_rss_mb = 0.0  # per-command peaks exist only for subprocesses

    def run_op(self, i: int, outs: list):
        op = self.ops[i]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.fn(outs[op.src]) if op.src is not None else op.fn()
        except Exception as exc:  # a raising operation is counted as failed
            out = Failed(repr(exc))
        return out, time.perf_counter() - t0, time.process_time() - c0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Walk(InProcess):
    """walk_closed_form, a chain of step_up calls and verify_walk_equivalence
    on float (inverse-square d = 1, power-decay d = 2) and exact (seeded
    rational, finitely supported and padded with 2*KMAX zeros) inputs."""

    name = "walk"

    def __init__(self, seed: int, small: bool = False):
        W = importlib.import_module("dimwalk.walk")
        self.weights = importlib.import_module("dimwalk.weights")
        rng = random.Random(seed)
        n1, n2, ne = (120, 80, 60) if small else (2000, 1000, 600)
        pad = [Fraction(0)] * (2 * KMAX)
        self.inputs = {
            "example31 d1": W.CoeffSeq.floats(1, R.example31_coeffs(n1)),
            "hs d2": W.CoeffSeq.floats(2, R.hs_coeffs(n2, 1.0)),
            "rational d1": W.CoeffSeq.exact(1, _rationals(rng, ne + 1 - len(pad)) + pad),
            "rational d2": W.CoeffSeq.exact(2, _rationals(rng, ne + 1 - len(pad)) + pad),
        }
        self.angles = np.array(sorted(rng.uniform(0.05, math.pi - 0.05) for _ in range(4)))
        self.ops = []
        for label, seq in self.inputs.items():
            for k in WALK_KS:
                self.ops.append(Op(f"walk_closed_form {label} k={k}",
                                   lambda s=seq, k=k: W.walk_closed_form(s, k),
                                   input=label, steps=k, kind="closed"))
            self.ops.append(Op(f"step_up {label} step 1", lambda s=seq: W.step_up(s),
                               input=label, steps=1, kind="step"))
            for s in range(2, KMAX + 1):
                self.ops.append(Op(f"step_up {label} step {s}", lambda x: W.step_up(x),
                                   src=len(self.ops) - 1, input=label, steps=s, kind="step"))
            for k in WALK_KS:
                if seq.kind == "exact" or k <= 2:
                    self.ops.append(Op(f"verify_walk_equivalence {label} k={k}",
                                       lambda s=seq, k=k: W.verify_walk_equivalence(s, k),
                                       input=label, steps=k, kind="verify"))

    def check(self, outs) -> Check:
        c = Check(self.ops)
        exact_refs = {lb: R.exact_walk(s.values, s.dimension, KMAX) for lb, s in self.inputs.items()}
        abs_refs = {lb: R.abs_walk(s.values, s.dimension, KMAX)
                    for lb, s in self.inputs.items() if s.kind == "float"}
        base_series = {lb: R.series_values(s.values, s.dimension, self.angles)
                       for lb, s in self.inputs.items() if s.kind == "exact"}
        rows_checked = set()

        def one(i, op, out):
            seq = self.inputs[op.meta["input"]]
            s = op.meta["steps"]
            if op.meta["kind"] == "verify":
                c.expect(i, out is True, f"returned {out!r}, expected True")
                return
            ref = exact_refs[op.meta["input"]][s - 1]
            if not c.expect(i, out.dimension == seq.dimension + 2 * s and len(out.values) == len(ref),
                            "wrong dimension or length"):
                return
            vals = list(out.values)
            if seq.kind == "exact":
                c.accurate += R.count_accurate(vals, ref)
                c.expect(i, vals == ref, "differs from the exact recursion")
                if op.meta["kind"] == "closed":
                    self._check_preserved(c, i, seq, out, base_series[op.meta["input"]])
            else:
                c.accurate += R.count_accurate(vals, [float(r) for r in ref])
                bound = R.float_walk_bound(abs_refs[op.meta["input"]][s - 1], s)
                c.expect(i, _within(vals, [float(r) for r in ref], bound),
                         "float walk error exceeds its rounding-error bound")
            if op.meta["kind"] == "closed" and (seq.dimension, s) not in rows_checked:
                rows_checked.add((seq.dimension, s))
                self._check_rows(c, i, seq.dimension, s, len(vals))

        c.each(self.ops, outs, one)
        return c

    def _check_preserved(self, c, i, seq, out, base):
        """A finitely supported base padded with >= 2k zeros walks to the same
        function: exactly at theta = 0 (coefficient sums), and at the sampled
        angles in floats for k <= 4, where the walked terms stay small enough
        for a double-precision sum to mean something."""
        c.expect(i, sum(out.values) == sum(seq.values), "walked coefficient sum changed")
        if out.dimension - seq.dimension <= 8:
            walked, wscale = R.series_values(out.values, out.dimension, self.angles)
            value, bscale = base
            # worst-case bound of a float sum of len(seq.values) terms
            tol = 4 * U * len(seq.values) * (wscale + bscale)
            c.expect(i, _within(walked, value, tol),
                     "walked series differs from the base series")

    def _check_rows(self, c, i, d, k, count):
        """Odd rows sum to 1/2 at n = 0 and to 0 beyond; sampled rows of
        either parity equal the recursion run on unit vectors."""
        rows = self.weights.odd_weights if d == 1 else self.weights.even_weights
        if d == 1:
            sums_ok = all(sum(rows(n, k).weights) == (Fraction(1, 2) if n == 0 else 0)
                          for n in range(count))
            c.expect(i, sums_ok, f"an odd row sum at k={k} is wrong")
        for n in sorted({0, 1, count // 2, count - 1}):
            c.expect(i, list(rows(n, k).weights) == R.weight_row(n, k, d),
                     f"row (n={n}, k={k}) differs from the recursion")


class Series(InProcess):
    """Float numerics: Fourier and Legendre extraction, evaluate_series at a
    batch of angles for d = 1, 2, 5, and two Gram checks (one dominated by
    the eigen-solve, one by kernel construction)."""

    name = "series"

    def __init__(self, seed: int, small: bool = False):
        S = importlib.import_module("dimwalk.series")
        M = importlib.import_module("dimwalk.models")
        W = importlib.import_module("dimwalk.walk")
        rng = random.Random(seed)
        if small:
            self.nf, self.grid, self.nl, self.order, self.nt = 50, 101, 20, 32, 100
            n_eval, n_angles, self.m1, self.m2 = 50, 4, 8, 6
        else:
            self.nf, self.grid, self.nl, self.order, self.nt = 2000, 4097, 200, 256, 2000
            n_eval, n_angles, self.m1, self.m2 = 2000, 32, 60, 20
        self.gram_seed = rng.randrange(2**31)
        self.angles = sorted(rng.uniform(0.0, math.pi) for _ in range(n_angles))
        self.hs_values = R.hs_coeffs(self.nt, 1.0)
        self.seqs = [
            W.CoeffSeq.floats(1, R.example31_coeffs(n_eval)),
            W.CoeffSeq.floats(2, self.hs_values),
            W.CoeffSeq.floats(5, [rng.uniform(1.0, 2.0) / (n + 1) ** 2 for n in range(n_eval + 1)]),
        ]
        nf, grid, nl, order, nt = self.nf, self.grid, self.nl, self.order, self.nt
        self.ops = [
            Op("extract_fourier example31",
               lambda: S.extract_fourier(M.get_model("example31"), nf, grid), kind="fourier"),
            Op("extract_legendre hs",
               lambda: S.extract_legendre(M.get_model("hs", epsilon=1.0, n_trunc=nt), nl, order),
               kind="legendre"),
        ]
        for j, seq in enumerate(self.seqs):
            for t in self.angles:
                self.ops.append(Op(f"evaluate_series d{seq.dimension} theta={t:.4f}",
                                   lambda seq=seq, t=t: S.evaluate_series(seq, t),
                                   kind="eval", seq=j, theta=t))
        gs, m1, m2, hs_seq = self.gram_seed, self.m1, self.m2, self.seqs[1]
        self.ops.append(Op("gram_psd_check example31 S^1",
                           lambda: S.gram_psd_check(M.get_model("example31"), 1, m1, gs),
                           kind="gram", model="example31"))
        self.ops.append(Op("gram_psd_check truncated hs series S^2",
                           lambda: S.gram_psd_check(S.model_from_seq(hs_seq), 2, m2, gs),
                           kind="gram", model="sequence"))

    def check(self, outs) -> Check:
        c = Check(self.ops)
        hs_abs = np.abs(np.array(self.hs_values))
        # bound on psi's sensitivity to a rounding of cos(theta): sum |b_n| (1 + n^2)
        hs_slope = float(np.sum(hs_abs * (1.0 + np.arange(hs_abs.size) ** 2.0)))
        eval_refs = [R.series_values(s.values, s.dimension, self.angles) for s in self.seqs]

        def one(i, op, out):
            kind = op.meta["kind"]
            if kind == "fourier":
                samples = R.example31_psi(np.linspace(0.0, math.pi, self.grid))
                ref = R.trapezoid_fourier(samples)[: self.nf + 1]
                tol = (self.grid + 4 * math.pi * self.nf) * 4 * U * float(np.max(np.abs(samples)))
                self._coeffs(c, i, out, 1, ref, tol)
            elif kind == "legendre":
                ref = R.gauss_legendre_coeffs(lambda x: R.legendre_psi(self.hs_values, x),
                                              self.nl, self.order)
                tol = (2 * np.arange(self.nl + 1) + 1) * 64 * U * hs_slope
                self._coeffs(c, i, out, 2, ref, tol)
            elif kind == "eval":
                seq = self.seqs[op.meta["seq"]]
                value, scale = eval_refs[op.meta["seq"]]
                j = self.angles.index(op.meta["theta"])
                c.accurate += R.count_accurate([out], [value[j]])
                c.expect(i, abs(out - value[j]) <= 16 * U * len(seq.values) * scale[j],
                         f"{out!r} differs from {value[j]!r}")
            else:
                if op.meta["model"] == "example31":
                    m, dim, entry_err = self.m1, 1, 64 * U
                    G = R.gram_matrix(lambda x: R.example31_psi(np.arccos(x)), dim, m, self.gram_seed)
                else:
                    m, dim, entry_err = self.m2, 2, 64 * U * hs_slope
                    G = R.gram_matrix(lambda x: R.legendre_psi(self.hs_values, x), dim, m, self.gram_seed)
                self._gram(c, i, out, G, m, entry_err)

        c.each(self.ops, outs, one)
        return c

    def _coeffs(self, c, i, out, dim, ref, tol):
        if not c.expect(i, out.dimension == dim and len(out.values) == len(ref),
                        "wrong dimension or length"):
            return
        c.accurate += R.count_accurate(out.values, ref)
        c.expect(i, _within(out.values, ref, tol), "coefficients differ from the reference")

    def _gram(self, c, i, report, G, m, entry_err):
        ref = R.min_eigenvalue(G)
        tol = m * (entry_err + 64 * U * float(np.max(np.abs(G))))
        c.accurate += R.count_accurate([report.min_eigen_estimate], [ref])
        c.expect(i, report.point_count == m and report.seed == self.gram_seed, "wrong report fields")
        c.expect(i, abs(report.min_eigen_estimate - ref) <= tol,
                 f"min eigenvalue {report.min_eigen_estimate!r} differs from eigvalsh {ref!r}")
        c.expect(i, report.psd_pass == (ref >= -1e-9 * m), "psd verdict differs")


def _stdout_value(text: str, prefix: str) -> str:
    """The token after ``prefix`` on the line that contains it."""
    for line in text.splitlines():
        if prefix in line:
            return line.split(prefix, 1)[1].split(",")[0].split()[0]
    raise ValueError(f"no {prefix!r} in the output")


class Cli:
    """CLI commands run as subprocesses on files the benchmark writes itself.

    Every command pays interpreter start, ``import dimwalk``, a cold
    weight-row cache and sequence-file parsing and writing. Commands start
    through ``cli_launch.py``, which reports the command's own peak memory.
    """

    name = "cli"

    def __init__(self, seed: int, root: Path, workdir: Path, small: bool = False):
        rng = random.Random(seed)
        self.root, self.workdir = root, workdir
        self.trace_dir: Path | None = None  # set to launch commands through the tracer
        self.round_spans: list = []
        self.peak_child_mb = 0.0
        n, ne, nh, nx = (60, 40, 20, 30) if small else (400, 200, 100, 200)
        self.points = 8 if small else 30
        self.exact_d1 = _rationals(rng, ne + 1)
        d2 = _rationals(rng, ne + 1, positive_only=True)
        self.exact_d2 = [v / sum(d2) for v in d2]
        R.write_seq_file(workdir / "exact_d1.json", 1, self.exact_d1)
        R.write_seq_file(workdir / "exact_d2.json", 2, self.exact_d2)
        self.coeff_n = rng.randrange(0, 400)
        self.gram_seed = rng.randrange(2**31)
        self.angles = [repr(rng.uniform(0.0, math.pi)) for _ in range(8)]
        self.sizes = {"model": n, "extract_hs": nh, "extract_ex31": nx}
        cmds = [
            ("coeffs", f"coeffs --parity odd --n {self.coeff_n} --k 4 --format json", None),
            ("model_ex31", f"model example31 --n-max {n} --output ex31.json", "ex31.json"),
            ("model_ex31_cf", f"model example31 --n-max {n} --walked-k 2 --closed-form "
                              "--output ex31_cf.json", "ex31_cf.json"),
            ("model_hs", f"model hs --epsilon 1 --n-max {n} --output hs.json", "hs.json"),
            ("walk_exact", "walk --input exact_d1.json --k 4 --method both "
                           "--output walk_exact.json", "walk_exact.json"),
            ("walk_closed", "walk --input ex31.json --k 4 --method closed "
                            "--output walk_closed.json", "walk_closed.json"),
            ("walk_recursive", "walk --input hs.json --k 4 --method recursive "
                               "--output walk_recursive.json", "walk_recursive.json"),
            ("walk_both", "walk --input hs.json --k 2 --method both "
                          "--output walk_both.json", "walk_both.json"),
            ("eval", "eval --input hs.json --theta " + " ".join(self.angles), None),
            ("verify_float", f"verify --input ex31_cf.json --gram --points {self.points} "
                             f"--seed {self.gram_seed}", None),
            ("verify_exact", f"verify --input exact_d2.json --gram --points {self.points} "
                             f"--seed {self.gram_seed}", None),
            ("extract_hs", f"extract --model hs --dim 2 --n-max {nh} --output extract_hs.json",
             "extract_hs.json"),
            ("extract_ex31", f"extract --model example31 --dim 1 --n-max {nx} "
                             "--output extract_ex31.json", "extract_ex31.json"),
        ]
        self.ops = [Op(key, None, argv=line.split(), output=outfile) for key, line, outfile in cmds]
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src

    def command(self, i: int) -> str:
        return self.ops[i].meta["argv"][0]

    def run_op(self, i: int, outs: list):
        op = self.ops[i]
        span_file = self.trace_dir / f"{op.name}.json" if self.trace_dir is not None else None
        peak_path = self.workdir / f"{op.name}.peak"
        argv = [sys.executable, str(self.root / "bench" / "cli_launch.py"), str(peak_path),
                str(span_file) if span_file is not None else "-"] + op.meta["argv"]
        out_path, err_path = self.workdir / f"{op.name}.stdout", self.workdir / f"{op.name}.stderr"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=fo, stderr=fe)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        if proc.returncode != 0:
            return Failed(f"exit {proc.returncode}: {err_path.read_text()[-300:]}"), wall, cpu
        self.last_rss_mb = int(peak_path.read_text()) / 1024
        self.peak_child_mb = max(self.peak_child_mb, self.last_rss_mb)
        outfile = op.meta["output"]
        try:
            file_bytes = (self.workdir / outfile).read_bytes() if outfile else None
        except OSError as exc:
            return Failed(f"output file unreadable: {exc}"), wall, cpu
        if span_file is not None:
            with open(span_file, encoding="utf-8") as fh:
                self.round_spans.append(json.load(fh))
        return (out_path.read_text(), file_bytes), wall, cpu

    def peak_rss_mb(self) -> float:
        return self.peak_child_mb

    def check(self, outs) -> Check:
        c = Check(self.ops)
        files = {}  # op name -> (dimension, values) of the file it wrote

        def parse(i, op, out):
            if out[1] is not None:
                files[op.name] = R.parse_seq(out[1])

        c.each(self.ops, outs, parse)
        c.each(self.ops, outs,
               lambda i, op, out: getattr(self, "_check_" + op.name)(c, i, out[0], files))
        return c

    # -- per-command checks: (check, op index, stdout text, parsed files) --

    def _check_coeffs(self, c, i, text, files):
        doc = json.loads(text)
        n, k = self.coeff_n, 4
        ref = R.weight_row(n, k, 1)
        got = [Fraction(w) for w in doc["weights"]]
        c.accurate += R.count_accurate(got, ref) + R.count_accurate(doc["weights_float"], ref)
        c.expect(i, got == ref, "weights differ from the recursion on unit vectors")
        c.expect(i, _within(doc["weights_float"], [float(w) for w in ref],
                            [U * abs(float(w)) for w in ref]), "float weights are not the rounded exact ones")
        row_sum = Fraction(doc["row_sum"])
        c.accurate += row_sum == (Fraction(1, 2) if n == 0 else 0)
        c.expect(i, row_sum == (Fraction(1, 2) if n == 0 else 0), "odd row sum is not 1/2 or 0")

    def _model(self, c, i, files, name, dim, ref, rel):
        d, vals = files[name]
        if c.expect(i, d == dim and len(vals) == len(ref), "wrong dimension or length"):
            c.accurate += R.count_accurate(vals, ref)
            c.expect(i, _within(vals, ref, rel * np.abs(ref)), "values differ from the formula")

    def _check_model_ex31(self, c, i, text, files):
        self._model(c, i, files, "model_ex31", 1, R.example31_coeffs(self.sizes["model"]), 4 * U)

    def _check_model_ex31_cf(self, c, i, text, files):
        ref = [0.0] + [R.example31_walked(n, 2) for n in range(1, self.sizes["model"] + 1)]
        self._model(c, i, files, "model_ex31_cf", 5, ref, 1e-12)

    def _check_model_hs(self, c, i, text, files):
        self._model(c, i, files, "model_hs", 2, R.hs_coeffs(self.sizes["model"], 1.0), 8 * U)

    def _walked(self, c, i, files, name, base_dim, base, k):
        d, vals = files[name]
        ref = R.exact_walk(base, base_dim, k)[-1]
        if not c.expect(i, d == base_dim + 2 * k and len(vals) == len(ref), "wrong dimension or length"):
            return
        if all(isinstance(v, Fraction) for v in base):
            c.accurate += R.count_accurate(vals, ref)
            c.expect(i, vals == ref, "differs from the exact recursion")
        else:
            fref = [float(r) for r in ref]
            c.accurate += R.count_accurate(vals, fref)
            bound = R.float_walk_bound(R.abs_walk(base, base_dim, k)[-1], k)
            c.expect(i, _within(vals, fref, bound), "float walk error exceeds its bound")

    def _check_walk_exact(self, c, i, text, files):
        c.expect(i, _stdout_value(text, "max discrepancy:") == "0.0", "exact walks disagree")
        self._walked(c, i, files, "walk_exact", 1, self.exact_d1, 4)

    def _check_walk_closed(self, c, i, text, files):
        self._walked(c, i, files, "walk_closed", 1, files["model_ex31"][1], 4)

    def _check_walk_recursive(self, c, i, text, files):
        self._walked(c, i, files, "walk_recursive", 2, files["model_hs"][1], 4)

    def _check_walk_both(self, c, i, text, files):
        c.expect(i, float(_stdout_value(text, "max discrepancy:")) >= 0.0, "no discrepancy line")
        self._walked(c, i, files, "walk_both", 2, files["model_hs"][1], 2)

    def _check_eval(self, c, i, text, files):
        lines = text.split()
        c.expect(i, lines[0] == "theta,psi" and len(lines) == len(self.angles) + 1, "bad eval output")
        pairs = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        b = files["model_hs"][1]
        theta = np.array([float(a) for a in self.angles])
        ref = R.legendre_psi(b, np.cos(theta))
        got = [p[1] for p in pairs]
        c.accurate += R.count_accurate(got, ref)
        c.expect(i, [p[0] for p in pairs] == list(theta), "angles echoed wrongly")
        slope = float(np.sum(np.abs(b) * (1.0 + np.arange(len(b)) ** 2.0)))
        c.expect(i, _within(got, ref, 64 * U * slope), "series values differ from legval")

    def _verify(self, c, i, text, dim, values):
        c.expect(i, "nonnegativity: pass" in text and ", pass" in text, "verify did not pass")
        if all(isinstance(v, Fraction) for v in values):
            defect = float(abs(sum(values) - 1))
        else:
            defect = abs(math.fsum(values) - 1.0)
        got = float(_stdout_value(text, "normalization defect:"))
        c.accurate += R.count_accurate([got], [defect])
        c.expect(i, got == defect, f"normalization defect {got!r} != {defect!r}")
        b = np.array([float(v) for v in values])
        G = R.gram_matrix(lambda x: R.series_values(b, dim, np.arccos(x.ravel()))[0].reshape(x.shape),
                          dim, self.points, self.gram_seed)
        ref = R.min_eigenvalue(G)
        got = float(_stdout_value(text, "min eigenvalue"))
        slope = float(np.sum(np.abs(b) * (1.0 + np.arange(b.size) ** 2.0)))
        tol = self.points * 64 * U * (slope + float(np.max(np.abs(G))))
        c.accurate += R.count_accurate([got], [ref])
        c.expect(i, abs(got - ref) <= tol, f"min eigenvalue {got!r} differs from eigvalsh {ref!r}")

    def _check_verify_float(self, c, i, text, files):
        self._verify(c, i, text, 5, files["model_ex31_cf"][1])

    def _check_verify_exact(self, c, i, text, files):
        self._verify(c, i, text, 2, self.exact_d2)

    def _check_extract_hs(self, c, i, text, files):
        nh = self.sizes["extract_hs"]
        b = R.hs_coeffs(2000, 1.0)  # the registered hs model: epsilon 1, n_trunc 2000
        ref = R.gauss_legendre_coeffs(lambda x: R.legendre_psi(b, x), nh, max(nh + 1, 64))
        slope = float(np.sum(np.abs(b) * (1.0 + np.arange(len(b)) ** 2.0)))
        d, vals = files["extract_hs"]
        if c.expect(i, d == 2 and len(vals) == nh + 1, "wrong dimension or length"):
            c.accurate += R.count_accurate(vals, ref)
            c.expect(i, _within(vals, ref, (2 * np.arange(nh + 1) + 1) * 64 * U * slope),
                     "coefficients differ from scipy Gauss-Legendre")

    def _check_extract_ex31(self, c, i, text, files):
        nx = self.sizes["extract_ex31"]
        grid = max(4 * nx + 1, 4097)  # the documented default grid
        samples = R.example31_psi(np.linspace(0.0, math.pi, grid))
        ref = R.trapezoid_fourier(samples)[: nx + 1]
        d, vals = files["extract_ex31"]
        if c.expect(i, d == 1 and len(vals) == nx + 1, "wrong dimension or length"):
            c.accurate += R.count_accurate(vals, ref)
            tol = (grid + 4 * math.pi * nx) * 4 * U * float(np.max(np.abs(samples)))
            c.expect(i, _within(vals, ref, tol), "coefficients differ from the DCT-I")


WORKLOADS = ("walk", "series", "cli")
