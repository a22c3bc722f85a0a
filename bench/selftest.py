"""The benchmark's own quick self-tests.

    python3 bench/selftest.py

Checks the references against identities they must satisfy, the span
self-time arithmetic and the wrapper installation, that BENCHMARK.json lists
exactly the metrics the runs print, and runs every workload once at tiny
sizes, untraced and traced. Exits 1 on the first failure.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as R
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check(cond, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"ok   {what}")


def test_reference():
    rng = random.Random(0)
    for d in range(1, 7):
        b = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(9)]
        top = R.exact_walk(b, d, 1)[0][0]
        check(top == b[0] - Fraction(2, d * (d + 3)) * b[2],
              f"exact step reproduces b'_0 = b_0 - 2/(d(d+3)) b_2 at d={d}")
    for d in (1, 2):
        b = [Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(15)]
        for k in (1, 3):
            walked = R.exact_walk(b, d, k)[-1]
            rows = [R.weight_row(n, k, d) for n in range(len(walked))]
            check(all(sum(w * b[n + 2 * i] for i, w in enumerate(row)) == walked[n]
                      for n, row in enumerate(rows)),
                  f"unit-vector weight rows reproduce the walk (d={d}, k={k})")
            bound = R.abs_walk([float(v) for v in b], d, k)[-1]
            check(all(sum(abs(float(w)) * abs(float(b[n + 2 * i])) for i, w in enumerate(row))
                      <= bound[n] * (1 + 1e-12) for n, row in enumerate(rows)),
                  f"absolute walk bounds sum |w_i| |b_n+2i| (d={d}, k={k})")
    check([sum(R.weight_row(n, 4, 1)) for n in range(4)] == [Fraction(1, 2), 0, 0, 0],
          "odd rows sum to 1/2 at n = 0 and to 0 beyond")
    g = 33
    theta = np.linspace(0.0, math.pi, g)
    samples = np.cos(3 * theta) + 0.25 * np.cos(7 * theta) + 0.5
    coeffs = R.trapezoid_fourier(samples)
    check(np.allclose(coeffs[:9], [0.5, 0, 0, 1, 0, 0, 0, 0.25, 0], atol=1e-14),
          "DCT-I trapezoid recovers a cosine polynomial")
    legendre = R.gauss_legendre_coeffs(lambda x: R.legendre_psi([0.2, 0.0, 0.5, 0.3], x), 5, 8)
    check(np.allclose(legendre, [0.2, 0.0, 0.5, 0.3, 0.0, 0.0], atol=1e-14),
          "Gauss-Legendre extraction recovers a Legendre polynomial")
    value, _ = R.series_values([0.5, 0.25, 0.25], 5, np.array([0.0, 1.0]))
    check(abs(value[0] - 1.0) < 1e-15, "normalized Gegenbauer basis is 1 at theta = 0")


def test_spans():
    synthetic = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    got = spans.self_times(synthetic)
    check(got == {"a": [1, 3.0], "b": [2, 6.0], "c": [1, 1.0]},
          "self time = duration minus direct children")

    rec = spans.Recorder()
    inner = rec.span("inner", lambda: None)
    outer = rec.span("outer", lambda: inner())
    outer()
    recorded, _ = rec.take()
    check([s[0] for s in recorded] == ["outer", "inner"] and recorded[1][3] == 0
          and recorded[0][3] == -1, "nested wrappers record their parent span")

    sys.path.insert(0, str(ROOT / "src"))
    import dimwalk.walk
    import dimwalk.weights

    orig = dimwalk.weights.odd_weights
    undo = spans.install(spans.Recorder())
    check(dimwalk.walk.odd_weights is not orig and dimwalk.weights.odd_weights is not orig,
          "install wraps a function at every module that binds it")
    undo()
    check(dimwalk.walk.odd_weights is orig and dimwalk.weights.odd_weights is orig,
          "uninstall restores the original bindings")


def test_benchmark_json():
    sys.path.insert(0, str(BENCH))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches the untraced metrics")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(),
          "BENCHMARK.json per_layer matches the traced metrics")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match the runner")


def test_smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("walk", "series", "cli"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                 "--seconds", "0.2", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            check(res.get("correct") is True and res.get("failed") == 0
                  and set(res["metrics"]) == {m["name"] for m in spec[key]},
                  f"tiny {workload} run, trace {trace}: every check passes, every metric printed"
                  + ("" if res else f"\n{proc.stderr[-2000:]}"))


if __name__ == "__main__":
    test_reference()
    test_spans()
    test_benchmark_json()
    test_smoke()
