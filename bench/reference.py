"""Reference results computed apart from dimwalk.

Nothing here imports dimwalk. The exact walk is a separate rational
implementation of the two-step recursion; series values, extraction and
eigenvalues come from numpy, scipy and mpmath; sequence files are read and
written with plain ``json`` in the documented format.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

U = 2.0**-53  # unit roundoff of IEEE double
REL_TOL = 1e-9  # an output counts as accurate within this relative distance


def step_coefficients(n: int, d: int) -> tuple[Fraction, Fraction]:
    """(a, b) with b'_n = a b_n - b b_{n+2} for the d -> d+2 step."""
    if d == 1:
        if n == 0:
            return Fraction(1), Fraction(1, 2)
        return Fraction(n + 1, 2), Fraction(n + 1, 2)
    return (
        Fraction((n + d - 1) * (n + d), d * (2 * n + d - 1)),
        Fraction((n + 1) * (n + 2), d * (2 * n + d + 3)),
    )


def exact_walk(values, d: int, k: int) -> list[list[Fraction]]:
    """Outputs of k exact steps, one list per step (the last is the walk)."""
    cur = [Fraction(v) for v in values]
    out = []
    for s in range(k):
        dim = d + 2 * s
        nxt = []
        for n in range(len(cur) - 2):
            a, b = step_coefficients(n, dim)
            nxt.append(a * cur[n] - b * cur[n + 2])
        out.append(nxt)
        cur = nxt
    return out


def abs_walk(values, d: int, k: int) -> list[np.ndarray]:
    """The walk with every step coefficient and input replaced by its
    absolute value. Entry n bounds sum_i |w_i(n)| |b_{n+2i}| for the closed
    form and the magnitudes met along the recursion, so rounding errors of
    either float route are bounded by a small multiple of U times it."""
    cur = np.abs(np.array([float(v) for v in values]))
    out = []
    for s in range(k):
        ab = np.array([step_coefficients(n, d + 2 * s) for n in range(cur.size - 2)], dtype=float)
        cur = np.abs(ab[:, 0]) * cur[:-2] + np.abs(ab[:, 1]) * cur[2:]
        out.append(cur)
    return out


def float_walk_bound(abs_row: np.ndarray, steps: int) -> np.ndarray:
    """Forward error bound of a float walk of `steps` steps (either route)."""
    return 4.0 * (steps + 1) * U * abs_row * (1 + 1e-6) + 1e-300


def weight_row(n: int, k: int, d: int) -> list[Fraction]:
    """Exact weights w_0..w_k of b'_n on b_n, b_{n+2}, ..., b_{n+2k}, found by
    running the recursion on unit vectors."""
    vecs = [[Fraction(int(i == j)) for j in range(k + 1)] for i in range(k + 1)]
    # vecs[i] represents the base entry b_{n+2i}; only the same parity is needed
    for s in range(k):
        dim = d + 2 * s
        nxt = []
        for i in range(len(vecs) - 1):
            a, b = step_coefficients(n + 2 * i, dim)
            nxt.append([a * x - b * y for x, y in zip(vecs[i], vecs[i + 1])])
        vecs = nxt
    return vecs[0]


def normalized_basis(d: int, n_max: int, theta) -> np.ndarray:
    """Rows n = 0..n_max of the basis normalized to 1 at theta = 0, from
    scipy's Gegenbauer (d >= 3), Legendre (d = 2) and cos (d = 1)."""
    from scipy import special

    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = np.arange(n_max + 1)[:, None]
    if d == 1:
        return np.cos(n * theta[None, :])
    x = np.cos(theta)[None, :]
    if d == 2:
        return special.eval_legendre(n, x)
    lam = (d - 1) / 2
    return special.eval_gegenbauer(n, lam, x) / special.eval_gegenbauer(n, lam, 1.0)


def series_values(coeffs, d: int, theta) -> tuple[np.ndarray, np.ndarray]:
    """Series sum_n b_n Q_n(theta) and the scale sum_n |b_n Q_n(theta)|."""
    b = np.array([float(v) for v in coeffs])
    q = normalized_basis(d, b.size - 1, theta)
    terms = b[:, None] * q
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


def example31_coeffs(n_max: int) -> list[float]:
    """Inverse-square cosine coefficients 0, 6/(pi^2 n^2)."""
    return [0.0] + [6.0 / (math.pi**2 * n**2) for n in range(1, n_max + 1)]


def example31_psi(theta):
    """The closed-form sum of the inverse-square cosine series on [0, pi]."""
    t = np.asarray(theta, dtype=float)
    return 1.0 - 3.0 * t / math.pi + 1.5 * t**2 / math.pi**2


def example31_walked(n: int, k: int) -> float:
    """3k(n+k) B(n/2,k)^2 / (n pi^2 (n+2k)^2 B(n,2k)) for n >= 1, by mpmath."""
    import mpmath

    with mpmath.workdps(40):
        v = (
            3 * k * (n + k) * mpmath.beta(mpmath.mpf(n) / 2, k) ** 2
            / (n * mpmath.pi**2 * (n + 2 * k) ** 2 * mpmath.beta(n, 2 * k))
        )
        return float(v)


def hs_coeffs(n_max: int, epsilon: float, c0: float = 1.0, c: float = 1.0) -> list[float]:
    """Dimension-2 power-decay coefficients c0/2, c (2n+1) / (2 n^(2+eps))."""
    return [c0 / 2] + [c * (2 * n + 1) / 2 / n ** (2.0 + epsilon) for n in range(1, n_max + 1)]


def legendre_psi(coeffs, x) -> np.ndarray:
    """sum_n b_n P_n(x) by numpy's Legendre series evaluation."""
    return np.polynomial.legendre.legval(np.asarray(x, dtype=float), np.asarray(coeffs, dtype=float))


def trapezoid_fourier(samples) -> np.ndarray:
    """Fourier cosine coefficients of samples on theta_j = j pi/(G-1) by the
    trapezoid rule, computed as a DCT-I."""
    from scipy import fft

    s = np.asarray(samples, dtype=float)
    c = fft.dct(s, type=1) / (s.size - 1)
    c[0] *= 0.5
    return c


def gauss_legendre_coeffs(psi_of_x, n_max: int, order: int) -> np.ndarray:
    """(n + 1/2) * sum_j w_j psi(x_j) P_n(x_j) with scipy's Gauss-Legendre rule."""
    from scipy import special

    x, w = special.roots_legendre(order)
    p = special.eval_legendre(np.arange(n_max + 1)[:, None], x[None, :])
    return (np.arange(n_max + 1) + 0.5) * (p @ (w * psi_of_x(x)))


def gram_matrix(kernel_of_dot, dimension: int, count: int, seed: int) -> np.ndarray:
    """Kernel matrix on the documented seeded points: normalized standard
    Gaussians in R^(dimension+1) drawn from numpy's default generator. The
    diagonal is psi(0), i.e. the kernel at an inner product of exactly 1."""
    pts = np.random.default_rng(seed).standard_normal((count, dimension + 1))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    np.fill_diagonal(dots, 1.0)
    return kernel_of_dot(dots)


def min_eigenvalue(matrix) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


def accurate(value, ref) -> bool:
    """Exact values must be equal; floats within REL_TOL relative."""
    if isinstance(ref, Fraction) and isinstance(value, Fraction):
        return value == ref
    ref = float(ref)
    return abs(float(value) - ref) <= REL_TOL * abs(ref)


def count_accurate(values, refs) -> int:
    return sum(1 for v, r in zip(values, refs) if accurate(v, r))


def write_seq_file(path, dimension: int, values) -> None:
    """Write a sequence file; Fractions make an exact file, floats a float one."""
    exact = all(isinstance(v, Fraction) for v in values)
    doc = {
        "dimension": dimension,
        "n_max": len(values) - 1,
        "kind": "exact" if exact else "float",
        "values": [str(v) if exact else repr(float(v)) for v in values],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def parse_seq(text) -> tuple[int, list]:
    """(dimension, values) of a sequence file's text; ValueError if malformed."""
    doc = json.loads(text)
    vals = doc["values"]
    if len(vals) != doc["n_max"] + 1:
        raise ValueError("n_max does not match the value count")
    if doc["kind"] == "exact":
        return doc["dimension"], [Fraction(v) for v in vals]
    if doc["kind"] == "float":
        return doc["dimension"], [float(v) for v in vals]
    raise ValueError(f"unknown kind {doc['kind']!r}")
