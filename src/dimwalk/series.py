"""Series evaluation, coefficient extraction, and positive definiteness checks.

The float numerics live here: the normalized cosine/Legendre/Gegenbauer basis,
trapezoid and Gauss-Legendre extraction of expansion coefficients from an
evaluable correlation model, truncation-level membership evidence, and the
seeded random-point Gram matrix spot check of positive definiteness.

Everything is pure given (model, seed); per-coefficient extraction work is
independent row by row.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .exactnum import _to_float
from .walk import EXACT, CoeffSeq

__all__ = [
    "ResolutionError",
    "SphericalModel",
    "GramReport",
    "MembershipReport",
    "evaluate_series",
    "model_from_seq",
    "extract_fourier",
    "gauss_legendre_rule",
    "extract_legendre",
    "check_membership",
    "gram_psd_check",
    "symmetric_eigenvalues",
]

NONNEG_TOL = 1e-12       # float entries below -NONNEG_TOL count as violations
GRAM_EIGEN_TOL = 1e-9    # pass iff min eigenvalue >= -GRAM_EIGEN_TOL * point_count


class ResolutionError(ValueError):
    """Grid or quadrature order too small for the requested n_max."""


@dataclass(frozen=True)
class SphericalModel:
    """An evaluable correlation function on [0, pi].

    ``evaluator`` maps an ndarray of angles to an array of the same shape.
    Extraction and the Gram check (its first angle 0) call it once with all
    their angles; a result of another shape raises ValueError.
    """

    name: str
    evaluator: Callable


@dataclass(frozen=True)
class GramReport:
    """Outcome of one random-point positive-semidefiniteness spot check."""

    point_count: int
    min_eigen_estimate: float
    psd_pass: bool
    seed: int
    generator: str = "pcg64"


def _check_theta(theta) -> None:
    t = np.asarray(theta, dtype=float)
    ok = (t >= 0.0) & (t <= math.pi)
    if not np.all(ok):
        raise ValueError(f"theta must lie in [0, pi], got {float(t[~ok].flat[0])!r}")


@lru_cache(maxsize=32)
def _recurrence(d: int, n_max: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """a_j = 2(j+lam)/(j+2 lam), c_j = -j/(j+2 lam) (lam = (d-1)/2) of the
    normalized relation Q_{j+1} = a_j x Q_j + c_j Q_{j-1} with Q_0 = 1; a_0 = 1
    and c_0 = 0 give Q_1 = x. Every Q_j stays in [-1, 1], so none overflows."""
    lam = (d - 1) / 2
    a = (1.0,) + tuple(2 * (j + lam) / (j + 2 * lam) for j in range(1, n_max + 1))
    c = (0.0,) + tuple(-j / (j + 2 * lam) for j in range(1, n_max + 2))
    return a, c


def _basis_rows(d: int, n_max: int, x: np.ndarray):
    """Yield the normalized basis rows n = 0..n_max at x = cos(theta) points."""
    a, c = _recurrence(d, n_max)
    q0, q1 = np.zeros_like(x), np.ones_like(x)
    for j in range(n_max + 1):
        yield q1
        q0, q1 = q1, a[j] * x * q1 + c[j] * q0


def evaluate_series(seq: CoeffSeq, theta):
    """Evaluate sum_n b_n * basis_n(theta) at a float angle or an array of them.

    A float theta gives a float, an ndarray an array of the same shape; every
    angle must lie in [0, pi], and theta = 0 gives the coefficient sum (exact
    for exact sequences). d = 1 is Re(sum_n b_n z^n) by Horner's rule in
    z = e^(i theta), accurate near the poles; d >= 2 is the Clenshaw
    recurrence y_j = b_j + a_j x y_(j+1) + c_(j+1) y_(j+2) in x = cos(theta).
    Both loops serve a float and an array. A value past the float range
    raises ValueError naming its angle.
    """
    _check_theta(theta)
    scalar = np.ndim(theta) == 0
    at_zero = np.asarray(theta) == 0.0
    # the total first: it raises for a sum past the float range
    psi0 = seq.float_total() if at_zero.any() else None
    if scalar and psi0 is not None:
        return psi0
    b = seq.to_floats().values
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        if seq.dimension == 1:
            z = cmath.exp(1j * theta) if scalar else np.exp(1j * np.asarray(theta, dtype=float))
            y = 0j
            for v in reversed(b):
                y = y * z + v
            y1 = y.real
        else:
            x = math.cos(theta) if scalar else np.cos(np.asarray(theta, dtype=float))
            a, c = _recurrence(seq.dimension, len(b) - 1)
            y1 = y2 = 0.0
            for j in range(len(b) - 1, -1, -1):
                y1, y2 = b[j] + a[j] * x * y1 + c[j + 1] * y2, y1
    bad = ~(np.isfinite(y1) | at_zero)
    if bad.any():
        t = float(np.asarray(theta, dtype=float)[bad][0])
        raise ValueError(f"the series value at theta = {t!r} lies outside the float range")
    return y1 if psi0 is None else np.where(at_zero, psi0, y1)


def model_from_seq(seq: CoeffSeq, name: str = "sequence") -> SphericalModel:
    """The truncated series of a sequence as a model; its evaluator is ``evaluate_series``."""
    return SphericalModel(name, lambda theta: evaluate_series(seq, theta))


def _evaluate(model: SphericalModel, theta: np.ndarray) -> np.ndarray:
    """psi at an array of angles in one evaluator call."""
    psi = np.asarray(model.evaluator(theta), dtype=float)
    if psi.shape != theta.shape:
        raise ValueError(
            f"model {model.name!r} returned shape {psi.shape} for {theta.shape} angles"
        )
    return psi


def extract_fourier(model: SphericalModel, n_max: int, grid_size: int) -> CoeffSeq:
    """Dimension-1 (Fourier cosine) coefficients by composite trapezoid rule.

    Uses the uniform closed grid theta_j = j pi/(grid_size-1), on which the
    half-weighted endpoint sum realizes discrete cosine orthogonality: the
    result is exact to roundoff whenever the model is a cosine polynomial of
    degree at most grid_size - 1 - n_max. The sum is a DCT-I, computed as
    the real FFT of the samples' even extension in O(grid_size) memory.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    need = max(2, 2 * n_max + 1)
    if grid_size < need:
        raise ResolutionError(
            f"grid_size must be >= max(2, 2*n_max + 1) = {need}, got {grid_size}"
        )
    psi = _evaluate(model, np.linspace(0.0, math.pi, grid_size))
    even = np.concatenate([psi, psi[-2:0:-1]])
    with np.errstate(over="ignore", invalid="ignore"):  # CoeffSeq rejects inf and nan
        coeffs = np.fft.rfft(even)[: n_max + 1].real / (grid_size - 1)
    coeffs[0] *= 0.5
    return CoeffSeq.floats(1, coeffs.tolist())


def _legendre_pair(order: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_order(x) and its derivative (order >= 1)."""
    p0, p1 = deque(_basis_rows(2, order, x), maxlen=2)
    return p1, order * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=128)
def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre (nodes, weights) on [-1, 1], nodes ascending, by Newton
    iteration on the roots of P_order.

    Starts from the Chebyshev-style angles cos(pi (i - 1/4)/(order + 1/2));
    convergence to ~1e-15 takes a handful of sweeps. Weights are
    2 / ((1 - x^2) P'_order(x)^2); the rule integrates polynomials of degree
    <= 2*order - 1 exactly. Both arrays are read-only: the cache hands the
    same pair to every caller.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    i = np.arange(1, order + 1)
    x = np.cos(math.pi * (i - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_pair(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Newton iteration for Gauss-Legendre nodes did not converge")
    _, dp = _legendre_pair(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = x[::-1].copy()
    weights = w[::-1].copy()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def extract_legendre(model: SphericalModel, n_max: int, order: int) -> CoeffSeq:
    """Dimension-2 (Legendre) coefficients by Gauss-Legendre quadrature:

        b_n = (2n+1)/2 * integral_{-1}^{1} psi(arccos x) P_n(x) dx.

    Exact to roundoff when psi(arccos x) is a polynomial of degree at most
    2*order - 1 - n_max in x. Each basis row is dotted with w * psi as the
    recurrence produces it, so memory is O(order).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if order < n_max + 1:
        raise ResolutionError(f"order must be >= n_max + 1 = {n_max + 1}, got {order}")
    nodes, weights = gauss_legendre_rule(order)
    wpsi = weights * _evaluate(model, np.arccos(nodes))
    rows = _basis_rows(2, n_max, nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # CoeffSeq rejects inf and nan
        coeffs = [(n + 0.5) * float(row @ wpsi) for n, row in enumerate(rows)]
    return CoeffSeq.floats(2, coeffs)


@dataclass(frozen=True)
class MembershipReport:
    """Truncation-level membership evidence for a coefficient sequence.

    Facts only, and evidence, not proof: nonnegativity and the normalization
    defect are checked on the available entries only, and the per-parity
    counts of strictly positive entries can never certify the infinitely-many
    condition for strict positive definiteness. The caller decides what must hold.
    """

    nonneg_ok: bool
    violations: tuple[int, ...]
    normalization_defect: float
    positive_even: int
    positive_odd: int

    @property
    def strict_evidence_ok(self) -> bool:
        return self.positive_even > 0 and self.positive_odd > 0


def check_membership(seq: CoeffSeq) -> MembershipReport:
    """Report nonnegativity violations, |sum - 1|, and parity counts.

    Exact sequences are judged on their Fractions: every negative entry is a
    violation and every positive one counts, however small. Float sequences
    allow entries down to -NONNEG_TOL. Either kind raises ValueError for a
    value past the float range.
    """
    floats = seq.to_floats().values
    vals, tol = (seq.values, 0) if seq.kind == EXACT else (floats, NONNEG_TOL)
    violations = tuple(n for n, v in enumerate(vals) if v < -tol)
    defect = _to_float(abs(seq.total() - 1), "the normalization defect")
    positive_even = sum(1 for n, v in enumerate(vals) if n % 2 == 0 and v > 0)
    positive_odd = sum(1 for n, v in enumerate(vals) if n % 2 == 1 and v > 0)
    return MembershipReport(
        nonneg_ok=not violations,
        violations=violations,
        normalization_defect=defect,
        positive_even=positive_even,
        positive_odd=positive_odd,
    )


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``).

    The matrix must be square and symmetric to 1e-10 * ||A||_F; it is
    symmetrized before the solve.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.linalg.norm(a))
    if float(np.max(np.abs(a - a.T), initial=0.0)) > 1e-10 * scale:
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh((a + a.T) / 2.0)


def gram_psd_check(
    model: SphericalModel, dimension: int, point_count: int, seed: int = 0
) -> GramReport:
    """Random-point positive-semidefiniteness spot check on the dimension-sphere.

    The points are the rows of ``np.random.default_rng(seed).standard_normal(
    (point_count, dimension + 1))`` (PCG64) over their norms, never redrawn: a
    PSD kernel gives a PSD matrix on any point set. The kernel matrix
    psi(arccos <x_i, x_j>), inner products clamped to [-1, 1] before the
    arccos, has its minimum eigenvalue from LAPACK ``eigvalsh``, which reads
    only its lower triangle and diagonal. One evaluator call gives psi at 0
    (the diagonal) and at the upper-triangle angles in row order. Passing
    means min eigenvalue >= -1e-9 * point_count. A failure report carries the
    seed so the witness configuration can be replayed.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if point_count < 2:
        raise ValueError("point_count must be >= 2")
    pts = np.random.default_rng(seed).standard_normal((point_count, dimension + 1))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    dots = pts @ pts.T
    np.clip(dots, -1.0, 1.0, out=dots)
    upper = ~np.tri(point_count, dtype=bool)  # strictly above the diagonal
    theta = np.zeros(1 + point_count * (point_count - 1) // 2)
    np.arccos(dots[upper], out=theta[1:])
    del dots
    psi = _evaluate(model, theta)
    g = np.zeros((point_count, point_count))
    g.T[upper] = psi[1:]  # the upper triangle of g.T is the lower one of g
    np.fill_diagonal(g, psi[0])
    del theta, psi, upper
    min_eig = float(np.linalg.eigvalsh(g)[0])
    return GramReport(
        point_count=point_count,
        min_eigen_estimate=min_eig,
        psd_pass=min_eig >= -GRAM_EIGEN_TOL * point_count,
        seed=seed,
    )
