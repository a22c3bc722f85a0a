"""Series evaluation, coefficient extraction, and positive definiteness checks.

The float numerics live here: the normalized cosine/Legendre/Gegenbauer basis,
trapezoid and Gauss-Legendre extraction of expansion coefficients from an
evaluable correlation model, truncation-level membership evidence, and the
seeded random-point Gram matrix spot check of positive definiteness.

Everything is pure given (model, seed): the one state, the two arrays a
sequence keeps once it has been evaluated (its cosine coefficients and their
baby-step matrix, about 5N doubles, 80 KB at N = 2,001), changes no value.
Per-coefficient extraction work is independent row by row.
"""

from __future__ import annotations

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
GRAM_EIGEN_TOL = 1e-9    # pass iff min eigenvalue >= -GRAM_EIGEN_TOL * point_count * psi(0)


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


def _legendre_rows(n_max: int, x: np.ndarray):
    """Yield the Legendre rows P_n(x), n = 0..n_max, by the relation
    P_(j+1) = (2j+1)/(j+1) x P_j - j/(j+1) P_(j-1) from P_0 = 1. On [-1, 1]
    every row stays in [-1, 1], so none overflows.
    """
    q0, q1 = np.zeros_like(x), np.ones_like(x)
    for j in range(n_max + 1):
        yield q1
        q0, q1 = q1, (2 * j + 1) / (j + 1) * x * q1 - j / (j + 1) * q0


def _cosine_coeffs(b: np.ndarray, d: int) -> np.ndarray:
    """Cosine coefficients a of sum_n b_n Q_n(cos theta) = sum_m a_m cos(m theta).

    DLMF 18.5.11 gives a_m = eps_m sum_(l>=0) W_l(m+2l) b_(m+2l) (eps_0 = 1,
    else 2) with W_l(n) = alpha_l alpha_(n-l) / N_n, alpha_j = (mu)_j / j!,
    N_n = (2 mu)_n / n! and mu = (d-1)/2. The weights of one n are positive
    and sum to Q_n(1) = 1, so nothing cancels; at d = 1 the map is the identity.

    The weights of cos(m theta) form a chain in l, one level per loop step on
    shrinking slices, by ratios of alpha and N scaled by mu + 1 so that none
    overflows at any d. A chain runs up from W_0(m) = (mu)_m / (2 mu)_m, so
    the weights of low degrees, where a decaying sequence has its mass, are
    the most accurate. Where W_0(m) is below the normal floats (large m at
    large d), the chain grows towards the top degree N-1 or N-2 instead, so
    it runs down from there, from a row built outwards from the central
    weight, and its weights too small for a float underflow to 0.
    """
    n_terms = b.size
    if d == 1 or n_terms == 1:
        return b
    mu = (d - 1) / 2
    j = np.arange(n_terms, dtype=float)
    f = (mu + j) / (mu + 1) / (j + 1)  # alpha_(j+1) / alpha_j / (mu + 1)
    g = (j + 1) * ((mu + 1) / (2 * mu + j))  # (mu + 1) N_j / N_(j+1)
    gg = g[:-1] * g[1:]

    # a level step multiplies the chain of cos(m theta) by
    # W_(l+1)(m+2l+2) / W_l(m+2l) = gg_(m+2l) f_l f_(m+l)
    a, buf = np.zeros(n_terms), np.empty(n_terms)
    w = np.cumprod(np.concatenate(([1.0], (mu + j[:-1]) / (2 * mu + j[:-1]))))
    cut = int(np.count_nonzero(w >= np.finfo(float).tiny))  # W_0(m) falls with m
    for level in range((n_terms + 1) // 2):
        live = min(cut, n_terms - 2 * level)
        wl, tmp = w[:live], buf[:live]
        np.multiply(wl, b[2 * level : 2 * level + live], out=tmp)
        a[:live] += tmp
        live = min(cut, n_terms - 2 * level - 2)  # the chains that go on
        if live <= 0:
            break
        wl, tmp = w[:live], buf[:live]
        np.multiply(gg[2 * level : 2 * level + live], f[level], out=tmp)
        wl *= tmp
        wl *= f[level : level + live]
    if cut < n_terms:
        for top in (n_terms - 1, n_terms - 2):
            # the row of the top degree, W_l = W_(l+1) f_(top-l-1) / f_l outwards
            # from its central weight, where the chain of cos(m0 theta) ended
            c, m0 = divmod(top, 2)
            w[m0::2] = np.cumprod(np.concatenate(([w[m0]], f[top - c : top] / f[:c][::-1])))
        for level in range((n_terms - 1 - cut) // 2, -1, -1):
            live = n_terms - 2 * level
            wl = w[cut:live]
            a[cut:live] += wl * b[cut + 2 * level :]
            if level:
                wl /= gg[2 * level - 2 + cut : 2 * level - 2 + live] * f[level - 1]
                wl /= f[level - 1 + cut : level - 1 + live]
    a[1:] *= 2
    return a


# A chunk of angles is a whole number of 32-row blocks, so no angle falls in a
# partial row tile of a BLAS kernel, which may round differently. Below about
# 2,000 terms one matrix product takes at most 2^18 multiply-adds: OpenBLAS
# runs a product that small on one thread, where waking more costs more.
_CHUNK_BLOCK, _CHUNK_MAX, _MATMUL_MAX = 32, 256, 2**18


def _baby_step_matrix(a: np.ndarray) -> np.ndarray:
    """The (2B x 2G) real matrix of ``_cos_sum`` for cosine coefficients a.

    With B = ceil(sqrt(N)) and G = ceil(N/B), coef[q, r] = a_(qB+r) (zero past
    N) is interleaved so that a row of baby steps z^r as (re, im) pairs times
    the matrix gives the (Re P_q, -Im P_q) pairs. About 4N doubles.
    """
    n_terms = a.size
    baby = math.isqrt(n_terms - 1) + 1
    giant = -(-n_terms // baby)
    coef = np.zeros((giant, baby))
    coef.flat[:n_terms] = a  # coef[q, r] = a_(qB+r)
    mat = np.zeros((baby, 2, giant, 2))
    mat[:, 0, :, 0], mat[:, 1, :, 1] = coef.T, -coef.T
    return mat.reshape(2 * baby, 2 * giant)


def _cos_sum(mat: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_m a_m cos(m theta) at a flat array of angles, by baby and giant steps,
    from the ``_baby_step_matrix`` of the a_m.

    With m = qB + r, B = ceil(sqrt(N)) and z = e^(i theta), the sum is
    Re sum_q z^(qB) P_q with P_q = sum_(r<B) a_(qB+r) z^r. The steps z^r and
    z^(qB) are cumulative products of e^(i theta) and e^(i B theta): no
    trigonometric function per term, and accurate phases near 0 and pi. One
    real matrix product takes the baby steps, as (re, im) pairs, to
    (Re P_q, -Im P_q) pairs, which a row-wise dot product with the giant
    steps sums. Every chunk of angles has one fixed size, the last one
    padded, so no value depends on where its angle sits in the array. The
    matrix (about 4N doubles) is kept on the sequence beside its N cosine
    coefficients, so a call builds only the steps.
    """
    baby, giant = mat.shape[0] // 2, mat.shape[1] // 2
    blocks = _MATMUL_MAX // (4 * baby * giant * _CHUNK_BLOCK)
    rows = min(_CHUNK_MAX, _CHUNK_BLOCK * max(1, blocks))
    phase = np.zeros((2, rows))  # theta and B theta; padding keeps earlier angles
    steps = np.ones((2, rows, baby), dtype=complex)  # z^r and z^(qB) (q < B)
    out = np.empty(theta.size)
    for start in range(0, theta.size, rows):
        chunk = theta[start : start + rows]
        phase[0, : chunk.size] = chunk
        np.multiply(phase[0], baby, out=phase[1])
        steps[:, :, 1:] = np.exp(1j * phase)[:, :, None]
        np.cumprod(steps, axis=2, out=steps)
        p = steps[0].view(float) @ mat
        psi = (steps[1, :, :giant].view(float) * p).sum(axis=1)
        out[start : start + rows] = psi[: chunk.size]
    return out


def _cosine_series(seq: CoeffSeq) -> np.ndarray:
    """``_cosine_coeffs`` of a sequence's floats, converted on the first call and
    kept read-only in the sequence's ``__dict__``, outside its fields: no lookup
    hashes the values, and the array lives as long as the sequence."""
    a = seq.__dict__.get("_cosine_series")
    if a is None:
        b = seq.to_floats().values
        a = _cosine_coeffs(np.fromiter(b, float, len(b)), seq.dimension)
        a.setflags(write=False)
        seq.__dict__["_cosine_series"] = a
    return a


def _sum_plan(seq: CoeffSeq) -> np.ndarray:
    """The ``_baby_step_matrix`` of ``_cosine_series(seq)``, about 4N doubles,
    built on the first call and kept read-only beside the cosine coefficients."""
    mat = seq.__dict__.get("_sum_plan")
    if mat is None:
        mat = _baby_step_matrix(_cosine_series(seq))
        mat.setflags(write=False)
        seq.__dict__["_sum_plan"] = mat
    return mat


def evaluate_series(seq: CoeffSeq, theta):
    """Evaluate sum_n b_n * basis_n(theta) at a float angle or an array of them.

    A float theta gives a float, an ndarray an array of the same shape; every
    angle must lie in [0, pi], and theta = 0 gives the coefficient sum (exact
    for exact sequences). Every other angle, at any d, is the cosine series of
    the sequence (``_cosine_coeffs``, DLMF 18.5.11) summed by baby and giant
    steps in e^(i theta) (``_cos_sum``), so a single angle and the same angle
    in an array give the same value bit for bit. Its error is O(N u sum|b_n|)
    at every angle, the poles included, since the cosine weights are positive
    and no step works in cos(theta). The O(N^2) conversion and the baby-step
    matrix built from it are paid once per sequence object and kept on it,
    read-only (about 5N doubles, 80 KB at N = 2,001), so no call hashes the
    sequence's values or rebuilds the matrix.
    A value past the float range raises ValueError naming its angle.
    """
    _check_theta(theta)
    scalar = np.ndim(theta) == 0
    at_zero = np.asarray(theta) == 0.0
    # the total first: it raises for a sum past the float range
    psi0 = seq.float_total() if at_zero.any() else None
    if scalar and psi0 is not None:
        return psi0
    t = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        y = _cos_sum(_sum_plan(seq), t.ravel()).reshape(t.shape)
    if psi0 is not None:
        y[at_zero] = psi0
    bad = ~np.isfinite(y)
    if bad.any():
        angle = float(t[bad][0])
        raise ValueError(f"the series value at theta = {angle!r} lies outside the float range")
    return float(y) if scalar else y


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
    p0, p1 = deque(_legendre_rows(order, x), maxlen=2)
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
    rows = _legendre_rows(n_max, nodes)
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
    means psi(0) >= 0 and min eigenvalue >= -1e-9 * point_count * psi(0): the
    rounding floor of the eigenvalues scales with the kernel, which a PSD
    kernel's diagonal psi(0) bounds, and psi(0) < 0 is a negative diagonal,
    never PSD. A failure report carries the seed so the witness configuration
    can be replayed.
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
    psi0 = float(psi[0])
    np.fill_diagonal(g, psi0)
    del theta, psi, upper
    min_eig = float(np.linalg.eigvalsh(g)[0])
    return GramReport(
        point_count=point_count,
        min_eigen_estimate=min_eig,
        psd_pass=psi0 >= 0.0 and min_eig >= -GRAM_EIGEN_TOL * point_count * psi0,
        seed=seed,
    )
