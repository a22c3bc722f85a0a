"""Concrete correlation-model families and the model registry.

Registered names:

- ``one``       psi == 1; coefficients e_0 in every dimension
- ``cosine``    psi = cos(theta); coefficients e_1 in every dimension
- ``example31`` the inverse-square cosine family b_{0,1} = 0,
                b_{n,1} = 6/(pi^2 n^2), whose sum collapses to the quadratic
                1 - 3 theta/pi + 3 theta^2/(2 pi^2)
- ``hs``        the dimension-2 family b_{0,2} = c0/2,
                b_{n,2} = c n^-(2+eps) (n + 1/2)

Each sequence builder takes any n_max >= 0 and computes entries 1..n_max as
one array expression over float indices.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .series import SphericalModel, model_from_seq
from .walk import CoeffSeq
from .weights import odd_weights

__all__ = [
    "HSModelSpec",
    "example_fourier_seq",
    "example_psi",
    "example_closed_form",
    "example_walked_closed_form_seq",
    "example_walked_seq",
    "hs_model_seq",
    "MODEL_NAMES",
    "get_model",
]

def _indices(n_max: int) -> np.ndarray:
    """The indices 1..n_max as floats (int64 products overflow from n ~ 2e6)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return np.arange(1, n_max + 1, dtype=float)


def example_fourier_seq(n_max: int) -> CoeffSeq:
    """Inverse-square cosine coefficients: b_0 = 0, b_n = 6/(pi^2 n^2)."""
    n = _indices(n_max)
    return CoeffSeq.floats(1, [0.0, *(6.0 / (math.pi**2 * n**2)).tolist()])


def example_psi(theta: float) -> float:
    """Closed form of sum_n 6/(pi^2 n^2) cos(n theta) on [0, pi]."""
    return 1.0 - 3.0 * theta / math.pi + 1.5 * theta**2 / math.pi**2


def example_closed_form(n, k: int):
    """Walked inverse-square coefficient at dimension 2k+1 for n, k >= 1:

        3 k (n+k) B(n/2, k)^2 / (n pi^2 (n+2k)^2 B(n, 2k)).

    The Beta ratio is ((k-1)!)^2/(2k-1)! * (n)_(2k) / ((n/2)_(k))^2, which
    equals (2/k) prod_(j=1..k) 2j (n+2j-1) / ((2j-1)(n+2j-2)). Every factor
    lies in (1, 4] and the product grows only like sqrt(k (n+2k)/n), so it
    neither overflows nor underflows, and its relative error is O(k)
    roundings. Strictly positive for all n, k >= 1 and
    O(n^-2) for fixed k.

    ``n`` is an int or a float array of indices; below n ~ 9e7 every integer
    product is exact in either, so the two give bitwise equal values.
    """
    if np.any(np.asarray(n) < 1):
        raise ValueError("defined for n >= 1 (the closed form has n in a denominator)")
    if k < 1:
        raise ValueError("k must be >= 1")
    r = 6.0 * (n + k) / (n * (n + 2 * k) ** 2)
    for j in range(1, k + 1):
        r *= 2 * j * (n + 2 * j - 1) / ((2 * j - 1) * (n + 2 * j - 2))
    return r / math.pi**2


def example_walked_closed_form_seq(n_max: int, k: int) -> CoeffSeq:
    """Dimension-(2k+1) sequence of the inverse-square family from the closed
    form, with the n = 0 entry set to 0 like the base family.

    The raw walk assigns n = 0 a negative value (-3/(4 pi^2) at k = 1), so
    the walked function is not positive definite past dimension 1. Zeroing
    that single entry leaves a nonnegative coefficient sequence, whose
    reconstructed kernel is positive definite on the dimension-(2k+1) sphere
    by construction.
    """
    vals = example_closed_form(_indices(n_max), k)
    return CoeffSeq.floats(2 * k + 1, [0.0, *vals.tolist()])


def example_walked_seq(n_max: int, k: int) -> CoeffSeq:
    """The inverse-square family walked to dimension 2k+1: entries n >= 1
    from the closed form and n = 0 the walk's own, negative, entry
    (6/pi^2) sum_(i=1..k) w_i(0, k)/(2i)^2 with w = odd_weights(0, k), the
    sum exact and rounded once (-3/(4 pi^2) at k = 1).
    """
    seq = example_walked_closed_form_seq(n_max, k)
    w = odd_weights(0, k).weights
    b0 = 6.0 * float(sum(w[i] / (2 * i) ** 2 for i in range(1, k + 1))) / math.pi**2
    return CoeffSeq.floats(seq.dimension, (b0,) + seq.values[1:])


@dataclass(frozen=True)
class HSModelSpec:
    """Coefficient rule c(0) = c0 and c(n) = c / n^(2+epsilon) for n >= 1."""

    epsilon: float
    c0: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.c0 > 0 or not self.c > 0:
            raise ValueError("c0 and c must be > 0")


def hs_model_seq(spec: HSModelSpec, n_max: int) -> CoeffSeq:
    """Dimension-2 coefficients b_0 = c0/2, b_n = c n^-(2+eps) (n + 1/2).

    Entries too small for a float underflow gradually to 0.0. An entry past
    the float range (only for a c near the float maximum, and first at
    n = 1, b_1 = 3c/2) raises ValueError naming c and n.
    """
    n = _indices(n_max)
    with np.errstate(over="ignore"):
        vals = spec.c * n ** -(2.0 + spec.epsilon) * (n + 0.5)
    past = np.flatnonzero(~np.isfinite(vals))
    if past.size:
        raise ValueError(
            f"c = {spec.c!r} puts entry n = {past[0] + 1} of the hs family past the float range"
        )
    return CoeffSeq.floats(2, [spec.c0 * 0.5, *vals.tolist()])


def _hs_model(epsilon=1.0, c0=HSModelSpec.c0, c=HSModelSpec.c, n_trunc=2000) -> SphericalModel:
    spec = HSModelSpec(epsilon=float(epsilon), c0=float(c0), c=float(c))
    return model_from_seq(hs_model_seq(spec, int(n_trunc)), "hs")


# name -> factory; a factory's keyword parameters are the model's parameters
_MODELS = {
    # [()] turns the 0-d result for a float angle into a scalar
    "one": lambda: SphericalModel("one", lambda t: np.ones(np.shape(t))[()]),
    "cosine": lambda: SphericalModel("cosine", np.cos),
    "example31": lambda: SphericalModel("example31", example_psi),
    "hs": _hs_model,
}

MODEL_NAMES = tuple(_MODELS)


def get_model(name: str, **params) -> SphericalModel:
    """Look up a registered correlation model by name.

    ``hs`` accepts epsilon/c0/c/n_trunc parameters (its evaluator sums the
    truncated Legendre series; the family's slow tail makes exact evaluation
    impossible, so n_trunc bounds the truncation error). The other models
    take no parameters, and an unknown parameter raises ValueError. Unknown
    names raise KeyError. Every evaluator takes a float or an ndarray of
    angles.
    """
    factory = _MODELS[name]
    unknown = set(params) - set(inspect.signature(factory).parameters)
    if unknown:
        raise ValueError(f"unknown parameters of model {name!r}: {sorted(unknown)}")
    return factory(**params)
