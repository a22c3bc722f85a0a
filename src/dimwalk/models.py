"""Concrete correlation-model families and the model registry.

Registered names:

- ``one``       psi == 1; coefficients e_0 in every dimension
- ``cosine``    psi = cos(theta); coefficients e_1 in every dimension
- ``example31`` the inverse-square cosine family b_{0,1} = 0,
                b_{n,1} = 6/(pi^2 n^2), whose sum collapses to the quadratic
                1 - 3 theta/pi + 3 theta^2/(2 pi^2)
- ``hs``        the dimension-2 family b_{0,2} = c0/2,
                b_{n,2} = (c/n^(2+eps)) (2n+1)/2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import SphericalModel, model_from_seq
from .walk import CoeffSeq

__all__ = [
    "HSModelSpec",
    "example_fourier_seq",
    "example_psi",
    "example_closed_form",
    "example_walked_closed_form_seq",
    "hs_model_seq",
    "MODEL_NAMES",
    "get_model",
]

def example_fourier_seq(n_max: int) -> CoeffSeq:
    """Inverse-square cosine coefficients: b_0 = 0, b_n = 6/(pi^2 n^2)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    vals = [0.0] + [6.0 / (math.pi**2 * n**2) for n in range(1, n_max + 1)]
    return CoeffSeq.floats(1, vals)


def example_psi(theta: float) -> float:
    """Closed form of sum_n 6/(pi^2 n^2) cos(n theta) on [0, pi]."""
    return 1.0 - 3.0 * theta / math.pi + 1.5 * theta**2 / math.pi**2


def example_closed_form(n: int, k: int) -> float:
    """Walked inverse-square coefficient at dimension 2k+1 for n, k >= 1:

        3 k (n+k) B(n/2, k)^2 / (n pi^2 (n+2k)^2 B(n, 2k)).

    The Beta ratio is ((k-1)!)^2/(2k-1)! * (n)_(2k) / ((n/2)_(k))^2, which
    equals (2/k) prod_(j=1..k) 2j (n+2j-1) / ((2j-1)(n+2j-2)). Every factor
    lies in (1, 4] and the product grows only like sqrt(k (n+2k)/n), so it
    neither overflows nor underflows, and its relative error is O(k)
    roundings. Strictly positive for all n, k >= 1 and
    O(n^-2) for fixed k.
    """
    if n < 1:
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
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    vals = [0.0] + [example_closed_form(n, k) for n in range(1, n_max + 1)]
    return CoeffSeq.floats(2 * k + 1, vals)


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
    """Dimension-2 coefficients b_0 = c0/2, b_n = (c/n^(2+eps)) (2n+1)/2.

    Raises ValueError at the first n where n^(2+eps) exceeds the float range.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    vals = [spec.c0 * 0.5]
    for n in range(1, n_max + 1):
        try:
            vals.append(spec.c / n ** (2.0 + spec.epsilon) * (2 * n + 1) / 2.0)
        except OverflowError:
            raise ValueError(
                f"epsilon = {spec.epsilon!r} is too large: n^(2+epsilon) overflows "
                f"a float at n = {n}"
            ) from None
    return CoeffSeq.floats(2, vals)


MODEL_NAMES = ("one", "cosine", "example31", "hs")


def get_model(name: str, **params) -> SphericalModel:
    """Look up a registered correlation model by name.

    ``hs`` accepts epsilon/c0/c/n_trunc parameters (its evaluator sums the
    truncated Legendre series; the family's slow tail makes exact evaluation
    impossible, so n_trunc bounds the truncation error). The other models
    take no parameters. Unknown names raise KeyError. Every evaluator takes a
    float or an ndarray of angles.
    """
    if name == "hs":
        n_trunc = int(params.pop("n_trunc", 2000))
        spec = HSModelSpec(
            epsilon=float(params.pop("epsilon", 1.0)),
            c0=float(params.pop("c0", HSModelSpec.c0)),
            c=float(params.pop("c", HSModelSpec.c)),
        )
        if params:
            raise ValueError(f"unknown hs parameters: {sorted(params)}")
        return model_from_seq(hs_model_seq(spec, n_trunc), "hs")
    fixed = {
        # [()] turns the 0-d result for a float angle into a scalar
        "one": lambda t: np.ones(np.shape(t))[()],
        "cosine": np.cos,
        "example31": example_psi,
    }
    if name not in fixed:
        raise KeyError(name)
    if params:
        raise ValueError(f"model {name!r} takes no parameters")
    return SphericalModel(name, fixed[name])
