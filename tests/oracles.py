"""Independent oracles the tests check the library against.

- exact_walk: the two-step coefficient recursion on plain Fractions, entry
  by entry.
- recursion_weight_tables: iterate the two-step coefficient recursion
  symbolically (base coefficients as formal symbols) and read off the weight
  rows, without touching the closed-form code paths.
- odd_row_reference / even_row_reference: the weight-row formulas written
  out term by term with Fraction Pochhammer symbols, O(k^2) per row.
- odd_weight_endpoints: the simplified first and last odd-target weights.
- frisch_identity_sides: both sides of the alternating binomial-reciprocal
  sum identity behind the odd row-sum law.
- beta: the Beta function at integer/half-integer arguments, exactly.
- project_series: quadrature projection of an evaluable function onto the
  normalized ultraspherical basis, built on scipy's polynomial evaluation
  rather than the library's own basis recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import eval_gegenbauer


def _step_coefficients(n: int, d: int) -> tuple[Fraction, Fraction]:
    """(alpha, beta) of the d -> d+2 step b'_n = alpha b_n - beta b_(n+2)."""
    if d == 1:
        return (Fraction(1), Fraction(1, 2)) if n == 0 else (Fraction(n + 1, 2),) * 2
    return (Fraction((n + d - 1) * (n + d), d * (2 * n + d - 1)),
            Fraction((n + 1) * (n + 2), d * (2 * n + d + 3)))


def exact_walk(values, d: int, k: int) -> list[Fraction]:
    """k steps of the two-step recursion from dimension d, one plain Fraction
    expression per entry."""
    v = [Fraction(x) for x in values]
    for step in range(k):
        coeffs = [_step_coefficients(n, d + 2 * step) for n in range(len(v) - 2)]
        v = [alpha * v[n] - beta * v[n + 2] for n, (alpha, beta) in enumerate(coeffs)]
    return v


def _step_combos(rows: dict[int, dict[int, Fraction]], d: int, width: int):
    """One symbolic d -> d+2 step: rows[n] maps base index -> coefficient."""
    new_rows: dict[int, dict[int, Fraction]] = {}
    for n in range(width - 2):
        alpha, beta = _step_coefficients(n, d)
        parts = {n: alpha, n + 2: -beta}
        combo: dict[int, Fraction] = {}
        for src, w in parts.items():
            for sym, coeff in rows[src].items():
                combo[sym] = combo.get(sym, Fraction(0)) + w * coeff
        new_rows[n] = {sym: c for sym, c in combo.items() if c != 0}
    return new_rows


def recursion_weight_tables(base_dim: int, k_max: int, n_max: int):
    """tables[k][n] = {base index m: coefficient of b_m} after k steps.

    Covers 1 <= k <= k_max and 0 <= n <= n_max, starting from base_dim.
    """
    width = n_max + 2 * k_max + 1
    rows = {m: {m: Fraction(1)} for m in range(width)}
    d = base_dim
    tables = {}
    for k in range(1, k_max + 1):
        rows = _step_combos(rows, d, width)
        width -= 2
        d += 2
        tables[k] = {n: rows[n] for n in range(min(n_max + 1, width))}
    return tables


def weight_vector(table_row: dict[int, Fraction], n: int, k: int) -> list[Fraction]:
    """Weight vector (w_0..w_k) from a symbolic row; asserts no stray terms."""
    allowed = {n + 2 * i for i in range(k + 1)}
    stray = set(table_row) - allowed
    assert not stray, f"recursion produced out-of-stencil terms at {sorted(stray)}"
    return [table_row.get(n + 2 * i, Fraction(0)) for i in range(k + 1)]


def _rising(x, m: int):
    out = 1
    for j in range(m):
        out = out * (x + j)
    return out


def odd_weight_endpoints(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Simplified first and last odd-target weights for the generic rows:

        w_0 = (n+k)_(k) / (2^k (2k-1)!!)
        w_k = (-1/2)^k (n+1)_(k) / (2k-1)!!

    Only valid for n >= 1; the n = 0 row starts with the piecewise value 1.
    """
    if n < 1:
        raise ValueError("endpoint simplifications hold for n >= 1 only")
    if k < 1:
        raise ValueError("k must be >= 1")
    dfact = math.prod(range(1, 2 * k, 2))
    first = Fraction(_rising(n + k, k), 2**k * dfact)
    last = Fraction((-1) ** k * _rising(n + 1, k), 2**k * dfact)
    return first, last


def frisch_identity_sides(k: int, b: int, c: int) -> tuple[Fraction, Fraction]:
    """Both sides of the alternating binomial-reciprocal sum identity

        sum_{i=0..k} (-1)^i C(k,i) / C(b+i,c)  ==  (c/(k+c)) / C(k+b, b-c)

    for integers b >= c >= 1 and k >= 0. The left side is computed by direct
    summation, the right from the closed form; both are returned exactly so
    callers can compare them.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if c < 1 or b < c:
        raise ValueError("need b >= c >= 1")
    lhs = sum((Fraction((-1) ** i * math.comb(k, i), math.comb(b + i, c))
               for i in range(k + 1)), Fraction(0))
    rhs = Fraction(c, k + c) / math.comb(k + b, b - c)
    return lhs, rhs


def beta(x, y) -> Fraction:
    """Beta function B(x, y) = Gamma(x)Gamma(y) / Gamma(x+y), exactly.

    Both arguments must be positive integers or half-integers, and at least
    one must be an integer k; then B(x, k) = (k-1)! / (x)_(k) is an exact
    Fraction, with no Gamma evaluation at half-integers. Two genuine
    half-integers are rejected: their sqrt(pi) factors multiply instead of
    cancelling, so the value is irrational.
    """
    qx, qy = Fraction(x), Fraction(y)
    if qx <= 0 or qy <= 0:
        raise ValueError("beta requires positive arguments")
    if qx.denominator > 2 or qy.denominator > 2:
        raise ValueError("beta supports integer or half-integer arguments only")
    if qy.denominator != 1:
        qx, qy = qy, qx
    if qy.denominator != 1:
        raise ValueError("beta needs at least one integer argument")
    k = int(qy)
    return Fraction(math.factorial(k - 1)) / _rising(qx, k)


def odd_row_reference(n: int, k: int) -> list[Fraction]:
    """Odd-target row: (-1)^i C(k,i) (n+k)(n+2i) (n+1)_(2k-1)
    / (2^k (2k-1)!! (n+i)_(k+1)), with the piecewise value 1 at (i, n) = (0, 0).
    """
    dfact = math.prod(range(1, 2 * k, 2))
    rising = _rising(n + 1, 2 * k - 1)
    ws = []
    for i in range(k + 1):
        if i == 0 and n == 0:
            ws.append(Fraction(1))
            continue
        num = (-1) ** i * math.comb(k, i) * (n + k) * (n + 2 * i) * rising
        ws.append(Fraction(num, 2**k * dfact * _rising(n + i, k + 1)))
    return ws


def even_row_reference(n: int, k: int) -> list[Fraction]:
    """Even-target row: (-1)^i (2k-1)!!/2^k C(k,i) C(2k+n,n)
    / [(n+i+1/2)_(k-i) (n+k+3/2)_(i)], half-integer factors as Fractions.
    """
    pref = Fraction(math.prod(range(1, 2 * k, 2)) * math.comb(2 * k + n, n), 2**k)
    ws = []
    for i in range(k + 1):
        den = _rising(Fraction(2 * (n + i) + 1, 2), k - i) * _rising(
            Fraction(2 * (n + k) + 3, 2), i
        )
        ws.append((-1) ** i * math.comb(k, i) * pref / den)
    return ws


def project_series(evaluator, d: int, n_max: int, degree_hint: int) -> np.ndarray:
    """Coefficients of the normalized ultraspherical expansion at odd d >= 3.

    Computes b_n = C_n(1) <psi, C_n> / <C_n, C_n> with the weight
    sin^(d-1) theta by trapezoid quadrature on a uniform theta grid. For odd
    d the weight is a cosine polynomial, so the rule is exact once the grid
    comfortably exceeds the band limit (degree_hint bounds psi's degree).
    """
    assert d >= 3 and d % 2 == 1
    lam = (d - 1) / 2
    grid = 2 * degree_hint + 2 * n_max + d + 16
    theta = np.linspace(0.0, math.pi, grid)
    w = np.full(grid, math.pi / (grid - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    w = w * np.sin(theta) ** (d - 1)
    psi = np.array([float(evaluator(t)) for t in theta])
    x = np.cos(theta)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        cn = eval_gegenbauer(n, lam, x)
        cn1 = eval_gegenbauer(n, lam, 1.0)
        out[n] = cn1 * np.sum(w * psi * cn) / np.sum(w * cn * cn)
    return out
