"""Characteristic polynomials in mu = 1/lambda for the clamped D4/D2 problem.

For the parity-decoupled Gegenbauer weighted-residual discretization the
finite eigenvalues are roots of short polynomials in mu built from endpoint
derivative ladders D^k G_m(1).  Four constructions cover the parameter range:

even modes
    gamma > 1/2   coefficient k is D^{2k} G_{n-1}^{(gamma-1)}(1)
    gamma <= 1/2  integrated form at index gamma: constant term
                  (G_{n-1}(1) - G_{n-3}(1)) / (2(gamma+n-2)), then
                  coefficient k >= 1 is D^{2k-1} G_{n-2}(1)

odd modes
    gamma > 3/2   D^{2k} G_n^{(gamma-2)}(1) - D^{2k+1} G_n^{(gamma-2)}(1)
    1/2 < g <= 3/2  semi-integrated form at index gamma-1 (see _odd_semi)
    gamma <= 1/2  twice-integrated form at index gamma (see _odd_integrated)

On branch overlaps the constructions agree up to the overall factor 2*gamma
(from the index-raising derivative identity); this is covered by tests.
All coefficients are built in ScaledReal and exported after dividing by the
largest magnitude.  The odd constructions carry one exactly-cancelling top
coefficient (the derivative ratio equals 1 at the last step), which the
builders strip, so every polynomial has a nonzero leading coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gegenbauer import check_gamma, deriv_ladder, value_at_one
from .scaled import ScaledReal, to_normalized_floats


@dataclass
class CharPoly:
    """Polynomial in mu (or z), ascending coefficients as ScaledReal."""

    parity: str  # "even" | "odd" | "none"
    n: int
    gamma: float
    mu_coeffs: list[ScaledReal]
    provenance: str
    variable: str = "mu"
    _normalized: np.ndarray | None = field(default=None, repr=False)

    @property
    def degree(self) -> int:
        return len(self.mu_coeffs) - 1

    def normalized_coeffs(self) -> np.ndarray:
        """Coefficients divided by the largest magnitude (for conditioning)."""
        if self._normalized is None:
            floats, _ = to_normalized_floats(self.mu_coeffs)
            self._normalized = np.asarray(floats)
        return self._normalized


def _strip_exact_top_zero(coeffs: list[ScaledReal], expected_degree: int) -> list[ScaledReal]:
    while len(coeffs) - 1 > expected_degree and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    if len(coeffs) - 1 != expected_degree:
        # cancellation was inexact; tolerate rounding dust only
        top = max(c.log_mag for c in coeffs if not c.is_zero())
        for c in coeffs[expected_degree + 1 :]:
            if not c.is_zero() and c.log_mag > top + math.log(1e-9):
                raise AssertionError("leading coefficient failed to cancel")
        coeffs = coeffs[: expected_degree + 1]
    if coeffs[-1].is_zero():
        raise AssertionError("zero leading coefficient")
    return coeffs


def even_charpoly(gamma: float, n: int) -> CharPoly:
    """Characteristic polynomial of the even modes at even degree n >= 4."""
    gamma = check_gamma(gamma)
    if n % 2 != 0 or n < 4:
        raise ValueError(f"even modes need even n >= 4, got {n}")
    deg = (n - 2) // 2
    if gamma > 0.5:
        coeffs = deriv_ladder(gamma - 1.0, n - 1, 2 * deg)[::2]
        prov = "even-direct"
    else:
        const = (value_at_one(gamma, n - 1) - value_at_one(gamma, n - 3)).mul_ratio(
            1.0, 2.0 * (gamma + n - 2)
        )
        coeffs = [const] + deriv_ladder(gamma, n - 2, 2 * deg - 1)[1::2]
        prov = "even-integrated"
    return CharPoly("even", n, gamma, coeffs, prov)


def _odd_direct(gamma: float, n: int) -> list[ScaledReal]:
    g = gamma - 2.0
    d = deriv_ladder(g, n, n)
    return [a - b for a, b in zip(d[::2], d[1::2])]


def _odd_semi(gamma: float, n: int) -> list[ScaledReal]:
    g = gamma - 1.0
    const = (value_at_one(g, n) - value_at_one(g, n - 2)).mul_ratio(
        1.0, 2.0 * (n + gamma - 2)
    ) - value_at_one(g, n - 1)
    d = deriv_ladder(g, n - 1, n - 1)
    return [const] + [a - b for a, b in zip(d[1::2], d[2::2])]


def _odd_integrated(gamma: float, n: int) -> list[ScaledReal]:
    # double integration of the residual identity at index gamma, with the
    # integration constants fixed by parity and the two boundary conditions;
    # all values-at-zero cancel and only endpoint data survives
    g = gamma
    t1 = (value_at_one(g, n) - value_at_one(g, n - 2)).mul_ratio(1.0, 2.0 * (n - 1 + g))
    t2 = (value_at_one(g, n - 2) - value_at_one(g, n - 4)).mul_ratio(1.0, 2.0 * (n - 3 + g))
    const = (t1 - t2 - value_at_one(g, n - 1) + value_at_one(g, n - 3)).mul_ratio(
        1.0, 2.0 * (n + g - 2)
    )
    d = deriv_ladder(g, n - 2, n - 2)
    return [const] + [a - b for a, b in zip(d[::2], d[1::2])]


def odd_charpoly(gamma: float, n: int) -> CharPoly:
    """Characteristic polynomial of the odd modes at odd degree n >= 5."""
    gamma = check_gamma(gamma)
    if n % 2 != 1 or n < 5:
        raise ValueError(f"odd modes need odd n >= 5, got {n}")
    if gamma > 1.5:
        coeffs, prov = _odd_direct(gamma, n), "odd-direct"
    elif gamma > 0.5:
        coeffs, prov = _odd_semi(gamma, n), "odd-semi-integrated"
    else:
        coeffs, prov = _odd_integrated(gamma, n), "odd-integrated"
    coeffs = _strip_exact_top_zero(coeffs, (n - 3) // 2)
    return CharPoly("odd", n, gamma, coeffs, prov)


def second_order_pair(gamma: float, n: int) -> tuple[CharPoly, CharPoly]:
    """The even/odd endpoint-derivative polynomials (Omega_n, Theta_n).

    Omega has coefficient k = D^{2k} G_n(1), Theta has D^{2k+1} G_n(1).
    For -1/2 < gamma <= 3/2 they form a positive pair, which is the engine
    behind the realness proofs; the analysis module checks this numerically.
    """
    gamma = check_gamma(gamma)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = deriv_ladder(gamma, n, n)
    om, th = d[::2], d[1::2]
    parity = "even" if n % 2 == 0 else "odd"
    return (
        CharPoly(parity, n, gamma, om, "second-order-even-part"),
        CharPoly(parity, n, gamma, th, "second-order-odd-part"),
    )


def stability_poly(gamma: float, n: int) -> CharPoly:
    """The shifted endpoint polynomial p_n(z), stable for -1/2 < gamma <= 1/2.

    p_n(z) = (G_{n-1}(1) - G_{n+1}(1)) / (2(n+gamma)) + sum_k z^k D^k G_n(1).
    """
    gamma = check_gamma(gamma)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    coeffs = deriv_ladder(gamma, n, n)
    shift = (value_at_one(gamma, n - 1) - value_at_one(gamma, n + 1)).mul_ratio(
        1.0, 2.0 * (n + gamma)
    )
    coeffs[0] = coeffs[0] + shift
    return CharPoly("none", n, gamma, coeffs, "stability-shifted", variable="z")


def stability_constant(gamma: float, n: int) -> float:
    """The constant K = (n+2) / (2 (n+gamma+1)(n+2 gamma-1)) of the stability proof."""
    gamma = check_gamma(gamma)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n + 2.0) / (2.0 * (n + gamma + 1.0) * (n + 2.0 * gamma - 1.0))
