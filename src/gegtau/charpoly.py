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
largest magnitude.  The odd constructions leave out the last ladder pair
D^{m-1} G_m(1), D^m G_m(1): its derivative ratio is exactly 1, so the pair
would cancel to an exact zero, and every polynomial has a nonzero leading
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gegenbauer import check_gamma, deriv_ladder, value_at_one
from .scaled import ScaledReal, to_normalized_floats


@dataclass
class CharPoly:
    """Polynomial in mu (or z), ascending coefficients as ScaledReal."""

    mu_coeffs: list[ScaledReal]

    @property
    def degree(self) -> int:
        return len(self.mu_coeffs) - 1

    @cached_property
    def _normalized(self) -> np.ndarray:
        floats, _ = to_normalized_floats(self.mu_coeffs)
        return np.asarray(floats)

    def normalized_coeffs(self) -> np.ndarray:
        """Coefficients divided by the largest magnitude (for conditioning)."""
        return self._normalized


def even_charpoly(gamma: float, n: int) -> CharPoly:
    """Characteristic polynomial of the even modes at even degree n >= 4."""
    gamma = check_gamma(gamma)
    if n % 2 != 0 or n < 4:
        raise ValueError(f"even modes need even n >= 4, got {n}")
    deg = (n - 2) // 2
    if gamma > 0.5:
        return CharPoly(deriv_ladder(gamma - 1.0, n - 1, 2 * deg)[::2])
    const = (value_at_one(gamma, n - 1) - value_at_one(gamma, n - 3)).mul_ratio(
        1.0, 2.0 * (gamma + n - 2)
    )
    return CharPoly([const] + deriv_ladder(gamma, n - 2, 2 * deg - 1)[1::2])


def _odd_direct(gamma: float, n: int) -> list[ScaledReal]:
    g = gamma - 2.0
    d = deriv_ladder(g, n, n - 2)
    return [a - b for a, b in zip(d[::2], d[1::2])]


def _odd_semi(gamma: float, n: int) -> list[ScaledReal]:
    g = gamma - 1.0
    const = (value_at_one(g, n) - value_at_one(g, n - 2)).mul_ratio(
        1.0, 2.0 * (n + gamma - 2)
    ) - value_at_one(g, n - 1)
    d = deriv_ladder(g, n - 1, n - 3)
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
    d = deriv_ladder(g, n - 2, n - 4)
    return [const] + [a - b for a, b in zip(d[::2], d[1::2])]


def odd_charpoly(gamma: float, n: int) -> CharPoly:
    """Characteristic polynomial of the odd modes at odd degree n >= 5."""
    gamma = check_gamma(gamma)
    if n % 2 != 1 or n < 5:
        raise ValueError(f"odd modes need odd n >= 5, got {n}")
    if gamma > 1.5:
        return CharPoly(_odd_direct(gamma, n))
    if gamma > 0.5:
        return CharPoly(_odd_semi(gamma, n))
    return CharPoly(_odd_integrated(gamma, n))


def second_order_pair(gamma: float, n: int) -> tuple[CharPoly, CharPoly]:
    """The even/odd endpoint-derivative polynomials (Omega_n, Theta_n).

    Omega has coefficient k = D^{2k} G_n(1), Theta has D^{2k+1} G_n(1).
    For -1/2 < gamma <= 3/2 they form a positive pair, which is the engine
    behind the realness proofs; the analysis module decides this exactly,
    on the same ladder in rational arithmetic (``rational_ladder``).
    """
    gamma = check_gamma(gamma)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = deriv_ladder(gamma, n, n)
    return CharPoly(d[::2]), CharPoly(d[1::2])


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
    return CharPoly(coeffs)


def stability_constant(gamma: float, n: int) -> float:
    """The constant K = (n+2) / (2 (n+gamma+1)(n+2 gamma-1)) of the stability proof."""
    gamma = check_gamma(gamma)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n + 2.0) / (2.0 * (n + gamma + 1.0) * (n + 2.0 * gamma - 1.0))
