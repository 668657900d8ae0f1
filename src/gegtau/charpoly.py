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
Every coefficient is an exact ``Fraction`` from ``rational_ladder`` at
gamma's exact value (``exact_gamma``: a float is read as its shortest
decimal), so exact cancellations are exact zeros; ``normalized_coeffs``
divides by the largest magnitude and rounds each coefficient once.  The odd
constructions leave out the last ladder pair D^{m-1} G_m(1), D^m G_m(1): its
derivative ratio is exactly 1, so the pair would cancel to zero, and every
polynomial has a nonzero leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gegenbauer import check_gamma, exact_gamma, rational_ladder


@dataclass
class CharPoly:
    """Polynomial in mu (or z), ascending exact coefficients."""

    mu_coeffs: list[Fraction]

    @property
    def degree(self) -> int:
        return len(self.mu_coeffs) - 1

    @cached_property
    def _normalized(self) -> np.ndarray:
        big = _max_abs(self.mu_coeffs) or 1
        # an int / int quotient is rounded once, correctly, with no gcd
        scale_n, scale_d = big.denominator, big.numerator
        return np.array([c.numerator * scale_n / (c.denominator * scale_d) for c in self.mu_coeffs])

    def normalized_coeffs(self) -> np.ndarray:
        """Coefficients divided exactly by the largest magnitude, each rounded once."""
        return self._normalized


def _max_abs(coeffs: list[Fraction]) -> Fraction:
    """``max(map(abs, coeffs))``, compared exactly only where it can matter.

    A nonzero p/q with k = bitlen(p) - bitlen(q) lies in (2^(k-1), 2^(k+1)),
    so only coefficients whose k is within 1 of the largest can be the
    maximum; the others are never cross-multiplied.
    """
    keys = [(c.numerator.bit_length() - c.denominator.bit_length(), c) for c in coeffs if c]
    if not keys:
        return max(map(abs, coeffs))
    top = max(k for k, _ in keys)
    return max(abs(c) for k, c in keys if k >= top - 1)


def _value(gamma: Fraction, n: int) -> Fraction:
    """G_n(1), the seed of the rational ladder."""
    return rational_ladder(gamma, n, 0)[0]


def even_charpoly(gamma: float | Fraction, n: int) -> CharPoly:
    """Characteristic polynomial of the even modes at even degree n >= 4."""
    gamma = exact_gamma(gamma)
    if n % 2 != 0 or n < 4:
        raise ValueError(f"even modes need even n >= 4, got {n}")
    deg = (n - 2) // 2
    if gamma > 0.5:
        return CharPoly(rational_ladder(gamma - 1, n - 1, 2 * deg)[::2])
    const = (_value(gamma, n - 1) - _value(gamma, n - 3)) / (2 * (gamma + n - 2))
    return CharPoly([const] + rational_ladder(gamma, n - 2, 2 * deg - 1)[1::2])


def _odd_direct(gamma: Fraction, n: int) -> list[Fraction]:
    d = rational_ladder(gamma - 2, n, n - 2)
    return [a - b for a, b in zip(d[::2], d[1::2])]


def _odd_semi(gamma: Fraction, n: int) -> list[Fraction]:
    g = gamma - 1
    d = rational_ladder(g, n - 1, n - 3)
    const = (_value(g, n) - _value(g, n - 2)) / (2 * (n + gamma - 2)) - d[0]
    return [const] + [a - b for a, b in zip(d[1::2], d[2::2])]


def _odd_integrated(gamma: Fraction, n: int) -> list[Fraction]:
    # double integration of the residual identity at index gamma, with the
    # integration constants fixed by parity and the two boundary conditions;
    # all values-at-zero cancel and only endpoint data survives
    g = gamma
    d = rational_ladder(g, n - 2, n - 4)
    t1 = (_value(g, n) - d[0]) / (2 * (n - 1 + g))
    t2 = (d[0] - _value(g, n - 4)) / (2 * (n - 3 + g))
    const = (t1 - t2 - _value(g, n - 1) + _value(g, n - 3)) / (2 * (n + g - 2))
    return [const] + [a - b for a, b in zip(d[::2], d[1::2])]


def odd_charpoly(gamma: float | Fraction, n: int) -> CharPoly:
    """Characteristic polynomial of the odd modes at odd degree n >= 5."""
    gamma = exact_gamma(gamma)
    if n % 2 != 1 or n < 5:
        raise ValueError(f"odd modes need odd n >= 5, got {n}")
    if gamma > 1.5:
        return CharPoly(_odd_direct(gamma, n))
    if gamma > 0.5:
        return CharPoly(_odd_semi(gamma, n))
    return CharPoly(_odd_integrated(gamma, n))


def second_order_pair(gamma: float | Fraction, n: int) -> tuple[CharPoly, CharPoly]:
    """The even/odd endpoint-derivative polynomials (Omega_n, Theta_n).

    Omega has coefficient k = D^{2k} G_n(1), Theta has D^{2k+1} G_n(1).
    For -1/2 < gamma <= 3/2 they form a positive pair, which is the engine
    behind the realness proofs; the analysis module decides this exactly on
    these coefficients.
    """
    gamma = exact_gamma(gamma)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = rational_ladder(gamma, n, n)
    return CharPoly(d[::2]), CharPoly(d[1::2])


def stability_poly(gamma: float | Fraction, n: int) -> CharPoly:
    """The shifted endpoint polynomial p_n(z), stable for -1/2 < gamma <= 1/2.

    p_n(z) = (G_{n-1}(1) - G_{n+1}(1)) / (2(n+gamma)) + sum_k z^k D^k G_n(1).
    """
    gamma = exact_gamma(gamma)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    coeffs = rational_ladder(gamma, n, n)
    coeffs[0] += (_value(gamma, n - 1) - _value(gamma, n + 1)) / (2 * (n + gamma))
    return CharPoly(coeffs)


def stability_constant(gamma: float, n: int) -> float:
    """The constant K = (n+2) / (2 (n+gamma+1)(n+2 gamma-1)) of the stability proof."""
    gamma = check_gamma(gamma)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return (n + 2.0) / (2.0 * (n + gamma + 1.0) * (n + 2.0 * gamma - 1.0))
