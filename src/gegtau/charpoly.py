"""Characteristic polynomials in mu = 1/lambda for the clamped D4/D2 problem.

For the parity-decoupled Gegenbauer weighted-residual discretization the
finite eigenvalues are roots of short polynomials in mu built from endpoint
derivative ladders D^k G_m(1), all at index gamma.  One construction per
parity covers every gamma > -1/2, through the antiderivative constant
P(m) = (G_{m+1}(1) - G_{m-1}(1)) / (2(m+gamma)):

even modes  constant P(n-2), then coefficient k >= 1 is D^{2k-1} G_{n-2}(1)
odd modes   constant (P(n-1) - P(n-3)) / (2(n-2+gamma)) - P(n-2), then
            coefficient k >= 1 is D^{2k-2} G_{n-2}(1) - D^{2k-1} G_{n-2}(1)

Every coefficient is an exact ``Fraction`` from ``rational_ladder`` at
gamma's exact value (``exact_gamma``: a float is read as its shortest
decimal), so exact cancellations are exact zeros; ``normalized_coeffs``
divides by the largest magnitude and rounds each coefficient once.  The odd
construction leaves out the last ladder pair D^{m-1} G_m(1), D^m G_m(1): its
derivative ratio is exactly 1, so the pair would cancel to zero, and every
polynomial has a nonzero leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gegenbauer import exact_gamma, rational_ladder


@dataclass
class CharPoly:
    """Polynomial in mu (or z), ascending exact coefficients."""

    mu_coeffs: list[Fraction]

    @property
    def degree(self) -> int:
        return len(self.mu_coeffs) - 1

    def normalized_coeffs(self) -> np.ndarray:
        """Coefficients divided exactly by the largest magnitude, each rounded once."""
        big = _max_abs(self.mu_coeffs) or 1
        # an int / int quotient is rounded once, correctly, with no gcd
        scale_n, scale_d = big.denominator, big.numerator
        return np.array([c.numerator * scale_n / (c.denominator * scale_d) for c in self.mu_coeffs])


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


def _antiderivative_constants(gamma: Fraction, lo: int, hi: int) -> list[Fraction]:
    """P(m) = (G_{m+1}(1) - G_{m-1}(1)) / (2(m+gamma)) for lo <= m <= hi, lo >= 2.

    The same-index ladder 2(m+gamma) G_m = D[G_{m+1} - G_{m-1}] makes P(m)
    the value at 1 of an antiderivative of G_m.  The values G_j(1) come from
    one seed and the exact step G_{j+1}(1) = G_j(1) (2 gamma + j) / (j + 1),
    which holds for j >= 1.
    """
    values = [rational_ladder(gamma, lo - 1, 0)[0]]
    for j in range(lo - 1, hi + 1):
        values.append(values[-1] * (2 * gamma + j) / (j + 1))
    return [(values[i + 2] - values[i]) / (2 * (m + gamma)) for i, m in enumerate(range(lo, hi + 1))]


def even_charpoly(gamma: float | Fraction, n: int) -> CharPoly:
    """Characteristic polynomial of the even modes at even degree n >= 4."""
    gamma = exact_gamma(gamma)
    if n % 2 != 0 or n < 4:
        raise ValueError(f"even modes need even n >= 4, got {n}")
    [const] = _antiderivative_constants(gamma, n - 2, n - 2)
    return CharPoly([const] + rational_ladder(gamma, n - 2, n - 3)[1::2])


def odd_charpoly(gamma: float | Fraction, n: int) -> CharPoly:
    """Characteristic polynomial of the odd modes at odd degree n >= 5."""
    gamma = exact_gamma(gamma)
    if n % 2 != 1 or n < 5:
        raise ValueError(f"odd modes need odd n >= 5, got {n}")
    # double integration of the residual identity, with the integration
    # constants fixed by parity and the two boundary conditions; all
    # values-at-zero cancel and only endpoint data survives
    p3, p2, p1 = _antiderivative_constants(gamma, n - 3, n - 1)
    d = rational_ladder(gamma, n - 2, n - 4)
    const = (p1 - p3) / (2 * (n - 2 + gamma)) - p2
    return CharPoly([const] + [a - b for a, b in zip(d[::2], d[1::2])])


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
    """The shifted endpoint polynomial p_n(z), Hurwitz stable for
    -1/2 < gamma <= 1/2.

    p_n(z) = (G_{n-1}(1) - G_{n+1}(1)) / (2(n+gamma)) + sum_k z^k D^k G_n(1).
    The range is sufficient, not sharp: by the exact Routh array, gamma 0.51,
    0.6, 1 and 1.5 are stable too at every n from 2 to 120, and gamma 2 is
    not from n 9.
    """
    gamma = exact_gamma(gamma)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    coeffs = rational_ladder(gamma, n, n)
    coeffs[0] -= _antiderivative_constants(gamma, n, n)[0]
    return CharPoly(coeffs)

