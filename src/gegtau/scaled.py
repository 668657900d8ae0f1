"""Sign / log-magnitude scalars.

Endpoint derivative values of high-degree Gegenbauer polynomials grow like
ratios of factorials and overflow float64 around degree 170.  ``ScaledReal``
stores the sign and the natural log of the absolute value separately, so
products of recurrence ratios are plain additions in log space and only the
final, normalized coefficients are materialized as floats.

Addition factors out the larger magnitude, ``a + b = a * (1 + b/a)`` with
``|b/a| <= 1``, which is monotone-safe and yields an exact zero when the two
operands cancel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScaledReal:
    """A real number stored as ``sign * exp(log_mag)``.

    ``sign`` is -1, 0 or +1; ``log_mag`` is meaningless when ``sign == 0``.
    """

    sign: int
    log_mag: float = 0.0

    @staticmethod
    def zero() -> "ScaledReal":
        return ScaledReal(0, 0.0)

    @staticmethod
    def one() -> "ScaledReal":
        return ScaledReal(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "ScaledReal":
        if x == 0.0:
            return ScaledReal.zero()
        if not math.isfinite(x):
            raise ValueError(f"cannot represent non-finite value {x!r}")
        return ScaledReal(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        """Materialize as float64; faithful to rounding within exp range,
        +-inf beyond it."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_mag)
        except OverflowError:
            return self.sign * math.inf

    def scaled_to_float(self, log_shift: float) -> float:
        """Return ``self / exp(log_shift)`` as a float."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_mag - log_shift)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> "ScaledReal":
        return ScaledReal(-self.sign, self.log_mag)

    def __abs__(self) -> "ScaledReal":
        return ScaledReal(abs(self.sign), self.log_mag)

    def __mul__(self, other: "ScaledReal") -> "ScaledReal":
        s = self.sign * other.sign
        if s == 0:
            return ScaledReal.zero()
        return ScaledReal(s, self.log_mag + other.log_mag)

    def __truediv__(self, other: "ScaledReal") -> "ScaledReal":
        if other.sign == 0:
            raise ZeroDivisionError("ScaledReal division by zero")
        if self.sign == 0:
            return ScaledReal.zero()
        return ScaledReal(self.sign * other.sign, self.log_mag - other.log_mag)

    def __add__(self, other: "ScaledReal") -> "ScaledReal":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        # factor out the larger magnitude so the correction is in [0, 2]
        if self.log_mag >= other.log_mag:
            big, small = self, other
        else:
            big, small = other, self
        rel = big.sign * small.sign  # +1 same sign, -1 opposite
        arg = rel * math.exp(small.log_mag - big.log_mag)
        if arg == -1.0:  # exact cancellation
            return ScaledReal.zero()
        return ScaledReal(big.sign, big.log_mag + math.log1p(arg))

    def __sub__(self, other: "ScaledReal") -> "ScaledReal":
        return self + (-other)

    def mul_ratio(self, num: float, den: float) -> "ScaledReal":
        """Multiply by ``num/den`` where both are positive floats."""
        if num <= 0.0 or den <= 0.0:
            raise ValueError("mul_ratio expects positive factors")
        if self.sign == 0:
            return self
        return ScaledReal(self.sign, self.log_mag + math.log(num) - math.log(den))


def max_log_mag(values: list[ScaledReal]) -> float:
    """Largest log-magnitude among the nonzero entries (``-inf`` if none)."""
    logs = [v.log_mag for v in values if v.sign != 0]
    return max(logs) if logs else -math.inf


def to_normalized_floats(values: list[ScaledReal]) -> tuple[list[float], float]:
    """Divide all values by the max magnitude; return floats and the log scale."""
    shift = max_log_mag(values)
    if shift == -math.inf:
        return [0.0 for _ in values], 0.0
    return [v.scaled_to_float(shift) for v in values], shift
