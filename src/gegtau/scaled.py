"""Sign / log-magnitude scalars.

Endpoint values of high-degree Gegenbauer polynomials grow like ratios of
factorials and overflow float64 around degree 170.  ``ScaledReal`` stores
the sign and the natural log of the absolute value separately, so the float
endpoint functions of ``gegenbauer`` can return values past that range;
callers materialize them with ``to_float``.  Sums and differences of
endpoint values are taken exactly, on ``gegenbauer.rational_ladder``.
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

    def to_float(self) -> float:
        """Materialize as float64; faithful to rounding within exp range,
        +-inf beyond it."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_mag)
        except OverflowError:
            return self.sign * math.inf
