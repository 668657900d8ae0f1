import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gegtau.scaled import ScaledReal

finite_floats = st.floats(
    min_value=1e-150, max_value=1e150, allow_nan=False, allow_infinity=False
)
signed_floats = st.one_of(finite_floats, finite_floats.map(lambda x: -x))


def test_zero_and_one():
    assert ScaledReal.zero().to_float() == 0.0
    assert ScaledReal.zero() == ScaledReal(0, 0.0)
    assert ScaledReal(1, 0.0).to_float() == 1.0
    assert ScaledReal(-1, 0.0).to_float() == -1.0


def _log_ulp(*vals: float) -> float:
    # representation fidelity: one ulp of the stored log, i.e. |ln x| * eps
    worst = max(abs(math.log(abs(v))) for v in vals)
    return (2.0 + worst) * 2.3e-16


@given(signed_floats)
def test_round_trip_faithful(x):
    back = ScaledReal(1 if x > 0 else -1, math.log(abs(x))).to_float()
    assert back == pytest.approx(x, rel=2.0 * _log_ulp(x))
    assert math.copysign(1.0, back) == math.copysign(1.0, x)


def test_to_float_overflows_to_signed_inf():
    # the log form holds what float64 cannot; materializing it overflows
    assert ScaledReal(1, 1000 * math.log(10.0)).to_float() == math.inf
    assert ScaledReal(-1, 800.0).to_float() == -math.inf
    assert ScaledReal(1, -800.0).to_float() == 0.0
