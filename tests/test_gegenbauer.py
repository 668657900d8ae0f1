import itertools
import math
import operator
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scipy.special import roots_gegenbauer

from gegtau import charpoly, gegenbauer, pencil
from gegtau.analysis import jacobi_quad
from gegtau.eig import ConvergenceError
from gegtau.gegenbauer import (
    _newton_all,
    deriv_at_one,
    deriv_ladder,
    deriv_matrix,
    endpoint_rows,
    evaluate,
    integer_ladder,
    lobatto_interior_nodes,
    mult_x_array,
    rational_ladder,
    value_at_one,
)
from gegtau.pencil import MethodConfig

GAMMAS = [-0.4, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 3.5]

gamma_strategy = st.floats(min_value=-0.45, max_value=4.0, allow_nan=False)


def _exp(log):
    """exp(log) as float64, inf past its range: an endpoint value from its log."""
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# values at 1


def test_value_at_one_chebyshev():
    # G_n^(0) = T_n/n and T_5(1) = 1
    assert _exp(value_at_one(0.0, 5)) == pytest.approx(1 / 5, rel=1e-14)


def test_value_at_one_low_degree_is_one():
    assert _exp(value_at_one(0.7, 1)) == 1.0
    assert _exp(value_at_one(0.7, 0)) == 1.0


def test_value_at_one_legendre_exactly_one():
    # log increments cancel pairwise at gamma = 1/2
    assert _exp(value_at_one(0.5, 7)) == 1.0
    assert value_at_one(0.5, 40) == 0.0


def test_value_at_one_second_kind():
    # product form; cross-check G_n^(1) = U_n/2, U_2(1) = 3
    assert _exp(value_at_one(1.0, 2)) == pytest.approx(1.5, rel=1e-14)


def test_value_at_one_rejects_bad_args():
    with pytest.raises(ValueError):
        value_at_one(-0.5, 3)
    with pytest.raises(ValueError):
        value_at_one(0.0, -1)


@pytest.mark.parametrize("gamma", [-0.4, -0.1, 0.3, 0.49])
def test_value_at_one_decreasing_below_half(gamma):
    vals = [_exp(value_at_one(gamma, n)) for n in range(1, 25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("gamma", [0.51, 1.0, 2.0, 3.5])
def test_value_at_one_increasing_above_half(gamma):
    vals = [_exp(value_at_one(gamma, n)) for n in range(1, 25)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# derivatives at 1


def test_deriv_at_one_legendre():
    # oracle: P_2 = (3x^2 - 1)/2, P_2'(1) = 3
    assert _exp(deriv_at_one(0.5, 2, 1)) == pytest.approx(3.0, rel=1e-14)


def test_deriv_at_one_linear():
    for g in (-0.3, 0.0, 1.7):
        assert _exp(deriv_at_one(g, 1, 1)) == 1.0


def test_deriv_at_one_third_derivative_chebyshev():
    # oracle: D^3 (T_3/3) = D^3 ((4x^3 - 3x)/3) = 8; the closed Gamma-ratio
    # formula gives the same 8, reconciling both routes
    got = _exp(deriv_at_one(0.0, 3, 3))
    assert got == pytest.approx(8.0, rel=1e-14)
    direct = (
        2.0 ** (3 - 1)
        * math.exp(
            math.lgamma(0.0 + 3) + math.lgamma(3 + 0.0 + 3) - math.lgamma(1.0) - math.lgamma(2 * 3)
        )
        / math.factorial(0)
    )
    assert direct == pytest.approx(got, rel=1e-12)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_deriv_at_one_matches_gamma_formula(gamma, n):
    # closed form 2^(k-1) G(g+k) G(n+2g+k) / ((n-k)! G(g+1) G(2g+2k)), valid
    # as stated for k >= 1 where every Gamma argument is positive
    for k in range(1, n + 1):
        log_direct = (
            (k - 1) * math.log(2.0)
            + math.lgamma(gamma + k)
            + math.lgamma(n + 2 * gamma + k)
            - math.lgamma(gamma + 1.0)
            - math.lgamma(2 * gamma + 2 * k)
            - math.lgamma(n - k + 1.0)
        )
        got = deriv_at_one(gamma, n, k)
        assert math.isfinite(got)
        assert got == pytest.approx(log_direct, abs=1e-10)


def test_deriv_at_one_degree_exhausted_and_errors():
    assert deriv_at_one(1.0, 3, 4) == -math.inf
    with pytest.raises(ValueError):
        deriv_at_one(1.0, 3, -1)


@pytest.mark.parametrize("gamma", [-0.4, 0.0, 0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 18, 30])
def test_derivative_ladder_positive_and_nondecreasing(gamma, n):
    prev = None
    for k in range(n + 1):
        cur = deriv_at_one(gamma, n, k)
        assert math.isfinite(cur)
        if prev is not None:
            assert cur >= prev - 1e-12
        prev = cur


def _oracle_log_values_at_one(gamma, nmax):
    """log G_n(1), n = 0..nmax, by the loop the cached ladder replaced: the
    reference.  One running sum, added left to right from 0.0, so entry n
    is the same float as a separate sum over j = 1..n-1."""
    logs, log = [0.0], 0.0
    for j in range(1, nmax + 1):
        logs.append(log)
        log += math.log(2.0 * gamma + j) - math.log(j + 1.0)
    return logs


def _oracle_log_deriv_ladder(gamma, n, kmax, log):
    """deriv_at_one's ratio recurrence for k = 0..kmax, one running sum seeded
    by the loop oracle's log G_n(1); None for k > n."""
    logs = [log]
    for j in range(min(kmax, n)):
        log += math.log((2.0 * gamma + (n + j)) * (n - j)) - math.log(2.0 * gamma + (2 * j + 1))
        logs.append(log)
    return logs + [None] * (kmax + 1 - len(logs))


ORACLE_GAMMAS = [-0.45, 0.0, 0.3, 0.5, 1.0, 3.5, 4.3, 200.0, 1000.0]
ORACLE_NMAX = 400


@pytest.mark.parametrize("gamma", ORACLE_GAMMAS)
def test_endpoint_values_match_loop_oracle(gamma):
    ns = range(ORACLE_NMAX + 1)
    ks = (0, 1, 2, 3, 7)
    value = _oracle_log_values_at_one(gamma, ORACLE_NMAX)
    deriv = {n: _oracle_log_deriv_ladder(gamma, n, max(ks), value[n]) for n in ns}
    # a cold table in both orders: descending builds the longest running
    # sum first, ascending grows it one degree at a time
    for order in (ns[::-1], ns):
        gegenbauer._table.cache_clear()
        for n in order:
            assert value_at_one(gamma, n) == value[n]
            for k in ks:
                got = deriv_at_one(gamma, n, k)
                want = deriv[n][k]
                assert got == (-math.inf if want is None else want)
    g1 = [_exp(value[n]) for n in ns]
    dg1 = [_exp(deriv[n][1]) if n else 0.0 for n in ns]
    # the boundary rows hold these floats up to the first degree past float64
    top = next((n for n in ns if math.isinf(g1[n]) or math.isinf(dg1[n])), None)
    gegenbauer._table.cache_clear()
    if top is not None:
        with pytest.raises(OverflowError, match=rf"gamma {gamma}.*j={top}\b"):
            endpoint_rows(gamma, list(range(ORACLE_NMAX + 1)))
        # the pencil raises the same message as its own error
        parity = "even" if top % 2 == 0 else "odd"
        with pytest.raises(pencil.SingularReductionError, match=rf"^endpoint value .* gamma {gamma}.*j={top}$"):
            pencil.assemble(MethodConfig("tau", gamma, top), parity)
    rows = endpoint_rows(gamma, list(range(ORACLE_NMAX + 1 if top is None else top)))
    assert np.array_equal(rows, [g1[: rows.shape[1]], dg1[: rows.shape[1]]])
    assert (top is None) == (gamma < 1000.0)
    # the parity ladders slice one table per gamma, grown by the longest
    # ladder first or last: the same floats in a fresh C-ordered array, and
    # a ladder that reaches past float64 raises at its own first such
    # degree, also where a longer ladder stored it
    ladders = [(n, parity) for n in (7, 64, 219, 220, 221, ORACLE_NMAX) for parity in ("even", "odd")]
    for order in (ladders[::-1], ladders):
        gegenbauer._table.cache_clear()
        for n, parity in order:
            cols = pencil._columns(n, parity)
            first = next((j for j in cols.tolist() if top is not None and j >= top), None)
            if first is not None:
                with pytest.raises(OverflowError, match=rf"gamma {gamma}.*j={first}\b"):
                    endpoint_rows(gamma, cols.tolist())
                continue
            rows = endpoint_rows(gamma, cols.tolist())
            assert np.array_equal(rows, [[g1[j] for j in cols], [dg1[j] for j in cols]])
            assert rows.flags.c_contiguous and rows.flags.owndata and rows.flags.writeable


def test_endpoint_table_grows_once_under_threads():
    # threads that grow one cold table at once, switching every
    # microsecond, leave each running sum at its own index
    gamma, nmax, workers = 1.3, 400, 8
    value = _oracle_log_values_at_one(gamma, nmax)
    start = threading.Barrier(workers)
    results = []

    def grow(k):
        start.wait(timeout=60)
        got = [value_at_one(gamma, n) for n in range(nmax - k, -1, -workers)]
        results.append(got == value[nmax - k :: -workers])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            gegenbauer._table.cache_clear()
            gegenbauer._table(gamma)  # one table for every thread
            threads = [threading.Thread(target=grow, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert gegenbauer._table(gamma)[0] == value[1:]
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 20 * workers


@pytest.mark.parametrize("gamma", ORACLE_GAMMAS)
def test_deriv_ladder_matches_loop_oracle(gamma):
    value = _oracle_log_values_at_one(gamma, 400)
    for n in (0, 1, 2, 7, 63, 64, 255, 400):
        ladder = _oracle_log_deriv_ladder(gamma, n, n + 3, value[n])
        for kmax in sorted({0, 1, 3, n, n + 3}):
            got = deriv_ladder(gamma, n, kmax)
            assert len(got) == kmax + 1
            for value_k, want in zip(got, ladder):
                assert value_k == (-math.inf if want is None else want)


def test_deriv_ladder_rejects_bad_args():
    for ladder in (deriv_ladder, rational_ladder, integer_ladder):
        for args in ((1.0, -1, 2), (1.0, 3, -1), (-0.5, 3, 1)):
            with pytest.raises(ValueError):
                ladder(*args)


def test_exact_gamma_reads_shortest_decimal():
    assert gegenbauer.exact_gamma(0.3) == Fraction(3, 10)
    assert gegenbauer.exact_gamma(-0.4) == Fraction(-2, 5)
    assert gegenbauer.exact_gamma(np.float64(0.5 + 1e-6)) == Fraction(500001, 1000000)
    assert gegenbauer.exact_gamma(2) == 2
    third = Fraction(1, 3)
    assert gegenbauer.exact_gamma(third) is third
    for bad in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="gamma"):
            gegenbauer.exact_gamma(bad)


@pytest.mark.parametrize("gamma", ["-0.4", "0", "0.3", "0.5", "1", "3.5"])
def test_rational_ladder_matches_deriv_ladder(gamma):
    # exact entries past float overflow, logs equal to the float ladder's
    # up to its rounding
    top = 0.0
    for n in (0, 1, 2, 7, 64, 171, 300):
        exact = rational_ladder(Fraction(gamma), n, n + 2)
        floats = deriv_ladder(float(gamma), n, n + 2)
        assert len(exact) == n + 3
        for k, (e, f) in enumerate(zip(exact, floats)):
            if k > n:
                assert e == 0 and f == -math.inf
                continue
            log_e = math.log(e.numerator) - math.log(e.denominator)
            assert abs(log_e - f) <= 1e-12 * max(1.0, abs(log_e)), (n, k)
            top = max(top, log_e)
    assert top > math.log(sys.float_info.max)


@pytest.mark.parametrize("gamma", [-0.45, 0.0, 0.5, 1.0, 3.5, 10.0])
def test_deriv_ladder_top_pair_equal(gamma):
    # the last ratio is exactly 1, so the odd characteristic polynomials
    # leave out the pair D^{m-1} G_m(1), D^m G_m(1): it cancels to zero
    for m in range(1, 201):
        d = deriv_ladder(gamma, m, m)
        assert d[m - 1] == d[m]


class _CountingMath:
    """Stand-in for the math module that counts math.log calls."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def test_endpoint_rows_work_bound(monkeypatch, cold_pencil_caches):
    counting = _CountingMath()
    monkeypatch.setattr(gegenbauer, "math", counting)
    n = 400
    config = MethodConfig("tau", 1.0, n)
    pencil.assemble(config, "even")
    builds = gegenbauer._table.cache_info().misses
    pencil.assemble(config, "odd")
    # one table for the gamma; the second parity ladder reads it and builds
    # none
    assert builds == gegenbauer._table.cache_info().misses == 1
    # two logs per running-sum entry up to degree n, and two per DG_j(1)
    # step; each parity ladder asks only for its own degrees, so the two
    # together make n+1 steps, not 2(n+1)
    assert counting.logs <= 2 * (n + 1) + 2 * (n + 1)


CHARPOLY_BUILDERS = [
    (charpoly.even_charpoly, 0.3, 400),  # below the former gamma 1/2 split
    (charpoly.even_charpoly, 1.0, 400),  # above it
    (charpoly.odd_charpoly, 0.3, 401),  # below the former 1/2 and 3/2 splits
    (charpoly.odd_charpoly, 1.0, 401),  # between them
    (charpoly.odd_charpoly, 2.0, 401),  # above both
    (charpoly.second_order_pair, 1.0, 400),
    (charpoly.stability_poly, 0.3, 400),
]


@pytest.mark.parametrize(
    "build, gamma, n", CHARPOLY_BUILDERS, ids=lambda v: getattr(v, "__name__", str(v))
)
def test_charpoly_builders_work_bound(monkeypatch, build, gamma, n):
    counting = _CountingMath()
    monkeypatch.setattr(gegenbauer, "math", counting)
    ladders = []

    def counted(g, m, kmax):
        ladders.append(kmax + 1)
        return rational_ladder(g, m, kmax)

    monkeypatch.setattr(charpoly, "rational_ladder", counted)
    build(gamma, n)
    # no logs; one rational ladder of at most n+1 entries, plus at most four
    # one-entry seeds G_m(1); a ladder per coefficient would make O(n^2)
    assert counting.logs == 0
    assert len(ladders) <= 5 and sum(ladders) <= n + 4


# the product formula rational_ladder used before it built the seed and
# ratios in integers: an exact-equality oracle
def _product_ladder(gamma, n, kmax):
    steps = min(kmax, n)
    value = math.prod(((2 * gamma + j) / (j + 1) for j in range(1, n)), start=Fraction(1))
    ratios = ((2 * gamma + n + j) * (n - j) / (2 * gamma + 2 * j + 1) for j in range(steps))
    return list(itertools.accumulate(ratios, operator.mul, initial=value)) + [Fraction(0)] * (kmax - steps)


@pytest.mark.parametrize("gamma", ["-2/5", "0", "3/10", "1/2", "1", "7/2"])
def test_rational_ladder_matches_product_formula(gamma):
    g = Fraction(gamma)
    for n in [*range(41), *range(45, 301, 5)]:
        want = _product_ladder(g, n, n + 2)
        for kmax in sorted({0, 1, n, n + 2}):
            assert rational_ladder(g, n, kmax) == want[: kmax + 1], (n, kmax)


# ---------------------------------------------------------------------------
# interior evaluation


def test_evaluate_degree_two():
    assert evaluate(0.0, 2, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_evaluate_odd_parity_at_zero():
    assert evaluate(2.5, 9, 0.0) == 0.0


def test_evaluate_legendre_p4():
    # oracle: P_4(x) = (35 x^4 - 30 x^2 + 3)/8 at x = 0.3
    x = 0.3
    ref = (35 * x**4 - 30 * x**2 + 3) / 8
    assert ref == pytest.approx(0.0729375, rel=1e-15)
    assert evaluate(0.5, 4, x) == pytest.approx(ref, rel=1e-13)


def test_evaluate_matches_value_at_one():
    for g in GAMMAS:
        for n in (3, 8, 17):
            assert evaluate(g, n, 1.0) == pytest.approx(
                _exp(value_at_one(g, n)), rel=1e-11
            )


@given(
    gamma_strategy,
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_evaluate_parity(gamma, n, x):
    left = evaluate(gamma, n, -x)
    right = (-1.0) ** n * evaluate(gamma, n, x)
    scale = max(1.0, abs(right))
    assert left == pytest.approx(right, abs=1e-12 * scale)


def test_evaluate_rejects_outside_interval():
    with pytest.raises(ValueError):
        evaluate(0.0, 3, 1.5)


# ---------------------------------------------------------------------------
# norms


def _norm_h(gamma, n):
    """h_n = int W(x) G_n(x)^2 dx in closed form: h_0 = pi 2^(-2g)
    Gamma(2g+1) / Gamma(g+1)^2, and h_n = h_0 G_n(1) / (2 (n+gamma))."""
    log_h0 = (
        math.log(math.pi) - 2.0 * gamma * math.log(2.0) + math.lgamma(2.0 * gamma + 1.0) - 2.0 * math.lgamma(gamma + 1.0)
    )
    return _exp(log_h0 if n == 0 else log_h0 + value_at_one(gamma, n) - math.log(2.0 * (n + gamma)))


@pytest.mark.parametrize("gamma", GAMMAS)
def test_norm_h_matches_quadrature(gamma):
    # the quadrature checks evaluate's normalization against the closed form
    for n in (0, 1, 4, 9):
        quad = jacobi_quad(
            gamma - 0.5, lambda x: np.asarray(evaluate(gamma, n, x)) ** 2, n + 6
        )
        assert _norm_h(gamma, n) == pytest.approx(quad, rel=1e-12)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_orthogonality(gamma):
    for m in range(13):
        for n in range(m + 1, 13):
            inner = jacobi_quad(
                gamma - 0.5,
                lambda x: np.asarray(evaluate(gamma, m, x)) * np.asarray(evaluate(gamma, n, x)),
                m + n + 8,
            )
            assert abs(inner) < 1e-10 * _norm_h(gamma, n)


# ---------------------------------------------------------------------------
# coefficient-space derivative


def diff_coeff_array(coeffs, gamma):
    """Coefficients of the derivative, same index gamma, degree reduced by 1:
    the loop oracle for ``deriv_matrix``.

    Back-substitution of the same-index derivative ladder gives
    b_k = 2(k+gamma) * (a_{k+1} + a_{k+3} + ...) for k >= 1 and
    b_0 = a_1 + a_3 + ... .
    """
    a = np.asarray(coeffs, dtype=float)
    n = a.size - 1
    if n < 1:
        return np.zeros(0)
    b = np.empty(n)
    tail_even = 0.0  # sum of a_j over j > k with j even
    tail_odd = 0.0
    for k in range(n - 1, -1, -1):
        if (k + 1) % 2 == 0:
            tail_even += a[k + 1]
            t = tail_even
        else:
            tail_odd += a[k + 1]
            t = tail_odd
        b[k] = t if k == 0 else 2.0 * (k + gamma) * t
    return b


def test_diff_coeffs_g2():
    for g in (-0.3, 0.0, 0.5, 2.0):
        out = diff_coeff_array([0.0, 0.0, 1.0], g)
        assert_allclose(out, [0.0, 2.0 * (g + 1.0)], rtol=1e-15)


def test_diff_coeffs_constant():
    assert diff_coeff_array([3.0], 1.0).size == 0


def test_diff_coeffs_x4_legendre():
    # x^4 = (8 P_4 + 20 P_2 + 7 P_0)/35; derivative should evaluate to 4x^3
    coeffs = np.array([7.0, 0.0, 20.0, 0.0, 8.0]) / 35.0
    d = diff_coeff_array(coeffs, 0.5)
    xs = np.linspace(-1.0, 1.0, 20)
    vals = sum(d[k] * np.asarray(evaluate(0.5, k, xs)) for k in range(d.size))
    assert_allclose(vals, 4.0 * xs**3, atol=1e-13)


@given(
    gamma_strategy,
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=12),
)
def test_diff_coeffs_matches_finite_differences(gamma, coeffs):
    a = np.asarray(coeffs)
    d = diff_coeff_array(a, gamma)
    xs = np.linspace(-0.9, 0.9, 7)
    h = 1e-6
    for x in xs:
        f = lambda t: sum(a[k] * evaluate(gamma, k, t) for k in range(a.size))
        fd = (f(x + h) - f(x - h)) / (2 * h)
        dv = sum(d[k] * evaluate(gamma, k, x) for k in range(d.size))
        assert dv == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))


def test_deriv_matrix_consistent_with_diff_coeffs():
    rng = np.random.default_rng(7)
    for g in (0.0, 0.5, 1.7):
        a = rng.standard_normal(9)
        d = deriv_matrix(g, 9)
        assert_allclose((d @ a)[:8], diff_coeff_array(a, g), rtol=1e-13, atol=1e-13)


def test_mult_x_array():
    # x * G_1 = x^2 = (2 G_2 + G_0)/(2(1+gamma))
    for g in (0.0, 0.5, 1.3):
        out = mult_x_array(np.array([0.0, 1.0]), g)
        assert_allclose(out, [0.5 / (1 + g), 0.0, 1.0 / (1 + g)], rtol=1e-15)
    xs = np.linspace(-1, 1, 9)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(6)
    for g in (0.0, 0.5, 2.2):
        out = mult_x_array(a, g)
        lhs = sum(out[k] * np.asarray(evaluate(g, k, xs)) for k in range(out.size))
        rhs = xs * sum(a[k] * np.asarray(evaluate(g, k, xs)) for k in range(a.size))
        assert_allclose(lhs, rhs, atol=1e-13)


# ---------------------------------------------------------------------------
# interior nodes


def test_lobatto_nodes_degree_five():
    # roots of G_2^(1) = 2x^2 - 1/2
    assert_allclose(lobatto_interior_nodes(0.0, 5), [-0.5, 0.5], atol=1e-14)


def test_lobatto_nodes_contain_zero():
    for g in (-0.3, 0.8, 2.0):
        nodes = lobatto_interior_nodes(g, 6)
        assert np.any(nodes == 0.0)


def test_lobatto_nodes_chebyshev_extrema():
    # D T_6 vanishes at cos(j pi / 6), j = 1..5
    ref = np.sort(np.cos(np.arange(1, 6) * np.pi / 6))
    assert_allclose(lobatto_interior_nodes(0.0, 8), ref, atol=1e-14)


@pytest.mark.parametrize("gamma", [-0.4, 0.0, 0.5, 1.5, 3.5, 1.9, 3.0, 4.3])
@pytest.mark.parametrize("n", [5, 6, 9, 16, 25, 34, 54, 62])
def test_lobatto_nodes_properties(gamma, n):
    nodes = lobatto_interior_nodes(gamma, n)
    assert nodes.size == n - 3
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0 and nodes[-1] < 1.0
    assert_allclose(nodes, -nodes[::-1], atol=1e-13)
    vals = np.asarray(evaluate(gamma + 1.0, n - 3, nodes))
    scale = np.max(np.abs(np.asarray(evaluate(gamma + 1.0, n - 3, np.linspace(-1, 1, 4 * n)))))
    assert np.max(np.abs(vals)) <= 1e-12 * scale


# G_{n-3}^{(gamma+1)}(1), the residual scale, is past float64 here (its log
# is 755.8 and 722.3), so the scale is inf; scipy's roots_gegenbauer returns
# NaN at these points and cannot be the reference
@pytest.mark.parametrize("gamma, n", [(5000.0, 150), (1000.0, 230)])
def test_lobatto_nodes_past_float64_scale(gamma, n):
    assert value_at_one(gamma + 1.0, n - 3) > math.log(sys.float_info.max)
    nodes = lobatto_interior_nodes(gamma, n)
    assert nodes.size == n - 3 and np.all(np.isfinite(nodes))
    assert np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1])


def test_lobatto_nodes_rejects_small_n():
    with pytest.raises(ValueError):
        lobatto_interior_nodes(0.0, 4)


# (3.0, 54) and (1.9, 34) sent the Chebyshev-extrema seeds onto duplicate
# roots; (0.3, 62) did not
@pytest.mark.parametrize("gamma, n", [(3.0, 54), (0.3, 62), (1.9, 34)])
def test_lobatto_nodes_evaluate_budget(monkeypatch, gamma, n):
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(gegenbauer, "evaluate", counting)
    lobatto_interior_nodes(gamma, n)
    # 50 Newton steps (f and f') + the final residual check, each one call
    # over all roots at once
    assert len(calls) <= 2 * 50 + 1


# The seven cases where the Chebyshev-extrema seeds and the duplicate-blind
# fallback check returned a repeated node in place of a real one, then a
# spread over gamma and n.
@pytest.mark.parametrize(
    "gamma, n",
    [(1.9, 19), (3.5, 9), (4.3, 8), (4.3, 11), (4.3, 21), (50.0, 8), (200.0, 8)]
    + [(g, n) for g in (-0.45, 0.0, 0.5, 1.0, 3.0, 10.0) for n in (5, 12, 33, 64, 128)],
)
def test_lobatto_nodes_match_scipy(gamma, n):
    ref = roots_gegenbauer(n - 3, gamma + 1.0)[0]
    assert_allclose(lobatto_interior_nodes(gamma, n), ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "polish",
    [
        lambda r: np.where(np.arange(r.size) == 2, np.nan, r),
        # a node polished onto its neighbour's root
        lambda r: np.where(np.arange(r.size) == 2, r[3], r),
    ],
    ids=["nan", "duplicate"],
)
def test_lobatto_nodes_failed_polish_raises(monkeypatch, polish):
    newton_all = gegenbauer._newton_all
    monkeypatch.setattr(gegenbauer, "_newton_all", lambda *a: polish(newton_all(*a)))
    with pytest.raises(ConvergenceError, match="node search failed"):
        lobatto_interior_nodes(1.0, 12)


# The scalar Newton iteration, one root at a time: the reference the
# vectorized Newton pass must match bit for bit.
def _oracle_newton_root(f, fp, x0, fscale, maxiter=50):
    lim = 1.0 - 1e-12
    x = float(x0)
    for _ in range(maxiter):
        fx = float(f(x)[0])
        d = float(fp(x)[0])
        if d == 0.0:
            break
        step = fx / d
        x = min(lim, max(-lim, x - step))
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            return x
    if abs(float(f(x)[0])) <= 1e-14 * fscale:
        return x
    return math.nan


@pytest.mark.parametrize(
    "f, fp, seeds",
    [
        # f' = 0 at the seed 0: the final residual check keeps the double
        # root of x^2 and turns the non-root of x^2 - 1/4 into NaN
        (lambda x: np.atleast_1d(x * x - 0.25), lambda x: np.atleast_1d(2.0 * x), [-0.9, 0.0, 0.4]),
        (lambda x: np.atleast_1d(x * x), lambda x: np.atleast_1d(2.0 * x), [0.0, 0.3]),
        # inf / inf is a NaN step, which lands on the lower clamp
        (
            lambda x: np.atleast_1d(np.where(x > 0.0, np.inf, x + 0.5)),
            lambda x: np.atleast_1d(np.where(x > 0.0, np.inf, 1.0)),
            [0.5, -0.2],
        ),
    ],
)
def test_newton_all_matches_scalar_oracle(f, fp, seeds):
    got = _newton_all(f, fp, np.array(seeds), 1.0)
    ref = np.array([_oracle_newton_root(f, fp, x0, 1.0) for x0 in seeds])
    assert got.tobytes() == ref.tobytes()


INTEGER_LADDER_GAMMAS = ["-0.45", "-2/5", "0", "1/2", "5/4", "7/2", "20", "123/1000", "-449/1000"]


@pytest.mark.parametrize("gamma", INTEGER_LADDER_GAMMAS)
def test_integer_ladder_is_a_positive_integer_multiple_of_rational_ladder(gamma):
    # entry by entry, the integer ladder is the rational one times the
    # positive integer q^(n-1) n! prod_j (2p + (2j+1)q), gamma = p/q, one
    # factor for every k; entries past n are zeros in both
    g = Fraction(gamma)
    p, q = g.numerator, g.denominator
    for n in range(65):
        for kmax in sorted({0, max(n - 1, 0), n, n + 2}):
            exact, ints = rational_ladder(g, n, kmax), integer_ladder(g, n, kmax)
            assert len(ints) == kmax + 1 and all(type(x) is int for x in ints)
            steps = min(kmax, n)
            factor = q ** max(n - 1, 0) * math.factorial(n) * math.prod(2 * p + (2 * j + 1) * q for j in range(steps))
            assert factor > 0
            assert ints == [e * factor for e in exact], (n, kmax)
            assert ints[steps + 1 :] == [0] * (kmax - steps) and all(x > 0 for x in ints[: steps + 1])
