import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gegtau.charpoly import (
    CharPoly,
    _max_abs,
    even_charpoly,
    odd_charpoly,
    second_order_pair,
    stability_poly,
)
from gegtau.eig import poly_roots
from gegtau.gegenbauer import deriv_ladder, exact_gamma, rational_ladder, value_at_one


def roots_of(cp):
    return poly_roots(cp.normalized_coeffs()).roots


def _value(g, n):
    return rational_ladder(g, n, 0)[0]


# The constructions the builders used above gamma 1/2 and 3/2, at a lower
# index: exact multiples of the index-gamma forms (bridge oracles).


def _even_direct(g, n):
    """The former gamma > 1/2 even form: D^{2k} G_{n-1}(1) at index gamma - 1."""
    return rational_ladder(g - 1, n - 1, n - 2)[::2]


def _odd_semi(g, n):
    """The former 1/2 < gamma <= 3/2 odd form, semi-integrated at index gamma - 1."""
    h = g - 1
    d = rational_ladder(h, n - 1, n - 3)
    const = (_value(h, n) - _value(h, n - 2)) / (2 * (n + g - 2)) - d[0]
    return [const] + [a - b for a, b in zip(d[1::2], d[2::2])]


def _odd_direct(g, n):
    """The former gamma > 3/2 odd form: D^{2k} G_n(1) - D^{2k+1} G_n(1) at index gamma - 2."""
    d = rational_ladder(g - 2, n, n - 2)
    return [a - b for a, b in zip(d[::2], d[1::2])]


# ---------------------------------------------------------------------------
# even modes


def test_even_chebyshev_n4():
    # brute-force oracle: the only even quartic with clamped BCs is
    # u = (1-x^2)^2; the weighted residual gives lambda * 2 pi = 24 pi
    cp = even_charpoly(0.0, 4)
    c = cp.normalized_coeffs()
    assert c[0] / c[1] == pytest.approx(-1 / 12, rel=1e-14)  # -1/6 vs 2
    r = roots_of(cp)
    assert r.size == 1
    assert 1.0 / r[0].real == pytest.approx(12.0, rel=1e-12)


def test_even_legendre_constant_term_exactly_zero():
    cp = even_charpoly(0.5, 4)
    assert cp.mu_coeffs[0] == 0
    assert even_charpoly(0.5, 20).mu_coeffs[0] == 0


def test_even_second_kind_n4():
    # same oracle with weight (1-x^2)^(1/2): lambda (-pi/2) = 12 pi
    r = roots_of(even_charpoly(1.0, 4))
    assert r.size == 1
    assert 1.0 / r[0].real == pytest.approx(-24.0, rel=1e-12)


def test_even_rejects_bad_degree():
    with pytest.raises(ValueError):
        even_charpoly(1.0, 5)
    with pytest.raises(ValueError):
        even_charpoly(1.0, 2)


def test_even_degree_matches_neumann_truncation():
    for n in (4, 10, 24, 40):
        assert even_charpoly(1.3, n).degree == (n - 2) // 2
        assert even_charpoly(0.2, n).degree == (n - 2) // 2


@pytest.mark.parametrize("gamma", [-0.25, 0.0, 0.4])
def test_even_sign_pattern_below_half(gamma):
    # one negative constant term, all other coefficients positive: exactly
    # one real positive eigenvalue
    for n in range(4, 41, 2):
        c = even_charpoly(gamma, n).normalized_coeffs()
        assert c[0] < 0.0
        assert np.all(c[1:] > 0.0)


@pytest.mark.parametrize("gamma", [0.6, 1.0, 2.0])
def test_even_bridge_identity(gamma):
    # index-raising derivative identity forces direct = 2 gamma * integrated,
    # exactly
    g = exact_gamma(gamma)
    for n in range(4, 21, 2):
        direct = _even_direct(g, n)
        integrated = even_charpoly(gamma, n).mu_coeffs
        assert len(direct) == len(integrated)
        for cd, ci in zip(direct, integrated):
            assert ci != 0 and cd / ci == 2 * g


def test_even_branch_overlap_near_half():
    # just above the Legendre index the former direct form exists and agrees
    # up to scale exactly: the coefficients differ by the factor 2 gamma, so
    # their normalized roundings are the same floats
    g = 0.5 + 1e-6
    direct = CharPoly(_even_direct(exact_gamma(g), 12)).normalized_coeffs()
    integ = even_charpoly(g, 12).normalized_coeffs()
    assert np.array_equal(direct, integ)


# ---------------------------------------------------------------------------
# odd modes


def test_odd_chebyshev_n5():
    # brute-force oracle: u = x(1-x^2)^2, weighted residual gives
    # lambda (3 pi / 2) = 60 pi
    r = roots_of(odd_charpoly(0.0, 5))
    assert r.size == 1
    assert 1.0 / r[0].real == pytest.approx(40.0, rel=1e-12)


def test_odd_legendre_constant_term_exactly_zero():
    assert odd_charpoly(0.5, 5).mu_coeffs[0] == 0
    assert odd_charpoly(0.5, 19).mu_coeffs[0] == 0


def test_odd_all_real_negative_at_gamma_two():
    from gegtau.pencil import MethodConfig
    from gegtau.spectra import pencil_lambdas

    cp = odd_charpoly(2.0, 5)
    mus = roots_of(cp)
    lams = np.sort((1.0 / mus).real)
    assert np.all(np.abs(mus.imag) < 1e-12) and np.all(lams < 0)
    ref, n_inf, _ = pencil_lambdas(MethodConfig("tau", 2.0, 5), "odd")
    assert n_inf == 0
    assert_allclose(lams, np.sort(ref.real), rtol=1e-10)


def test_odd_rejects_bad_degree():
    with pytest.raises(ValueError):
        odd_charpoly(1.0, 6)
    with pytest.raises(ValueError):
        odd_charpoly(1.0, 3)


def test_odd_degree_after_exact_top_cancellation():
    for g in (0.0, 0.3, 1.0, 1.5, 2.7):
        for n in (5, 9, 21, 33):
            assert odd_charpoly(g, n).degree == (n - 3) // 2


@pytest.mark.parametrize("gamma", [0.6, 1.0, 1.5])
def test_odd_single_sign_mid_branch(gamma):
    for n in range(5, 34, 2):
        c = odd_charpoly(gamma, n).normalized_coeffs()
        assert np.all(c < 0.0) or np.all(c > 0.0)


@pytest.mark.parametrize("gamma", [0.6, 1.0, 1.5 + 1e-6, 2.0, 3.0])
def test_odd_bridge_identity(gamma):
    # semi-integrated (index gamma-1) equals 2 gamma times the twice-integrated
    # form at index gamma, and direct (index gamma-2) 4 gamma (gamma-1) times
    # it, exactly
    g = exact_gamma(gamma)
    for n in (5, 11, 21):
        integrated = odd_charpoly(gamma, n).mu_coeffs
        semi = _odd_semi(g, n)
        assert len(semi) == len(integrated)
        for cs, ci in zip(semi, integrated):
            assert ci != 0 and cs / ci == 2 * g
        if g > 1.5:
            direct = _odd_direct(g, n)
            assert len(direct) == len(integrated)
            for cd, ci in zip(direct, integrated):
                assert cd / ci == 4 * g * (g - 1)


@pytest.mark.parametrize("gamma", [0.500001, 0.6, 1.0, 1.499999, 1.5, 1.500001, 2.0, 3.5, 10.0])
def test_normalized_coeffs_match_former_branches(gamma):
    # the exact factors between the forms are positive, so dividing by the
    # largest magnitude gives the same floats as the former branch did
    g = exact_gamma(gamma)
    for n in range(4, 81):
        if n % 2 == 0:
            got, former = even_charpoly(gamma, n), _even_direct(g, n)
        elif n >= 5:
            got, former = odd_charpoly(gamma, n), (_odd_direct if g > 1.5 else _odd_semi)(g, n)
        else:
            continue
        assert np.array_equal(got.normalized_coeffs(), CharPoly(former).normalized_coeffs()), n


def test_odd_branch_continuity_at_threshold():
    lo = np.sort(roots_of(odd_charpoly(1.5 - 1e-6, 13)).real)
    hi = np.sort(roots_of(odd_charpoly(1.5 + 1e-6, 13)).real)
    assert_allclose(lo, hi, rtol=1e-4)


def test_odd_integrated_continuity_at_legendre():
    lo = np.sort(roots_of(odd_charpoly(0.5, 13)).real)
    hi = np.sort(roots_of(odd_charpoly(0.5 + 1e-9, 13)).real)
    # the exactly-zero constant at 1/2 becomes a tiny root just above
    assert lo.size == hi.size
    assert_allclose(lo[:-1], hi[:-1], rtol=1e-3)


# ---------------------------------------------------------------------------
# second-order pair and stability polynomial


def test_second_order_pair_chebyshev_n2():
    om, th = second_order_pair(0.0, 2)
    # Omega = 1/2 + 2 mu (root -1/4), Theta = [2]
    c = om.normalized_coeffs()
    assert c[0] / c[1] == pytest.approx(0.25, rel=1e-14)
    r = roots_of(om)
    assert r[0].real == pytest.approx(-0.25, rel=1e-13)
    assert om.mu_coeffs == [Fraction(1, 2), 2]
    assert th.degree == 0 and th.mu_coeffs == [2]


def test_second_order_pair_linear():
    om, th = second_order_pair(0.5, 1)
    assert om.degree == 0 and om.mu_coeffs == [1]
    assert th.degree == 0 and th.mu_coeffs == [1]


def test_second_order_omega_roots_real_negative_distinct():
    om, _ = second_order_pair(1.0, 4)
    r = roots_of(om)
    assert np.all(np.abs(r.imag) < 1e-12)
    vals = np.sort(r.real)
    assert np.all(vals < 0)
    assert np.all(np.diff(vals) / np.abs(vals[1:]) > 1e-8)


def test_stability_poly_n2_closed_form():
    # (2/3)(gamma+1)(3 z^2 + 3 z + 1) up to the shared normalization
    for g in (0.0, 0.5, 1.0, 2.3):
        c = stability_poly(g, 2).normalized_coeffs()
        assert_allclose(c, [1.0 / 3.0, 1.0, 1.0], rtol=1e-13)


def test_stability_poly_n2_roots():
    r = np.sort_complex(roots_of(stability_poly(0.7, 2)))
    ref = np.sort_complex(np.array([-0.5 - 1j * np.sqrt(3) / 6, -0.5 + 1j * np.sqrt(3) / 6]))
    assert_allclose(r, ref, atol=1e-13)


def test_stability_poly_variable_tag():
    sp = stability_poly(0.0, 4)
    assert sp.degree == 4


# ---------------------------------------------------------------------------
# every coefficient is an exact Fraction, equal to its entry of the rational
# ladder D^k G_m(1) (and to the closed-form constant terms of the integrated
# constructions)


@functools.lru_cache(maxsize=512)
def _full_ladder(g, m):
    return tuple(rational_ladder(g, m, m))


def _d(g, m, k):
    return _full_ladder(g, m)[k] if k <= m else 0


@pytest.mark.parametrize("gamma", [-0.45, 0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 1.7, 3.5, 10.0])
def test_builders_match_per_coefficient_oracle(gamma):
    d, v, G = _d, _value, exact_gamma(gamma)
    built = []
    for n in range(4, 49, 2):
        deg = (n - 2) // 2
        got = even_charpoly(gamma, n).mu_coeffs
        want = [(v(G, n - 1) - v(G, n - 3)) / (2 * (G + n - 2))]
        want += [d(G, n - 2, 2 * k - 1) for k in range(1, deg + 1)]
        assert got == want
        if G > 0.5:
            assert _even_direct(G, n) == [d(G - 1, n - 1, 2 * k) for k in range(deg + 1)]
        built.append(got)
    for n in range(5, 50, 2):
        ks = range(1, (n - 1) // 2)
        # the former branches' forms, built in this file as bridge oracles
        g = G - 2
        if g > -0.5:
            assert _odd_direct(G, n) == [d(g, n, 2 * k) - d(g, n, 2 * k + 1) for k in range(len(ks) + 1)]
        g = G - 1
        if g > -0.5:
            const = (v(g, n) - v(g, n - 2)) / (2 * (n + G - 2)) - v(g, n - 1)
            want = [const] + [d(g, n - 1, 2 * k - 1) - d(g, n - 1, 2 * k) for k in ks]
            assert _odd_semi(G, n) == want
        g = G
        t1 = (v(g, n) - v(g, n - 2)) / (2 * (n - 1 + g))
        t2 = (v(g, n - 2) - v(g, n - 4)) / (2 * (n - 3 + g))
        const = (t1 - t2 - v(g, n - 1) + v(g, n - 3)) / (2 * (n + g - 2))
        want = [const] + [d(g, n - 2, 2 * k - 2) - d(g, n - 2, 2 * k - 1) for k in ks]
        got = odd_charpoly(gamma, n).mu_coeffs
        assert got == want
        built.append(got)
    for n in range(2, 49):
        om, th = second_order_pair(gamma, n)
        assert om.mu_coeffs == [d(G, n, 2 * k) for k in range(n // 2 + 1)]
        assert th.mu_coeffs == [d(G, n, 2 * k + 1) for k in range((n - 1) // 2 + 1)]
        shift = (v(G, n - 1) - v(G, n + 1)) / (2 * (n + G))
        got = stability_poly(gamma, n).mu_coeffs
        assert got == [d(G, n, 0) + shift] + [d(G, n, k) for k in range(1, n + 1)]
        built += [om.mu_coeffs, th.mu_coeffs, got]
    assert all(type(c) is Fraction for coeffs in built for c in coeffs)


def test_normalized_coeffs_exact_division():
    # divided exactly by the largest magnitude, then rounded once, past the
    # float range and with a zero kept exactly zero
    big = Fraction(2) ** 1100
    c = CharPoly([3 * big, -32 * big, Fraction(0), Fraction(10**400 + 1, 3 * 10**400) * 32 * big])
    got = c.normalized_coeffs()
    assert got.tolist() == [3 / 32, -1.0, 0.0, float(Fraction(10**400 + 1, 3 * 10**400))]
    assert CharPoly([Fraction(0), Fraction(0)]).normalized_coeffs().tolist() == [0.0, 0.0]
    assert CharPoly([-1, 0, 1]).normalized_coeffs().tolist() == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("gamma", ["-0.45", "0", "0.3", "0.500001", "1", "3.5", "10"])
def test_max_abs_prefilter_matches_full_max(gamma):
    g = Fraction(gamma)
    lists = [[Fraction(0)], [Fraction(0)] * 3, [Fraction(-7, 3)], [Fraction(5), Fraction(-5)],
             [Fraction(3, 2), Fraction(-2), Fraction(7, 4)], [Fraction(1, 2**60), Fraction(0)],
             # 8/7 has the larger key (1 against 0) and the smaller value
             [Fraction(8, 7), Fraction(-7, 4)]]
    for n in (4, 5, 12, 13, 40, 41, 119):
        lists.append((even_charpoly if n % 2 == 0 else odd_charpoly)(g, n).mu_coeffs)
        lists += [cp.mu_coeffs for cp in second_order_pair(g, n)]
        lists.append(stability_poly(g, n).mu_coeffs)
    for coeffs in lists:
        want = max(map(abs, coeffs))
        got = _max_abs(coeffs)
        assert got == want and type(got) is type(want)


# ---------------------------------------------------------------------------
# the parent oracle: the sign / log-magnitude builders the exact ones
# replaced, on the float log ladders of gegenbauer.  Their sums round at
# |log| eps, so they agree with the exact coefficients to about 5e-13.
# Next to a cancellation they lose more (at gamma 0.500001 the integrated
# constant terms are off by 2.9e-11), which is why gamma 1/2 + 1e-6 is not
# in the grid; the exact former-branch tests above cover it.


def _log_add(a, b):
    if a[0] == 0:
        return b
    if b[0] == 0:
        return a
    big, small = (a, b) if a[1] >= b[1] else (b, a)
    arg = big[0] * small[0] * math.exp(small[1] - big[1])
    if arg == -1.0:
        return (0, 0.0)
    return (big[0], big[1] + math.log1p(arg))


def _log_sub(a, b):
    return _log_add(a, (-b[0], b[1]))


def _log_div(a, den):
    return a if a[0] == 0 else (a[0], a[1] + math.log(1.0) - math.log(den))


def _log_value(g, n):
    return (1, value_at_one(g, n))


def _log_ladder(g, n, kmax):
    return [(0, 0.0) if d == -math.inf else (1, d) for d in deriv_ladder(g, n, kmax)]


def _log_even(g, n):
    deg = (n - 2) // 2
    if g > 0.5:
        return _log_ladder(g - 1.0, n - 1, 2 * deg)[::2]
    const = _log_div(_log_sub(_log_value(g, n - 1), _log_value(g, n - 3)), 2.0 * (g + n - 2))
    return [const] + _log_ladder(g, n - 2, 2 * deg - 1)[1::2]


def _log_odd(gamma, n):
    if gamma > 1.5:
        d = _log_ladder(gamma - 2.0, n, n - 2)
        return [_log_sub(a, b) for a, b in zip(d[::2], d[1::2])]
    if gamma > 0.5:
        g = gamma - 1.0
        diff = _log_sub(_log_value(g, n), _log_value(g, n - 2))
        const = _log_sub(_log_div(diff, 2.0 * (n + gamma - 2)), _log_value(g, n - 1))
        d = _log_ladder(g, n - 1, n - 3)
        return [const] + [_log_sub(a, b) for a, b in zip(d[1::2], d[2::2])]
    g = gamma
    t1 = _log_div(_log_sub(_log_value(g, n), _log_value(g, n - 2)), 2.0 * (n - 1 + g))
    t2 = _log_div(_log_sub(_log_value(g, n - 2), _log_value(g, n - 4)), 2.0 * (n - 3 + g))
    const = _log_sub(_log_sub(t1, t2), _log_value(g, n - 1))
    const = _log_div(_log_add(const, _log_value(g, n - 3)), 2.0 * (n + g - 2))
    d = _log_ladder(g, n - 2, n - 4)
    return [const] + [_log_sub(a, b) for a, b in zip(d[::2], d[1::2])]


def _log_stability(g, n):
    c = _log_ladder(g, n, n)
    shift = _log_div(_log_sub(_log_value(g, n - 1), _log_value(g, n + 1)), 2.0 * (n + g))
    c[0] = _log_add(c[0], shift)
    return c


def _log_normalized(vals):
    top = max((log for sign, log in vals if sign), default=None)
    return np.array([sign * math.exp(log - top) if sign else 0.0 for sign, log in vals])


PARENT_GAMMAS = [-0.45, -0.25, 0.0, 0.3, 0.5, 0.6, 0.7, 1.0, 1.499999, 1.5, 1.500001, 2.0, 3.5, 10.0]


@pytest.mark.parametrize("gamma", PARENT_GAMMAS)
def test_exact_builders_match_log_space_parent(gamma):
    for n in range(4, 120):
        omega, theta = second_order_pair(gamma, n)
        ladder = _log_ladder(gamma, n, n)
        cases = [
            (omega, ladder[::2]),
            (theta, ladder[1::2]),
            (stability_poly(gamma, n), _log_stability(gamma, n)),
        ]
        if n % 2 == 0:
            cases.append((even_charpoly(gamma, n), _log_even(gamma, n)))
        elif n >= 5:
            cases.append((odd_charpoly(gamma, n), _log_odd(gamma, n)))
        for exact, parent in cases:
            got, want = exact.normalized_coeffs(), _log_normalized(parent)
            assert np.array_equal(got == 0.0, want == 0.0), (gamma, n)
            nz = want != 0.0
            assert np.all(np.abs(got[nz] - want[nz]) <= 1e-12 * np.abs(want[nz])), (gamma, n)
