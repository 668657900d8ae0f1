import numpy as np
import pytest
from numpy.testing import assert_allclose

from gegtau.charpoly import (
    _odd_direct,
    _odd_semi,
    even_charpoly,
    odd_charpoly,
    second_order_pair,
    stability_constant,
    stability_poly,
)
from gegtau.eig import poly_roots


def roots_of(cp):
    return poly_roots(cp.normalized_coeffs()).roots


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
    assert cp.mu_coeffs[0].is_zero()
    assert even_charpoly(0.5, 20).mu_coeffs[0].is_zero()


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
    # index-raising derivative identity forces direct = 2 gamma * integrated
    from gegtau.gegenbauer import deriv_at_one, value_at_one

    for n in range(4, 21, 2):
        direct = even_charpoly(gamma, n)  # gamma > 1/2 branch
        deg = (n - 2) // 2
        const = (value_at_one(gamma, n - 1) - value_at_one(gamma, n - 3)).mul_ratio(
            1.0, 2.0 * (gamma + n - 2)
        )
        integrated = [const] + [deriv_at_one(gamma, n - 2, 2 * k - 1) for k in range(1, deg + 1)]
        for cd, ci in zip(direct.mu_coeffs, integrated):
            if ci.is_zero():
                assert cd.is_zero()
                continue
            assert (cd / ci).to_float() == pytest.approx(2.0 * gamma, rel=1e-11)


def test_even_branch_overlap_near_half():
    # just above the Legendre index both branches exist and agree up to scale
    g = 0.5 + 1e-6
    direct = even_charpoly(g, 12).normalized_coeffs()
    from gegtau.gegenbauer import deriv_at_one, value_at_one
    from gegtau.scaled import to_normalized_floats

    const = (value_at_one(g, 11) - value_at_one(g, 9)).mul_ratio(1.0, 2.0 * (g + 10))
    integ = [const] + [deriv_at_one(g, 10, 2 * k - 1) for k in range(1, 6)]
    integ_n, _ = to_normalized_floats(integ)
    assert_allclose(direct, integ_n, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# odd modes


def test_odd_chebyshev_n5():
    # brute-force oracle: u = x(1-x^2)^2, weighted residual gives
    # lambda (3 pi / 2) = 60 pi
    r = roots_of(odd_charpoly(0.0, 5))
    assert r.size == 1
    assert 1.0 / r[0].real == pytest.approx(40.0, rel=1e-12)


def test_odd_legendre_constant_term_exactly_zero():
    assert odd_charpoly(0.5, 5).mu_coeffs[0].is_zero()
    assert odd_charpoly(0.5, 19).mu_coeffs[0].is_zero()


def test_odd_all_real_negative_at_gamma_two():
    from gegtau.pencil import MethodConfig
    from gegtau.spectra import pencil_lambdas

    cp = odd_charpoly(2.0, 5)
    mus = roots_of(cp)
    lams = np.sort((1.0 / mus).real)
    assert np.all(np.abs(mus.imag) < 1e-12) and np.all(lams < 0)
    ref, n_inf, _ = pencil_lambdas(MethodConfig("tau", 2.0, 5, parity_split=True), "odd")
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


@pytest.mark.parametrize("gamma", [1.5 + 1e-6, 2.0, 3.0])
def test_odd_bridge_identity(gamma):
    # direct (index gamma-2) equals 2(gamma-1) times the semi-integrated form
    for n in (5, 11, 21):
        direct = _odd_direct(gamma, n)
        semi = _odd_semi(gamma, n)
        for cd, cs in zip(direct, semi):
            if cs.is_zero():
                assert cd.is_zero()
                continue
            assert (cd / cs).to_float() == pytest.approx(2.0 * (gamma - 1.0), rel=1e-10)


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
    assert th.degree == 0 and th.mu_coeffs[0].to_float() == pytest.approx(2.0, rel=1e-14)


def test_second_order_pair_linear():
    om, th = second_order_pair(0.5, 1)
    assert om.degree == 0 and om.mu_coeffs[0].to_float() == 1.0
    assert th.degree == 0 and th.mu_coeffs[0].to_float() == 1.0


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


def test_stability_constant():
    assert stability_constant(0.5, 2) == pytest.approx(2.0 / 7.0, rel=1e-15)


def test_stability_poly_variable_tag():
    sp = stability_poly(0.0, 4)
    assert sp.variable == "z"
    assert sp.degree == 4
