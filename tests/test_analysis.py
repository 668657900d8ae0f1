import math
from fractions import Fraction

import numpy as np
import pytest

from gegtau.analysis import (
    EquivalenceReport,
    _routh_failure,
    _spectrum_deviation,
    epsilon_integral_check,
    equivalence_suite,
    exact_spectrum,
    hermite_biehler_stability,
    jacobi_quad,
    legendre_infinite_mode,
    legendre_mode_residual,
    perturbation_mu1,
    positive_pair_check,
    suite_appendix_b,
    suite_exact_convergence,
    suite_equivalence,
    suite_perturbation,
    suite_positive_pair,
    suite_theorem_range,
    tan_fixed_point,
)
from gegtau import analysis
from gegtau.charpoly import CharPoly, second_order_pair, stability_poly
from gegtau.gegenbauer import evaluate, rational_ladder
from gegtau.pencil import MethodConfig
from gegtau.spectra import pencil_lambdas, spectrum_report


# ---------------------------------------------------------------------------
# exact spectrum


def test_tan_fixed_point_oracle():
    q1 = tan_fixed_point(1)
    assert q1 == pytest.approx(4.493409457909064, abs=1e-12)
    # residual of h(q) = sin q - q cos q at the returned root
    for k in (1, 2, 3, 7, 15):
        q = tan_fixed_point(k)
        assert k * math.pi < q < (2 * k + 1) * math.pi / 2
        assert abs(math.sin(q) - q * math.cos(q)) <= 1e-13 * (1.0 + q * q)


def test_exact_spectrum_values():
    spec = exact_spectrum(4)
    assert spec.even[0] == pytest.approx(-math.pi**2, rel=1e-15)
    assert spec.even[0] == pytest.approx(-9.8696044, rel=1e-7)
    assert spec.odd[0] == pytest.approx(-4.493409457909064**2, rel=1e-12)


def test_exact_spectrum_interlaces():
    spec = exact_spectrum(6)
    merged = spec.merged()
    vals = [lam for lam, _ in merged]
    pars = [p for _, p in merged]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert pars == ["even", "odd"] * 6
    first4 = vals[:4]
    assert first4[0] == pytest.approx(-math.pi**2)
    assert first4[2] == pytest.approx(-4 * math.pi**2)


def test_exact_spectrum_rejects_zero_count():
    with pytest.raises(ValueError):
        exact_spectrum(0)


# ---------------------------------------------------------------------------
# perturbation law


def test_mu1_even_n6():
    assert perturbation_mu1(6, "even").mu1 == pytest.approx(-0.01, rel=1e-15)


def test_mu1_odd_n6():
    assert perturbation_mu1(6, "odd").mu1 == pytest.approx(-1.0 / 25.0, rel=1e-15)


def test_mu1_odd_degree_substitution():
    # odd n: even mode uses n-1, odd mode uses n+1
    assert perturbation_mu1(13, "even").mu1 == perturbation_mu1(12, "even").mu1
    assert perturbation_mu1(13, "odd").mu1 == perturbation_mu1(14, "odd").mu1


def test_mu1_sign_rule():
    pred = perturbation_mu1(12, "even", epsilon=-1e-3)
    assert pred.mu1 < 0.0
    assert pred.predicted_lambda > 0.0
    assert perturbation_mu1(12, "even", epsilon=1e-3).predicted_lambda < 0.0


def test_mu1_rejects_uncovered_degrees():
    with pytest.raises(ValueError):
        perturbation_mu1(4, "even")
    with pytest.raises(ValueError):
        perturbation_mu1(12, "diagonal")


def test_perturbed_extreme_eigenvalue_matches_prediction():
    eps = 1e-3
    cfg = MethodConfig("tau", 0.5 + eps, 12, parity_split=True)
    lams, _, _ = pencil_lambdas(cfg, "even")
    extreme = lams.real[np.argmax(np.abs(lams.real))]
    pred = perturbation_mu1(12, "even", eps).predicted_lambda
    assert extreme == pytest.approx(pred, rel=0.05)


# ---------------------------------------------------------------------------
# positive pairs and Hermite-Biehler


def _ladder(gamma, n):
    return rational_ladder(Fraction(gamma), n, n)


def test_positive_pair_omega_theta():
    d = _ladder(1, 10)
    assert positive_pair_check(d[::2], d[1::2])


def test_positive_pair_constructed_violation():
    # Omega with a positive root: (mu - 1)(mu + 2) = -2 - mu + mu^2
    assert not positive_pair_check([-2, -1, 1], [Fraction(3, 2), 1])


def test_positive_pair_omega_ladder():
    assert positive_pair_check(_ladder("0.5", 8)[::2], _ladder("1.5", 7)[::2])


def test_positive_pair_rejects_degree_gap():
    with pytest.raises(ValueError):
        positive_pair_check(_ladder("0.5", 8)[::2], _ladder("0.5", 3)[::2])


def test_positive_pair_interlacing_violation_detected():
    # roots -1, -3 vs -4: q root outside the p bracket
    assert not positive_pair_check([3, 4, 1], [4, 1])


def _stable_by_roots(coeffs):
    """Hurwitz verdict from numpy.roots, or None within 1e-6 of the axis."""
    re = np.roots(coeffs[::-1]).real
    return None if np.any(np.abs(re) < 1e-6) else bool(np.all(re < 0.0))


@pytest.mark.parametrize("seed", range(4))
def test_routh_matches_numpy_roots(seed):
    rng = np.random.default_rng(seed)
    compared = stable = 0
    for _ in range(500):
        deg = int(rng.integers(1, 9))
        coeffs = [int(c) for c in rng.integers(-3, 12, size=deg + 1)]
        if coeffs[-1] == 0:
            continue
        verdict = _stable_by_roots(coeffs)
        if verdict is None:
            continue
        assert (_routh_failure(coeffs) is None) == verdict, coeffs
        compared += 1
        stable += verdict
    assert compared >= 400 and 40 <= stable <= compared - 40


@pytest.mark.parametrize("gamma", [Fraction(-2, 5), Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("n", [30, 60, 120])
def test_exact_stability_poly_is_hurwitz(gamma, n):
    # p_n(z) = (G_{n-1}(1) - G_{n+1}(1)) / (2(n+gamma)) + sum_k z^k D^k G_n(1)
    coeffs = _ladder(gamma, n)
    shift = (_ladder(gamma, n - 1)[0] - _ladder(gamma, n + 1)[0]) / (2 * (n + gamma))
    coeffs[0] += shift
    assert _routh_failure(coeffs) is None
    assert stability_poly(gamma, n).mu_coeffs == coeffs


def test_hermite_biehler_on_stability_polys():
    assert hermite_biehler_stability(stability_poly(0.0, 2))
    assert hermite_biehler_stability(stability_poly(0.4, 12))
    for g in (-0.4, 0.0, 0.5):
        for n in (2, 5, 9, 14, 20):
            assert hermite_biehler_stability(stability_poly(g, n))


def test_hermite_biehler_unstable():
    p = CharPoly([-1, 0, 1])
    assert not hermite_biehler_stability(p)


@pytest.mark.parametrize("n", [72, 100])
def test_hermite_biehler_raises_where_float_roots_fail(n):
    # stable by the lemma and by the exact Routh array, but the companion
    # roots of the rounded coefficients leave the left half-plane: the
    # disagreement must raise, not come out as False
    p = stability_poly(0.0, n)
    assert _routh_failure(p.mu_coeffs) is None
    with pytest.raises(RuntimeError, match="disagree"):
        hermite_biehler_stability(p)


# ---------------------------------------------------------------------------
# equivalences


def test_equivalence_chebyshev():
    rep = equivalence_suite(0.0, 16, tol=1e-8)
    assert rep.passed
    assert set(rep.deviations) == {
        "galerkin_vs_tau_shift2",
        "inviscid_vs_tau_shift1",
        "modified_vs_galerkin",
    }


def test_equivalence_remark_check():
    rep = equivalence_suite(1.25, 12, tol=1e-8)
    assert rep.passed
    assert rep.deviations["even4th_vs_odd2nd"] <= 1e-8


def test_equivalence_remark_check_reads_gamma_exactly(monkeypatch):
    # (iv) builds Omega at gamma - 1 from gamma's shortest decimal: float
    # subtraction first would give 1.1 - 1.0 = 0.10000000000000009
    seen = []

    def recording(gamma, n):
        seen.append(gamma)
        return second_order_pair(gamma, n)

    monkeypatch.setattr(analysis, "second_order_pair", recording)
    rep = equivalence_suite(1.1, 8, tol=1e-8)
    assert seen == [Fraction(1, 10)]
    assert rep.passed


def test_equivalence_legendre_counts():
    # both sides produce the same finite spectrum (n - 3 eigenvalues each)
    rep = equivalence_suite(0.5, 12, tol=1e-8)
    assert rep.passed
    lam_m, inf_m, _ = pencil_lambdas(MethodConfig("modified_tau", 0.5, 12))
    lam_g, inf_g, _ = pencil_lambdas(MethodConfig("galerkin", 0.5, 12))
    assert lam_m.size == lam_g.size == 9


def test_equivalence_report_worst():
    rep = EquivalenceReport(1e-8, deviations={"a": 1e-12, "b": 1e-9})
    assert rep.worst() == ("b", 1e-9)
    assert rep.passed


def test_spectrum_deviation_pairs_by_nearest_match():
    # sorted on (Re, Im), -1 pairs with -1-5j and the deviation reads 5.0
    a = np.array([-1.0, -1.0 + 1e-14 + 5j, -1.0 + 1e-14 - 5j])
    b = np.array([-1.0 + 2e-14, -1.0 + 5j, -1.0 - 5j])
    assert _spectrum_deviation(a, b) <= 1e-13
    assert _spectrum_deviation(a, b[:2]) == math.inf
    assert _spectrum_deviation(np.zeros(0), np.zeros(0)) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_spectrum_deviation_matches_optimal_assignment(seed):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    # conjugate pairs and real eigenvalues that share real parts up to
    # rounding, each member perturbed independently by about 1e-10
    re = -rng.uniform(1.0, 10.0, 4)
    pairs = re + 1j * rng.uniform(0.1, 5.0, 4)
    b = np.concatenate([pairs, pairs.conj(), re, -rng.uniform(1.0, 10.0, 3)])
    noise = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
    a = rng.permutation(b * (1.0 + 1e-10 * noise))
    dist = np.abs(a[:, None] - b[None, :]) / np.abs(b)
    rows, cols = linear_sum_assignment(dist)
    assert _spectrum_deviation(a, b) == dist[rows, cols].max() < 1e-9


def _greedy_by_argmin(a, b):
    """Reference pairing: repeated argmin over the whole distance matrix."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.size != b.size:
        return math.inf
    dist = np.abs(a[:, None] - b[None, :]) / np.maximum(np.abs(b), 1e-300)
    picked = []
    for _ in range(a.size):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        picked.append(dist[i, j])
        dist[i, :] = dist[:, j] = np.inf
    return float(np.max(picked, initial=0.0))


@pytest.mark.parametrize("kind", ["ties", "conjugates", "nonfinite"])
def test_spectrum_deviation_matches_argmin_oracle(kind):
    rng = np.random.default_rng(["ties", "conjugates", "nonfinite"].index(kind))
    specials = [np.nan, np.inf, complex(np.inf, 1.0), complex(1.0, np.nan), 0.0]
    for _ in range(300):
        n = int(rng.integers(0, 12))
        if kind == "ties":  # a small integer lattice: many equal distances
            a, b = (rng.integers(-3, 3, (2, n)) + 1j * rng.integers(-2, 2, (2, n))).astype(complex)
        elif kind == "conjugates":
            re = -rng.uniform(1.0, 10.0, n)
            b = re + 1j * rng.choice([0.0, 1.0, -1.0], n) * rng.uniform(0.1, 5.0, n)
            a = rng.permutation(b * (1.0 + 1e-10 * rng.normal(size=n)))
        else:
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            a = b[rng.permutation(n)] + 0.1 * rng.normal(size=n)
            for arr in (a, b) if n else ():
                for pos in rng.integers(0, n, rng.integers(0, 3)):
                    arr[pos] = specials[rng.integers(0, len(specials))]
        with np.errstate(invalid="ignore"):
            want, got = _greedy_by_argmin(a, b), _spectrum_deviation(a, b)
        assert got == want or (math.isnan(got) and math.isnan(want)), (a, b)


# ---------------------------------------------------------------------------
# endpoint-weight integrals


def test_epsilon_integral_even():
    rep = epsilon_integral_check(6, 1e-4)
    assert rep.passed
    quad, pred, dev = rep.checks["main"]
    assert pred == pytest.approx(-4e-4 / 42.0, rel=1e-12)
    assert dev <= 50 * 1e-4


def test_epsilon_integral_odd_vanishes():
    rep = epsilon_integral_check(7, 1e-4)
    assert rep.passed
    assert rep.checks["vanishing"][0] == pytest.approx(0.0, abs=1e-13)


def test_epsilon_integral_zero_epsilon():
    rep = epsilon_integral_check(6, 0.0)
    assert rep.passed


def test_epsilon_integral_rejects_large_epsilon():
    with pytest.raises(ValueError):
        epsilon_integral_check(6, 0.01)


def test_jacobi_quad_polynomial_exactness():
    # int (1-x^2)^e * x^2 dx for e = 0 is 2/3
    assert jacobi_quad(0.0, lambda x: x * x, 6) == pytest.approx(2.0 / 3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# Legendre mu = 0 modes


def test_legendre_infinite_mode_parity():
    # the (1-x^2)^2 G_(n-4) mode has the parity of n, its partner the other
    for n in (8, 9, 12, 15):
        u4 = legendre_infinite_mode(n, 4)
        u5 = legendre_infinite_mode(n, 5)
        idx4 = np.nonzero(np.abs(u4) > 1e-12 * np.max(np.abs(u4)))[0]
        idx5 = np.nonzero(np.abs(u5) > 1e-12 * np.max(np.abs(u5)))[0]
        assert np.all(idx4 % 2 == n % 2)
        assert np.all(idx5 % 2 == (n - 1) % 2)


def test_legendre_infinite_mode_matches_unit_vector_oracle():
    # the same construction with G_m^{(5/2)} read through a unit vector
    from gegtau.gegenbauer import deriv_matrix, mult_x_array

    for n in range(5, 65):
        for which in (4, 5):
            m = n - which
            unit = np.zeros(m + 3)
            unit[m + 2] = 1.0
            d = deriv_matrix(0.5, m + 3)
            g = (d @ d @ unit)[: m + 1] / 15.0
            x2 = mult_x_array(mult_x_array(g, 0.5), 0.5)
            x4 = mult_x_array(mult_x_array(x2, 0.5), 0.5)
            want = np.zeros(n + 1)
            want[: m + 1] += g
            want[: m + 3] -= 2.0 * x2
            want[: m + 5] += x4
            assert legendre_infinite_mode(n, which).tobytes() == want.tobytes(), (n, which)


def test_legendre_infinite_mode_satisfies_bcs_pointwise():
    n = 10
    u = legendre_infinite_mode(n, 4)
    for x in (1.0, -1.0):
        val = sum(u[k] * evaluate(0.5, k, x) for k in range(u.size))
        assert val == pytest.approx(0.0, abs=1e-12)


def test_legendre_mode_residual_small():
    for n in (8, 16, 24, 32):
        assert legendre_mode_residual(n) <= 1e-10


def test_legendre_two_near_infinite_via_report():
    rep = spectrum_report(MethodConfig("tau", 0.5, 12, parity_split=True))
    assert rep.n_infinite == 2
    pars = [p for p, c in zip(rep.parities, rep.classes) if c == "near_infinite"]
    assert sorted(pars) == ["even", "odd"]


# ---------------------------------------------------------------------------
# suites (fast configurations)


def test_suite_theorem_range_small():
    res = suite_theorem_range(gammas=(1.0, 3.5), n_lo=8, n_hi=16)
    assert res.passed, res.counterexample


def test_suite_theorem_range_detects_spurious():
    res = suite_theorem_range(gammas=(0.0,), n_lo=8, n_hi=9)
    assert not res.passed
    assert "spurious" in res.counterexample


def test_suite_equivalence_small():
    res = suite_equivalence(gammas=(0.0, 2.0), n_lo=8, n_hi=12)
    assert res.passed, res.counterexample


def test_suite_perturbation():
    res = suite_perturbation()
    assert res.passed, res.counterexample


def test_suite_positive_pair_small():
    res = suite_positive_pair(gammas=(0.0, 1.5), n_hi=10)
    assert res.passed, res.counterexample


def test_suite_appendix_b():
    res = suite_appendix_b()
    assert res.passed, res.counterexample


def test_suite_exact_convergence():
    res = suite_exact_convergence(gamma=2.0, n=40)
    assert res.passed, res.counterexample
