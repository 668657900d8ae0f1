import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from gegtau.analysis import (
    EquivalenceReport,
    _routh_failure,
    _spectrum_deviation,
    epsilon_integral_check,
    equivalence_suite,
    exact_spectrum,
    jacobi_quad,
    jacobi_rule,
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
from gegtau import analysis, cli, gegenbauer, pencil, spectra
from gegtau.charpoly import second_order_pair, stability_poly
from gegtau.eig import poly_roots
from gegtau.gegenbauer import evaluate, exact_gamma, rational_ladder
from gegtau.pencil import KINDS, MethodConfig, SingularReductionError
from gegtau.spectra import PARITIES, ladder_degree, pencil_lambdas, single_parity_report, spectrum_report


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
    merged = sorted([(lam, "even") for lam in spec.even] + [(lam, "odd") for lam in spec.odd], key=lambda t: -t[0])
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
    assert perturbation_mu1(6, "even", 1e-3).mu1 == pytest.approx(-0.01, rel=1e-15)


def test_mu1_odd_n6():
    assert perturbation_mu1(6, "odd", 1e-3).mu1 == pytest.approx(-1.0 / 25.0, rel=1e-15)


def test_mu1_odd_degree_substitution():
    # odd n: even mode uses n-1, odd mode uses n+1
    assert perturbation_mu1(13, "even", 1e-3).mu1 == perturbation_mu1(12, "even", 1e-3).mu1
    assert perturbation_mu1(13, "odd", 1e-3).mu1 == perturbation_mu1(14, "odd", 1e-3).mu1


def test_mu1_sign_rule():
    pred = perturbation_mu1(12, "even", epsilon=-1e-3)
    assert pred.mu1 < 0.0
    assert pred.predicted_lambda > 0.0
    assert perturbation_mu1(12, "even", epsilon=1e-3).predicted_lambda < 0.0


def test_mu1_rejects_uncovered_degrees():
    with pytest.raises(ValueError):
        perturbation_mu1(4, "even", 1e-3)
    with pytest.raises(ValueError):
        perturbation_mu1(12, "diagonal", 1e-3)
    with pytest.raises(ValueError, match="nonzero"):  # not ZeroDivisionError
        perturbation_mu1(12, "even", 0.0)


def test_perturbed_extreme_eigenvalue_matches_prediction():
    eps = 1e-3
    cfg = MethodConfig("tau", 0.5 + eps, 12)
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


# the theorem-range gammas, the sharp edge past 7/2, and gammas outside the
# class on both sides
VERDICT_GAMMAS = (-0.3, 0.0, 0.3, 0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.51, 3.6, 4.0, 5.0)


def _verdicts(gamma, n):
    """The exact positive-pair verdict of a tau configuration, the pencil's
    theorem verdict, and the pencil's report."""
    # By Hermite-Biehler, (p_n, -p_o) is a positive pair exactly when the two
    # ladders' mu roots are real, negative and simple and interlace, and
    # mu = 1/lambda keeps their order on (-inf, 0): p_n is the polynomial of
    # the ladder whose degree is n, p_o the other ladder's.  The pencil's
    # verdict is the theorem's: no spurious, no complex, no near-infinite
    # eigenvalue, distinct, interlaced.
    rep = spectrum_report(MethodConfig("tau", gamma, n))
    pencil_verdict = (
        rep.count("spurious_positive") == rep.count("complex_pair") == rep.n_infinite == 0
        and rep.distinct
        and rep.interlaced is True
    )
    own, other = ("even", "odd") if n % 2 == 0 else ("odd", "even")
    p_n = spectra.charpoly_for(gamma, n, own).mu_coeffs
    p_o = spectra.charpoly_for(gamma, n, other).mu_coeffs
    return positive_pair_check(p_n, [-c for c in p_o]), pencil_verdict, rep


def test_exact_pair_verdict_matches_pencil_verdict():
    verdicts = []
    for gamma in VERDICT_GAMMAS:
        for n in range(8, 49):
            exact, pencil_verdict, _ = _verdicts(gamma, n)
            assert exact == pencil_verdict, (gamma, n)
            verdicts.append(exact)
    # every n at the 7 gammas in (1/2, 7/2], and 27 low-n points at 3.51, 3.6 and 4
    assert len(verdicts) == 574 and sum(verdicts) == 7 * 41 + 27
    # past the float routes' certain range: (gamma, n, verdict, spurious, complex)
    for gamma, n, passes, spurious, complex_ in (
        (1.0, 96, True, 0, 0),
        (5.0, 96, False, 0, 40),
        (0.3, 96, False, 2, 0),
        (2.5, 97, True, 0, 0),
    ):
        exact, pencil_verdict, rep = _verdicts(gamma, n)
        assert exact == pencil_verdict == passes, (gamma, n)
        assert (rep.count("spurious_positive"), rep.count("complex_pair")) == (spurious, complex_), (gamma, n)


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


def test_hermite_biehler_unstable():
    # z^2 - 1 has the root +1: the Routh array fails
    assert _routh_failure([-1, 0, 1]) is not None


# ---------------------------------------------------------------------------
# equivalences


def test_equivalence_chebyshev():
    rep = equivalence_suite(0.0, 16, tol=1e-8)
    assert rep.passed
    assert set(rep.deviations) == {"modified_vs_galerkin"}


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
    sizes = {
        kind: sum(pencil_lambdas(MethodConfig(kind, 0.5, 12), parity)[0].size for parity in ("even", "odd"))
        for kind in ("modified_tau", "galerkin")
    }
    assert sizes == {"modified_tau": 9, "galerkin": 9}


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


# singular (-0.95), Chebyshev (-0.5), Legendre (0) and smooth weights, and
# near-Legendre ones (-1e-4, 1e-5) like the appendixB suite's
RULE_EXPONENTS = [-0.95, -0.5, -1e-4, 0.0, 1e-5, 0.5, 2.5, 4.5]


@pytest.mark.parametrize("exponent", RULE_EXPONENTS)
def test_jacobi_rule_matches_scipy(exponent):
    for npts in range(1, 65):
        x, w = jacobi_rule(exponent, npts)
        xs, ws = roots_jacobi(npts, exponent, exponent)
        assert_allclose(x, xs, rtol=0, atol=1e-14, err_msg=f"nodes, npts {npts}")
        assert_allclose(w, ws, rtol=1e-9, atol=0, err_msg=f"weights, npts {npts}")


@pytest.mark.parametrize("exponent", RULE_EXPONENTS)
def test_jacobi_rule_integrates_even_moments_exactly(exponent):
    # int x^(2k) (1-x^2)^a dx = Gamma(k+1/2) Gamma(a+1) / Gamma(k+a+3/2).  The
    # eigensolver places a node near +-1 to a few ulps, and x^(2k) multiplies
    # that by 2k, so the bound grows with the degree past 1e-13 (at 2k = 23)
    for npts in range(1, 65):
        x, w = jacobi_rule(exponent, npts)
        for k in range(npts):  # 2k <= 2 npts - 1
            exact = math.gamma(k + 0.5) * math.gamma(exponent + 1.0) / math.gamma(k + exponent + 1.5)
            got = np.sum(w * x ** (2 * k))
            assert got == pytest.approx(exact, rel=max(1e-13, 4e-15 * (2 * k + 2))), (npts, k)


# int P_m (1-x^2)^eps dx and the two perturbed entries of suite_appendix_b,
# from a 40-digit mpmath evaluation of the exact monomial expansion (each
# x^(2j) integrates to B(j+1/2, eps+1)), eps taken at its double value
APPENDIX_B_REFERENCE = {
    "n=6,eps=0.0001,main": -9.520509067930876475686403e-06,
    "n=6,eps=0.0001,entry_even": -4.79871360124780233850219e-04,
    "n=6,eps=0.0001,entry_odd": -3.199462347066574883171776e-04,
    "n=6,eps=1e-05,main": -9.523479426115026413664664e-07,
    "n=6,eps=1e-05,entry_even": -4.799871343929066563460929e-05,
    "n=6,eps=1e-05,entry_odd": -3.199946228748331858961826e-05,
    "n=10,eps=0.0001,main": -3.63474455779361032407471e-06,
    "n=10,eps=0.0001,entry_even": -1.865916111852722358117523e-03,
    "n=10,eps=0.0001,entry_odd": -1.492782648903808013430184e-03,
    "n=10,eps=1e-05,main": -3.636201695967692609461664e-07,
    "n=10,eps=1e-05,entry_even": -1.866591597530658936018089e-04,
    "n=10,eps=1e-05,entry_odd": -1.49327825561871254452336e-04,
}


def test_appendix_b_integrals_match_extended_precision():
    res = suite_appendix_b()
    assert res.passed
    assert res.data.keys() == APPENDIX_B_REFERENCE.keys()
    for key, ref in APPENDIX_B_REFERENCE.items():
        assert res.data[key][0] == pytest.approx(ref, rel=2e-9), key


@pytest.mark.parametrize("npts", [0, -3, 2.5, 4.0, "4", None])
def test_jacobi_quad_rejects_npts_that_is_not_a_positive_integer(npts):
    with pytest.raises(ValueError, match="npts"):
        jacobi_quad(0.0, np.ones_like, npts)


@pytest.mark.parametrize("exponent", [-1.0, -1.5, -np.inf, np.inf, np.nan])
def test_jacobi_quad_rejects_exponent_outside_the_weight_range(exponent):
    with pytest.raises(ValueError, match="exponent"):
        jacobi_quad(exponent, np.ones_like, 4)


@pytest.mark.parametrize("exponent", [1e3 * (1.0 + 2.0**-52), 1e6, 1e160])
def test_jacobi_rule_rejects_exponent_above_its_accuracy_bound(exponent):
    # mu0's lgamma difference cancels: the weight sum is off by 1.7e-9 at
    # 1e6, and at 1e160 the Jacobi matrix overflows
    with pytest.raises(ValueError, match="exponent"):
        jacobi_rule(exponent, 3)


@pytest.mark.parametrize("exponent", [-1.0 + 1e-12, -0.5, 0.0, 1e3])
@pytest.mark.parametrize("npts", [1, 2, np.int64(64)])
def test_jacobi_rule_is_warning_free_near_its_edges(exponent, npts):
    # -0.5 is lambda = 0, where b_1^2's general formula reads 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, w = jacobi_rule(exponent, npts)
    mu0 = math.exp(math.lgamma(0.5) + math.lgamma(exponent + 1.0) - math.lgamma(exponent + 1.5))
    assert x.shape == w.shape == (npts,)
    assert np.all(np.abs(x) <= 1.0) and np.all(w > 0.0)
    assert np.sum(w) == pytest.approx(mu0, rel=1e-13)


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


def test_legendre_infinite_mode_vanishes_on_other_ladder():
    # legendre_mode_residual checks each mode on its own ladder only
    for n in range(5, 121):
        for which in (4, 5):
            u = legendre_infinite_mode(n, which)
            assert not np.any(u[1 - (n - which) % 2 :: 2]), (n, which)


def test_legendre_mode_residual_small():
    for n in range(8, 121):
        assert legendre_mode_residual(n) <= 1e-10, n


def test_legendre_two_near_infinite_via_report():
    rep = spectrum_report(MethodConfig("tau", 0.5, 12))
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


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        (suite_theorem_range, {"n_hi": 160}),
        (suite_exact_convergence, {"n": 160}),
        # from n 44 check (iv) roots Omega with float companion matrices,
        # which give complex pairs where the exact roots are real: a false
        # counterexample (ROADMAP item 23), so equivalence stops at n 43
        (suite_equivalence, {"n_hi": 43}),
    ],
    ids=["theorem_range", "exact_convergence", "equivalence"],
)
def test_suite_passes_at_high_n(suite, kwargs):
    res = suite(**kwargs)
    assert res.passed, res.counterexample


def test_suite_stops_at_its_first_counterexample(monkeypatch):
    # the 3rd check's prediction is off by a factor 2: its counterexample
    # ends the suite, and no later check runs or records data
    checks = []
    mu1 = analysis.perturbation_mu1

    def predicted(n, parity, eps):
        checks.append((n, parity, eps))
        pred = mu1(n, parity, eps)
        return pred if len(checks) != 3 else analysis.PerturbationPrediction(pred.mu1, 2.0 * pred.predicted_lambda)

    monkeypatch.setattr(analysis, "perturbation_mu1", predicted)
    res = suite_perturbation()
    assert not res.passed and res.details == []
    assert res.counterexample.startswith("eps=0.001 n=16 even: extreme ")
    assert list(res.data) == ["eps=0.001,n=12,even", "eps=0.001,n=12,odd", "eps=0.001,n=16,even"]
    assert checks == [(12, "even", 1e-3), (12, "odd", 1e-3), (16, "even", 1e-3)]
    res = suite_positive_pair(gammas=(1.0,), n_hi=8)
    assert res.passed and res.counterexample is None and res.details == ["all positive-pair checks hold"]


def test_suite_raises_an_error_in_its_checks_turn(monkeypatch):
    # the odd ladder at n 8 has 2 finite eigenvalues: its error is raised
    # after the even ladder's three checks have run and recorded their data
    recorded = []
    verdict = analysis._verdict

    def recording(name, failures, summary, data):
        recorded.append(data)
        return verdict(name, failures, summary, data)

    monkeypatch.setattr(analysis, "_verdict", recording)
    with pytest.raises(ValueError, match="the odd ladder at n=8 has 2 finite eigenvalues, fewer than 3"):
        suite_exact_convergence(n=8, tol=10.0)
    assert list(recorded[0]) == ["even[1]", "even[2]", "even[3]"]


# ---------------------------------------------------------------------------
# solves and endpoint columns shared across ladders


def _counting(monkeypatch, name):
    """Replace spectra's ``name`` by a wrapper that records each call."""
    calls = []
    original = getattr(spectra, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spectra, name, counted)
    return calls


def _solved(result):
    lams, n_inf, m = result
    return lams.tobytes(), n_inf, m.shape, m.tobytes()


def _eliminations(monkeypatch):
    """Record each boundary-row elimination: one per ladder reduced, alone
    or in a stack (one call that eliminates its ``c.shape[0]`` ladders)."""
    calls = []
    eliminate = pencil._nullspace_by_elimination
    monkeypatch.setattr(
        pencil, "_nullspace_by_elimination", lambda c: calls.extend(c if c.ndim == 3 else [c]) or eliminate(c)
    )
    return calls


def _distinct_ladders(configs) -> int:
    """How many of the ladders of ``configs`` differ in a block's shape or bytes."""
    pencils = [spectra.assemble(c, parity) for c in configs for parity in PARITIES]
    return len({(p.A.shape, p.C.shape, b"".join((p.A, p.B, p.C))) for p in pencils})


def _solve_alone(monkeypatch):
    """Solve each configuration in a window of its own, so that no ladder is
    kept once for two configurations or stacked with another's, and evaluate
    every endpoint column, and every running sum behind it, afresh."""
    monkeypatch.setattr(spectra, "_GRID_WINDOW", 1)
    monkeypatch.setattr(gegenbauer, "_table", lambda gamma: ([0.0], {}))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("kind", KINDS)
def test_shared_ladders_match_unshared_solves(monkeypatch, capsys, cold_pencil_caches, kind, alpha):
    # a step-1 sweep: two adjacent degrees share each ladder, which the
    # grid eliminates once; collocation's nodes move with n
    configs = [MethodConfig(kind, g, n, alpha=alpha) for g in (0.3, 1.25) for n in range(8, 21)]
    distinct = _distinct_ladders(configs)
    if kind == "collocation":
        assert distinct == 2 * len(configs)
    else:
        assert distinct <= 0.6 * 2 * len(configs)
    method = {name: k for k, name in cli.METHOD_NAMES.items()}[kind]
    eliminations = _eliminations(monkeypatch)
    argv = ["sweep", "--method", method, "--gamma-range", "0.3:1.25:0.95", "--n-range", "8:20:1", "--alpha", str(alpha)]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + len(configs)
    assert len(eliminations) == distinct
    # and the grid's solves equal the one-ladder solves byte for byte
    alone = [_solved(pencil_lambdas(c, parity)) for c in configs for parity in PARITIES]
    assert [_solved(solve) for solve in pencil_lambdas(configs, PARITIES)] == alone


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        (suite_theorem_range, {"gammas": (0.6, 3.5), "n_lo": 8, "n_hi": 20}),
        (suite_theorem_range, {"gammas": (3.6,), "n_lo": 8, "n_hi": 20}),
        (suite_equivalence, {"gammas": (0.0, 1.25), "n_lo": 8, "n_hi": 14}),
        (suite_equivalence, {"gammas": (0.5, 2.0), "n_lo": 8, "n_hi": 12, "tol": 1e-14}),
    ],
)
def test_suites_identical_with_and_without_shared_ladders(monkeypatch, cold_pencil_caches, suite, kwargs):
    cold, warm = suite(**kwargs), suite(**kwargs)
    _solve_alone(monkeypatch)
    alone = suite(**kwargs)
    assert repr(vars(cold)) == repr(vars(warm)) == repr(vars(alone))


@pytest.mark.parametrize("alpha", ["0", "0.5"])
@pytest.mark.parametrize("method", sorted(cli.METHOD_NAMES))
def test_sweep_output_identical_with_and_without_shared_ladders(
    monkeypatch, capsys, cold_pencil_caches, method, alpha
):
    argv = ["sweep", "--method", method, "--gamma-range", "0.3:1.3:0.5", "--n-range", "8:20:1", "--alpha", alpha]
    outputs = []
    for alone in (False, False, True):  # cold, warm, then each configuration alone
        if alone:
            _solve_alone(monkeypatch)
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]


def test_default_suites_solve_each_shared_ladder_once(monkeypatch, cold_pencil_caches):
    assembles = _counting(monkeypatch, "assemble")
    reduces = _counting(monkeypatch, "reduce_to_standard")
    eliminations = _eliminations(monkeypatch)
    # each suite's grid is one window: one stacked reduction per ladder
    # shape.  Equivalence's tau ladders at gamma 2 are its Galerkin ladders
    # at gamma 0; perturbation's ladders at eps 1e-3 and -1e-3 share their
    # four shapes
    rows = (
        (suite_theorem_range, 574, 298, 22),
        (suite_equivalence, 340, 162, 20),
        (suite_perturbation, 8, 8, 4),
        (suite_exact_convergence, 2, 2, 2),
    )
    for suite, ladders, distinct, calls in rows:
        assembles.clear()
        reduces.clear()
        eliminations.clear()
        assert suite().passed
        assert len(assembles) == ladders, suite.__name__
        assert len(eliminations) == distinct, suite.__name__
        assert len(reduces) == calls, suite.__name__


def test_one_elimination_pass_per_boundary_row_count(monkeypatch, capsys, cold_pencil_caches):
    # a sweep row's 18 ladders have two boundary rows each and 18 widths:
    # one elimination pass, zero-padded to 21 columns, where a pass per
    # block shape made 18; a spectrum's two ladders make one, not 2.
    # Modified tau's two ladders have 14 and 13 rows: each keeps its loop
    calls = []
    eliminate = pencil._nullspace_by_elimination
    monkeypatch.setattr(pencil, "_nullspace_by_elimination", lambda c: calls.append(c.shape) or eliminate(c))
    for argv, want in (
        (["sweep", "--method", "tau", "--gamma-range", "1:1:1", "--n-range", "8:40:4"], [(18, 2, 21)]),
        (["spectrum", "--method", "tau", "--gamma", "1", "--n", "24"], [(2, 2, 13)]),
        (["spectrum", "--method", "modified", "--gamma", "1", "--n", "24"], [(14, 26), (13, 24)]),
    ):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == want, argv
    capsys.readouterr()


def _pairs(report) -> dict:
    """Each ladder's M, eigenvalues and eigenvectors, as dtype, strides and bytes."""
    return {
        parity: [(a.dtype, a.shape, a.strides, a.tobytes()) for a in pair] for parity, pair in report.eigenpairs.items()
    }


def test_grid_reports_equal_per_configuration_reports():
    configs = [MethodConfig("tau", g, n) for g in analysis.THEOREM_GAMMAS for n in range(8, 49)]
    grid = [repr(vars(report)) for report in spectrum_report(configs)]
    assert grid == [repr(vars(spectrum_report(config))) for config in configs]
    # with vectors, too: at odd n a configuration's two ladders are one
    # stack, and at gamma 4.5 one of them has complex eigenvalues, which
    # makes the stack's eigenvectors complex; each ladder's are as its own
    configs = [MethodConfig(kind, g, n) for kind in KINDS for g in (0.0, 1.0, 4.5) for n in (12, 13, 33, 47)]
    grid = [(repr(vars(report)), _pairs(report)) for report in spectrum_report(configs, vectors=True)]
    alone = []
    for config in configs:
        report = spectrum_report(config, vectors=True)
        alone.append((repr(vars(report)), _pairs(report)))
        for parity in PARITIES:  # one ladder alone, and in its own stack
            m, mu, v = single_parity_report(config, parity).eigenpairs[parity]
            assert _pairs(report)[parity] == [(a.dtype, a.shape, a.strides, a.tobytes()) for a in (m, mu, v)]
    assert grid == alone
    assert {v[0] for _, pairs in alone for _, _, v in pairs.values()} == {np.dtype(float), np.dtype(complex)}


def test_grid_solves_a_large_grid_in_windows(monkeypatch):
    # a window assembles all its ladders, then solves them
    events = []
    assemble, solve_alike = spectra.assemble, spectra._solve_alike
    monkeypatch.setattr(spectra, "assemble", lambda config, parity: events.append("a") or assemble(config, parity))
    monkeypatch.setattr(spectra, "_solve_alike", lambda ladders, vectors: events.append("s") or solve_alike(ladders, vectors))
    configs = [MethodConfig("tau", 1.0, n) for n in range(8, 101)]
    assert sum((n + 1) ** 2 for n in range(8, 101)) > spectra._GRID_WINDOW
    grid = [repr(vars(report)) for report in spectrum_report(configs)]
    windows = [len(run) // 2 for run in "".join(events).split("s") if run]
    assert len(windows) == 2 and sum(windows) == len(configs)
    assert grid == [repr(vars(spectrum_report(config))) for config in configs]


def test_grid_deviations_equal_equivalence_suite():
    points = [(g, n) for g in (0.0, 0.5, 1.25, 2.0) for n in range(8, 25)]
    reports = analysis._equivalence_reports(points, 1e-8)
    for (g, n), report in zip(points, reports):
        # each deviation from one-ladder solves of its configurations
        configs = analysis._equivalence_configs(g, n)
        alone = [np.concatenate([pencil_lambdas(c, parity)[0] for parity in PARITIES]) for c in configs]
        want = {"modified_vs_galerkin": _spectrum_deviation(alone[1], alone[0])}
        if g > 0.5:
            om, _ = second_order_pair(exact_gamma(g) - 1, ladder_degree(n, "even") - 1)
            mus = poly_roots(om.normalized_coeffs()).roots
            lam_even = pencil_lambdas(MethodConfig("tau", g, n), "even")[0]
            want["even4th_vs_odd2nd"] = _spectrum_deviation(lam_even, 1.0 / mus[np.abs(mus) > 0.0])
        assert repr(report.deviations) == repr(want), (g, n)
        assert repr(equivalence_suite(g, n, 1e-8).deviations) == repr(want), (g, n)
        # the ladders' eigenvalues are the reports' finite eigenvalues
        finite = [spectrum_report(c).finite_eigenvalues() for c in configs]
        assert repr(want["modified_vs_galerkin"]) == repr(_spectrum_deviation(finite[1], finite[0])), (g, n)
    assert next(reports, None) is None


def test_grid_solves_empty_ladders():
    # the odd ladder at n 4 reduces to a 0 x 0 M, in a stack of every gamma
    configs = [MethodConfig("tau", g, n) for g in analysis.THEOREM_GAMMAS for n in (4, 5, 6)]
    grid = [repr(vars(report)) for report in spectrum_report(configs)]
    assert grid == [repr(vars(spectrum_report(config))) for config in configs]
    grid = [_pairs(report) for report in spectrum_report(configs, vectors=True)]
    assert grid == [_pairs(spectrum_report(config, vectors=True)) for config in configs]
    assert suite_theorem_range(n_lo=4, n_hi=6).passed


@pytest.mark.parametrize("suite", [suite_theorem_range, suite_equivalence])
def test_grid_raises_an_error_in_its_configurations_turn(suite):
    # gamma 5000 overflows float64 from degree 136, and n 134 fails first
    res = suite(gammas=(5000.0,), n_lo=134, n_hi=137)
    assert not res.passed and res.counterexample.startswith("gamma=5000.0 n=134: ")
    with pytest.raises(SingularReductionError, match="overflows float64 at gamma 500[02].0, degree j=136"):
        suite(gammas=(5000.0,), n_lo=136, n_hi=137)
    # an invalid gamma is refused in its turn, after the first gamma's verdict
    res = suite(gammas=(5000.0, -1.0), n_lo=134, n_hi=134)
    assert not res.passed and res.counterexample.startswith("gamma=5000.0 n=134: ")
    with pytest.raises(ValueError, match="gamma must be a finite real"):
        suite(gammas=(1.0, -1.0), n_lo=8, n_hi=9)


def test_grid_gives_a_failing_ladder_its_own_error(monkeypatch, cold_pencil_caches):
    stacks = []
    reduce = spectra.reduce_to_standard
    monkeypatch.setattr(spectra, "reduce_to_standard", lambda p, t: stacks.append(p.A.ndim == 3) or reduce(p, t))
    # alpha 1e77 overflows the reduced rows of one collocation ladder in each
    # stack: the other ladders' reports stand, and it gets its own error
    solved = [MethodConfig("collocation", g, 16) for g in (1.0, 1.25)]
    reports = spectrum_report(solved + [MethodConfig("collocation", 1.0, 16, alpha=1e77)])
    for config in solved:
        assert repr(vars(next(reports))) == repr(vars(spectrum_report(config)))
    with pytest.raises(SingularReductionError, match="a reduced row overflows float64"):
        next(reports)
    assert stacks[:8] == [True, False, False, False] * 2
    # a stack that fails for any reason is solved again one ladder at a time
    solve = np.linalg.solve

    def no_stacks(a, b):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    configs = [MethodConfig("tau", g, n) for g in (1.0, 2.0) for n in (12, 13)]
    want = [repr(vars(spectrum_report(config))) for config in configs]
    monkeypatch.setattr(np.linalg, "solve", no_stacks)
    assert [repr(vars(report)) for report in spectrum_report(configs)] == want


def test_grid_window_ends_at_its_first_failing_ladder(monkeypatch, cold_pencil_caches):
    # alpha 1e160 overflows (D^2 - a^2)^2 in the third configuration's
    # assembly: the four ladders before it are yielded first, then its
    # error, and no ladder after it is assembled
    points = ((1.0, 12, 0.0), (1.0, 13, 0.0), (1.0, 12, 1e160), (2.0, 12, 0.0), (2.0, 13, 0.0))
    configs = [MethodConfig("tau", g, n, alpha=alpha) for g, n, alpha in points]
    alone = [_solved(pencil_lambdas(config, parity)) for config in configs[:2] for parity in PARITIES]
    assembles = _counting(monkeypatch, "assemble")
    grid = pencil_lambdas(configs, PARITIES)
    assert [_solved(next(grid)) for _ in alone] == alone
    with pytest.raises(SingularReductionError, match="overflows float64 at alpha 1e"):
        next(grid)
    assert len(assembles) == 5


def test_grid_solves_a_stack_again_when_its_elimination_raises(monkeypatch, cold_pencil_caches):
    # at alpha 1e6 modified tau's coupling rows fail the elimination's
    # dependence test, so each parity's stack of the three configurations
    # (one shape) raises, and its ladders are eliminated again one by one
    configs = [MethodConfig("modified_tau", 1.0, 16, alpha=alpha) for alpha in (1e4, 1e5, 1e6)]
    alone = [_solved(pencil_lambdas(config, parity)) for config in configs[:2] for parity in PARITIES]
    shapes = []
    eliminate = pencil._nullspace_by_elimination
    monkeypatch.setattr(pencil, "_nullspace_by_elimination", lambda c: shapes.append(c.shape) or eliminate(c))
    grid = pencil_lambdas(configs, PARITIES)
    assert [_solved(next(grid)) for _ in alone] == alone
    with pytest.raises(SingularReductionError, match="lambda-independent rows are linearly dependent"):
        next(grid)
    assert shapes == [(3, 10, 18), *[(10, 18)] * 3, (3, 9, 16), *[(9, 16)] * 3]


def test_shared_ladder_is_solved_again_when_its_blocks_differ(monkeypatch, cold_pencil_caches):
    # one ladder, five times in a grid: the second to fourth each have one
    # block's largest entry nudged by one ulp, so they are solved apart from the first and
    # from each other, and the fifth is the first again
    config = MethodConfig("tau", 1.25, 16)
    assemble = spectra.assemble
    plan = []  # the block to nudge in each next ladder assembled, or None

    def nudged(config, parity):
        p = assemble(config, parity)
        name = plan.pop(0) if plan else None
        if name:  # the block's largest entry
            block = getattr(p, name)
            at = np.unravel_index(np.abs(block).argmax(), block.shape)
            block[at] = np.nextafter(block[at], np.inf)
        return p

    monkeypatch.setattr(spectra, "assemble", nudged)
    eliminations = _eliminations(monkeypatch)
    nudges = [None, "A", "B", "C", None]
    plan[:] = nudges
    grid = [_solved(solve) for solve in pencil_lambdas([config] * 5, ("even",))]
    assert len(eliminations) == 4 and len(set(grid)) == 4 and grid[4] == grid[0]
    # each equals its blocks' own solve
    for name, solve in zip(nudges, grid):
        plan[:] = [name]
        assert _solved(pencil_lambdas(config, "even")) == solve, name


def test_endpoint_tables_keep_the_last_8_gammas(monkeypatch, cold_pencil_caches):
    reduces = _counting(monkeypatch, "reduce_to_standard")
    # inviscid Galerkin at 0.75 is tau at 1.75: one ladder, solved once, and
    # one endpoint table holding the degrees asked for (the odd ones 1..11)
    # and the running sums log G_1(1)..log G_11(1)
    configs = [MethodConfig("inviscid_galerkin", 0.75, 12), MethodConfig("tau", 1.75, 12)]
    first, second = pencil_lambdas(configs, ("odd",))
    assert len(reduces) == 1 and _solved(first) == _solved(second)
    logs, pairs = gegenbauer._table(1.75)
    assert list(pairs) == list(range(1, 12, 2)) and len(logs) == 11
    # the endpoint tables drop the least recently used gamma past 8
    kept = gegenbauer._TABLE_GAMMAS
    assert kept == 8
    gammas = [0.5 + k for k in range(kept)]
    for gamma in gammas:
        pencil_lambdas(MethodConfig("tau", gamma, 12), "even")
    for gamma in gammas:
        assert list(gegenbauer._table(gamma)[1]) == list(range(0, 13, 2))
    assert gegenbauer._table.cache_info().currsize == kept
    assert gegenbauer._table(1.75) == ([0.0], {})  # dropped: a fresh table


@pytest.mark.parametrize("gamma", [1.0, 3.5])
def test_failed_ladder_is_not_shared(cold_pencil_caches, gamma):
    # the reduced rows (and at gamma 3.5 the collocation rows themselves)
    # overflow float64, without a numpy warning: exit 3 from the CLI.  The
    # ladder raises at every call, and in a grid in its turn, after the
    # ladder of the same shape that it was stacked with
    config = MethodConfig("collocation", gamma, 16, alpha=1e77)
    for _ in range(2):
        with pytest.raises(SingularReductionError):
            pencil_lambdas(config, "even")
    solved = MethodConfig("collocation", gamma, 16)
    solves = pencil_lambdas([solved, config, solved], ("even",))
    assert _solved(next(solves)) == _solved(pencil_lambdas(solved, "even"))
    with pytest.raises(SingularReductionError):
        next(solves)
