"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them).  Tolerances are fixed here and mirror the package defaults.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gegtau.analysis import (
    _routh_failure,
    epsilon_integral_check,
    equivalence_suite,
    exact_spectrum,
    legendre_mode_residual,
    perturbation_mu1,
)
from gegtau.charpoly import even_charpoly, odd_charpoly, stability_poly
from gegtau.eig import poly_roots
from gegtau.pencil import MethodConfig
from gegtau.spectra import charpoly_lambdas, pencil_lambdas, spectrum_report

THEOREM_GAMMAS = (0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def sorted_c(z):
    return np.array(sorted(np.asarray(z, dtype=complex), key=lambda w: (w.real, w.imag)))


def spectrum_dev(a, b):
    sa, sb = sorted_c(a), sorted_c(b)
    assert sa.size == sb.size, f"spectrum sizes differ: {sa.size} vs {sb.size}"
    if sa.size == 0:
        return 0.0
    return float(np.max(np.abs(sa - sb) / np.maximum(np.abs(sb), 1e-300)))


def test_01_exact_spectrum_convergence():
    with criterion(1, "exact-spectrum convergence (gamma=2, n=48)"):
        t0 = time.time()
        exact = exact_spectrum(3)
        cfg = MethodConfig("tau", 2.0, 48, parity_split=True)
        for parity, targets in (("even", exact.even), ("odd", exact.odd)):
            lams, n_inf, _ = pencil_lambdas(cfg, parity)
            assert n_inf == 0
            got = -np.sort(np.abs(lams.real))[:3]
            for lam_num, lam_exact in zip(got, targets):
                assert abs(lam_num - lam_exact) / abs(lam_exact) <= 1e-8
        assert time.time() - t0 < 10.0


def test_02_theorem_range():
    with criterion(2, "real negative distinct interlaced on 1/2 < gamma <= 7/2"):
        t0 = time.time()
        for g in THEOREM_GAMMAS:
            for n in range(8, 49):
                rep = spectrum_report(MethodConfig("tau", g, n, parity_split=True))
                assert rep.count("spurious_positive") == 0, (g, n)
                assert rep.count("complex_pair") == 0, (g, n)
                assert rep.distinct, (g, n)
                assert rep.interlaced is True, (g, n)
        assert time.time() - t0 < 60.0


def test_03_low_side_sharpness():
    with criterion(3, "two spurious positives for gamma < 1/2 + desk checks"):
        for g in (-0.25, 0.0, 0.45):
            for n in range(8, 49):
                rep = spectrum_report(MethodConfig("tau", g, n, parity_split=True))
                assert rep.count("spurious_positive") == 2, (g, n)
                pars = [
                    p for p, c in zip(rep.parities, rep.classes) if c == "spurious_positive"
                ]
                assert sorted(pars) == ["even", "odd"], (g, n)
        # desk checks at 1e-12 through both routes
        mu_even = poly_roots(even_charpoly(0.0, 4).normalized_coeffs()).roots
        assert abs(1.0 / mu_even[0].real - 12.0) <= 1e-12 * 12.0
        mu_odd = poly_roots(odd_charpoly(0.0, 5).normalized_coeffs()).roots
        assert abs(1.0 / mu_odd[0].real - 40.0) <= 1e-12 * 40.0
        lam_e, _, _ = pencil_lambdas(MethodConfig("tau", 0.0, 4, parity_split=True), "even")
        assert abs(lam_e[0].real - 12.0) <= 1e-12 * 12.0
        lam_o, _, _ = pencil_lambdas(MethodConfig("tau", 0.0, 5, parity_split=True), "odd")
        assert abs(lam_o[0].real - 40.0) <= 1e-12 * 40.0


def test_04_legendre_infinite_pair():
    with criterion(4, "Legendre pair of infinite eigenvalues + mu=0 mode residuals"):
        for n in range(8, 33):
            rep = spectrum_report(MethodConfig("tau", 0.5, n, parity_split=True))
            assert rep.n_infinite == 2, n
            assert legendre_mode_residual(n) <= 1e-10, n


def test_05_perturbation_law():
    with criterion(5, "near-Legendre perturbation of the infinite eigenvalues"):
        for eps in (1e-3, -1e-3):
            for n in (12, 16):
                cfg = MethodConfig("tau", 0.5 + eps, n, parity_split=True)
                for parity in ("even", "odd"):
                    pred = perturbation_mu1(n, parity, eps).predicted_lambda
                    lams, n_inf, _ = pencil_lambdas(cfg, parity)
                    assert n_inf == 0
                    assert np.all(np.abs(lams.imag) <= 1e-8 * np.abs(lams))
                    extreme = lams.real[np.argmax(np.abs(lams.real))]
                    assert abs(extreme - pred) / abs(pred) <= 0.05, (eps, n, parity)
                    assert (extreme > 0) == (eps < 0), (eps, n, parity)


def test_06_high_side_sharpness():
    with criterion(6, "complex pairs appear for gamma=4 but not gamma=3.5 (n <= 64)"):
        onset = None
        for n in range(8, 65):
            rep = spectrum_report(MethodConfig("tau", 4.0, n, parity_split=True))
            if rep.count("complex_pair") > 0:
                onset = n
                break
        assert onset is not None, "gamma=4 never produced a complex pair for n <= 64"
        print(f"(gamma=4: first complex pair at n={onset})", end=" ")
        for n in range(8, 65):
            rep = spectrum_report(MethodConfig("tau", 3.5, n, parity_split=True))
            assert rep.count("complex_pair") == 0, n


def test_07_equivalence_theorems():
    with criterion(7, "Galerkin / inviscid / modified-tau equivalences + remark"):
        for g in (0.0, 0.5):
            for n in range(8, 25):
                rep = equivalence_suite(g, n, tol=1e-8)
                assert rep.passed, (g, n, rep.deviations)
        for g in (1.25, 2.0):
            for n in range(8, 25):
                rep = equivalence_suite(g, n, tol=1e-8)
                assert rep.passed, (g, n, rep.deviations)
                assert "even4th_vs_odd2nd" in rep.deviations


def test_08_appendix_c_stability():
    with criterion(8, "degree-2 stability roots + Hermite-Biehler agreement"):
        ref = sorted_c([complex(-0.5, -math.sqrt(3) / 6), complex(-0.5, math.sqrt(3) / 6)])
        for g in (0.0, 0.5, 1.0):
            roots = sorted_c(poly_roots(stability_poly(g, 2).normalized_coeffs()).roots)
            assert np.max(np.abs(roots - ref)) <= 1e-12
        for g in (-0.4, 0.0, 0.5):
            for n in range(2, 21):
                # the exact Routh verdict, and the float roots agree with it
                p = stability_poly(g, n)
                assert _routh_failure(p.mu_coeffs) is None
                assert np.all(poly_roots(p.normalized_coeffs()).roots.real < 0.0)


def test_09_appendix_b_integrals():
    with criterion(9, "endpoint-weight integral asymptotics"):
        for n in (6, 10):
            for eps in (1e-4, 1e-5):
                rep = epsilon_integral_check(n, eps)
                assert rep.passed, (n, eps, rep.checks)
                for name, (_, _, dev) in rep.checks.items():
                    assert dev <= 50 * eps, (n, eps, name, dev)


def test_10_route_cross_validation():
    with criterion(10, "charpoly roots match pencil eigenvalues to 1e-8"):
        for g in THEOREM_GAMMAS:
            for n in range(8, 33):
                for parity in ("even", "odd"):
                    lam_c, inf_c = charpoly_lambdas(g, n, parity)
                    lam_p, inf_p, _ = pencil_lambdas(
                        MethodConfig("tau", g, n, parity_split=True), parity
                    )
                    assert inf_c == inf_p, (g, n, parity)
                    assert spectrum_dev(lam_c, lam_p) <= 1e-8, (g, n, parity)
