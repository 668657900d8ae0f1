"""Scientific checks: exact spectrum, perturbation law, positive pairs,
stability via Hermite-Biehler, method equivalences, and endpoint-weight
integrals.  Each check is an executable statement of a property of the
discretization, verified with independent machinery rather than the code
path under test: bisection, weighted quadrature and brute-force comparisons
in floating point, and an exact integer Routh array for positive pairs and
stability.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charpoly import CharPoly, second_order_pair
from .eig import poly_roots
from .gegenbauer import deriv_matrix, evaluate, exact_gamma, mult_x_array
from .pencil import MethodConfig, assemble
from .spectra import ladder_degree, pencil_lambdas, spectrum_report

# ---------------------------------------------------------------------------
# weighted quadrature (verification oracle, independent of the recurrences
# it is used to check)


def jacobi_quad(exponent: float, f, npts: int) -> float:
    """int_{-1}^{1} f(x) (1-x^2)^exponent dx by Gauss-Jacobi quadrature.

    Exact for polynomial f of degree <= 2*npts - 1, including the
    singular-endpoint range -1 < exponent < 0.
    """
    # imported here, its only use: scipy.special is most of the package's
    # import time, and only the verify suites reach this function
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(npts, exponent, exponent)
    return float(np.sum(w * f(x)))


# ---------------------------------------------------------------------------
# exact spectrum of the continuous problem


@dataclass
class ExactSpectrum:
    """Continuous eigenvalues: even -(k pi)^2, odd -q_k^2 with q_k = tan q_k."""

    even: list[float]
    odd: list[float]

    def merged(self) -> list[tuple[float, str]]:
        pairs = [(lam, "even") for lam in self.even] + [(lam, "odd") for lam in self.odd]
        return sorted(pairs, key=lambda t: -t[0])


def tan_fixed_point(k: int) -> float:
    """The k-th positive root of q = tan q, in (k pi, (2k+1) pi/2).

    Bisection on h(q) = sin q - q cos q, which shares the roots of
    tan q = q but has no poles; iterated to bracket collapse.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    lo = k * math.pi + 1e-9
    hi = (2 * k + 1) * math.pi / 2 - 1e-9
    h = lambda q: math.sin(q) - q * math.cos(q)
    flo = h(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = h(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_spectrum(count: int) -> ExactSpectrum:
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    even = [-((k * math.pi) ** 2) for k in range(1, count + 1)]
    odd = [-(tan_fixed_point(k) ** 2) for k in range(1, count + 1)]
    return ExactSpectrum(even, odd)


# ---------------------------------------------------------------------------
# near-Legendre perturbation of the infinite eigenvalues


@dataclass
class PerturbationPrediction:
    mu1: float
    predicted_lambda: float | None


def perturbation_mu1(n: int, parity: str, epsilon: float | None = None) -> PerturbationPrediction:
    """First-order drift mu ~ eps*mu1 of the Legendre infinite eigenvalues.

    For even system degree m: mu1 = -4/((m-2)^2 (m-1)^2) for the even mode
    and -4/((m-4)^2 (m-1)^2) for the odd mode.  Odd n maps to m = n-1 (even
    mode) or m = n+1 (odd mode).  The perturbed eigenvalue is 1/(eps*mu1),
    of size O(n^4/eps), positive exactly when eps < 0.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    m = n if n % 2 == 0 else (n - 1 if parity == "even" else n + 1)
    if m < 6:
        raise ValueError(f"perturbation formulas need even system degree >= 6, got {m}")
    if parity == "even":
        mu1 = -4.0 / ((m - 2) ** 2 * (m - 1) ** 2)
    else:
        mu1 = -4.0 / ((m - 4) ** 2 * (m - 1) ** 2)
    pred = None if epsilon is None else 1.0 / (epsilon * mu1)
    return PerturbationPrediction(mu1, pred)


# ---------------------------------------------------------------------------
# positive pairs and stability


def _routh_failure(coeffs) -> int | None:
    """First Routh row whose leading entry is not positive; None if stable.

    ``coeffs`` are ascending, each taken at its exact value (int, Fraction
    or float).  The polynomial is scaled to integers with a positive leading
    coefficient, and each Routh row is built fraction-free: cross-multiplied
    by the previous row's positive leading entry, then divided by its gcd.
    That keeps every sign, so the polynomial is Hurwitz stable iff all
    deg + 1 leading entries are positive; a zero entry means a root on or
    right of the imaginary axis, and counts as a failure.
    """
    c = [Fraction(x) for x in reversed(coeffs)]  # descending
    scale = math.lcm(*(x.denominator for x in c)) * (1 if c[0] > 0 else -1)
    ints = [int(x * scale) for x in c]
    prev, row = ints[0::2], ints[1::2]
    if prev[0] <= 0:
        return 0
    for i in range(1, len(ints)):
        if row[0] <= 0:
            return i
        nxt = [row[0] * a - prev[0] * b for a, b in itertools.zip_longest(prev[1:], row[1:], fillvalue=0)]
        g = math.gcd(*nxt)
        prev, row = row, [x // g for x in nxt] if g > 1 else nxt
    return None


def positive_pair_check(p, q) -> bool:
    """Do (p, q) form a positive pair?  Exact for exact coefficients.

    ``p`` and ``q`` are ascending coefficients (int or Fraction) with deg q
    = deg p or deg p - 1.  By Hermite-Biehler, (p, q) is a positive pair
    (real, negative, distinct, interlacing roots, leading coefficients of
    like sign) iff p(z^2) + z q(z^2) is Hurwitz stable, which the Routh
    array on the interleave p0, q0, p1, q1, ... decides.
    """
    dp, dq = len(p) - 1, len(q) - 1
    if dp - dq not in (0, 1):
        raise ValueError(f"degree gap must be 0 or 1, got deg p={dp}, deg q={dq}")
    interleave = [c for pair in zip(p, q) for c in pair] + list(p[dq + 1 :])
    return _routh_failure(interleave) is None


def hermite_biehler_stability(p: CharPoly) -> bool:
    """Is p(z) Hurwitz stable?  Routh on p's exact coefficients, cross-checked.

    The verdict is the integer Routh array on ``p.mu_coeffs``, exact for
    every degree.  It is checked against direct root computation (all real
    parts negative) on the rounded ``p.normalized_coeffs()``; where the two
    disagree, as the float companion roots do on the stability polynomials
    from degree 27 or 28, a RuntimeError is raised, never a verdict.
    """
    routh = _routh_failure(p.mu_coeffs) is None
    direct = bool(np.all(poly_roots(p.normalized_coeffs()).roots.real < 0.0))
    if routh != direct:
        raise RuntimeError(
            f"Routh-Hurwitz and direct-root stability disagree: routh={routh} direct={direct}"
        )
    return routh


# ---------------------------------------------------------------------------
# equivalence of the method variants


@dataclass
class EquivalenceReport:
    tol: float
    deviations: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(d <= self.tol for d in self.deviations.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.deviations, key=self.deviations.get)
        return name, self.deviations[name]


def _spectrum_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a_i - b_j| / |b_j| over a greedy nearest pairing of a with b.

    The closest unpaired pair by relative distance is taken first, so the
    members of a conjugate pair whose real parts differ by rounding are not
    crossed, as a sort on (Re, Im) would cross them.  One stable sort of all
    n^2 distances (ties by flat index) visits the pairs in that order; a nan
    entry fills a whole row or column, so some pair takes it and the result
    is nan.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.size != b.size:
        return math.inf
    dist = np.abs(a[:, None] - b[None, :]) / np.maximum(np.abs(b), 1e-300)
    flat = dist.ravel()
    row_free, col_free = [True] * a.size, [True] * b.size
    picked = []
    for k in np.argsort(flat, kind="stable").tolist():
        i, j = divmod(k, b.size)
        if row_free[i] and col_free[j]:
            row_free[i] = col_free[j] = False
            picked.append(flat[k])
            if len(picked) == a.size:
                break
    return float(np.max(picked, initial=0.0))


def equivalence_suite(gamma: float, n: int, tol: float) -> EquivalenceReport:
    """Numerical verification of the method equivalences at one (gamma, n).

    (i) Galerkin(g) = tau(g+2); (ii) inviscid Galerkin(g) = tau(g+1);
    (iii) modified tau(g) = Galerkin(g), on finite spectra; and for
    g > 1/2 (iv) the even fourth-order eigenvalues at (g, n) equal the
    second-order eigenvalues at (g-1, n-1) restricted to the odd ladder.
    """
    if n < 8:
        raise ValueError(f"need n >= 8, got {n}")
    rep = EquivalenceReport(tol)

    def spec(kind: str, g: float) -> np.ndarray:
        lams, _, _ = pencil_lambdas(MethodConfig(kind, g, n))
        return lams

    galerkin = spec("galerkin", gamma)
    rep.deviations["galerkin_vs_tau_shift2"] = _spectrum_deviation(galerkin, spec("tau", gamma + 2.0))
    rep.deviations["inviscid_vs_tau_shift1"] = _spectrum_deviation(
        spec("inviscid_galerkin", gamma), spec("tau", gamma + 1.0)
    )
    rep.deviations["modified_vs_galerkin"] = _spectrum_deviation(spec("modified_tau", gamma), galerkin)
    if gamma > 0.5:
        cfg = MethodConfig("tau", gamma, n, parity_split=True)
        lam_even, _, _ = pencil_lambdas(cfg, "even")
        om, _ = second_order_pair(exact_gamma(gamma) - 1, ladder_degree(n, "even") - 1)
        mus = poly_roots(om.normalized_coeffs()).roots
        lam_second = 1.0 / mus[np.abs(mus) > 0.0]
        rep.deviations["even4th_vs_odd2nd"] = _spectrum_deviation(lam_even, lam_second)
    return rep


# ---------------------------------------------------------------------------
# endpoint-weight integrals (perturbation ingredients)


def c_factor(l: int) -> float:
    """C_l = (l+1)(l+2)(l+3)(l+4)/15."""
    return (l + 1) * (l + 2) * (l + 3) * (l + 4) / 15.0


@dataclass
class EpsilonIntegralReport:
    checks: dict = field(default_factory=dict)  # name -> (quadrature, prediction, rel dev)
    passed: bool = True


def epsilon_integral_check(n: int, epsilon: float) -> EpsilonIntegralReport:
    """Compare int P_m (1-x^2)^eps dx against the first-order law -4 eps/(m(m+1)).

    Also checks the two perturbed matrix entries that feed the mu1 formulas:
    C_{n-4} int P_{n-2} w ~ -4 eps C_{n-4}/((n-2)(n-1)) and
    C_{n-5} int x P_{n-3} w ~ -4 eps C_{n-5}/((n-4)(n-1)).
    Pass threshold: relative deviation <= 50 |eps| (the neglected term is
    O(eps^2)).  Odd n or eps = 0 must give an exactly-zero integral.
    """
    if abs(epsilon) > 1e-3:
        raise ValueError(f"|epsilon| must be <= 1e-3, got {epsilon}")
    pts = n + 8
    rep = EpsilonIntegralReport()

    def leg(m: int):
        return lambda x: np.asarray(evaluate(0.5, m, x))

    if n % 2 == 1 or epsilon == 0.0:
        quad = jacobi_quad(epsilon, leg(n), pts)
        rep.checks["vanishing"] = (quad, 0.0, abs(quad))
        rep.passed = abs(quad) <= 1e-12
        return rep
    if n < 6:
        raise ValueError(f"need even n >= 6, got {n}")
    cases = {
        "main": (jacobi_quad(epsilon, leg(n), pts), -4.0 * epsilon / (n * (n + 1))),
        "entry_even": (
            c_factor(n - 4) * jacobi_quad(epsilon, leg(n - 2), pts),
            -4.0 * epsilon * c_factor(n - 4) / ((n - 2) * (n - 1)),
        ),
        "entry_odd": (
            c_factor(n - 5) * jacobi_quad(epsilon, lambda x: x * np.asarray(evaluate(0.5, n - 3, x)), pts),
            -4.0 * epsilon * c_factor(n - 5) / ((n - 4) * (n - 1)),
        ),
    }
    for name, (quad, pred) in cases.items():
        dev = abs(quad - pred) / abs(pred)
        rep.checks[name] = (quad, pred, dev)
        if dev > 50.0 * abs(epsilon):
            rep.passed = False
    return rep


# ---------------------------------------------------------------------------
# Legendre mu = 0 modes


def legendre_infinite_mode(n: int, which: int) -> np.ndarray:
    """Legendre coefficients of u = (1-x^2)^2 G_m^{(5/2)}, m = n-4 or n-5.

    These satisfy the clamped boundary conditions and the tau equations
    with mu = 0 for every n >= 5; one is even, the other odd.  Uses the
    exact identity G_m^{(5/2)} = D^2 P_{m+2} / 15 plus coefficient-space
    multiplication by (1 - 2x^2 + x^4).
    """
    if which not in (4, 5):
        raise ValueError("which must be 4 (mode n-4) or 5 (mode n-5)")
    m = n - which
    if m < 0:
        raise ValueError(f"mode degree would be negative for n={n}")
    d = deriv_matrix(0.5, m + 3)
    g = (d @ d)[: m + 1, m + 2] / 15.0
    x1 = mult_x_array(g, 0.5)
    x2 = mult_x_array(x1, 0.5)
    x3 = mult_x_array(x2, 0.5)
    x4 = mult_x_array(x3, 0.5)

    out = np.zeros(m + 5)
    out[: m + 1] += g
    out[: m + 3] -= 2.0 * x2
    out += x4
    padded = np.zeros(n + 1)
    padded[: m + 5] = out
    return padded


def legendre_mode_residual(n: int) -> float:
    """Max scaled residual of both mu = 0 modes in the Legendre tau equations."""
    p = assemble(MethodConfig("tau", 0.5, n))
    worst = 0.0
    for which in (4, 5):
        u = legendre_infinite_mode(n, which)
        tau_rows = p.B[: n - 3, :]
        r = tau_rows @ u
        bc = p.A[p.bc_rows, :] @ u
        scale = float(np.max(np.abs(tau_rows))) * float(np.max(np.abs(u)))
        worst = max(worst, float(np.max(np.abs(r))) / scale)
        bscale = float(np.max(np.abs(p.A[p.bc_rows, :]))) * float(np.max(np.abs(u)))
        worst = max(worst, float(np.max(np.abs(bc))) / bscale)
    return worst


# ---------------------------------------------------------------------------
# named verification suites (exposed through the CLI)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    counterexample: str | None = None
    data: dict = field(default_factory=dict)


THEOREM_GAMMAS = (0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)


def _degrees(n_lo: int, n_hi: int) -> range:
    """The degrees n_lo..n_hi; an empty range would pass without a check."""
    if n_lo > n_hi:
        raise ValueError(f"empty degree range: n_lo {n_lo} > n_hi {n_hi}")
    return range(n_lo, n_hi + 1)


def suite_theorem_range(
    gammas: tuple[float, ...] = THEOREM_GAMMAS, n_lo: int = 8, n_hi: int = 48
) -> SuiteResult:
    """Real, negative, distinct, interlaced spectra on 1/2 < gamma <= 7/2."""
    res = SuiteResult("theorem-range", True)
    for g in gammas:
        for n in _degrees(n_lo, n_hi):
            rep = spectrum_report(MethodConfig("tau", g, n, parity_split=True))
            bad = (
                rep.count("spurious_positive") > 0
                or rep.count("complex_pair") > 0
                or not rep.distinct
                or rep.interlaced is not True
            )
            if bad:
                res.passed = False
                res.counterexample = (
                    f"gamma={g} n={n}: spurious={rep.count('spurious_positive')} "
                    f"complex={rep.count('complex_pair')} distinct={rep.distinct} "
                    f"interlaced={rep.interlaced}"
                )
                return res
    res.details.append(f"{len(gammas)} gammas x n in [{n_lo},{n_hi}]: all real negative distinct interlaced")
    return res


def suite_equivalence(
    gammas: tuple[float, ...] = (0.0, 0.5, 1.25, 2.0),
    n_lo: int = 8,
    n_hi: int = 24,
    tol: float = 1e-8,
) -> SuiteResult:
    res = SuiteResult("equivalence", True)
    for g in gammas:
        for n in _degrees(n_lo, n_hi):
            rep = equivalence_suite(g, n, tol=tol)
            if not rep.passed:
                name, dev = rep.worst()
                res.passed = False
                res.counterexample = f"gamma={g} n={n}: {name} deviates {dev:.2e} > {tol:.0e}"
                return res
    res.details.append(f"all equivalences within {tol:.0e} on n in [{n_lo},{n_hi}]")
    return res


def suite_perturbation() -> SuiteResult:
    """Extreme eigenvalue vs 1/(eps mu1), per parity, sign rule exact."""
    res = SuiteResult("perturbation", True)
    rel_tol = 0.05
    for eps in (1e-3, -1e-3):
        for n in (12, 16):
            cfg = MethodConfig("tau", 0.5 + eps, n, parity_split=True)
            for parity in ("even", "odd"):
                pred = perturbation_mu1(n, parity, eps)
                lams, n_inf, _ = pencil_lambdas(cfg, parity)
                if n_inf:
                    res.passed = False
                    res.counterexample = f"eps={eps} n={n} {parity}: unexpected infinite eigenvalue"
                    return res
                reals = lams.real[np.abs(lams.imag) <= 1e-8 * np.abs(lams)]
                extreme = reals[np.argmax(np.abs(reals))]
                dev = abs(extreme - pred.predicted_lambda) / abs(pred.predicted_lambda)
                sign_ok = (extreme > 0) == (eps < 0)
                res.data[f"eps={eps},n={n},{parity}"] = (float(extreme), pred.predicted_lambda, dev)
                if dev > rel_tol or not sign_ok:
                    res.passed = False
                    res.counterexample = (
                        f"eps={eps} n={n} {parity}: extreme {extreme:.6e} vs "
                        f"predicted {pred.predicted_lambda:.6e} (dev {dev:.2%}, sign_ok={sign_ok})"
                    )
                    return res
    res.details.append(f"extreme eigenvalues within {rel_tol:.0%} of 1/(eps mu1), signs exact")
    return res


def suite_positive_pair(
    gammas: tuple[float, ...] = (-0.4, 0.0, 0.5, 1.0, 1.5), n_hi: int = 20
) -> SuiteResult:
    """(Omega_n, Theta_n) and (Omega_n, Omega_{n-1} at gamma+1) are positive pairs.

    Decided exactly, on the exact ``second_order_pair`` coefficients at
    gamma read as its shortest decimal (``exact_gamma``), so -0.4 is -2/5
    and not its binary value.
    """
    res = SuiteResult("positive-pair", True)
    for g in gammas:
        exact = exact_gamma(g)
        for n in _degrees(2, n_hi):
            omega, theta = second_order_pair(exact, n)
            pairs = [("(Omega,Theta)", theta.mu_coeffs)]
            if n >= 3:
                raised, _ = second_order_pair(exact + 1, n - 1)
                pairs.append(("(Omega_n, Omega_(n-1)^(g+1))", raised.mu_coeffs))
            for name, q in pairs:
                if not positive_pair_check(omega.mu_coeffs, q):
                    res.passed = False
                    res.counterexample = f"gamma={g} n={n}: {name} is not a positive pair"
                    return res
    res.details.append("all positive-pair checks hold")
    return res


def suite_appendix_b() -> SuiteResult:
    res = SuiteResult("appendixB", True)
    for n in (6, 10):
        for eps in (1e-4, 1e-5):
            rep = epsilon_integral_check(n, eps)
            for name, (quad, pred, dev) in rep.checks.items():
                res.data[f"n={n},eps={eps},{name}"] = (quad, pred, dev)
            if not rep.passed:
                res.passed = False
                res.counterexample = f"n={n} eps={eps}: {rep.checks}"
                return res
    res.details.append("first-order integral law verified to 50*eps")
    return res


def suite_exact_convergence(gamma: float = 2.0, n: int = 48, tol: float = 1e-8) -> SuiteResult:
    """Smallest-magnitude discrete eigenvalues match the continuous ones."""
    res = SuiteResult("exact-convergence", True)
    count = 3
    exact = exact_spectrum(count)
    cfg = MethodConfig("tau", gamma, n, parity_split=True)
    for parity, targets in (("even", exact.even), ("odd", exact.odd)):
        lams, _, _ = pencil_lambdas(cfg, parity)
        got = -np.sort(np.abs(lams.real))[:count]
        if got.size < count:
            raise ValueError(
                f"the {parity} ladder at n={n} has {got.size} finite eigenvalues, fewer than {count}"
            )
        for k, (lam_exact, lam_num) in enumerate(zip(targets, got), start=1):
            dev = abs(lam_num - lam_exact) / abs(lam_exact)
            res.data[f"{parity}[{k}]"] = (float(lam_num), lam_exact, dev)
            if dev > tol:
                res.passed = False
                res.counterexample = (
                    f"{parity} mode {k}: {lam_num:.10e} vs exact {lam_exact:.10e} (dev {dev:.2e})"
                )
                return res
    res.details.append(f"first {count} eigenvalues per parity within {tol:.0e}")
    return res


SUITES = {
    "theorem-range": suite_theorem_range,
    "equivalence": suite_equivalence,
    "perturbation": suite_perturbation,
    "positive-pair": suite_positive_pair,
    "appendixB": suite_appendix_b,
    "exact-convergence": suite_exact_convergence,
}
