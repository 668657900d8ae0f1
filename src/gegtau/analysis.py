"""Scientific checks: exact spectrum, perturbation law, positive pairs via
Hermite-Biehler, method equivalences, and endpoint-weight integrals.  Each
check is an executable statement of a property of the discretization,
verified with independent machinery rather than the code path under test:
bisection, weighted quadrature and brute-force comparisons in floating
point, and an exact integer Routh array for positive pairs and stability.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charpoly import second_order_pair
from .eig import DEFAULT_TOLERANCES, poly_roots
from .gegenbauer import deriv_matrix, evaluate, exact_gamma, integer_ladder, mult_x_array
from .pencil import MethodConfig, assemble
from .spectra import PARITIES, ladder_degree, pencil_lambdas, spectrum_report

# ---------------------------------------------------------------------------
# weighted quadrature (verification oracle, independent of the recurrences
# it is used to check)


JACOBI_MAX_EXPONENT = 1e3  # jacobi_rule's largest exponent (appendixB passes |eps| <= 1e-3)


def jacobi_rule(exponent: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the npts-point Gauss rule for the
    weight (1-x^2)^exponent on [-1, 1], -1 < exponent <= 1e3.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the weight's symmetric Jacobi matrix, and the weights are mu0 v_0^2, the
    first components of its unit eigenvectors squared, times
    mu0 = int (1-x^2)^a dx = Gamma(1/2) Gamma(a+1) / Gamma(a+3/2), a = exponent.
    The weight is Gegenbauer's at index lam = a + 1/2: zero diagonal,
    off-diagonal b_k with b_k^2 = k(k+2 lam-1) / (4(k+lam)(k+lam-1)), and
    b_1^2 = 1/(2(1+lam)) in closed form, where lam = 0 would divide 0 by 0.
    The matrix is written out here, not taken from gegenbauer, because this
    rule is the independent oracle that the norms' closed form and the
    orthogonality of the recurrences are tested against.

    Accuracy falls as the exponent grows, because lgamma(a+1) - lgamma(a+3/2)
    cancels: against 40-digit mu0, the weights sum with relative error 1.5e-17
    at exponent 4.5, 3.2e-14 at 100 and 1.1e-13 at 1e3 (1.7e-9 at 1e6).  So
    an exponent above JACOBI_MAX_EXPONENT = 1e3 raises ValueError.
    """
    if not isinstance(npts, numbers.Integral) or npts < 1:
        raise ValueError(f"npts must be a positive integer, got {npts!r}")
    a = float(exponent)
    if not (math.isfinite(a) and -1.0 < a <= JACOBI_MAX_EXPONENT):
        raise ValueError(f"exponent must be finite, > -1 and <= {JACOBI_MAX_EXPONENT:g}, got {exponent!r}")
    lam = a + 0.5
    k = np.arange(2.0, npts)
    b2 = np.append(0.5 / (1.0 + lam), k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    b = np.sqrt(b2[: npts - 1])
    x, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    mu0 = math.exp(math.lgamma(0.5) + math.lgamma(a + 1.0) - math.lgamma(a + 1.5))
    return x, mu0 * v[0] ** 2


def jacobi_quad(exponent: float, f, npts: int) -> float:
    """int_{-1}^{1} f(x) (1-x^2)^exponent dx by Gauss-Jacobi quadrature.

    Exact for polynomial f of degree <= 2*npts - 1, including the
    singular-endpoint range -1 < exponent < 0.
    """
    x, w = jacobi_rule(exponent, npts)
    return float(np.sum(w * f(x)))


# ---------------------------------------------------------------------------
# exact spectrum of the continuous problem


@dataclass
class ExactSpectrum:
    """Continuous eigenvalues: even -(k pi)^2, odd -q_k^2 with q_k = tan q_k."""

    even: list[float]
    odd: list[float]


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
    predicted_lambda: float


def perturbation_mu1(n: int, parity: str, epsilon: float) -> PerturbationPrediction:
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
    if epsilon == 0.0:  # the unperturbed Legendre eigenvalue is infinite
        raise ValueError("epsilon must be nonzero")
    if parity == "even":
        mu1 = -4.0 / ((m - 2) ** 2 * (m - 1) ** 2)
    else:
        mu1 = -4.0 / ((m - 4) ** 2 * (m - 1) ** 2)
    return PerturbationPrediction(mu1, 1.0 / (epsilon * mu1))


# ---------------------------------------------------------------------------
# positive pairs and stability


def _routh_failure(coeffs) -> int | None:
    """First Routh row whose leading entry is not positive; None if stable.

    ``coeffs`` are ascending, each taken at its exact value (int, Fraction
    or float).  The polynomial is scaled to integers with a positive leading
    coefficient, in integers only (x.numerator times lcm / x.denominator),
    and each Routh row is built fraction-free: cross-multiplied by the
    previous row's positive leading entry, then divided by its gcd.  That
    keeps every sign, so the polynomial is Hurwitz stable iff all deg + 1
    leading entries are positive; a zero entry means a root on or right of
    the imaginary axis, and counts as a failure.
    """
    c = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in reversed(coeffs)]  # descending
    scale = math.lcm(*(x.denominator for x in c)) * (1 if c[0] > 0 else -1)
    ints = [x.numerator * (scale // x.denominator) for x in c]
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
    array on the interleave p0, q0, p1, q1, ... decides, in integers only.
    A positive scaling of p or of q leaves the verdict unchanged.
    """
    dp, dq = len(p) - 1, len(q) - 1
    if dp - dq not in (0, 1):
        raise ValueError(f"degree gap must be 0 or 1, got deg p={dp}, deg q={dq}")
    interleave = [c for pair in zip(p, q) for c in pair] + list(p[dq + 1 :])
    return _routh_failure(interleave) is None


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


def _equivalence_configs(gamma: float, n: int) -> list[MethodConfig]:
    """The configurations whose ladders the checks at (gamma, n) read, in
    the order ``_equivalence_reports`` reads them: Galerkin and modified
    tau for check (iii), then tau for check (iv) when gamma > 1/2."""
    if n < 8:
        raise ValueError(f"need n >= 8, got {n}")
    kinds = ("galerkin", "modified_tau", "tau") if gamma > 0.5 else ("galerkin", "modified_tau")
    return [MethodConfig(kind, gamma, n) for kind in kinds]


def _equivalence_reports(points: list[tuple[float, int]], tol: float) -> Iterator[EquivalenceReport]:
    """The equivalences at each (gamma, n) of ``points``, in turn, from one
    ``pencil_lambdas`` grid of every ladder of ``_equivalence_configs``,
    even then odd.  Check (iv) skips tau's odd ladder, which adds no
    distinct ladder at the default gammas: tau(2, n) is Galerkin(0, n).
    """
    ladders = pencil_lambdas((c for g, n in points for c in _equivalence_configs(g, n)), PARITIES)
    for gamma, n in points:
        rep = EquivalenceReport(tol)
        galerkin, modified = (np.concatenate([next(ladders)[0], next(ladders)[0]]) for _ in range(2))
        rep.deviations["modified_vs_galerkin"] = _spectrum_deviation(modified, galerkin)
        if gamma > 0.5:
            lam_even, _ = next(ladders)[0], next(ladders)
            om, _ = second_order_pair(exact_gamma(gamma) - 1, ladder_degree(n, "even") - 1)
            mus = poly_roots(om.normalized_coeffs()).roots
            lam_second = 1.0 / mus[np.abs(mus) > 0.0]
            rep.deviations["even4th_vs_odd2nd"] = _spectrum_deviation(lam_even, lam_second)
        yield rep


def equivalence_suite(gamma: float, n: int, tol: float) -> EquivalenceReport:
    """Numerical verification of the method equivalences at one (gamma, n).

    (iii) modified tau(g) = Galerkin(g), on finite spectra; and for
    g > 1/2 (iv) the even fourth-order eigenvalues at (g, n) equal the
    second-order eigenvalues at (g-1, n-1) restricted to the odd ladder.
    Galerkin(g) = tau(g+2) and inviscid Galerkin(g) = tau(g+1) need no
    check here: ``assemble`` builds them so, through ``GAMMA_SHIFT``.

    Each check reads its ladders' eigenvalues from ``pencil_lambdas``, and
    no class; ``suite_equivalence`` reads them from one grid over all its
    points.  Checks (iii) and (iv) reach at most 2.9e-13 and 1.2e-12 on
    ``suite_equivalence``'s default grid.
    """
    return next(_equivalence_reports([(gamma, n)], tol))


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
    """Max scaled residual of both mu = 0 modes in the Legendre tau equations.

    Each mode is checked on the parity ladder that holds it: the mode of
    degree m = n - which has the parity of m, and is zero on the other
    ladder's degrees.
    """
    config = MethodConfig("tau", 0.5, n)
    worst = 0.0
    for which in (4, 5):
        start = (n - which) % 2
        p = assemble(config, ("even", "odd")[start])
        u = legendre_infinite_mode(n, which)[start::2]
        r = p.B @ u
        bc = p.C @ u
        scale = float(np.max(np.abs(p.B))) * float(np.max(np.abs(u)))
        worst = max(worst, float(np.max(np.abs(r))) / scale)
        bscale = float(np.max(np.abs(p.C))) * float(np.max(np.abs(u)))
        worst = max(worst, float(np.max(np.abs(bc))) / bscale)
    return worst


# ---------------------------------------------------------------------------
# named verification suites (exposed through the CLI): each is a grid of
# checks, a lazy stream of their failures, and one call to ``_verdict``


@dataclass
class SuiteResult:
    name: str
    details: list[str] = field(default_factory=list)
    counterexample: str | None = None
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _verdict(name: str, failures: Iterator[str], summary: str, data: dict) -> SuiteResult:
    """A suite's result: the first counterexample ``failures`` yields, after
    which no check runs, or else the one detail ``summary``.  ``failures``
    runs the checks lazily, and ``data`` is what they recorded."""
    counterexample = next(failures, None)
    return SuiteResult(name, [summary] if counterexample is None else [], counterexample, data)


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
    points = [(g, n) for g in gammas for n in _degrees(n_lo, n_hi)]
    reports = spectrum_report(MethodConfig("tau", g, n) for g, n in points)

    def failures():
        for (g, n), rep in zip(points, reports):
            spurious, complex_pairs = rep.count("spurious_positive"), rep.count("complex_pair")
            if spurious > 0 or complex_pairs > 0 or not rep.distinct or rep.interlaced is not True:
                yield (
                    f"gamma={g} n={n}: spurious={spurious} complex={complex_pairs} "
                    f"distinct={rep.distinct} interlaced={rep.interlaced}"
                )

    summary = f"{len(gammas)} gammas x n in [{n_lo},{n_hi}]: all real negative distinct interlaced"
    return _verdict("theorem-range", failures(), summary, {})


def suite_equivalence(
    gammas: tuple[float, ...] = (0.0, 0.5, 1.25, 2.0),
    n_lo: int = 8,
    n_hi: int = 24,
    tol: float = 1e-8,
) -> SuiteResult:
    """``equivalence_suite``'s checks within ``tol`` at each gamma x n_lo..n_hi, one grid for all."""
    points = [(g, n) for g in gammas for n in _degrees(n_lo, n_hi)]

    def failures():
        for (g, n), rep in zip(points, _equivalence_reports(points, tol)):
            if not rep.passed:
                name, dev = rep.worst()
                yield f"gamma={g} n={n}: {name} deviates {dev:.2e} > {tol:.0e}"

    summary = f"all equivalences within {tol:.0e} on n in [{n_lo},{n_hi}]"
    return _verdict("equivalence", failures(), summary, {})


def suite_perturbation() -> SuiteResult:
    """Extreme eigenvalue vs 1/(eps mu1), per parity, sign rule exact."""
    rel_tol = 0.05
    cases = [(eps, n) for eps in (1e-3, -1e-3) for n in (12, 16)]
    ladders = pencil_lambdas((MethodConfig("tau", 0.5 + eps, n) for eps, n in cases), PARITIES)
    data = {}

    def failures():
        for (eps, n), parity in itertools.product(cases, PARITIES):
            pred = perturbation_mu1(n, parity, eps)
            lams, n_inf, _ = next(ladders)
            if n_inf:
                yield f"eps={eps} n={n} {parity}: unexpected infinite eigenvalue"
            reals = lams.real[np.abs(lams.imag) <= DEFAULT_TOLERANCES["real_rel"] * np.abs(lams)]
            extreme = reals[np.argmax(np.abs(reals))]
            dev = abs(extreme - pred.predicted_lambda) / abs(pred.predicted_lambda)
            sign_ok = (extreme > 0) == (eps < 0)
            data[f"eps={eps},n={n},{parity}"] = (float(extreme), pred.predicted_lambda, dev)
            if dev > rel_tol or not sign_ok:
                yield (
                    f"eps={eps} n={n} {parity}: extreme {extreme:.6e} vs "
                    f"predicted {pred.predicted_lambda:.6e} (dev {dev:.2%}, sign_ok={sign_ok})"
                )

    summary = f"extreme eigenvalues within {rel_tol:.0%} of 1/(eps mu1), signs exact"
    return _verdict("perturbation", failures(), summary, data)


def suite_positive_pair(
    gammas: tuple[float, ...] = (-0.4, 0.0, 0.5, 1.0, 1.5), n_hi: int = 20
) -> SuiteResult:
    """(Omega_n, Theta_n) and (Omega_n, Omega_{n-1} at gamma+1) are positive pairs.

    Decided exactly at gamma read as its shortest decimal (``exact_gamma``),
    so -0.4 is -2/5 and not its binary value, on the even and odd entries
    of one ``integer_ladder`` and the even ones of gamma + 1's: each is its
    polynomial times a positive integer, which leaves the verdict unchanged.
    """

    def failures():
        for g in gammas:
            exact = exact_gamma(g)
            for n in _degrees(2, n_hi):
                d = integer_ladder(exact, n, n)
                omega, pairs = d[::2], [("(Omega,Theta)", d[1::2])]
                if n >= 3:
                    pairs.append(("(Omega_n, Omega_(n-1)^(g+1))", integer_ladder(exact + 1, n - 1, n - 1)[::2]))
                for name, q in pairs:
                    if not positive_pair_check(omega, q):
                        yield f"gamma={g} n={n}: {name} is not a positive pair"

    return _verdict("positive-pair", failures(), "all positive-pair checks hold", {})


def suite_appendix_b() -> SuiteResult:
    data = {}

    def failures():
        for n in (6, 10):
            for eps in (1e-4, 1e-5):
                rep = epsilon_integral_check(n, eps)
                for name, (quad, pred, dev) in rep.checks.items():
                    data[f"n={n},eps={eps},{name}"] = (quad, pred, dev)
                if not rep.passed:
                    yield f"n={n} eps={eps}: {rep.checks}"

    return _verdict("appendixB", failures(), "first-order integral law verified to 50*eps", data)


def suite_exact_convergence(gamma: float = 2.0, n: int = 48, tol: float = 1e-8) -> SuiteResult:
    """Smallest-magnitude discrete eigenvalues match the continuous ones."""
    count = 3
    exact = exact_spectrum(count)
    ladders = pencil_lambdas([MethodConfig("tau", gamma, n)], PARITIES)
    data = {}

    def failures():
        for (parity, targets), (lams, _, _) in zip((("even", exact.even), ("odd", exact.odd)), ladders):
            got = -np.sort(np.abs(lams.real))[:count]
            if got.size < count:
                raise ValueError(
                    f"the {parity} ladder at n={n} has {got.size} finite eigenvalues, fewer than {count}"
                )
            for k, (lam_exact, lam_num) in enumerate(zip(targets, got), start=1):
                dev = abs(lam_num - lam_exact) / abs(lam_exact)
                data[f"{parity}[{k}]"] = (float(lam_num), lam_exact, dev)
                if dev > tol:
                    yield f"{parity} mode {k}: {lam_num:.10e} vs exact {lam_exact:.10e} (dev {dev:.2e})"

    summary = f"first {count} eigenvalues per parity within {tol:.0e}"
    return _verdict("exact-convergence", failures(), summary, data)


SUITES = {
    "theorem-range": suite_theorem_range,
    "equivalence": suite_equivalence,
    "perturbation": suite_perturbation,
    "positive-pair": suite_positive_pair,
    "appendixB": suite_appendix_b,
    "exact-convergence": suite_exact_convergence,
}
