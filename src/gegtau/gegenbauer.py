"""Gegenbauer (ultraspherical) polynomials in a Chebyshev-safe normalization.

We work with the one-parameter family orthogonal on (-1, 1) under the weight
``W(x) = (1 - x^2)^(gamma - 1/2)``, ``gamma > -1/2``, normalized so that

    G_0 = 1,   G_n = C_n^{(gamma)} / (2 gamma)   for n >= 1,

which stays finite in the Chebyshev limit ``gamma -> 0``:

    G_n^{(0)} = T_n / n,   G_n^{(1/2)} = P_n,   G_n^{(1)} = U_n / 2.

Key identities used throughout (all standard, stated in this normalization):

    (n+1) G_{n+1} = 2(n+gamma) x G_n - (n-1+2 gamma) G_{n-1},   n >= 2,
    with G_0 = 1, G_1 = x, G_2 = (gamma+1) x^2 - 1/2;

    d/dx G_{n+1}^{(gamma)} = 2 (gamma+1) G_n^{(gamma+1)};

    2 (n+gamma) G_n = d/dx [G_{n+1} - G_{n-1}]   (same-index derivative ladder);

    G_n(1) = (2g+n-1)(2g+n-2)...(2g+1) / n!,
    D^{k+1} G_n(1) / D^k G_n(1) = (2g+n+k)(n-k) / (2g+2k+1).

Endpoint quantities for the pencil are evaluated from log running products
(never via Gamma ratios, which are singular at gamma = 0) and returned as
their natural logs, floats that stay finite past float64's range (near
degree 170): every endpoint value is positive.  One table per gamma
(``_table``) holds the running sums log G_j(1), so a row of n endpoint
values costs O(n), not O(n^2), and the pencil's boundary values, each
evaluated once while the gamma is kept, so the rows of a grid over n cost
O(max n) per gamma, not O(sum of n).  The derivative ladder
D^0..D^k G_n(1) is one running sum of log ratios.
``rational_ladder`` is the same ladder in exact ``Fraction``s, from which
the characteristic polynomials are built, and ``integer_ladder`` the same
ladder times one positive integer, from which the positive pairs are
decided; interior evaluation uses the three-term recurrence in float64.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from fractions import Fraction

import numpy as np

from .eig import ConvergenceError

GAMMA_MIN = -0.5
# Gammas kept: room for several (gamma, gamma + 1, gamma + 2) triples, but not
# for all 14 of a verify-suites block, whose replay must still evaluate some.
_TABLE_GAMMAS = 8
_GROW = threading.Lock()  # running sums grow under it, so each entry lands once at its index


def check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= GAMMA_MIN:
        raise ValueError(f"gamma must be a finite real > -1/2, got {gamma}")
    return gamma


@functools.lru_cache(maxsize=_TABLE_GAMMAS)
def _table(gamma: float) -> tuple[list[float], dict[int, tuple[float, float]]]:
    """``gamma``'s endpoint data: the running sums [log G_1(1), log G_2(1),
    ...], which ``value_at_one`` extends, and the boundary values
    {j: (G_j(1), DG_j(1))}, which ``endpoint_rows`` fills."""
    return [0.0], {}


def value_at_one(gamma: float, n: int) -> float:
    """log G_n(1), via the running product (2g+1)...(2g+n-1)/n!.

    G_n(1) is positive for gamma > -1/2 and equals 1 for n = 0, 1.  The log
    is the sum of log((2g+j)/(j+1)), j = 1..n-1, so the Legendre case gives
    exactly 0.0.
    The sum is read from the gamma's table of running sums, O(1) per call
    once its prefix exists; entry k is added left to right from 0.0, so it
    is bit-identical to adding the terms one by one.
    """
    gamma = check_gamma(gamma)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    logs = _table(gamma)[0]
    if len(logs) < n:
        with _GROW:
            for j in range(len(logs), n):
                logs.append(logs[-1] + (math.log(2.0 * gamma + j) - math.log(j + 1.0)))
    return logs[max(n - 1, 0)]


def _deriv_step(gamma: float, n: int, k: int) -> float:
    """log(D^{k+1} G_n(1) / D^k G_n(1)) = log((2g+n+k)(n-k)) - log(2g+2k+1).

    The grouping keeps numerator and denominator bit-identical at k = n-1,
    where the ratio is exactly 1.
    """
    return math.log((2.0 * gamma + (n + k)) * (n - k)) - math.log(2.0 * gamma + (2 * k + 1))


def endpoint_rows(gamma: float, degrees: list[int]) -> np.ndarray:
    """The C-ordered (2, k) block [G_j(1); DG_j(1)] over ``degrees``.

    DG_j(1) is G_j(1) times the first step of ``deriv_ladder``, the
    Gegenbauer equation at x = 1, and 0 at j = 0.  Each (gamma, degree) is
    evaluated once, by ``value_at_one``, while the gamma's table is kept.
    Raises OverflowError at the first degree whose value is past float64.
    """
    gamma = check_gamma(gamma)
    pairs = _table(gamma)[1]
    for j in degrees:
        if j not in pairs:
            log = value_at_one(gamma, j)
            # exp(-inf) is 0.0
            dlog = log + _deriv_step(gamma, j, 0) if j else -math.inf
            try:
                pairs[j] = math.exp(log), math.exp(dlog)
            except OverflowError:
                raise OverflowError(
                    f"endpoint value G_j(1) or DG_j(1) overflows float64 at gamma {gamma}, degree j={j}"
                ) from None
    return np.array([pairs[j] for j in degrees]).T.copy()


def deriv_ladder(gamma: float, n: int, kmax: int) -> list[float]:
    """log D^k G_n(1) for k = 0..kmax, by the ratio recurrence seeded at G_n(1).

    One running sum of log ratios (``_deriv_step``) gives every k at once.
    Each ratio (2g+n+j)(n-j)/(2g+2j+1) is positive for gamma > -1/2 and
    0 <= j < n, so every derivative value is strictly positive and the
    sequence is nondecreasing in k.  The last ratio (j = n-1) is exactly 1,
    so D^{n-1} G_n(1) == D^n G_n(1).  Entries past k = n are exact zeros,
    whose log is -inf.
    """
    gamma = check_gamma(gamma)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if kmax < 0:
        raise ValueError(f"derivative order must be >= 0, got {kmax}")
    steps = min(kmax, n)
    terms = (_deriv_step(gamma, n, j) for j in range(steps))
    logs = itertools.accumulate(terms, initial=value_at_one(gamma, n))
    return list(logs) + [-math.inf] * (kmax - steps)


def exact_gamma(gamma: float | Fraction) -> Fraction:
    """gamma as an exact rational: a Fraction as is, a float as its shortest
    decimal (``repr``), so 0.3 is 3/10 and not the binary value of the float,
    whose ladders would run hundreds of digits longer."""
    return gamma if isinstance(gamma, Fraction) else Fraction(repr(check_gamma(gamma)))


def _ladder_factors(gamma: Fraction, n: int, kmax: int) -> tuple[int, int, list[int], list[int]]:
    """gamma = p/q's ladder D^0..D^kmax G_n(1) in integers: the seed G_n(1) =
    prod_{i=1}^{n-1} (2p + iq) / (q^(n-1) n!) as numerator and denominator, and
    ratio j < min(kmax, n) as a_j / b_j, a_j = (2p + (n+j)q)(n-j), b_j = 2p + (2j+1)q."""
    gamma = Fraction(gamma)
    p2, q, steps = 2 * gamma.numerator, gamma.denominator, range(min(kmax, n))
    if p2 + q <= 0 or n < 0 or kmax < 0:  # gamma <= -1/2
        raise ValueError(f"need gamma > -1/2, n >= 0 and kmax >= 0, got {gamma}, {n}, {kmax}")
    seed = math.prod(p2 + i * q for i in range(1, n)), q ** max(n - 1, 0) * math.factorial(n)
    return *seed, [(p2 + (n + j) * q) * (n - j) for j in steps], [p2 + (2 * j + 1) * q for j in steps]


def rational_ladder(gamma: Fraction, n: int, kmax: int) -> list[Fraction]:
    """``deriv_ladder`` in exact rational arithmetic, at gamma's exact value:
    the seed and ratios of ``_ladder_factors``, one Fraction each.  Pass gamma
    through ``exact_gamma``: the binary value of a float makes every entry
    hundreds of digits longer."""
    num, den, a, b = _ladder_factors(gamma, n, kmax)
    ladder = itertools.accumulate(map(Fraction, a, b), operator.mul, initial=Fraction(num, den))
    return list(ladder) + [Fraction(0)] * (kmax - len(a))


def integer_ladder(gamma: Fraction, n: int, kmax: int) -> list[int]:
    """``rational_ladder`` times the positive integer q^(n-1) n! prod_j b_j of
    ``_ladder_factors``: entry k is prod_i (2p + iq) prod_{j<k} a_j
    prod_{k<=j<min(kmax,n)} b_j, one prefix and one suffix product, no gcd."""
    num, _, a, b = _ladder_factors(gamma, n, kmax)
    suffix = list(itertools.accumulate(reversed(b), operator.mul, initial=1))[::-1]
    prefix = itertools.accumulate(a, operator.mul, initial=num)
    return [x * y for x, y in zip(prefix, suffix)] + [0] * (kmax - len(a))


def deriv_at_one(gamma: float, n: int, k: int) -> float:
    """log D^k G_n(1): entry k of ``deriv_ladder``, -inf for k > n."""
    return deriv_ladder(gamma, n, k)[k]


def evaluate(gamma: float, n: int, x: float | np.ndarray) -> float | np.ndarray:
    """G_n(x) by the forward three-term recurrence; |x| <= 1."""
    gamma = check_gamma(gamma)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + 1e-12):
        raise ValueError("evaluation points must lie in [-1, 1]")
    table = _eval_table(gamma, n, np.atleast_1d(xa))
    out = table[n]
    return float(out[0]) if xa.ndim == 0 else out


def basis_matrix(gamma: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """Matrix E with E[i, j] = G_j(x_i), j = 0..nmax."""
    gamma = check_gamma(gamma)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    return _eval_table(gamma, nmax, xa).T.copy()


def _eval_table(gamma: float, nmax: int, x: np.ndarray) -> np.ndarray:
    """All of G_0..G_nmax at the points x, shape (nmax+1, len(x))."""
    table = np.empty((nmax + 1, x.size))
    table[0] = 1.0
    if nmax >= 1:
        table[1] = x
    if nmax >= 2:
        table[2] = (gamma + 1.0) * x * x - 0.5
    for m in range(2, nmax):
        table[m + 1] = (2.0 * (m + gamma) * x * table[m] - (m - 1.0 + 2.0 * gamma) * table[m - 1]) / (m + 1.0)
    return table


def deriv_matrix(gamma: float, size: int) -> np.ndarray:
    """Operator D with (D a) = coefficients of the derivative, shape (size, size)."""
    gamma = check_gamma(gamma)
    d = np.zeros((size, size))
    if size >= 2:
        d[0, 1::2] = 1.0
    for k in range(1, size - 1):
        d[k, k + 1 :: 2] = 2.0 * (k + gamma)
    return d


def mult_x_array(coeffs: np.ndarray, gamma: float) -> np.ndarray:
    """Coefficients of x * p(x), degree raised by one.

    From the three-term recurrence, x G_n = [(n+1) G_{n+1} + c_n G_{n-1}]
    / (2(n+gamma)) with c_1 = 1 and c_n = n-1+2 gamma for n >= 2.
    """
    gamma = check_gamma(gamma)
    a = np.asarray(coeffs, dtype=float)
    n = a.size - 1
    out = np.zeros(n + 2)
    for m in range(n + 1):
        if a[m] == 0.0:
            continue
        if m == 0:
            out[1] += a[0]
            continue
        denom = 2.0 * (m + gamma)
        out[m + 1] += a[m] * (m + 1.0) / denom
        c = 1.0 if m == 1 else (m - 1.0 + 2.0 * gamma)
        out[m - 1] += a[m] * c / denom
    return out


def lobatto_interior_nodes(gamma: float, n: int) -> np.ndarray:
    """Interior collocation nodes: the n-3 roots of D G_{n-2}^{(gamma)}.

    By the index-raising derivative identity these are the roots of
    G_m^{(a)}, m = n-3, a = gamma+1, which are the eigenvalues of its
    symmetric tridiagonal Jacobi matrix (Golub & Welsch, Math. Comp. 23,
    1969): zero diagonal, off-diagonal sqrt(k(k+2a-1) / (4(k+a)(k+a-1))),
    k = 1..m-1.  LAPACK's eigenvalues seed one vectorized Newton pass on
    the three-term recurrence.  Raises ConvergenceError if a polished node
    is not finite or lies nearer another seed than its own.  Returned
    sorted ascending and exactly symmetric.
    """
    gamma = check_gamma(gamma)
    if n < 5:
        raise ValueError(f"need n >= 5 for interior nodes, got {n}")
    m = n - 3  # degree of the target polynomial, at index gamma+1
    g1 = gamma + 1.0

    def f(x: np.ndarray) -> np.ndarray:
        return np.atleast_1d(evaluate(g1, m, x))

    def fp(x: np.ndarray) -> np.ndarray:
        return 2.0 * (g1 + 1.0) * np.atleast_1d(evaluate(g1 + 1.0, m - 1, x))

    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2.0 * g1 - 1.0) / (4.0 * (k + g1) * (k + g1 - 1.0)))
    seeds = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))  # ascending
    # residual scale for the convergence check: |G_m^{(g1)}| peaks at +-1,
    # inf past float64, as at gamma 1000, n 230
    try:
        fscale = math.exp(value_at_one(g1, m))
    except OverflowError:
        fscale = math.inf
    roots = _newton_all(f, fp, seeds, fscale)
    nearest = np.argmin(np.abs(roots[:, None] - seeds[None, :]), axis=1)
    if not np.all(np.isfinite(roots)) or np.any(nearest != np.arange(m)):
        raise ConvergenceError(f"collocation node search failed (gamma {gamma}, n {n})")
    # enforce exact symmetry about 0
    return 0.5 * (roots - roots[::-1])


def _newton_all(f, fp, seeds: np.ndarray, fscale: float) -> np.ndarray:
    """Newton from every seed at once; NaN where an iterate fails.

    An iterate returns once its step is below 1e-15 (1 + |x|).  One whose
    derivative vanishes, or that still moves after 50 steps, is kept only
    if |f| <= 1e-14 fscale there.  Each step clamps to +-(1 - 1e-12); a NaN
    step (inf / inf) lands on the lower clamp, silently, as Python's
    ``max(-lim, nan)`` does.
    """
    lim = 1.0 - 1e-12
    x = np.array(seeds, dtype=float)
    out = np.full(x.size, math.nan)
    active = np.arange(x.size)
    unsettled = []  # iterates that left the loop without a small step
    for _ in range(50):
        if active.size == 0:
            break
        xa = x[active]
        fx = f(xa)
        d = fp(xa)
        flat = d == 0.0
        unsettled.append(active[flat])
        active, xa, fx, d = active[~flat], xa[~flat], fx[~flat], d[~flat]
        with np.errstate(invalid="ignore", over="ignore"):
            step = fx / d
        xa = xa - step
        xa = np.where(xa > -lim, xa, -lim)  # max(-lim, .), NaN -> -lim
        xa = np.where(xa < lim, xa, lim)  # min(lim, .)
        x[active] = xa
        done = np.abs(step) <= 1e-15 * (1.0 + np.abs(xa))
        out[active[done]] = xa[done]
        active = active[~done]
    unsettled = np.concatenate([active, *unsettled])
    if unsettled.size:
        xu = x[unsettled]
        ok = np.abs(f(xu)) <= 1e-14 * fscale
        out[unsettled[ok]] = xu[ok]
    return out
