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

Endpoint quantities are evaluated from log running products (never via
Gamma ratios, which are singular at gamma = 0) and returned as
``ScaledReal``.  The logs of G_n(1) come from one cached prefix-sum ladder
per gamma, so a row of n endpoint values costs O(n), not O(n^2), and so
does the derivative ladder D^0..D^k G_n(1) (one running sum of log
ratios); interior evaluation uses the three-term recurrence in float64.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .eig import ConvergenceError
from .scaled import ScaledReal

GAMMA_MIN = -0.5
_LADDER_MIN_SIZE = 64  # smallest cached log ladder; larger ones double


def check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= GAMMA_MIN:
        raise ValueError(f"gamma must be a finite real > -1/2, got {gamma}")
    return gamma


def value_at_one(gamma: float, n: int) -> ScaledReal:
    """G_n(1), via the running product (2g+1)...(2g+n-1)/n!.

    Always positive for gamma > -1/2; equals 1 for n = 0, 1.  The log is
    the sum of log((2g+j)/(j+1)), j = 1..n-1, so the Legendre case gives
    exactly 1.0 and near-Legendre differences keep full relative accuracy.
    The sum is read from the gamma's cached prefix ladder, O(1) per call
    once the ladder exists; it is bit-identical to adding the terms one by
    one, left to right from 0.0.
    """
    gamma = check_gamma(gamma)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    size = max(_LADDER_MIN_SIZE, 1 << operator.index(n).bit_length())
    return ScaledReal(1, _log_ladder(gamma, size)[max(n - 1, 0)])


@functools.lru_cache(maxsize=32)
def _log_ladder(gamma: float, size: int) -> tuple[float, ...]:
    """Prefix sums of log(2g+j) - log(j+1), j = 1..size-1, from 0.0.

    Entry k is log G_{k+1}(1).  ``size`` is a power of two >= n+1, so one
    ladder serves every degree below it and a process keeps a few ladders
    per gamma.  ``accumulate`` adds the terms left to right, so entry k is
    the same float as a running sum over j = 1..k.  The tuple is immutable
    because every caller, on any thread, shares it.
    """
    terms = (math.log(2.0 * gamma + j) - math.log(j + 1.0) for j in range(1, size))
    return tuple(itertools.accumulate(terms, initial=0.0))


def deriv_ladder(gamma: float, n: int, kmax: int) -> list[ScaledReal]:
    """D^k G_n(1) for k = 0..kmax, by the ratio recurrence seeded at G_n(1).

    One running sum of log ratios gives every k at once.  Each ratio
    (2g+n+j)(n-j)/(2g+2j+1) is positive for gamma > -1/2 and 0 <= j < n, so
    every derivative value is strictly positive and the sequence is
    nondecreasing in k.  The last ratio (j = n-1) is exactly 1, so
    D^{n-1} G_n(1) == D^n G_n(1); the odd characteristic polynomials leave
    that pair out, as it would cancel to an exact zero.  Entries past
    k = n are exact zeros.
    """
    gamma = check_gamma(gamma)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if kmax < 0:
        raise ValueError(f"derivative order must be >= 0, got {kmax}")
    steps = min(kmax, n)
    # grouping keeps num == den bit-identical at j = n-1 (ratio exactly 1)
    terms = (
        math.log((2.0 * gamma + (n + j)) * (n - j)) - math.log(2.0 * gamma + (2 * j + 1))
        for j in range(steps)
    )
    logs = itertools.accumulate(terms, initial=value_at_one(gamma, n).log_mag)
    return [ScaledReal(1, log) for log in logs] + [ScaledReal.zero()] * (kmax - steps)


def rational_ladder(gamma: Fraction, n: int, kmax: int) -> list[Fraction]:
    """``deriv_ladder`` in exact rational arithmetic, at gamma's exact value.

    Build gamma from its decimal text (``Fraction("0.3")``): the binary
    value of a float makes every entry hundreds of digits longer.
    """
    gamma = Fraction(gamma)
    if gamma <= GAMMA_MIN or n < 0 or kmax < 0:
        raise ValueError(f"need gamma > -1/2, n >= 0 and kmax >= 0, got {gamma}, {n}, {kmax}")
    steps = min(kmax, n)
    value = math.prod(((2 * gamma + j) / (j + 1) for j in range(1, n)), start=Fraction(1))
    ratios = ((2 * gamma + n + j) * (n - j) / (2 * gamma + 2 * j + 1) for j in range(steps))
    return list(itertools.accumulate(ratios, operator.mul, initial=value)) + [Fraction(0)] * (kmax - steps)


def deriv_at_one(gamma: float, n: int, k: int) -> ScaledReal:
    """D^k G_n(1): entry k of ``deriv_ladder``, exact zero for k > n."""
    return deriv_ladder(gamma, n, k)[k]


def norm_h(gamma: float, n: int) -> ScaledReal:
    """Squared weighted norm h_n = int W(x) G_n(x)^2 dx, strictly positive.

    h_0 = pi 2^(-2g) Gamma(2g+1)/Gamma(g+1)^2 (all Gamma arguments positive
    for g > -1/2, so lgamma is safe); h_n = h_0 G_n(1) / (2 (n+gamma)).
    """
    gamma = check_gamma(gamma)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    log_h0 = (
        math.log(math.pi)
        - 2.0 * gamma * math.log(2.0)
        + math.lgamma(2.0 * gamma + 1.0)
        - 2.0 * math.lgamma(gamma + 1.0)
    )
    if n == 0:
        return ScaledReal(1, log_h0)
    g1 = value_at_one(gamma, n)
    return ScaledReal(1, log_h0 + g1.log_mag - math.log(2.0 * (n + gamma)))


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


def diff_coeff_array(coeffs: np.ndarray, gamma: float) -> np.ndarray:
    """Coefficients of the derivative, same index gamma, degree reduced by 1.

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
    # residual scale for the convergence check: |G_m^{(g1)}| peaks at +-1
    fscale = value_at_one(g1, m).to_float()
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
