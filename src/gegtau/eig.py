"""Dense eigenvalues, polynomial roots, and spectrum labeling.

Dense eigenvalues come from LAPACK (``numpy.linalg.eigvals``, which balances,
reduces to Hessenberg form and runs shifted QR).  For a real matrix, complex
eigenvalues come out as exact conjugate pairs.

Polynomial roots come from the companion matrix of the normalized
coefficients, Newton-polished, with a per-root residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REAL_NEGATIVE = "real_negative"
SPURIOUS_POSITIVE = "spurious_positive"
COMPLEX_PAIR = "complex_pair"
NEAR_INFINITE = "near_infinite"

DEFAULT_TOLERANCES = {
    "real_rel": 1e-8,  # |Im| <= real_rel * |lambda| counts as real
    "real_abs": 1e-10,  # ... or |Im| <= real_abs * scale
    "distinct_rel": 1e-8,  # minimum relative gap between real eigenvalues
    "mu_infinite": 1e-12,  # |mu| < mu_infinite * max|mu| maps to lambda = inf
}


class ConvergenceError(RuntimeError):
    """An eigensolve (LAPACK's, or the collocation node search) did not converge."""


def dense_eigs(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix, as a complex128 array.

    Raises ValueError for a non-square or non-finite matrix, and
    ConvergenceError when LAPACK's QR iteration fails to converge.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolve failed (dim {a.shape[0]}): {exc}") from exc
    return eigs.astype(complex)


@dataclass
class RootResult:
    """Roots of a polynomial plus the per-root scaled residual |p(r)|."""

    roots: np.ndarray
    residuals: np.ndarray

    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def _horner_pair(c: np.ndarray, z: complex) -> tuple[complex, complex]:
    """p(z) and p'(z) by Horner."""
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for ck in c[::-1]:
        dp = dp * z + p
        p = p * z + ck
    return p, dp


def _polish_root(c: np.ndarray, z: complex) -> complex:
    """A few guarded Newton steps; companion eigenvalues of tight root
    clusters can be several orders less accurate than the roots themselves.

    A step that overflows (a near-zero p' or a huge iterate) gives a
    non-finite |p|; polishing stops there and keeps the best root so far.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        best = z
        best_val = abs(_horner_pair(c, z)[0])
        for _ in range(4):
            p, dp = _horner_pair(c, z)
            if dp == 0.0:
                break
            z = z - p / dp
            val = abs(_horner_pair(c, z)[0])
            if not (np.isfinite(val) and val < best_val):
                break
            best, best_val = z, val
    return best


def poly_roots(coeffs: np.ndarray) -> RootResult:
    """Roots of ``sum_k coeffs[k] z^k`` via the balanced companion matrix.

    Coefficients are normalized by the largest magnitude; exact zero roots
    (zero constant terms) are deflated before building the companion, and
    the companion eigenvalues are Newton-polished against the polynomial.
    The residual reported per root is |p(r)| / (max|c| * max(1, |r|)^degree).
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c != 0.0):
        raise ValueError("zero polynomial has no well-defined roots")
    c = c / np.max(np.abs(c))
    deg = int(np.max(np.nonzero(c)[0]))
    if deg == 0:
        return RootResult(np.zeros(0, dtype=complex), np.zeros(0))
    c = c[: deg + 1]
    nzero = int(np.min(np.nonzero(c)[0]))  # exact roots at the origin
    c_red = c[nzero:]
    roots = [0.0 + 0.0j] * nzero
    m = c_red.size - 1
    if m > 0:
        monic = c_red[:-1] / c_red[-1]
        comp = np.zeros((m, m))
        comp[np.arange(1, m), np.arange(m - 1)] = 1.0
        comp[:, m - 1] = -monic
        eigs = dense_eigs(comp)
        polished = np.array([_polish_root(c_red, z) for z in eigs])
        # a step that lands nearer another companion eigenvalue than its
        # own start has jumped to that root: keep the unpolished value
        dist = np.abs(polished[:, None] - eigs[None, :])
        jumped = np.diag(dist) > dist.min(axis=1)
        polished[jumped] = eigs[jumped]
        # keep conjugate symmetry exact after independent polishing
        imag_scale = np.abs(polished)
        near_real = np.abs(polished.imag) <= 1e-14 * np.maximum(imag_scale, 1.0)
        polished[near_real] = polished[near_real].real
        roots.extend(polished)
    roots_arr = np.array(roots, dtype=complex)
    vals = np.zeros(roots_arr.size, dtype=complex)
    for ck in c[::-1]:
        vals = vals * roots_arr + ck
    scale = np.maximum(1.0, np.abs(roots_arr)) ** deg
    return RootResult(roots_arr, np.abs(vals) / scale)


@dataclass
class SpectrumReport:
    """Classified eigenvalue list in the real/spurious/complex/infinite taxonomy."""

    eigenvalues: list[complex]
    classes: list[str]
    distinct: bool
    interlaced: bool | None
    parities: list[str] | None = None
    # parity ("even", "odd", or None for the coupled system) -> the reduced
    # matrix M of that ladder, as solved by the pencil route; empty otherwise
    reduced: dict = field(default_factory=dict)

    def count(self, label: str) -> int:
        return self.classes.count(label)

    @property
    def n_infinite(self) -> int:
        return self.count(NEAR_INFINITE)

    def finite_eigenvalues(self) -> list[complex]:
        return [e for e, c in zip(self.eigenvalues, self.classes) if c != NEAR_INFINITE]


def classify(
    eigs: np.ndarray | list[complex],
    scale: float,
    parities: list[str] | None = None,
    n_infinite: int = 0,
    infinite_parities: list[str] | None = None,
) -> SpectrumReport:
    """Label eigenvalues and evaluate distinctness / parity interlacing.

    The thresholds are the fixed ``DEFAULT_TOLERANCES``.  An eigenvalue is
    real when |Im| <= max(real_rel*|lambda|, real_abs*scale); a real one is
    negative when its real part is below -real_abs*scale, and spurious
    otherwise.  ``distinct`` requires all relative gaps between real
    eigenvalues to exceed distinct_rel; a pair both below real_abs*scale is
    compared on that absolute scale.
    ``interlaced`` (merged even/odd reports only) checks that the real
    eigenvalues sorted descending alternate parity.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    tol = DEFAULT_TOLERANCES
    eig_list = [complex(e) for e in np.atleast_1d(np.asarray(eigs, dtype=complex))]
    if parities is not None and len(parities) != len(eig_list):
        raise ValueError("parities must match eigenvalues in length")

    classes: list[str] = []
    reals: list[tuple[float, str | None]] = []
    for i, lam in enumerate(eig_list):
        is_real = abs(lam.imag) <= max(tol["real_rel"] * abs(lam), tol["real_abs"] * scale)
        if is_real:
            # a real part within real_abs * scale of zero is not negative
            negative = lam.real < -tol["real_abs"] * scale
            classes.append(REAL_NEGATIVE if negative else SPURIOUS_POSITIVE)
            reals.append((lam.real, parities[i] if parities else None))
        else:
            classes.append(COMPLEX_PAIR)

    reals.sort(key=lambda t: t[0])
    distinct = True
    for (a, _), (b, _) in zip(reals, reals[1:]):
        # below real_abs * scale, gaps are measured on the absolute scale
        gap = abs(b - a) / max(abs(a), abs(b), tol["real_abs"] * scale)
        if gap <= tol["distinct_rel"]:
            distinct = False
            break

    interlaced: bool | None = None
    if parities is not None:
        seq = [p for _, p in sorted(reals, key=lambda t: -t[0])]
        interlaced = all(p != q for p, q in zip(seq, seq[1:]))

    eig_out = list(eig_list)
    par_out = list(parities) if parities is not None else None
    for j in range(n_infinite):
        eig_out.append(complex(math.inf, 0.0))
        classes.append(NEAR_INFINITE)
        if par_out is not None:
            par_out.append(infinite_parities[j] if infinite_parities else "unknown")
    return SpectrumReport(
        eigenvalues=eig_out,
        classes=classes,
        distinct=distinct,
        interlaced=interlaced,
        parities=par_out,
    )
