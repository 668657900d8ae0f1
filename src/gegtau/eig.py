"""Dense eigenvalues, polynomial roots, and spectrum labeling.

Dense eigenvalues come from LAPACK's ``dgeev`` (``numpy.linalg.eigvals``, or
``numpy.linalg.eig`` when the right eigenvectors are wanted too), which
balances, reduces to Hessenberg form and runs shifted QR.  For a real matrix,
complex eigenvalues come out as exact conjugate pairs.

Polynomial roots come from the companion matrix of the normalized
coefficients, Newton-polished.

Every eigenvalue threshold is applied here, from ``DEFAULT_TOLERANCES``:
``split_finite`` maps the mu's to lambdas and ``classify`` labels them.
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


def dense_eigs(m: np.ndarray, vectors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of a real square matrix, as a complex128 array; with
    ``vectors``, the pair ``(eigenvalues, V)`` whose column ``V[:, j]`` is a
    unit right eigenvector of eigenvalue j.  A stack of matrices (a leading
    axis) gives a stack of results, one LAPACK call per matrix, each equal
    to that matrix's own result byte for byte.

    The two are LAPACK ``dgeev``'s two jobs: ``np.linalg.eigvals`` and
    ``np.linalg.eig``.  Asking for V costs 1.3-1.7x the values alone (tau
    ladders of dimension 7 to 79).  The two jobs' eigenvalues agree to
    rounding; whether they agree byte for byte depends on the LAPACK build
    (with reference or OpenBLAS LAPACK, ``dhseqr`` runs ``dlahqr`` for both
    below dimension 75, and they were found byte-identical there).
    Raises ValueError for a non-square or non-finite matrix, and
    ConvergenceError when LAPACK's QR iteration fails to converge; a stack
    raises if any of its matrices would.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        if vectors:
            w, v = np.linalg.eig(a)
            return w.astype(complex), v
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolve failed (dim {a.shape[-1]}): {exc}") from exc
    return eigs.astype(complex)


@dataclass
class RootResult:
    """Roots of a polynomial."""

    roots: np.ndarray


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
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c != 0.0):
        raise ValueError("zero polynomial has no well-defined roots")
    c = c / np.max(np.abs(c))
    deg = int(np.max(np.nonzero(c)[0]))
    if deg == 0:
        return RootResult(np.zeros(0, dtype=complex))
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
    return RootResult(np.array(roots, dtype=complex))


def finite_mask(mus: np.ndarray) -> np.ndarray:
    """True for each mu that maps to a finite lambda: |mu| > mu_infinite * max|mu|."""
    mags = np.abs(mus)
    return mags > DEFAULT_TOLERANCES["mu_infinite"] * float(mags.max())


def split_finite(mus: np.ndarray) -> tuple[np.ndarray, int]:
    """Split mu eigenvalues into finite lambdas (= 1/mu) and near-infinite count."""
    mus = np.asarray(mus, dtype=complex)
    if mus.size == 0:
        return mus, 0
    finite = mus[finite_mask(mus)]
    n_inf = int(mus.size - finite.size)
    return 1.0 / finite, n_inf


@dataclass
class SpectrumReport:
    """Classified eigenvalue list in the real/spurious/complex/infinite taxonomy.

    Each eigenvalue carries the parity of the ladder it came from.  A report
    asked for vectors also keeps what each ladder's one LAPACK solve produced,
    so that the residual column needs no second eigensolve.
    """

    eigenvalues: list[complex]
    classes: list[str]
    distinct: bool
    interlaced: bool | None
    parities: list[str]
    # parity -> (M, mu, V): that ladder's reduced matrix M, M's eigenvalues
    # and right eigenvectors from the same LAPACK solve, when the report was
    # asked for vectors; empty otherwise
    eigenpairs: dict = field(default_factory=dict)

    def count(self, label: str) -> int:
        return self.classes.count(label)

    @property
    def n_infinite(self) -> int:
        return self.count(NEAR_INFINITE)

    def finite_eigenvalues(self) -> list[complex]:
        return [e for e, c in zip(self.eigenvalues, self.classes) if c != NEAR_INFINITE]


def _scale_of(lams: np.ndarray) -> float:
    """The median of the nonzero |lambda|, as ``np.median`` rounds it; 1.0 if none."""
    mags = np.abs(lams)
    mags = sorted(mags[mags > 0.0].tolist()) or [1.0]
    k = len(mags) // 2
    return mags[k] if len(mags) % 2 else (mags[k - 1] + mags[k]) / 2


def classify(ladders: dict) -> SpectrumReport:
    """Label the eigenvalues of parity ladders, and evaluate distinctness and
    the interlacing of the ladders' spectra.

    ``ladders`` maps each parity to ``(lambdas, n_infinite)``, its finite
    eigenvalues and its count of near-infinite ones.  The report lists every
    ladder's finite eigenvalues in the dict's order, then its near-infinite
    entries ladder by ladder, each tagged with its ladder's parity.

    The thresholds are the fixed ``DEFAULT_TOLERANCES``, and ``scale`` is
    the median of the nonzero |lambda| (1.0 if none).  An eigenvalue is
    real when |Im| <= max(real_rel*|lambda|, real_abs*scale); a real one is
    negative when its real part is below -real_abs*scale, and spurious
    otherwise.  ``distinct`` requires all relative gaps between real
    eigenvalues to exceed distinct_rel; a pair both below real_abs*scale is
    compared on that absolute scale.  ``interlaced`` checks that the real
    eigenvalues sorted descending alternate parity; it is None for a single
    ladder.
    """
    tol = DEFAULT_TOLERANCES
    eig_list: list[complex] = []
    parities: list[str] = []
    inf_parities: list[str] = []
    for parity, (lams, n_infinite) in ladders.items():
        lams = np.asarray(lams, dtype=complex).ravel().tolist()
        eig_list += lams
        parities += [parity] * len(lams)
        inf_parities += [parity] * n_infinite
    scale = _scale_of(np.array(eig_list, dtype=complex))

    classes: list[str] = []
    reals: list[tuple[float, str]] = []
    for lam, parity in zip(eig_list, parities):
        is_real = abs(lam.imag) <= max(tol["real_rel"] * abs(lam), tol["real_abs"] * scale)
        if is_real:
            # a real part within real_abs * scale of zero is not negative
            negative = lam.real < -tol["real_abs"] * scale
            classes.append(REAL_NEGATIVE if negative else SPURIOUS_POSITIVE)
            reals.append((lam.real, parity))
        else:
            classes.append(COMPLEX_PAIR)

    reals.sort(key=lambda t: t[0])
    distinct = True
    for (a, _), (b, _) in zip(reals, reals[1:]):
        # below real_abs * scale, gaps are measured on the absolute scale;
        # a zero denominator (a subnormal scale) means a == b == 0
        den = max(abs(a), abs(b), tol["real_abs"] * scale)
        gap = abs(b - a) / den if den else 0.0
        if gap <= tol["distinct_rel"]:
            distinct = False
            break

    interlaced: bool | None = None
    if len(ladders) > 1:
        seq = [p for _, p in sorted(reals, key=lambda t: -t[0])]
        interlaced = all(p != q for p, q in zip(seq, seq[1:]))

    return SpectrumReport(
        eigenvalues=eig_list + [complex(math.inf, 0.0)] * len(inf_parities),
        classes=classes + [NEAR_INFINITE] * len(inf_parities),
        distinct=distinct,
        interlaced=interlaced,
        parities=parities + inf_parities,
    )
