"""Generalized eigenvalue pencils for (D^2-a^2)^2 u = lambda (D^2-a^2) u.

Unknowns are the Gegenbauer coefficients of u at index gamma (for the
modified tau variant, of u and of v = (D^2-a^2)u).  Assembly is entirely
quadrature-free: residual rows live in coefficient space through the
derivative operator, and boundary rows use endpoint values with parity signs.

The pencil convention is mu * A a = B a with mu = 1/lambda: A holds the
fourth-order rows plus all lambda-independent rows (boundary conditions and,
for modified tau, the coefficient-identification rows), B holds the
second-order rows and is zero on the lambda-independent rows.

``reduce_to_standard`` eliminates the lambda-independent rows exactly (they
carry no eigenvalue) and returns M = A'^{-1} B' whose eigenvalues are the
mu's; |mu| below a relative cutoff maps to the near-infinite lambda class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import (
    basis_matrix,
    check_gamma,
    deriv_at_one,
    deriv_matrix,
    lobatto_interior_nodes,
    norm_h,
    value_at_one,
)

KINDS = ("tau", "inviscid_galerkin", "galerkin", "modified_tau", "collocation")
GAMMA_SHIFT = {"tau": 0.0, "inviscid_galerkin": 1.0, "galerkin": 2.0}
MU_INFINITE_CUTOFF = 1e-12


class SingularReductionError(RuntimeError):
    """The reduced fourth-order block is numerically singular."""


@dataclass(frozen=True)
class MethodConfig:
    """One discretization: method kind, weight index, degree, wavenumber."""

    kind: str
    gamma: float
    n: int
    alpha: float = 0.0
    parity_split: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; expected one of {KINDS}")
        check_gamma(self.gamma)
        if self.n < 4:
            raise ValueError(f"need polynomial degree n >= 4, got {self.n}")
        if self.alpha < 0.0:
            raise ValueError(f"wavenumber alpha must be >= 0, got {self.alpha}")
        if self.parity_split and self.alpha != 0.0:
            raise ValueError("parity decoupling requires alpha = 0")
        if self.parity_split and self.kind == "modified_tau":
            raise ValueError("parity_split is not supported for modified_tau")


@dataclass
class Pencil:
    """Matrix pair with mu A a = B a; bc_rows are identically zero in B."""

    A: np.ndarray
    B: np.ndarray
    bc_rows: list[int]

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def _endpoint_rows(gamma: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of u(1) and Du(1) against coefficients 0..n."""
    g1 = np.array([value_at_one(gamma, j).to_float() for j in range(n + 1)])
    dg1 = np.array([deriv_at_one(gamma, j, 1).to_float() for j in range(n + 1)])
    return g1, dg1


def _operator(gamma: float, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-space matrices of (D^2 - a^2) and its square."""
    d = deriv_matrix(gamma, n + 1)
    ell = d @ d - (alpha * alpha) * np.eye(n + 1)
    return ell, ell @ ell


def _parity_indices(n: int, parity: str) -> np.ndarray:
    if parity == "even":
        return np.arange(0, n + 1, 2)
    if parity == "odd":
        return np.arange(1, n + 1, 2)
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def assemble(config: MethodConfig, parity: str | None = None) -> Pencil:
    """Build the pencil for one method configuration.

    ``parity`` selects the even or odd sub-ladder and is required exactly
    when ``config.parity_split`` is set (alpha = 0 only).
    """
    if config.parity_split and parity is None:
        raise ValueError("parity_split config needs parity='even' or 'odd'")
    if not config.parity_split and parity is not None:
        raise ValueError("parity given but config.parity_split is False")
    n, alpha = config.n, config.alpha
    if config.kind in GAMMA_SHIFT:
        g = config.gamma + GAMMA_SHIFT[config.kind]
        return _assemble_tau(g, n, alpha, parity)
    if config.kind == "modified_tau":
        return _assemble_modified(config.gamma, n, alpha)
    return _assemble_collocation(config.gamma, n, alpha, parity)


def _assemble_tau(gamma: float, n: int, alpha: float, parity: str | None) -> Pencil:
    ell, ell2 = _operator(gamma, n, alpha)
    g1, dg1 = _endpoint_rows(gamma, n)
    if parity is None:
        rows = np.arange(n - 3)
        signs = (-1.0) ** np.arange(n + 1)
        bc = np.vstack([g1, g1 * signs, dg1, -dg1 * signs])
        a = np.vstack([ell2[rows], bc])
        b = np.vstack([ell[rows], np.zeros((4, n + 1))])
        return Pencil(a, b, list(range(n - 3, n + 1)))
    cols = _parity_indices(n, parity)
    rows = cols[cols <= n - 4]
    a_top = ell2[np.ix_(rows, cols)]
    b_top = ell[np.ix_(rows, cols)]
    bc = np.vstack([g1[cols], dg1[cols]])
    a = np.vstack([a_top, bc])
    b = np.vstack([b_top, np.zeros((2, cols.size))])
    return Pencil(a, b, [a.shape[0] - 2, a.shape[0] - 1])


def _assemble_modified(gamma: float, n: int, alpha: float) -> Pencil:
    """Coupled (u, v) system: Lu = v and Lv = lambda v, both truncated at n-2.

    Both u and v keep full degree n, so the system has 2n+2 unknowns:
    n-1 coupling rows, n-1 dynamic rows, 4 boundary rows on u.
    """
    ell, _ = _operator(gamma, n, alpha)
    g1, dg1 = _endpoint_rows(gamma, n)
    dim = 2 * (n + 1)
    nrow = n - 1
    a = np.zeros((dim, dim))
    b = np.zeros((dim, dim))
    u = slice(0, n + 1)
    v = slice(n + 1, dim)
    # dynamic rows first: mu (L v)_k = v_k
    a[0:nrow, v] = ell[0:nrow, :]
    b[0:nrow, v] = np.eye(n + 1)[0:nrow, :]
    # coupling rows: (L u)_k - v_k = 0
    a[nrow : 2 * nrow, u] = ell[0:nrow, :]
    a[nrow : 2 * nrow, v] = -np.eye(n + 1)[0:nrow, :]
    signs = (-1.0) ** np.arange(n + 1)
    a[2 * nrow + 0, u] = g1
    a[2 * nrow + 1, u] = g1 * signs
    a[2 * nrow + 2, u] = dg1
    a[2 * nrow + 3, u] = -dg1 * signs
    return Pencil(a, b, list(range(nrow, dim)))


def _assemble_collocation(gamma: float, n: int, alpha: float, parity: str | None) -> Pencil:
    nodes = lobatto_interior_nodes(gamma, n)
    ell, ell2 = _operator(gamma, n, alpha)
    g1, dg1 = _endpoint_rows(gamma, n)
    if parity is None:
        e = basis_matrix(gamma, n, nodes)
        signs = (-1.0) ** np.arange(n + 1)
        bc = np.vstack([g1, g1 * signs, dg1, -dg1 * signs])
        a = np.vstack([e @ ell2, bc])
        b = np.vstack([e @ ell, np.zeros((4, n + 1))])
        return Pencil(a, b, list(range(n - 3, n + 1)))
    cols = _parity_indices(n, parity)
    # an odd residual vanishes identically at x = 0, so the origin node
    # belongs to the even ladder; strictly positive nodes serve both
    sel = nodes >= 0.0 if parity == "even" else nodes > 0.0
    e = basis_matrix(gamma, n, nodes[sel])[:, cols]
    ell_s = ell[np.ix_(cols, cols)]
    ell2_s = ell2[np.ix_(cols, cols)]
    bc = np.vstack([g1[cols], dg1[cols]])
    a = np.vstack([e @ ell2_s, bc])
    b = np.vstack([e @ ell_s, np.zeros((2, cols.size))])
    if a.shape[0] != cols.size:
        raise ValueError(f"parity split is inconsistent with n={n} ({a.shape[0]} rows, {cols.size} cols)")
    return Pencil(a, b, [a.shape[0] - 2, a.shape[0] - 1])


def _nullspace_by_elimination(c: np.ndarray) -> np.ndarray:
    """Basis of the nullspace of the constraint rows, by full-pivot Gauss.

    Raises if the rows are linearly dependent (rank-deficient pivot).  Each
    pivot is tested against the largest entry its own row had before
    elimination: boundary rows at large gamma and n span many orders of
    magnitude, and a test against the whole matrix would reject the small
    rows although they are independent.
    """
    m, dim = c.shape
    u = c.copy()
    row_max = np.max(np.abs(u), axis=1) if u.size else np.zeros(m)
    piv_cols: list[int] = []
    for i in range(m):
        sub = np.abs(u[i:, :])
        sub[:, piv_cols] = -1.0
        r, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        r += i
        if abs(u[r, j]) <= 1e-12 * row_max[r]:
            raise ValueError("lambda-independent rows are linearly dependent")
        u[[i, r], :] = u[[r, i], :]
        row_max[[i, r]] = row_max[[r, i]]
        piv_cols.append(int(j))
        for rr in range(m):
            if rr != i and u[rr, j] != 0.0:
                u[rr, :] -= (u[rr, j] / u[i, j]) * u[i, :]
    free_cols = [j for j in range(dim) if j not in piv_cols]
    t = np.zeros((dim, len(free_cols)))
    for jj, f in enumerate(free_cols):
        t[f, jj] = 1.0
        for i, p in enumerate(piv_cols):
            t[p, jj] = -u[i, f] / u[i, p]
    return t


def _equilibrate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint row scaling and diagonal column similarity, powers of 2.

    Row scaling of the pair leaves the pencil eigenvalues unchanged; column
    scaling is a similarity on M = A^{-1}B.  Power-of-two factors keep the
    transformation exact.
    """
    a = a.copy()
    b = b.copy()
    if a.size == 0:
        return a, b
    for i in range(a.shape[0]):
        s = max(np.max(np.abs(a[i])), np.max(np.abs(b[i])))
        if s > 0.0:
            f = 2.0 ** (-math.floor(math.log2(s)))
            a[i] *= f
            b[i] *= f
    for j in range(a.shape[1]):
        s = max(np.max(np.abs(a[:, j])), np.max(np.abs(b[:, j])))
        if s > 0.0:
            f = 2.0 ** (-math.floor(math.log2(s)))
            a[:, j] *= f
            b[:, j] *= f
    return a, b


@dataclass
class ReducedPencil:
    """Standard eigenproblem M x = mu x equivalent to the finite pencil spectrum."""

    M: np.ndarray
    mu_cutoff: float = MU_INFINITE_CUTOFF


def reduce_to_standard(p: Pencil) -> ReducedPencil:
    """Eliminate the lambda-independent rows and return M = A'^{-1} B'."""
    dim = p.dim
    bc = sorted(p.bc_rows)
    dyn = [r for r in range(dim) if r not in set(bc)]
    if np.any(p.B[bc, :] != 0.0):
        raise ValueError("bc_rows must be identically zero in B")
    t = _nullspace_by_elimination(p.A[bc, :])
    a1 = p.A[dyn, :] @ t
    b1 = p.B[dyn, :] @ t
    a1, b1 = _equilibrate(a1, b1)
    if a1.size == 0:
        return ReducedPencil(np.zeros((0, 0)))
    try:
        m = np.linalg.solve(a1, b1)
    except np.linalg.LinAlgError as exc:
        raise SingularReductionError(f"reduced fourth-order block is singular: {exc}") from exc
    resid = np.max(np.abs(a1 @ m - b1)) / max(1.0, np.max(np.abs(b1)))
    if resid > 1e-6:
        raise SingularReductionError(
            f"reduced solve is unreliable (residual {resid:.2e}); A' is near-singular"
        )
    return ReducedPencil(m)


def split_finite(mus: np.ndarray, cutoff: float = MU_INFINITE_CUTOFF) -> tuple[np.ndarray, int]:
    """Split mu eigenvalues into finite lambdas (= 1/mu) and near-infinite count."""
    mus = np.asarray(mus, dtype=complex)
    if mus.size == 0:
        return mus, 0
    thresh = cutoff * float(np.max(np.abs(mus)))
    finite = mus[np.abs(mus) > thresh]
    n_inf = int(mus.size - finite.size)
    return 1.0 / finite, n_inf


def legendre_reduced_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Legendre-case pencil in the boundary-adapted basis.

    Trial functions (1-x^2)^2 G_l^{(5/2)}, test functions P_k, k,l = 0..n-4.
    A is upper triangular with nonzero diagonal; B is supported on the second
    subdiagonal only, B(l+2, l) = C_l h_{l+2}, with
    C_l = (l+1)(l+2)(l+3)(l+4)/15.  The two-dimensional nullspace of B is
    what makes the two infinite eigenvalues of Legendre tau exact.
    """
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    m = n - 3  # matrix dimension, indices 0..n-4
    d = deriv_matrix(0.5, n + 1)
    d2 = d @ d
    h = np.array([norm_h(0.5, k).to_float() for k in range(n - 1)])
    cl = np.array([(l + 1) * (l + 2) * (l + 3) * (l + 4) / 15.0 for l in range(m)])
    a = np.zeros((m, m))
    b = np.zeros((m, m))
    for l in range(m):
        # D^2 [(1-x^2)^2 G_l^{(5/2)}] = C_l P_{l+2}
        unit = np.zeros(n + 1)
        unit[l + 2] = 1.0
        d2p = (d2 @ unit)[:m]
        a[:, l] = cl[l] * d2p * h[:m]
        if l + 2 < m:
            b[l + 2, l] = cl[l] * h[l + 2]
    return a, b
