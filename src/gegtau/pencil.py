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

from .eig import DEFAULT_TOLERANCES
from .gegenbauer import (
    basis_matrix,
    check_gamma,
    deriv_ladder,
    deriv_matrix,
    lobatto_interior_nodes,
    norm_h,
)

KINDS = ("tau", "inviscid_galerkin", "galerkin", "modified_tau", "collocation")
GAMMA_SHIFT = {"tau": 0.0, "inviscid_galerkin": 1.0, "galerkin": 2.0}


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
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"wavenumber alpha must be finite and >= 0, got {self.alpha}")
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


def _operator(gamma: float, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-space matrices of (D^2 - a^2) and its square."""
    d = deriv_matrix(gamma, n + 1)
    ell = d @ d - (alpha * alpha) * np.eye(n + 1)
    return ell, ell @ ell


def _columns(n: int, parity: str | None) -> np.ndarray:
    """The unknowns' degrees: all of 0..n, or those of one parity ladder."""
    if parity is None:
        return np.arange(n + 1)
    if parity == "even":
        return np.arange(0, n + 1, 2)
    if parity == "odd":
        return np.arange(1, n + 1, 2)
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _boundary_rows(gamma: float, cols: np.ndarray, coupled: bool) -> np.ndarray:
    """Clamped rows against the degrees ``cols``: u and Du at +1 and -1.

    A parity ladder keeps only the two rows at +1; those at -1 repeat them
    up to a sign.  Both rows of a column are entries 0 and 1 of its
    endpoint derivative ladder.
    """
    g1, dg1 = np.array([[d.to_float() for d in deriv_ladder(gamma, j, 1)] for j in cols.tolist()]).T
    if not coupled:
        return np.vstack([g1, dg1])
    signs = (-1.0) ** cols
    return np.vstack([g1, g1 * signs, dg1, -dg1 * signs])


def _with_constraints(a_top: np.ndarray, b_top: np.ndarray, constraint_rows: np.ndarray) -> Pencil:
    """The residual rows over the lambda-independent rows, which are zero in B."""
    a = np.vstack([a_top, constraint_rows])
    b = np.vstack([b_top, np.zeros(constraint_rows.shape)])
    return Pencil(a, b, list(range(a_top.shape[0], a.shape[0])))


def assemble(config: MethodConfig, parity: str | None = None) -> Pencil:
    """Build the pencil for one method configuration.

    ``parity`` selects the even or odd sub-ladder and is required exactly
    when ``config.parity_split`` is set (alpha = 0 only).  Tau (and so
    Galerkin and inviscid Galerkin) and collocation differ only in their
    residual rows: coefficients 0..n-4, or values at the interior nodes.
    """
    if config.parity_split and parity is None:
        raise ValueError("parity_split config needs parity='even' or 'odd'")
    if not config.parity_split and parity is not None:
        raise ValueError("parity given but config.parity_split is False")
    n, alpha = config.n, config.alpha
    gamma = config.gamma + GAMMA_SHIFT.get(config.kind, 0.0)
    if config.kind == "modified_tau":
        return _assemble_modified(gamma, n, alpha)
    cols = _columns(n, parity)
    ell, ell2 = _operator(gamma, n, alpha)
    if config.kind == "collocation":
        nodes = lobatto_interior_nodes(gamma, n)
        if parity is None:
            # the operands as they are: a copy indexed by all degrees
            # changes BLAS's rounding in the last bits
            e = basis_matrix(gamma, n, nodes)
        else:
            # an odd residual vanishes identically at x = 0, so the origin
            # node belongs to the even ladder; strictly positive nodes serve both
            sel = nodes >= 0.0 if parity == "even" else nodes > 0.0
            e = basis_matrix(gamma, n, nodes[sel])[:, cols]
            ell, ell2 = ell[np.ix_(cols, cols)], ell2[np.ix_(cols, cols)]
        a_top, b_top = e @ ell2, e @ ell
    else:
        rows = cols[cols <= n - 4]
        a_top, b_top = ell2[np.ix_(rows, cols)], ell[np.ix_(rows, cols)]
    p = _with_constraints(a_top, b_top, _boundary_rows(gamma, cols, parity is None))
    if p.dim != cols.size:
        raise ValueError(f"{config.kind} pencil is not square at n={n} ({p.dim} rows, {cols.size} cols)")
    return p


def _assemble_modified(gamma: float, n: int, alpha: float) -> Pencil:
    """Coupled (u, v) system: Lu = v and Lv = lambda v, both truncated at n-2.

    Both u and v keep full degree n, so the system has 2n+2 unknowns:
    n-1 dynamic rows, n-1 coupling rows, 4 boundary rows on u.
    """
    ell, _ = _operator(gamma, n, alpha)
    nrow = n - 1
    eye = np.eye(n + 1)[:nrow]
    zero = np.zeros((nrow, n + 1))
    bc = _boundary_rows(gamma, _columns(n, None), coupled=True)
    # dynamic rows mu (L v)_k = v_k; coupling rows (L u)_k - v_k = 0
    coupling = np.vstack([np.hstack([ell[:nrow], -eye]), np.hstack([bc, np.zeros(bc.shape)])])
    return _with_constraints(np.hstack([zero, ell[:nrow]]), np.hstack([zero, eye]), coupling)


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
    is_piv = np.zeros(dim, dtype=bool)
    piv_cols: list[int] = []
    for i in range(m):
        sub = np.abs(u[i:, :])
        sub[:, is_piv] = -1.0
        r, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        r += i
        if abs(u[r, j]) <= 1e-12 * row_max[r]:
            raise ValueError("lambda-independent rows are linearly dependent")
        u[[i, r], :] = u[[r, i], :]
        row_max[[i, r]] = row_max[[r, i]]
        is_piv[j] = True
        piv_cols.append(int(j))
        rows = np.flatnonzero(u[:, j] != 0.0)
        rows = rows[rows != i]
        u[rows, :] -= (u[rows, j] / u[i, j])[:, None] * u[i, :]
    piv = np.array(piv_cols, dtype=np.intp)
    free = np.flatnonzero(~is_piv)
    t = np.zeros((dim, free.size))
    t[free, np.arange(free.size)] = 1.0
    t[piv, :] = -u[:, free] / u[np.arange(m), piv][:, None]
    return t


def _equilibrate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint row scaling and diagonal column similarity, powers of 2.

    Row scaling of the pair leaves the pencil eigenvalues unchanged; column
    scaling is a similarity on M = A^{-1}B.  Power-of-two factors keep the
    transformation exact.
    """
    if a.size == 0:
        return a.copy(), b.copy()
    f = _pow2_scales(np.maximum(np.max(np.abs(a), axis=1), np.max(np.abs(b), axis=1)))
    a, b = a * f[:, None], b * f[:, None]
    f = _pow2_scales(np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0)))
    return a * f, b * f


def _pow2_scales(s: np.ndarray) -> np.ndarray:
    """2^-floor(log2(s)) per entry of s, and 1 where s is not positive."""
    return np.array([2.0 ** -math.floor(math.log2(x)) if x > 0.0 else 1.0 for x in s.tolist()])


@dataclass
class ReducedPencil:
    """Standard eigenproblem M x = mu x equivalent to the finite pencil spectrum."""

    M: np.ndarray


def reduce_to_standard(p: Pencil) -> ReducedPencil:
    """Eliminate the lambda-independent rows and return M = A'^{-1} B'."""
    dim = p.dim
    bc = sorted(p.bc_rows)
    dyn = sorted(set(range(dim)).difference(bc))
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


def split_finite(mus: np.ndarray) -> tuple[np.ndarray, int]:
    """Split mu eigenvalues into finite lambdas (= 1/mu) and near-infinite count."""
    mus = np.asarray(mus, dtype=complex)
    if mus.size == 0:
        return mus, 0
    thresh = DEFAULT_TOLERANCES["mu_infinite"] * float(np.max(np.abs(mus)))
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
    # D^2 [(1-x^2)^2 G_l^{(5/2)}] = C_l P_{l+2}: column l reads column l+2 of D^2
    a = cl * d2[:m, 2 : m + 2] * h[:m, None]
    b = np.zeros((m, m))
    b[np.arange(2, m), np.arange(m - 2)] = cl[: m - 2] * h[2:m]
    return a, b
