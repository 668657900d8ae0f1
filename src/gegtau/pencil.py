"""Generalized eigenvalue pencils for (D^2-a^2)^2 u = lambda (D^2-a^2) u.

Each pencil is one parity ladder, even or odd.  Its unknowns are the
Gegenbauer coefficients of u at index gamma on that ladder (for the
modified tau variant, of u and of v = (D^2-a^2)u).  Assembly is entirely
quadrature-free: residual rows live in coefficient space through the
derivative operator, and boundary rows use endpoint values at x = 1.

The pencil convention is mu * A a = B a subject to C a = 0, with
mu = 1/lambda: A holds the fourth-order rows, B the second-order rows, and C
the lambda-independent rows (boundary conditions and, for modified tau, the
coefficient-identification rows).

``_nullspace_by_elimination`` eliminates C exactly (its rows carry no
eigenvalue), and ``reduce_to_standard`` returns M = A'^{-1} B' on its basis,
whose eigenvalues are the mu's; ``eig.split_finite`` maps them to lambdas.
The grid solve in ``spectra`` passes both every ladder stacked on a
leading axis, a lone one as a stack of one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import InitVar, dataclass

import numpy as np

from .gegenbauer import basis_matrix, check_gamma, deriv_matrix, endpoint_rows, lobatto_interior_nodes

KINDS = ("tau", "inviscid_galerkin", "galerkin", "modified_tau", "collocation")
GAMMA_SHIFT = {"tau": 0.0, "inviscid_galerkin": 1.0, "galerkin": 2.0}


class SingularReductionError(RuntimeError):
    """The pencil has no reliable float64 reduction: its reduced fourth-order
    block is singular or its lambda-independent rows are dependent, to working
    precision, or an endpoint value, (D^2 - a^2)^2 or a reduced row overflows."""


@dataclass(frozen=True)
class MethodConfig:
    """One discretization: method kind, weight index, degree, wavenumber.

    Every configuration is solved as its even and odd parity ladders.
    ``parity_split`` is accepted for old callers and must be True.
    """

    kind: str
    gamma: float
    n: int
    alpha: float = 0.0
    parity_split: InitVar[bool] = True

    def __post_init__(self, parity_split: bool) -> None:
        if not parity_split:
            raise ValueError(
                "the coupled pencil is not solved by the library; its reference "
                "assembly is tests/test_pencil.py::_oracle_assemble"
            )
        if self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; expected one of {KINDS}")
        for name in ("gamma", "alpha"):  # a string would pass float() in check_gamma
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        check_gamma(self.gamma)
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"polynomial degree n must be an integer, got {self.n!r}")
        if self.n < 4:
            raise ValueError(f"need polynomial degree n >= 4, got {self.n}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"wavenumber alpha must be finite and >= 0, got {self.alpha}")


@dataclass
class Pencil:
    """One parity ladder of mu A a = B a subject to C a = 0.

    A and B hold the residual rows; C holds the lambda-independent rows
    (boundary conditions and modified tau's coupling rows).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


# The two builders below depend on (gamma, n[, alpha]) alone, so both parity
# ladders of a configuration slice one cached, read-only result.  One entry
# each: a spectrum solves its ladders back to back, and every entry kept
# holds two (n+1)^2 matrices.
@functools.lru_cache(maxsize=1)
def _operator(gamma: float, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-space matrices of (D^2 - a^2) and its square, read-only;
    raises ``SingularReductionError`` when the square overflows float64."""
    d = deriv_matrix(gamma, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        ell = d @ d - (alpha * alpha) * np.eye(n + 1)
        ell2 = ell @ ell
    if not np.isfinite(ell2).all():
        raise SingularReductionError(f"(D^2 - a^2)^2 overflows float64 at alpha {alpha}, gamma {gamma}, n={n}")
    ell.flags.writeable = ell2.flags.writeable = False
    return ell, ell2


@functools.lru_cache(maxsize=1)
def _collocation_table(gamma: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The interior nodes and E[i, j] = G_j(node_i), j = 0..n, read-only."""
    nodes = lobatto_interior_nodes(gamma, n)
    e = basis_matrix(gamma, n, nodes)
    nodes.flags.writeable = e.flags.writeable = False
    return nodes, e


def _columns(n: int, parity: str) -> np.ndarray:
    """The unknowns' degrees on one parity ladder of 0..n."""
    if parity == "even":
        return np.arange(0, n + 1, 2)
    if parity == "odd":
        return np.arange(1, n + 1, 2)
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def assemble(config: MethodConfig, parity: str) -> Pencil:
    """Build the pencil of one parity ladder of a method configuration.

    ``parity`` selects the even or odd sub-ladder, for any kind and alpha:
    (D^2 - a^2) keeps the parity of a Gegenbauer series.  Tau (and so
    Galerkin and inviscid Galerkin), collocation and modified tau differ
    only in their residual rows: coefficients 0..n-4, values at the
    interior nodes, or the (u, v) rows up to degree n-2.  Both ladders of
    one configuration share its operator (and collocation nodes and basis
    table), built once and read-only; the returned blocks are fresh,
    writable, C-ordered arrays.
    """
    n, alpha = config.n, config.alpha
    gamma = config.gamma + GAMMA_SHIFT.get(config.kind, 0.0)
    cols = _columns(n, parity)
    ell, ell2 = _operator(gamma, n, alpha)
    # clamped rows: u and Du at +1 only, as the rows at -1 repeat them up to
    # a sign.  A value past float64 would make every pivot of its row fail
    # the elimination's dependence test.
    try:
        c = endpoint_rows(gamma, cols.tolist())
    except OverflowError as exc:
        raise SingularReductionError(str(exc)) from None
    if config.kind == "modified_tau":
        # unknowns (u, v), v = (D^2-a^2)u, both of degree n: dynamic rows
        # mu (L v)_k = v_k and coupling rows (L u)_k - v_k = 0 for k <= n-2,
        # then the boundary rows on u
        rows = cols[cols <= n - 2]
        ell_rows = ell[np.ix_(rows, cols)]
        eye = (rows[:, None] == cols[None, :]).astype(float)
        zero = np.zeros(ell_rows.shape)
        a, b = np.hstack([zero, ell_rows]), np.hstack([zero, eye])
        c = np.vstack([np.hstack([ell_rows, -eye]), np.hstack([c, np.zeros(c.shape)])])
    elif config.kind == "collocation":
        # an odd residual vanishes identically at x = 0, so the origin node
        # belongs to the even ladder; strictly positive nodes serve both.
        # Rows first, then columns: e[np.ix_(sel, cols)] is laid out
        # otherwise and moves BLAS's rounding in the last bits.
        nodes, e = _collocation_table(gamma, n)
        sel = nodes >= 0.0 if parity == "even" else nodes > 0.0
        e = e[sel][:, cols]
        with np.errstate(over="ignore", invalid="ignore"):  # reduce_to_standard raises on overflow
            a, b = e @ ell2[np.ix_(cols, cols)], e @ ell[np.ix_(cols, cols)]
    else:
        # rows: the ladder's degrees up to n-4, copied out of the cached
        # operator C-ordered, the layout the reduction's products round in
        c0 = int(cols[0])
        a, b = ell2[c0 : n - 3 : 2, c0::2].copy(), ell[c0 : n - 3 : 2, c0::2].copy()
    return Pencil(a, b, c)


def _nullspace_by_elimination(c: np.ndarray) -> np.ndarray:
    """Bases of the nullspaces of a stack of constraint rows ``(k, m, d)``,
    ladders of one row count, by full-pivot Gauss: ``(k, d, d - m)``.

    Raises ``SingularReductionError`` if any ladder's rows are numerically
    dependent (rank-deficient pivot).  Each pivot is tested against the
    largest entry its own row had before elimination: boundary rows at
    large gamma and n span many orders of magnitude, and a test against
    the whole matrix would reject the small rows although they are
    independent.

    The stack's size selects the path.  Two or more ladders take each
    pivot step in one array pass: each ladder's pivot row is swapped into
    place, and only its rows with a nonzero pivot-column entry are updated,
    so each ladder's basis equals its own elimination's byte for byte.  A
    narrower ladder may be stacked zero-padded to the widest, and its
    basis cut back to ``[:d, :d - m]``: a zero column never wins a pivot,
    the update is elementwise, and the padded columns are free columns
    that sort after the real ones, so for finite rows the cut basis is
    again its own elimination's.  A stack of one runs a loop that updates
    only the rows its pivot column reaches: the array pass costs about
    twice that on a lone ladder (tau at n 20, modified tau at n 34), and
    beats the loop per ladder on a sweep row's 18 ladders of 4 to 21
    columns (84 against 684 microseconds).
    """
    k, m, dim = c.shape
    if k == 1:
        u = c[0].copy()
        row_max = np.abs(u).max(axis=1).tolist()
        piv_cols: list[int] = []
        for i in range(m):
            sub = np.abs(u[i:])
            if piv_cols:
                sub[:, piv_cols] = -1.0
            r, j = divmod(int(sub.argmax()), dim)
            r += i
            if abs(u[r, j]) <= 1e-12 * row_max[r]:
                raise SingularReductionError("lambda-independent rows are linearly dependent")
            if r != i:
                u[i], u[r] = u[r], u[i].copy()
                row_max[i], row_max[r] = row_max[r], row_max[i]
            piv_cols.append(j)
            rows = u[:, j].nonzero()[0]
            rows = rows[rows != i]
            if rows.size:
                u[rows] -= (u[rows, j] / u[i, j])[:, None] * u[i]
        free = np.ones(dim, dtype=bool)
        free[piv_cols] = False
        t = np.zeros((dim, dim - m))
        t[free, np.arange(dim - m)] = 1.0
        t[piv_cols, :] = -u[:, free] / u[np.arange(m), piv_cols][:, None]
        return t[None]
    u = c.copy()
    row_max = np.abs(u).max(axis=2)
    ladder = np.arange(k)
    pivoted = np.zeros((k, dim), dtype=bool)
    piv_cols = np.zeros((k, m), dtype=np.intp)
    for i in range(m):
        sub = np.abs(u[:, i:])
        np.copyto(sub, -1.0, where=pivoted[:, None, :])
        sub = sub.reshape(k, -1)
        at = sub.argmax(axis=1)
        r, j = at // dim + i, at % dim
        if (sub[ladder, at] <= 1e-12 * row_max[ladder, r]).any():
            raise SingularReductionError("lambda-independent rows are linearly dependent")
        # each ladder's pivot row swapped into row i, as the loop swaps
        # it: later argmax ties then break alike
        pivot_row = u[ladder, r]
        u[ladder, r], u[:, i] = u[:, i], pivot_row
        row_max[ladder, r], row_max[:, i] = row_max[:, i], row_max[ladder, r]
        pivoted[ladder, j] = True
        piv_cols[:, i] = j
        col = u[ladder, :, j]
        # rows with a zero pivot-column entry keep their values, signed
        # zeros included, as the loop leaves them
        rows = col != 0.0
        rows[:, i] = False
        np.subtract(u, (col / col[:, i, None])[..., None] * pivot_row[:, None], out=u, where=rows[..., None])
    free = np.nonzero(~pivoted)[1].reshape(k, dim - m)
    t = np.zeros((k, dim, dim - m))
    kk, steps = ladder[:, None], np.arange(m)
    t[kk, free, np.arange(dim - m)] = 1.0
    t[kk, piv_cols] = -u[kk[..., None], steps[:, None], free[:, None]] / u[kk, steps, piv_cols][..., None]
    return t


def _equilibrate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint row scaling and diagonal column similarity, powers of 2, of one
    pair or of each pair of a stack (a leading axis).

    Row scaling of the pair leaves the pencil eigenvalues unchanged; column
    scaling is a similarity on M = A^{-1}B.  Power-of-two factors keep the
    transformation exact.  Raises ``SingularReductionError`` when a row
    holds a value past float64.
    """
    s = np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1))
    if not np.isfinite(s).all():
        raise SingularReductionError("a reduced row overflows float64")
    f = _pow2_scales(s)[..., None]
    a, b = a * f, b * f
    f = _pow2_scales(np.maximum(np.abs(a).max(axis=-2), np.abs(b).max(axis=-2)))[..., None, :]
    return a * f, b * f


def _pow2_scales(s: np.ndarray) -> np.ndarray:
    """2^-floor(log2(s)) per entry of s, and 1 where s is not positive."""
    scales = [2.0 ** -math.floor(math.log2(x)) if x > 0.0 else 1.0 for x in s.ravel().tolist()]
    return np.array(scales).reshape(s.shape)


@dataclass
class ReducedPencil:
    """Standard eigenproblem M x = mu x equivalent to the finite pencil spectrum."""

    M: np.ndarray


def reduce_to_standard(p: Pencil, t: np.ndarray) -> ReducedPencil:
    """M = A'^{-1} B', the pencil on the nullspace of C.

    ``t`` is that nullspace's basis, from ``_nullspace_by_elimination``:
    the caller eliminates, so that one array pass serves ladders of every
    width with the same row count.  A' and B' are A @ t and B @ t,
    equilibrated.  An empty ladder (the odd one at n = 4) reduces to a
    0 x 0 M.  The grid solve passes blocks and bases stacked on a leading
    axis, ladders of one shape (a lone ladder as a stack of one), and gets
    a stack of M's: each product, solve and residual check runs once for
    the stack, one BLAS or LAPACK call per ladder, so each M equals its
    ladder's own reduction byte for byte.  One ladder's unstacked blocks
    reduce alike.  A stack raises if any of its ladders would.
    """
    if p.A.shape[-2] + p.C.shape[-2] != p.A.shape[-1]:
        raise ValueError(f"pencil is not square: {p.A.shape[-2]} + {p.C.shape[-2]} rows, {p.A.shape[-1]} columns")
    with np.errstate(over="ignore", invalid="ignore"):  # _equilibrate raises on overflow
        a1, b1 = p.A @ t, p.B @ t
    if a1.size == 0:
        return ReducedPencil(a1)
    a1, b1 = _equilibrate(a1, b1)
    try:
        m = np.linalg.solve(a1, b1)
    except np.linalg.LinAlgError as exc:
        raise SingularReductionError(f"reduced fourth-order block is singular: {exc}") from exc
    # each ladder's residual relative to max(1, max |B'|); the first that is
    # not <= 1e-6, a nan included, raises
    resids = np.abs(a1 @ m - b1).max(axis=(-2, -1)) / np.abs(b1).max(axis=(-2, -1), initial=1.0)
    resid = next((r for r in resids.flat if not r <= 1e-6), None)
    if resid is not None:
        raise SingularReductionError(
            f"reduced solve is unreliable (residual {resid:.2e}); A' is near-singular"
        )
    return ReducedPencil(m)

