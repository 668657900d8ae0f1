import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gegtau.eig import dense_eigs
from gegtau.gegenbauer import (
    basis_matrix,
    deriv_at_one,
    deriv_matrix,
    lobatto_interior_nodes,
    norm_h,
    value_at_one,
)
from gegtau.pencil import (
    GAMMA_SHIFT,
    KINDS,
    MethodConfig,
    Pencil,
    _equilibrate,
    _nullspace_by_elimination,
    _operator,
    assemble,
    legendre_reduced_matrices,
    reduce_to_standard,
    split_finite,
)
from gegtau.spectra import charpoly_lambdas, pencil_lambdas, spectrum_report


def sorted_c(z):
    return np.array(sorted(np.asarray(z, dtype=complex), key=lambda w: (w.real, w.imag)))


def spectrum_dev(a, b):
    sa, sb = sorted_c(a), sorted_c(b)
    assert sa.size == sb.size
    if sa.size == 0:
        return 0.0
    return float(np.max(np.abs(sa - sb) / np.maximum(np.abs(sb), 1e-300)))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        MethodConfig("nope", 0.0, 10)
    with pytest.raises(ValueError):
        MethodConfig("tau", -0.6, 10)
    with pytest.raises(ValueError):
        MethodConfig("tau", 0.0, 10, alpha=-1.0)
    with pytest.raises(ValueError):
        MethodConfig("tau", 0.0, 10, alpha=0.5, parity_split=True)
    with pytest.raises(ValueError):
        MethodConfig("modified_tau", 0.0, 10, parity_split=True)


def test_assemble_parity_consistency():
    cfg = MethodConfig("tau", 0.0, 10, parity_split=True)
    with pytest.raises(ValueError):
        assemble(cfg)  # parity required
    with pytest.raises(ValueError):
        assemble(MethodConfig("tau", 0.0, 10), parity="even")


# ---------------------------------------------------------------------------
# structure of the assembled pencils


def test_bc_rows_zero_in_b():
    p = assemble(MethodConfig("tau", 0.5, 10))
    assert p.dim == 11
    zero_rows = [i for i in range(p.dim) if not np.any(p.B[i])]
    assert zero_rows == p.bc_rows == [7, 8, 9, 10]


def test_bc_rows_encode_clamped_conditions():
    # u = (1-x^2)^2 expanded at gamma = 1/2 satisfies all four BC rows
    from gegtau.analysis import legendre_infinite_mode

    u = legendre_infinite_mode(4, 4)  # (1-x^2)^2 * G_0
    p = assemble(MethodConfig("tau", 0.5, 4))
    assert_allclose(p.A[p.bc_rows, :] @ u, 0.0, atol=1e-14)


def test_parity_split_dimensions():
    for n in (8, 9, 15, 24):
        for parity in ("even", "odd"):
            p = assemble(MethodConfig("tau", 1.0, n, parity_split=True), parity)
            assert p.A.shape[0] == p.A.shape[1]
            m = reduce_to_standard(p).M
            ladder = n if (n % 2 == 0) == (parity == "even") else n - 1
            expected = (ladder - 2) // 2 if parity == "even" else (ladder - 3) // 2
            assert m.shape[0] == expected


def test_modified_tau_dimension():
    n = 12
    p = assemble(MethodConfig("modified_tau", 0.0, n))
    assert p.dim == 2 * n + 2
    assert len(p.bc_rows) == n + 3
    m = reduce_to_standard(p).M
    assert m.shape == (n - 1, n - 1)


def test_galerkin_is_tau_shifted_exactly():
    a = assemble(MethodConfig("galerkin", 0.0, 12))
    b = assemble(MethodConfig("tau", 2.0, 12))
    assert_allclose(a.A, b.A, rtol=0, atol=0)
    assert_allclose(a.B, b.B, rtol=0, atol=0)


def test_galerkin_spectrum_matches_shifted_tau():
    lam_g, _, _ = pencil_lambdas(MethodConfig("galerkin", 0.0, 12))
    lam_t, _, _ = pencil_lambdas(MethodConfig("tau", 2.0, 12))
    assert spectrum_dev(lam_g, lam_t) < 1e-10


# the separate tau, modified tau and collocation assemblers that the one
# assembly path replaced: the reference, byte for byte


def _oracle_endpoint_rows(gamma, n):
    g1 = np.array([value_at_one(gamma, j).to_float() for j in range(n + 1)])
    dg1 = np.array([deriv_at_one(gamma, j, 1).to_float() for j in range(n + 1)])
    return g1, dg1


def _oracle_parity_indices(n, parity):
    return np.arange(0, n + 1, 2) if parity == "even" else np.arange(1, n + 1, 2)


def _oracle_tau(gamma, n, alpha, parity):
    ell, ell2 = _operator(gamma, n, alpha)
    g1, dg1 = _oracle_endpoint_rows(gamma, n)
    if parity is None:
        rows = np.arange(n - 3)
        signs = (-1.0) ** np.arange(n + 1)
        bc = np.vstack([g1, g1 * signs, dg1, -dg1 * signs])
        a = np.vstack([ell2[rows], bc])
        b = np.vstack([ell[rows], np.zeros((4, n + 1))])
        return Pencil(a, b, list(range(n - 3, n + 1)))
    cols = _oracle_parity_indices(n, parity)
    rows = cols[cols <= n - 4]
    a = np.vstack([ell2[np.ix_(rows, cols)], g1[cols], dg1[cols]])
    b = np.vstack([ell[np.ix_(rows, cols)], np.zeros((2, cols.size))])
    return Pencil(a, b, [a.shape[0] - 2, a.shape[0] - 1])


def _oracle_modified(gamma, n, alpha):
    ell, _ = _operator(gamma, n, alpha)
    g1, dg1 = _oracle_endpoint_rows(gamma, n)
    dim, nrow = 2 * (n + 1), n - 1
    a, b = np.zeros((dim, dim)), np.zeros((dim, dim))
    u, v = slice(0, n + 1), slice(n + 1, dim)
    a[0:nrow, v] = ell[0:nrow, :]
    b[0:nrow, v] = np.eye(n + 1)[0:nrow, :]
    a[nrow : 2 * nrow, u] = ell[0:nrow, :]
    a[nrow : 2 * nrow, v] = -np.eye(n + 1)[0:nrow, :]
    signs = (-1.0) ** np.arange(n + 1)
    a[2 * nrow + 0, u] = g1
    a[2 * nrow + 1, u] = g1 * signs
    a[2 * nrow + 2, u] = dg1
    a[2 * nrow + 3, u] = -dg1 * signs
    return Pencil(a, b, list(range(nrow, dim)))


def _oracle_collocation(gamma, n, alpha, parity):
    nodes = lobatto_interior_nodes(gamma, n)
    ell, ell2 = _operator(gamma, n, alpha)
    g1, dg1 = _oracle_endpoint_rows(gamma, n)
    if parity is None:
        e = basis_matrix(gamma, n, nodes)
        signs = (-1.0) ** np.arange(n + 1)
        bc = np.vstack([g1, g1 * signs, dg1, -dg1 * signs])
        a = np.vstack([e @ ell2, bc])
        b = np.vstack([e @ ell, np.zeros((4, n + 1))])
        return Pencil(a, b, list(range(n - 3, n + 1)))
    cols = _oracle_parity_indices(n, parity)
    sel = nodes >= 0.0 if parity == "even" else nodes > 0.0
    e = basis_matrix(gamma, n, nodes[sel])[:, cols]
    a = np.vstack([e @ ell2[np.ix_(cols, cols)], g1[cols], dg1[cols]])
    b = np.vstack([e @ ell[np.ix_(cols, cols)], np.zeros((2, cols.size))])
    return Pencil(a, b, [a.shape[0] - 2, a.shape[0] - 1])


def _oracle_assemble(config, parity):
    if config.kind in GAMMA_SHIFT:
        return _oracle_tau(config.gamma + GAMMA_SHIFT[config.kind], config.n, config.alpha, parity)
    if config.kind == "modified_tau":
        return _oracle_modified(config.gamma, config.n, config.alpha)
    return _oracle_collocation(config.gamma, config.n, config.alpha, parity)


def _same_bytes(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_assemble_matches_parent_oracle(kind):
    for gamma in (-0.45, -0.2, 0.0, 0.3, 0.5, 1.0, 1.9, 3.0, 3.5, 4.3, 5.0):
        for n in (5, 8, 9, 13, 24, 33, 48, 64, 96):
            for alpha, split in ((0.0, True), (0.0, False), (0.5, False)):
                if split and kind == "modified_tau":
                    continue
                config = MethodConfig(kind, gamma, n, alpha=alpha, parity_split=split)
                for parity in ("even", "odd") if split else (None,):
                    got, want = assemble(config, parity), _oracle_assemble(config, parity)
                    assert _same_bytes(got.A, want.A) and np.array_equal(got.A, want.A), (config, parity)
                    assert _same_bytes(got.B, want.B) and np.array_equal(got.B, want.B), (config, parity)
                    assert got.bc_rows == want.bc_rows


# ---------------------------------------------------------------------------
# reduction


def test_reduce_n4_even_is_one_by_one():
    m = reduce_to_standard(assemble(MethodConfig("tau", 0.0, 4, parity_split=True), "even")).M
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_reduce_legendre_two_near_zero_mus():
    m = reduce_to_standard(assemble(MethodConfig("tau", 0.5, 10))).M
    mus = dense_eigs(m)
    scaled = np.abs(mus) / np.max(np.abs(mus))
    assert np.sum(scaled < 1e-12) == 2


def test_reduce_invariant_under_tau_row_rescaling():
    cfg = MethodConfig("tau", 0.75, 14)
    p = assemble(cfg)
    lam_ref, _, _ = pencil_lambdas(cfg)
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.uniform(-3, 3, size=p.dim - 4)
    a = p.A.copy()
    b = p.B.copy()
    a[: p.dim - 4] *= scales[:, None]
    b[: p.dim - 4] *= scales[:, None]
    mus = dense_eigs(reduce_to_standard(Pencil(a, b, p.bc_rows)).M)
    lam, _ = split_finite(mus)
    assert spectrum_dev(lam, lam_ref) < 1e-9


def test_reduce_rejects_nonzero_b_in_bc_rows():
    p = assemble(MethodConfig("tau", 0.0, 8))
    p.B[p.bc_rows[0], 0] = 1.0
    with pytest.raises(ValueError):
        reduce_to_standard(p)


def test_nullspace_by_elimination():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((4, 11))
    t = _nullspace_by_elimination(c)
    assert t.shape == (11, 7)
    assert_allclose(c @ t, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        _nullspace_by_elimination(np.vstack([c, c[0]]))  # dependent rows
    # rows many orders apart are still independent; pivots are tested
    # against their own row's scale, not the largest entry of the matrix
    scaled = c * np.array([1e6, 1.0, 1e-3, 1e9])[:, None]
    t = _nullspace_by_elimination(scaled)
    assert t.shape == (11, 7)
    assert_allclose(scaled @ t / np.max(np.abs(scaled), axis=1)[:, None], 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        _nullspace_by_elimination(np.vstack([scaled, 1e-9 * c[0]]))


# loop versions of the elimination and the equilibration: the references
# the whole-array versions in pencil.py must match bit for bit


def _oracle_nullspace_by_elimination(c):
    m, dim = c.shape
    u = c.copy()
    row_max = np.max(np.abs(u), axis=1) if u.size else np.zeros(m)
    piv_cols = []
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


def _oracle_equilibrate(a, b):
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


ORACLE_CONFIGS = [
    MethodConfig(kind, gamma, n, alpha=alpha, parity_split=split)
    for kind, split in [("tau", True), ("tau", False), ("galerkin", True),
                        ("inviscid_galerkin", False), ("modified_tau", False),
                        ("collocation", True), ("collocation", False)]
    for gamma, n, alpha in [(-0.45, 8, 0.0), (0.5, 13, 0.0), (1.0, 33, 0.0),
                            (4.3, 48, 0.0), (2.0, 24, 0.5)]
    if alpha == 0.0 or not split
]


@pytest.mark.parametrize(
    "config",
    ORACLE_CONFIGS,
    ids=lambda c: f"{c.kind}-{c.gamma}-{c.n}-{c.alpha}-{'split' if c.parity_split else 'coupled'}",
)
def test_reduction_steps_match_loop_oracles(config):
    for parity in ("even", "odd") if config.parity_split else (None,):
        p = assemble(config, parity)
        bc = sorted(p.bc_rows)
        dyn = [r for r in range(p.dim) if r not in set(bc)]
        t = _nullspace_by_elimination(p.A[bc, :])
        assert np.array_equal(t, _oracle_nullspace_by_elimination(p.A[bc, :]))
        a1, b1 = p.A[dyn, :] @ t, p.B[dyn, :] @ t
        want = _oracle_equilibrate(a1, b1)
        for got, w in zip(_equilibrate(a1, b1), want):
            assert np.array_equal(got, w)
        assert np.array_equal(reduce_to_standard(p).M, np.linalg.solve(*want))


def test_reduction_steps_match_loop_oracles_on_edge_inputs():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 11)) * np.array([1e6, 1.0, 1e-3, 1e9])[:, None]
    c[:, 3] = 0.0  # zero pivot-column entries skip the row update
    c[2, 6] = 0.0
    for rows in (c, c[:0], c[:1]):
        assert np.array_equal(
            _nullspace_by_elimination(rows), _oracle_nullspace_by_elimination(rows)
        )
    a = rng.standard_normal((6, 6)) * 2.0 ** rng.integers(-40, 40, size=(6, 1))
    b = rng.standard_normal((6, 6))
    a[4], b[4] = 0.0, 0.0  # an all-zero row keeps factor 1
    b[:, 1] = 0.0
    a[:, 1] = 2.0 ** np.arange(-3, 3)  # exact powers of two on the log2 boundary
    for pair in ((a, b), (a[:0], b[:0])):
        for got, want in zip(_equilibrate(*pair), _oracle_equilibrate(*pair)):
            assert np.array_equal(got, want)


def test_split_finite_cutoff():
    lams, n_inf = split_finite(np.array([1e-30, 0.5, -0.25]))
    assert n_inf == 1
    assert_allclose(sorted_c(lams), sorted_c([2.0, -4.0]))


# ---------------------------------------------------------------------------
# the central cross-validation: polynomial route vs pencil route


@pytest.mark.parametrize("gamma", [0.0, 0.75, 1.0, 2.0, 3.0, 3.5])
def test_route_agreement(gamma):
    for n in (8, 13, 21, 32):
        for parity in ("even", "odd"):
            lam_c, inf_c = charpoly_lambdas(gamma, n, parity)
            lam_p, inf_p, _ = pencil_lambdas(
                MethodConfig("tau", gamma, n, parity_split=True), parity
            )
            assert inf_c == inf_p
            assert spectrum_dev(lam_c, lam_p) < 1e-8


def test_alpha_continuity():
    cfg0 = MethodConfig("tau", 1.0, 16)
    cfg1 = MethodConfig("tau", 1.0, 16, alpha=1e-3)
    lam0, _, _ = pencil_lambdas(cfg0)
    lam1, _, _ = pencil_lambdas(cfg1)
    small0 = sorted_c(lam0[np.argsort(np.abs(lam0))[:5]])
    small1 = sorted_c(lam1[np.argsort(np.abs(lam1))[:5]])
    assert np.max(np.abs(small0 - small1) / np.abs(small0)) < 1e-2


def test_stokes_alpha_spectrum_real_negative():
    rep = spectrum_report(MethodConfig("tau", 1.0, 16, alpha=2.0))
    assert rep.count("real_negative") == len(rep.eigenvalues)


def test_modified_tau_equals_galerkin():
    for g in (0.0, 0.5):
        for n in (10, 16, 24):
            lam_m, inf_m, _ = pencil_lambdas(MethodConfig("modified_tau", g, n))
            lam_g, inf_g, _ = pencil_lambdas(MethodConfig("galerkin", g, n))
            # the coupled system carries two structural infinite modes
            assert inf_m == 2 and inf_g == 0
            assert lam_m.size == lam_g.size == n - 3
            assert spectrum_dev(lam_m, lam_g) < 1e-8


@pytest.mark.parametrize("g, n", [(4.7, 64), (5.0, 56)])
def test_modified_tau_matches_galerkin_counts_large_gamma(g, n):
    # the boundary rows here span ten orders of magnitude in their row maxima
    rep_m = spectrum_report(MethodConfig("modified_tau", g, n))
    rep_g = spectrum_report(MethodConfig("galerkin", g, n))
    for label in ("real_negative", "spurious_positive", "complex_pair"):
        assert rep_m.count(label) == rep_g.count(label)
    assert rep_m.n_infinite == 2 and rep_g.n_infinite == 0


def test_collocation_full_and_split_agree():
    g, n = 1.0, 12
    lam_full, _, _ = pencil_lambdas(MethodConfig("collocation", g, n))
    cfg = MethodConfig("collocation", g, n, parity_split=True)
    lam_e, _, _ = pencil_lambdas(cfg, "even")
    lam_o, _, _ = pencil_lambdas(cfg, "odd")
    assert spectrum_dev(lam_full, np.concatenate([lam_e, lam_o])) < 1e-8


def test_no_zero_eigenvalue():
    # lambda = 0 would force the trivial solution; the discrete spectrum
    # must keep a safe distance from it
    for kind in ("tau", "galerkin", "modified_tau", "collocation"):
        lams, _, _ = pencil_lambdas(MethodConfig(kind, 0.8, 12))
        assert np.min(np.abs(lams)) > 1.0


# ---------------------------------------------------------------------------
# the Legendre reduced-basis matrices


def test_legendre_matrices_c_factor():
    from gegtau.analysis import c_factor

    assert c_factor(0) == pytest.approx(8.0 / 5.0, rel=1e-15)


def test_legendre_matrices_structure():
    a, b = legendre_reduced_matrices(10)
    m = a.shape[0]
    assert a.shape == b.shape == (7, 7)
    # B vanishes on the first two rows and off the second subdiagonal
    assert_allclose(b[0], 0.0, atol=0)
    assert_allclose(b[1], 0.0, atol=0)
    for k in range(m):
        for l in range(m):
            if k != l + 2:
                assert b[k, l] == 0.0
            elif k == l + 2:
                assert b[k, l] != 0.0
    # A upper triangular with nonzero diagonal
    for k in range(m):
        assert a[k, k] != 0.0
        for l in range(k):
            assert a[k, l] == 0.0


def test_legendre_matrices_match_loop_oracle():
    # the per-column loop, each column of D^2 read through a unit vector
    for n in range(6, 65):
        m = n - 3
        d = deriv_matrix(0.5, n + 1)
        d2 = d @ d
        h = np.array([norm_h(0.5, k).to_float() for k in range(n - 1)])
        cl = np.array([(l + 1) * (l + 2) * (l + 3) * (l + 4) / 15.0 for l in range(m)])
        a_want, b_want = np.zeros((m, m)), np.zeros((m, m))
        for l in range(m):
            unit = np.zeros(n + 1)
            unit[l + 2] = 1.0
            a_want[:, l] = cl[l] * (d2 @ unit)[:m] * h[:m]
            if l + 2 < m:
                b_want[l + 2, l] = cl[l] * h[l + 2]
        a, b = legendre_reduced_matrices(n)
        assert a.tobytes() == a_want.tobytes() and b.tobytes() == b_want.tobytes(), n


def test_legendre_matrices_corner_entries():
    n = 10
    a, _ = legendre_reduced_matrices(n)
    c6 = 7 * 8 * 9 * 10 / 15.0
    assert c6 == pytest.approx(336.0)
    assert a[0, n - 4] == pytest.approx((n - 2) * (n - 1) * c6, rel=1e-13)
    c5 = 6 * 7 * 8 * 9 / 15.0
    assert a[1, n - 5] == pytest.approx((n - 4) * (n - 1) * c5, rel=1e-13)


def test_legendre_matrices_two_infinite_eigenvalues():
    a, b = legendre_reduced_matrices(12)
    mus = dense_eigs(np.linalg.solve(a, b))
    assert np.sum(np.abs(mus) < 1e-12 * np.max(np.abs(mus))) == 2


def test_legendre_matrices_spectrum_matches_general_route():
    # same finite eigenvalues as the coefficient-space Legendre tau pencil
    n = 12
    a, b = legendre_reduced_matrices(n)
    lam_basis, n_inf = split_finite(dense_eigs(np.linalg.solve(a, b)))
    lam_pencil, n_inf2, _ = pencil_lambdas(MethodConfig("tau", 0.5, n))
    assert n_inf == n_inf2 == 2
    assert spectrum_dev(lam_basis, lam_pencil) < 1e-8


def test_legendre_matrices_rejects_small_n():
    with pytest.raises(ValueError):
        legendre_reduced_matrices(5)
