import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gegtau.analysis import THEOREM_GAMMAS
from gegtau.eig import _scale_of, classify, dense_eigs, split_finite
from gegtau.gegenbauer import (
    basis_matrix,
    deriv_at_one,
    deriv_matrix,
    lobatto_interior_nodes,
    value_at_one,
)
from gegtau.pencil import (
    GAMMA_SHIFT,
    KINDS,
    MethodConfig,
    Pencil,
    SingularReductionError,
    _collocation_table,
    _equilibrate,
    _nullspace_by_elimination,
    _operator,
    assemble,
    reduce_to_standard,
)
from gegtau import pencil, spectra
from gegtau.spectra import charpoly_lambdas, pencil_lambdas, spectrum_report

PARITIES = ("even", "odd")


def _reduce(p):
    """``reduce_to_standard`` on the basis of the pencil's own elimination."""
    return reduce_to_standard(p, _nullspace_by_elimination(p.C))


def sorted_c(z):
    return np.array(sorted(np.asarray(z, dtype=complex), key=lambda w: (w.real, w.imag)))


def spectrum_dev(a, b):
    sa, sb = sorted_c(a), sorted_c(b)
    assert sa.size == sb.size
    if sa.size == 0:
        return 0.0
    return float(np.max(np.abs(sa - sb) / np.maximum(np.abs(sb), 1e-300)))


def ladder_lambdas(config):
    """Both ladders' finite eigenvalues, concatenated, and their near-infinite count."""
    solved = [pencil_lambdas(config, parity) for parity in PARITIES]
    return np.concatenate([lams for lams, _, _ in solved]), sum(n_inf for _, n_inf, _ in solved)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        MethodConfig("nope", 0.0, 10)
    with pytest.raises(ValueError):
        MethodConfig("tau", -0.6, 10)
    with pytest.raises(ValueError):
        MethodConfig("tau", 0.0, 10, alpha=-1.0)
    # the coupled pencil lives on only as the test oracle below
    with pytest.raises(ValueError, match="_oracle_assemble"):
        MethodConfig("tau", 0.0, 10, parity_split=False)
    assert MethodConfig("tau", 0.0, 10, parity_split=True) == MethodConfig("tau", 0.0, 10)
    # a non-integral degree or a non-real gamma or alpha is refused here,
    # not left to fail inside assemble with a TypeError
    for args, field in (((1.0, 12.0), "n"), (("1.5", 12), "gamma"), ((1.0, 12, "0.5"), "alpha")):
        with pytest.raises(ValueError, match=field):
            MethodConfig("tau", *args)
    numpy_config = MethodConfig("tau", np.float64(1.0), np.int64(12), alpha=np.float64(0.5))
    assert numpy_config == MethodConfig("tau", 1.0, 12, alpha=0.5)


def test_malformed_config_raises_in_its_grid_turn():
    # the grid yields the ladders of the configurations before it, then raises
    good = MethodConfig("tau", 1.0, 12)
    alone = [pencil_lambdas(good, parity) for parity in PARITIES]
    for bad in ({"n": 12.0}, {"gamma": "1.5"}, {"alpha": "0.5"}):
        args = {"kind": "tau", "gamma": 1.0, "n": 12, **bad}
        ladders = pencil_lambdas((MethodConfig(**args) if k else good for k in range(2)), PARITIES)
        for lams, n_inf, m in alone:
            got_lams, got_n_inf, got_m = next(ladders)
            assert (got_lams.tobytes(), got_n_inf, got_m.tobytes()) == (lams.tobytes(), n_inf, m.tobytes())
        with pytest.raises(ValueError, match=next(iter(bad))):
            next(ladders)


def test_assemble_parity_consistency():
    cfg = MethodConfig("tau", 0.0, 10)
    with pytest.raises(TypeError):
        assemble(cfg)  # parity required
    with pytest.raises(TypeError):
        pencil_lambdas(cfg)
    with pytest.raises(ValueError):
        assemble(cfg, "both")


# ---------------------------------------------------------------------------
# structure of the assembled pencils


def test_bc_rows_zero_in_b():
    # the two boundary rows are their own block; every residual row of B is nonzero
    for parity, dim in (("even", 6), ("odd", 5)):
        p = assemble(MethodConfig("tau", 0.5, 10), parity)
        assert p.A.shape == p.B.shape == (dim - 2, dim)
        assert p.C.shape == (2, dim)
        assert np.abs(p.B).max(axis=1).all()


def test_bc_rows_encode_clamped_conditions():
    # u = (1-x^2)^2 expanded at gamma = 1/2 satisfies all four BC rows of
    # the coupled oracle, and the even ladder's two rows at +1
    from gegtau.analysis import legendre_infinite_mode

    u = legendre_infinite_mode(4, 4)  # (1-x^2)^2 * G_0
    config = MethodConfig("tau", 0.5, 4)
    assert_allclose(_oracle_assemble(config, None).C @ u, 0.0, atol=1e-14)
    assert_allclose(assemble(config, "even").C @ u[0::2], 0.0, atol=1e-14)


def test_parity_split_dimensions():
    # n 4's odd ladder is empty: a 0 x 0 M and no eigenvalue
    for n in (4, 8, 9, 15, 24):
        config = MethodConfig("tau", 1.0, n)
        for parity in ("even", "odd"):
            p = assemble(config, parity)
            assert p.A.shape[0] + p.C.shape[0] == p.A.shape[1]
            m = _reduce(p).M
            ladder = n if (n % 2 == 0) == (parity == "even") else n - 1
            expected = (ladder - 2) // 2 if parity == "even" else (ladder - 3) // 2
            assert m.shape == (expected, expected)
            lams, n_inf, _ = pencil_lambdas(config, parity)
            assert lams.size + n_inf == expected


def test_modified_tau_dimension():
    # (u, v) on each ladder's degrees; coupling rows up to degree n-2 and
    # two boundary rows; the two reduced ladders hold n-1 mu's
    n = 12
    reduced = 0
    for parity, cols, rows in (("even", 7, 6), ("odd", 6, 5)):
        p = assemble(MethodConfig("modified_tau", 0.0, n), parity)
        assert p.A.shape[1] == 2 * cols
        assert p.C.shape[0] == rows + 2
        m = _reduce(p).M
        assert m.shape == (cols - 1, cols - 1)
        reduced += m.shape[0]
    assert reduced == n - 1


def test_galerkin_is_tau_shifted_exactly():
    # Galerkin(g) = tau(g+2) and inviscid Galerkin(g) = tau(g+1) hold by
    # construction, so each pencil is tau's at the shifted gamma, byte for
    # byte: no verify check compares them.  The shifts are the paper's,
    # written out, not read from the code under test
    shifts = {"tau": 0.0, "inviscid_galerkin": 1.0, "galerkin": 2.0}
    assert GAMMA_SHIFT == shifts
    for kind, shift in shifts.items():
        for gamma in (-0.45, 0.0, 0.5, 1.25, 2.0, 4.3):
            for n in (8, 13, 24, 48):
                for alpha in (0.0, 0.5):
                    for parity in PARITIES:
                        a = assemble(MethodConfig(kind, gamma, n, alpha=alpha), parity)
                        b = assemble(MethodConfig("tau", gamma + shift, n, alpha=alpha), parity)
                        for x, y in ((a.A, b.A), (a.B, b.B), (a.C, b.C)):
                            assert _same_bytes(x, y), (kind, gamma, n, alpha, parity)


def test_galerkin_spectrum_matches_shifted_tau():
    lam_g, _ = ladder_lambdas(MethodConfig("galerkin", 0.0, 12))
    lam_t, _ = ladder_lambdas(MethodConfig("tau", 2.0, 12))
    assert spectrum_dev(lam_g, lam_t) < 1e-10


# the separate tau, modified tau and collocation assemblers that the one
# assembly path replaced: the reference, byte for byte.  parity None builds
# the coupled pencil on all degrees 0..n, with four boundary rows at +1 and
# -1; the library solves only the ladders, and these tests check them
# against it.  Each builds the stacked pencil, lambda-independent rows
# listed by index, and _oracle_assemble splits it into blocks.


def _exp(log):
    """exp(log) as float64, inf past its range: an endpoint value from its log."""
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def _oracle_endpoint_rows(gamma, n):
    g1 = np.array([_exp(value_at_one(gamma, j)) for j in range(n + 1)])
    dg1 = np.array([_exp(deriv_at_one(gamma, j, 1)) for j in range(n + 1)])
    return g1, dg1


def _oracle_parity_indices(n, parity):
    return np.arange(0, n + 1, 2) if parity == "even" else np.arange(1, n + 1, 2)


def _oracle_tau(gamma, n, alpha, parity):
    ell, ell2 = _operator.__wrapped__(gamma, n, alpha)
    g1, dg1 = _oracle_endpoint_rows(gamma, n)
    if parity is None:
        rows = np.arange(n - 3)
        signs = (-1.0) ** np.arange(n + 1)
        bc = np.vstack([g1, g1 * signs, dg1, -dg1 * signs])
        a = np.vstack([ell2[rows], bc])
        b = np.vstack([ell[rows], np.zeros((4, n + 1))])
        return a, b, list(range(n - 3, n + 1))
    cols = _oracle_parity_indices(n, parity)
    rows = cols[cols <= n - 4]
    a = np.vstack([ell2[np.ix_(rows, cols)], g1[cols], dg1[cols]])
    b = np.vstack([ell[np.ix_(rows, cols)], np.zeros((2, cols.size))])
    return a, b, [a.shape[0] - 2, a.shape[0] - 1]


def _oracle_modified(gamma, n, alpha, parity):
    if parity is not None:
        # one parity's u and v columns, its dynamic and coupling rows up to
        # degree n-2 and the two boundary rows at +1, sliced from the
        # coupled oracle
        (full_a, full_b, _), nrow = _oracle_modified(gamma, n, alpha, None), n - 1
        cols = _oracle_parity_indices(n, parity)
        rows = cols[cols <= n - 2]
        keep_rows = np.concatenate([rows, nrow + rows, [2 * nrow, 2 * nrow + 2]])
        keep_cols = np.concatenate([cols, n + 1 + cols])
        a, b = full_a[np.ix_(keep_rows, keep_cols)], full_b[np.ix_(keep_rows, keep_cols)]
        return a, b, list(range(rows.size, keep_rows.size))
    ell, _ = _operator.__wrapped__(gamma, n, alpha)
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
    return a, b, list(range(nrow, dim))


def _oracle_collocation(gamma, n, alpha, parity):
    nodes = lobatto_interior_nodes(gamma, n)
    ell, ell2 = _operator.__wrapped__(gamma, n, alpha)
    g1, dg1 = _oracle_endpoint_rows(gamma, n)
    if parity is None:
        e = basis_matrix(gamma, n, nodes)
        signs = (-1.0) ** np.arange(n + 1)
        bc = np.vstack([g1, g1 * signs, dg1, -dg1 * signs])
        a = np.vstack([e @ ell2, bc])
        b = np.vstack([e @ ell, np.zeros((4, n + 1))])
        return a, b, list(range(n - 3, n + 1))
    cols = _oracle_parity_indices(n, parity)
    sel = nodes >= 0.0 if parity == "even" else nodes > 0.0
    e = basis_matrix(gamma, n, nodes[sel])[:, cols]
    a = np.vstack([e @ ell2[np.ix_(cols, cols)], g1[cols], dg1[cols]])
    b = np.vstack([e @ ell[np.ix_(cols, cols)], np.zeros((2, cols.size))])
    return a, b, [a.shape[0] - 2, a.shape[0] - 1]


def _oracle_blocks(a, b, bc_rows):
    """The stacked pencil as blocks; its lambda-independent rows are zero in B."""
    bc = np.zeros(a.shape[0], dtype=bool)
    bc[bc_rows] = True
    assert not b[bc].any()
    return Pencil(a[~bc], b[~bc], a[bc])


def _oracle_assemble(config, parity):
    if config.kind in GAMMA_SHIFT:
        stacked = _oracle_tau(config.gamma + GAMMA_SHIFT[config.kind], config.n, config.alpha, parity)
    elif config.kind == "modified_tau":
        stacked = _oracle_modified(config.gamma, config.n, config.alpha, parity)
    else:
        stacked = _oracle_collocation(config.gamma, config.n, config.alpha, parity)
    return _oracle_blocks(*stacked)


def _coupled_lambdas(config):
    """Finite eigenvalues and near-infinite count of the coupled oracle pencil."""
    return split_finite(dense_eigs(_reduce(_oracle_assemble(config, None)).M))


def _coupled_report(config):
    """The coupled oracle's spectrum, classified as the ladders' is, as one ladder."""
    return classify({"coupled": _coupled_lambdas(config)})


def _same_bytes(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_assemble_matches_parent_oracle(kind):
    for gamma in (-0.45, -0.2, 0.0, 0.3, 0.5, 1.0, 1.9, 3.0, 3.5, 4.3, 5.0):
        for n in (5, 8, 9, 13, 24, 33, 48, 64, 96):
            for alpha in (0.0, 0.5):
                config = MethodConfig(kind, gamma, n, alpha=alpha)
                for parity in PARITIES:
                    got, want = assemble(config, parity), _oracle_assemble(config, parity)
                    assert _same_bytes(got.A, want.A) and np.array_equal(got.A, want.A), (config, parity)
                    assert _same_bytes(got.B, want.B) and np.array_equal(got.B, want.B), (config, parity)
                    assert _same_bytes(got.C, want.C) and np.array_equal(got.C, want.C), (config, parity)


def test_shared_ingredients_are_read_only():
    # both parity ladders of a configuration slice these cached arrays
    shared = _operator(1.3, 14, 0.0) + _collocation_table(1.3, 14)
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # and each pencil's blocks are its own: writable and C-ordered
    for kind in KINDS:
        for parity in PARITIES:
            p = assemble(MethodConfig(kind, 1.3, 14), parity)
            for block in (p.A, p.B, p.C):
                assert block.flags.writeable and block.flags.c_contiguous, (kind, parity)
                assert not any(np.shares_memory(block, a) for a in shared), (kind, parity)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_n4_even_is_one_by_one():
    m = _reduce(assemble(MethodConfig("tau", 0.0, 4), "even")).M
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_reduce_legendre_two_near_zero_mus():
    # one near-zero mu on each ladder
    for parity in PARITIES:
        m = _reduce(assemble(MethodConfig("tau", 0.5, 10), parity)).M
        mus = dense_eigs(m)
        scaled = np.abs(mus) / np.max(np.abs(mus))
        assert np.sum(scaled < 1e-12) == 1, parity


def test_reduce_raises_on_a_nan_solve(monkeypatch):
    # a nan in M makes its residual nan, which no <= test passes: a lone
    # ladder raises, and so does a stack whose nan ladder is its last
    solve = np.linalg.solve

    def nan_last(a, b):
        m = solve(a, b)
        m[(-1,) * m.ndim] = np.nan
        return m

    ladders = [assemble(MethodConfig("tau", g, 12), "even") for g in (1.0, 2.0, 3.0)]
    stack = Pencil(*(np.stack([getattr(p, name) for p in ladders]) for name in "ABC"))
    monkeypatch.setattr(np.linalg, "solve", nan_last)
    for p in (ladders[0], stack):
        with pytest.raises(SingularReductionError, match=r"reduced solve is unreliable \(residual nan\)"):
            _reduce(p)


def test_reduce_invariant_under_tau_row_rescaling():
    cfg = MethodConfig("tau", 0.75, 14)
    rng = np.random.default_rng(5)
    for parity in PARITIES:
        p = assemble(cfg, parity)
        lam_ref, _, _ = pencil_lambdas(cfg, parity)
        tau = p.A.shape[0]
        scales = 10.0 ** rng.uniform(-3, 3, size=tau)
        a = p.A.copy()
        b = p.B.copy()
        a[:tau] *= scales[:, None]
        b[:tau] *= scales[:, None]
        mus = dense_eigs(_reduce(Pencil(a, b, p.C)).M)
        lam, _ = split_finite(mus)
        assert spectrum_dev(lam, lam_ref) < 1e-9


def test_nullspace_by_elimination():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((4, 11))
    t = _nullspace_by_elimination(c)
    assert t.shape == (11, 7)
    assert_allclose(c @ t, 0.0, atol=1e-12)
    with pytest.raises(SingularReductionError):
        _nullspace_by_elimination(np.vstack([c, c[0]]))  # dependent rows
    # rows many orders apart are still independent; pivots are tested
    # against their own row's scale, not the largest entry of the matrix
    scaled = c * np.array([1e6, 1.0, 1e-3, 1e9])[:, None]
    t = _nullspace_by_elimination(scaled)
    assert t.shape == (11, 7)
    assert_allclose(scaled @ t / np.max(np.abs(scaled), axis=1)[:, None], 0.0, atol=1e-12)
    with pytest.raises(SingularReductionError):
        _nullspace_by_elimination(np.vstack([scaled, 1e-9 * c[0]]))
    # a stack raises if any one of its ladders' rows are dependent
    independent = rng.standard_normal((5, 11))
    assert _nullspace_by_elimination(np.stack([independent, independent[::-1]])).shape == (2, 11, 6)
    for dependent in (np.vstack([c, c[0]]), np.vstack([scaled, 1e-9 * c[0]])):
        with pytest.raises(SingularReductionError):
            _nullspace_by_elimination(np.stack([independent, dependent]))


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


# (config, split): split reduces the library's two ladders, otherwise the
# coupled oracle pencil is reduced
ORACLE_CONFIGS = [
    (MethodConfig(kind, gamma, n, alpha=alpha), split)
    for kind, split in [("tau", True), ("tau", False), ("galerkin", True),
                        ("inviscid_galerkin", False), ("modified_tau", False),
                        ("modified_tau", True), ("collocation", True), ("collocation", False)]
    for gamma, n, alpha in [(-0.45, 8, 0.0), (0.5, 13, 0.0), (1.0, 33, 0.0),
                            (4.3, 48, 0.0), (2.0, 24, 0.5)]
] + [
    # 79 and 123 pivots: the elimination's many-pivot regime
    (MethodConfig("modified_tau", 5.0, 76), False),
    (MethodConfig("modified_tau", 8.0, 120), False),
]


@pytest.mark.parametrize(
    "config, split",
    ORACLE_CONFIGS,
    ids=[f"{c.kind}-{c.gamma}-{c.n}-{c.alpha}-{'split' if s else 'coupled'}" for c, s in ORACLE_CONFIGS],
)
def test_reduction_steps_match_loop_oracles(config, split):
    def ladders(config):
        return [assemble(config, parity) for parity in PARITIES] if split else [_oracle_assemble(config, None)]

    pencils = ladders(config)
    for p in pencils:
        t = _nullspace_by_elimination(p.C)
        assert np.array_equal(t, _oracle_nullspace_by_elimination(p.C))
        a1, b1 = p.A @ t, p.B @ t
        want = _oracle_equilibrate(a1, b1)
        for got, w in zip(_equilibrate(a1, b1), want):
            assert np.array_equal(got, w)
        assert np.array_equal(_reduce(p).M, np.linalg.solve(*want))
    # the ladders of one shape at this gamma and two more, stacked: each
    # eliminates to its own loop's bytes
    alike = {}
    for gamma in (config.gamma, config.gamma + 1.0, config.gamma + 2.5):
        for p in ladders(dataclasses.replace(config, gamma=gamma)):
            alike.setdefault(p.C.shape, []).append(p.C)
    for cs in alike.values():
        for c, t in zip(cs, _nullspace_by_elimination(np.stack(cs)), strict=True):
            assert _same_bytes(t, _oracle_nullspace_by_elimination(c))


def test_reduction_steps_match_loop_oracles_on_edge_inputs():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 11)) * np.array([1e6, 1.0, 1e-3, 1e9])[:, None]
    c[:, 3] = 0.0  # zero pivot-column entries skip the row update
    c[2, 6] = 0.0
    # c's largest entry is in its last row, so its first pivot swaps rows
    # and reversed c's does not: a stack of the two swaps in one ladder only
    assert np.abs(c).argmax() // 11 == 3 and np.abs(c[::-1]).argmax() // 11 == 0
    for rows in (c, c[:0], c[:1]):
        t = _oracle_nullspace_by_elimination(rows)
        assert _same_bytes(_nullspace_by_elimination(rows), t)
        stacked = _nullspace_by_elimination(np.stack([rows, rows[::-1]]))
        assert _same_bytes(stacked[0], t)
        assert _same_bytes(stacked[1], _oracle_nullspace_by_elimination(rows[::-1]))
    # n 4's odd ladders: as many rows as columns, so an empty basis
    cs = [assemble(MethodConfig(kind, gamma, 4), "odd").C for kind in GAMMA_SHIFT for gamma in (-0.45, 1.0, 4.3)]
    assert cs[0].shape == (2, 2)
    for c, t in zip(cs, _nullspace_by_elimination(np.stack(cs)), strict=True):
        assert t.shape == (2, 0) and _same_bytes(t, _oracle_nullspace_by_elimination(c))
    a = rng.standard_normal((6, 6)) * 2.0 ** rng.integers(-40, 40, size=(6, 1))
    b = rng.standard_normal((6, 6))
    a[4], b[4] = 0.0, 0.0  # an all-zero row keeps factor 1
    b[:, 1] = 0.0
    a[:, 1] = 2.0 ** np.arange(-3, 3)  # exact powers of two on the log2 boundary
    for got, want in zip(_equilibrate(a, b), _oracle_equilibrate(a, b)):
        assert np.array_equal(got, want)


def _recorded_eliminations(monkeypatch):
    """Record each elimination call's rows, and each (C, basis) pair that
    reaches a grid's reductions, one pair per ladder."""
    calls, pairs = [], []
    eliminate, reduce = pencil._nullspace_by_elimination, spectra.reduce_to_standard
    monkeypatch.setattr(pencil, "_nullspace_by_elimination", lambda c: calls.append(c.shape) or eliminate(c))

    def recorded(p, t):
        pairs.extend(zip(p.C, t) if t.ndim == 3 else [(p.C, t)])
        return reduce(p, t)

    monkeypatch.setattr(spectra, "reduce_to_standard", recorded)
    return calls, pairs


def test_grid_eliminates_each_row_count_in_padded_passes(monkeypatch, cold_pencil_caches):
    # a window's ladders with one count of boundary rows are eliminated in
    # passes of mixed widths, each C zero-padded to its pass's widest; each
    # basis that reaches a reduction, cut back to its ladder's width, is its
    # own loop's bytes.  Tau, Galerkin, inviscid Galerkin and collocation
    # have two boundary rows at every width, n 4's empty odd ladder (2
    # columns) included (collocation starts at n 5, its first interior
    # node).  Without the cap on a pass's size, each kind is one pass
    calls, pairs = _recorded_eliminations(monkeypatch)
    for capped in (True, False):
        if not capped:
            monkeypatch.setattr(spectra, "_PASS_SIZE", math.inf)
        for kind in ("tau", "galerkin", "inviscid_galerkin", "collocation"):
            n_lo = 5 if kind == "collocation" else 4
            configs = [MethodConfig(kind, gamma, n) for gamma in (-0.45, 1.25) for n in range(n_lo, 65)]
            calls.clear()
            pairs.clear()
            grid = list(pencil_lambdas(configs, PARITIES))
            assert len(grid) == 2 * len(configs)
            assert {t.shape[0] for _, t in pairs} == set(range((n_lo + 1) // 2, 34)), kind
            assert sum(shape[0] if len(shape) == 3 else 1 for shape in calls) == len(pairs), kind
            if capped:
                assert 1 < len(calls) < len({t.shape for _, t in pairs}), kind
            else:
                assert calls == [(len(pairs), 2, 33)], kind
            for c, t in pairs:
                assert _same_bytes(t, _oracle_nullspace_by_elimination(c)), (kind, c.shape)
    # modified tau's row count fixes its width: a pass per row count of two
    # or more ladders, across gammas and alphas; n 17's ladders are n 16's
    # even one and n 18's odd one, so 10 boundary rows hold 12 distinct
    configs = [
        MethodConfig("modified_tau", g, n, alpha=a) for g in (-0.45, 1.25, 4.3) for n in (13, 16, 17, 18) for a in (0.0, 0.5)
    ]
    calls.clear()
    pairs.clear()
    assert len(list(pencil_lambdas(configs, PARITIES))) == 2 * len(configs)
    assert calls == [(12, 8, 14), (12, 10, 18), (6, 9, 16), (6, 11, 20)]
    assert len(pairs) == 36
    for c, t in pairs:
        assert _same_bytes(t, _oracle_nullspace_by_elimination(c)), c.shape


def test_grid_eliminates_each_ladder_alone_when_the_pass_raises(monkeypatch, cold_pencil_caches):
    # n 12's odd ladder gets dependent boundary rows: the padded pass over
    # all eight ladders raises, each ladder is eliminated alone, and every
    # other ladder still gets its own solve, the dependent one its error
    configs = [MethodConfig("tau", 1.0, n) for n in (8, 10, 12, 14)]
    alone = [pencil_lambdas(config, parity) for config in configs for parity in PARITIES]
    assemble = spectra.assemble

    def dependent(config, parity):
        p = assemble(config, parity)
        if (config.n, parity) == (12, "odd"):
            p.C[1] = 2.0 * p.C[0]
        return p

    monkeypatch.setattr(spectra, "assemble", dependent)
    calls, _ = _recorded_eliminations(monkeypatch)
    outs = []  # each _solve_alike call's results
    solve_alike = spectra._solve_alike
    monkeypatch.setattr(
        spectra, "_solve_alike", lambda ladders, vectors: outs.append(solve_alike(ladders, vectors)) or outs[-1]
    )
    grid = pencil_lambdas(configs, PARITIES)
    for want in alone[:5]:
        got = next(grid)
        assert _same_bytes(got[0], want[0]) and got[1] == want[1] and _same_bytes(got[2], want[2])
    with pytest.raises(SingularReductionError, match="lambda-independent rows are linearly dependent"):
        next(grid)
    # the pass, then each ladder alone, shape by shape (n 10's odd ladder
    # has n 8's even one's shape, and so on)
    assert calls == [(8, 2, 8), (2, 5), (2, 5), (2, 4), (2, 6), (2, 6), (2, 7), (2, 7), (2, 8)]
    (out,) = outs
    assert isinstance(out[5], SingularReductionError)
    for got, want in zip(out[:5] + out[6:], alone[:5] + alone[6:], strict=True):
        assert _same_bytes(got[0], want[0]) and got[1] == want[1] and _same_bytes(got[2], want[2])


@pytest.mark.parametrize("kind", KINDS)
def test_pencil_lambdas_matches_oracle_chain(kind):
    # the whole ladder solve against the test-side references chained end to
    # end: every stage is pinned on its own above, this pins their hand-offs.
    # The ladders of one shape (the gammas and alphas at one n and parity),
    # reduced and solved as one stack, give each ladder's oracle bytes too.
    alike = {}
    for gamma in (-0.45, 1.25, 4.3):
        for alpha in (0.0, 0.5):
            for n in (5, 8, 13, 24, 40):
                config = MethodConfig(kind, gamma, n, alpha=alpha)
                for parity in PARITIES:
                    p = _oracle_assemble(config, parity)
                    t = _oracle_nullspace_by_elimination(p.C)
                    m = np.linalg.solve(*_oracle_equilibrate(p.A @ t, p.B @ t))
                    mus = np.linalg.eigvals(m).astype(complex)
                    finite = np.abs(mus) > 1e-12 * np.max(np.abs(mus))
                    lams, n_inf, got_m = pencil_lambdas(config, parity)
                    where = (config, parity)
                    assert _same_bytes(got_m, m), where
                    assert _same_bytes(lams, 1.0 / mus[finite]), where
                    assert n_inf == int(np.count_nonzero(~finite)), where
                    alike.setdefault((p.A.shape, p.C.shape), []).append((where, assemble(config, parity), m, mus))
    assert min(len(ladders) for ladders in alike.values()) >= 6
    for ladders in alike.values():
        stack = Pencil(*(np.stack([getattr(p, block) for _, p, _, _ in ladders]) for block in "ABC"))
        got_m = _reduce(stack).M
        got_mus = dense_eigs(got_m)
        for k, (where, _, m, mus) in enumerate(ladders):
            assert _same_bytes(got_m[k], m), where
            assert _same_bytes(got_mus[k], mus), where


def _agree_to_rounding(got, want) -> bool:
    # rounding-level perturbations of these ladders' M move eigenvalues by
    # up to 7e-9 relative (tau, n 100), so 1e-6 leaves room for any LAPACK
    # (modified tau lists its infinite eigenvalues, which must stay put)
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    if got.shape != want.shape or not np.array_equal(np.isfinite(got), finite):
        return False
    got, want = got[finite], want[finite]
    scale = np.max(np.abs(want), initial=0.0)
    return bool(np.all(np.abs(got - want) <= 1e-6 * np.abs(want) + 1e-12 * scale))


@pytest.mark.parametrize("kind", KINDS)
def test_vectors_route_eigenvalues_match_values_route(kind):
    # LAPACK's eigenvalues-and-vectors job and its values-only job are two
    # QR runs, so their eigenvalues agree to rounding, not necessarily byte
    # for byte; the classification read from them must not change
    for gamma in (0.0, 1.0, 3.5):
        for n in (24, 64, 100):
            for alpha in (0.0, 1.0):
                config = MethodConfig(kind, gamma, n, alpha=alpha)
                values, vectors = spectrum_report(config), spectrum_report(config, vectors=True)
                where = (config,)
                assert _agree_to_rounding(vectors.eigenvalues, values.eigenvalues), where
                assert (vectors.classes, vectors.parities) == (values.classes, values.parities), where
                assert (vectors.distinct, vectors.interlaced) == (values.distinct, values.interlaced), where
                assert values.eigenpairs == {} and set(vectors.eigenpairs) == set(PARITIES), where
                for parity in PARITIES:
                    m, mu, v = vectors.eigenpairs[parity]
                    assert _same_bytes(m, pencil_lambdas(config, parity)[2]), where
                    assert _agree_to_rounding(mu, dense_eigs(m)), where
                    assert v.shape == m.shape, where


def test_scale_of_is_numpy_median_of_nonzero_magnitudes():
    rng = np.random.default_rng(17)
    cases = [
        np.zeros(0, dtype=complex),
        np.zeros(5, dtype=complex),  # all zero: no scale, 1.0
        np.array([-3.0]),
        np.array([0.0, -1.0, 3.0]),
        np.array([2.0, -1.0, 0.5]),
        np.array([4.0, -1.0, 2.0, 3.0]),
        np.array([1.0, -1.0, 1j, -1j, 2.0, 0.0]),  # ties across the middle
        np.array([1.5e308, -1.7e308]),  # the middle pair's sum overflows
        np.array([np.inf, -2.0, 5.0 + 1e-300j]),
    ]
    for size in range(1, 41):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        cases += [z, z * 10.0 ** rng.integers(-200, 200, size), np.where(rng.random(size) < 0.3, 0.0, z)]
    for lams in cases:
        mags = np.abs(lams)
        mags = mags[mags > 0.0]
        with np.errstate(over="ignore"):
            want = float(np.median(mags)) if mags.size else 1.0
        got = _scale_of(lams)
        assert type(got) is float and got.hex() == want.hex(), lams


# ---------------------------------------------------------------------------
# the central cross-validation: polynomial route vs pencil route


@pytest.mark.parametrize("gamma", [0.0, 0.75, 1.0, 2.0, 3.0, 3.5])
def test_route_agreement(gamma):
    for n in (8, 13, 21, 32):
        for parity in ("even", "odd"):
            lam_c, inf_c = charpoly_lambdas(gamma, n, parity)
            lam_p, inf_p, _ = pencil_lambdas(MethodConfig("tau", gamma, n), parity)
            assert inf_c == inf_p
            assert spectrum_dev(lam_c, lam_p) < 1e-8


@pytest.mark.parametrize("gamma", THEOREM_GAMMAS)
def test_route_agreement_past_n32(gamma):
    # criterion 10's 1e-8 agreement past its n 32; exact coefficients,
    # rounded once, hold it to n 43 (worst 5.8e-10 on this grid)
    for n in range(33, 41):
        for parity in ("even", "odd"):
            lam_c, inf_c = charpoly_lambdas(gamma, n, parity)
            lam_p, inf_p, _ = pencil_lambdas(MethodConfig("tau", gamma, n), parity)
            assert inf_c == inf_p, (n, parity)
            assert spectrum_dev(lam_c, lam_p) <= 1e-8, (n, parity)


def test_alpha_continuity():
    cfg0 = MethodConfig("tau", 1.0, 16)
    cfg1 = MethodConfig("tau", 1.0, 16, alpha=1e-3)
    lam0, _ = ladder_lambdas(cfg0)
    lam1, _ = ladder_lambdas(cfg1)
    small0 = sorted_c(lam0[np.argsort(np.abs(lam0))[:5]])
    small1 = sorted_c(lam1[np.argsort(np.abs(lam1))[:5]])
    assert np.max(np.abs(small0 - small1) / np.abs(small0)) < 1e-2


def test_stokes_alpha_spectrum_real_negative():
    rep = spectrum_report(MethodConfig("tau", 1.0, 16, alpha=2.0))
    assert rep.count("real_negative") == len(rep.eigenvalues)


def test_modified_tau_equals_galerkin():
    for g in (0.0, 0.5):
        for n in (10, 16, 24):
            lam_m, inf_m = _coupled_lambdas(MethodConfig("modified_tau", g, n))
            lam_g, inf_g = _coupled_lambdas(MethodConfig("galerkin", g, n))
            # the coupled system carries two structural infinite modes
            assert inf_m == 2 and inf_g == 0
            assert lam_m.size == lam_g.size == n - 3
            assert spectrum_dev(lam_m, lam_g) < 1e-8


@pytest.mark.parametrize("g, n", [(4.7, 64), (5.0, 56)])
def test_modified_tau_matches_galerkin_counts_large_gamma(g, n):
    # the boundary rows here span ten orders of magnitude in their row maxima
    rep_m = _coupled_report(MethodConfig("modified_tau", g, n))
    rep_g = _coupled_report(MethodConfig("galerkin", g, n))
    for label in ("real_negative", "spurious_positive", "complex_pair"):
        assert rep_m.count(label) == rep_g.count(label)
    assert rep_m.n_infinite == 2 and rep_g.n_infinite == 0


def test_collocation_full_and_split_agree():
    cfg = MethodConfig("collocation", 1.0, 12)
    lam_full, _ = _coupled_lambdas(cfg)
    lam_split, _ = ladder_lambdas(cfg)
    assert spectrum_dev(lam_full, lam_split) < 1e-8


# The library solves every configuration as two parity ladders; the coupled
# oracle pencil is their reference.  No gamma + shift is 1/2 here: at
# Legendre the former infinite pair is ill-conditioned and moves by up to
# 7.2e-5.
@pytest.mark.parametrize(
    "kind, alpha", [(k, a) for k in KINDS for a in (0.5, 3.0)] + [("modified_tau", 0.0)]
)
def test_ladders_match_coupled(kind, alpha):
    classes = ("real_negative", "spurious_positive", "complex_pair", "near_infinite")
    for gamma in (-0.2, 0.3, 1.9, 3.0, 4.3):
        for n in range(24, 65, 5):
            config = MethodConfig(kind, gamma, n, alpha=alpha)
            split, coupled = spectrum_report(config), _coupled_report(config)
            where = (gamma, n)
            assert [split.count(c) for c in classes] == [coupled.count(c) for c in classes], where
            assert spectrum_dev(split.finite_eigenvalues(), coupled.finite_eigenvalues()) <= 1e-8, where


@pytest.mark.parametrize("kind", ["tau", "inviscid_galerkin", "galerkin", "modified_tau"])
def test_theorem_range_interlaces_at_positive_alpha(kind):
    # the Stokes problem keeps the theorem's verdict on 1/2 < gamma + shift
    # <= 7/2: real, negative, distinct, and even and odd modes interlacing
    shift = 2.0 if kind == "modified_tau" else GAMMA_SHIFT[kind]
    for gamma in (0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
        if gamma + shift > 3.5:
            continue
        for alpha in (0.5, 1.0, 3.0, 10.0):
            for n in (16, 24, 32, 48, 64):
                rep = spectrum_report(MethodConfig(kind, gamma, n, alpha=alpha))
                where = (gamma, alpha, n)
                assert rep.count("real_negative") == len(rep.finite_eigenvalues()) == n - 3, where
                assert rep.distinct and rep.interlaced is True, where


def test_no_zero_eigenvalue():
    # lambda = 0 would force the trivial solution; the discrete spectrum
    # must keep a safe distance from it
    for kind in ("tau", "galerkin", "modified_tau", "collocation"):
        lams, _ = ladder_lambdas(MethodConfig(kind, 0.8, 12))
        assert np.min(np.abs(lams)) > 1.0


# ---------------------------------------------------------------------------
# the Legendre reduced-basis matrices


def legendre_reduced_matrices(n):
    """Legendre tau's pencil in the boundary-adapted basis, assembled apart
    from ``pencil.assemble``.

    Trial functions (1-x^2)^2 G_l^{(5/2)}, test functions P_k, k, l = 0..n-4,
    with h_k = 2/(2k+1).  A is upper triangular with nonzero diagonal; B is
    supported on the second subdiagonal only, B(l+2, l) = C_l h_{l+2}, with
    C_l = (l+1)(l+2)(l+3)(l+4)/15.  The two-dimensional nullspace of B is
    what makes the two infinite eigenvalues of Legendre tau exact.
    """
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    m = n - 3  # matrix dimension, indices 0..n-4
    d = deriv_matrix(0.5, n + 1)
    d2 = d @ d
    h = 2.0 / (2.0 * np.arange(n - 1) + 1.0)
    cl = np.array([(l + 1) * (l + 2) * (l + 3) * (l + 4) / 15.0 for l in range(m)])
    # D^2 [(1-x^2)^2 G_l^{(5/2)}] = C_l P_{l+2}: column l reads column l+2 of D^2
    a = cl * d2[:m, 2 : m + 2] * h[:m, None]
    b = np.zeros((m, m))
    b[np.arange(2, m), np.arange(m - 2)] = cl[: m - 2] * h[2:m]
    return a, b


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
    lam_pencil, n_inf2 = ladder_lambdas(MethodConfig("tau", 0.5, n))
    assert n_inf == n_inf2 == 2
    assert spectrum_dev(lam_basis, lam_pencil) < 1e-8


def test_legendre_matrices_rejects_small_n():
    with pytest.raises(ValueError):
        legendre_reduced_matrices(5)
