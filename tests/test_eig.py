import ast
import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gegtau
from gegtau.eig import (
    COMPLEX_PAIR,
    DEFAULT_TOLERANCES,
    ConvergenceError,
    SpectrumReport,
    _scale_of,
    classify,
    dense_eigs,
    poly_roots,
    split_finite,
)


def sorted_c(z):
    return np.array(sorted(np.asarray(z, dtype=complex), key=lambda w: (w.real, w.imag)))


# ---------------------------------------------------------------------------
# dense_eigs


def test_identity():
    assert_allclose(dense_eigs(np.eye(5)), np.ones(5, dtype=complex))


def test_companion_of_z2_plus_1():
    comp = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = sorted_c(dense_eigs(comp))
    assert_allclose(got, [-1j, 1j], atol=1e-15)


def test_reduced_tau_matrix_all_real_negative():
    from gegtau.pencil import MethodConfig, assemble, reduce_to_standard

    m = reduce_to_standard(assemble(MethodConfig("tau", 1.0, 16), "even")).M
    mus = dense_eigs(m)
    assert np.all(np.abs(mus.imag) <= 1e-10 * np.abs(mus))
    assert np.all(mus.real < 0.0)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 33, 64])
def test_backward_error_bound(dim):
    # sigma_min(M - lambda I) <= 1e-10 ||M|| certifies a unit vector v with
    # ||Mv - lambda v|| below the bound (numpy SVD is the oracle)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        m = rng.standard_normal((dim, dim))
        norm = np.linalg.norm(m, 2)
        for lam in dense_eigs(m):
            smin = np.linalg.svd(m - lam * np.eye(dim), compute_uv=False)[-1]
            assert smin <= 1e-10 * norm


def test_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(42)
    for dim in (4, 11, 27, 50):
        m = rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-3, 3)
        assert_allclose(
            sorted_c(dense_eigs(m)),
            sorted_c(np.linalg.eigvals(m)),
            rtol=1e-9,
            atol=1e-9 * np.linalg.norm(m),
        )


def test_conjugate_pair_symmetry():
    rng = np.random.default_rng(1)
    for dim in (6, 15, 31):
        eigs = dense_eigs(rng.standard_normal((dim, dim)))
        assert_allclose(sorted_c(eigs), sorted_c(np.conj(eigs)), rtol=1e-12, atol=1e-12)


def test_defective_jordan_block():
    j = np.eye(8, k=1) + 2.0 * np.eye(8)
    got = dense_eigs(j)
    # defective eigenvalue: accuracy limited to eps^(1/8), just check grouping
    assert np.all(np.abs(got - 2.0) < 1e-1)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        dense_eigs(np.ones((2, 3)))
    with pytest.raises(ValueError):
        dense_eigs(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_empty_and_scalar():
    assert dense_eigs(np.zeros((0, 0))).size == 0
    assert dense_eigs(np.array([[3.5]]))[0] == 3.5


def test_lapack_failure_raises_convergence_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(ConvergenceError) as exc:
        dense_eigs(np.eye(12, k=1) + np.eye(12, k=-11))
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# poly_roots


def test_poly_roots_appendix_quadratic():
    r = sorted_c(poly_roots(np.array([1.0, 3.0, 3.0])).roots)
    ref = sorted_c([-0.5 - 1j * math.sqrt(3) / 6, -0.5 + 1j * math.sqrt(3) / 6])
    assert_allclose(r, ref, atol=1e-14)


def test_poly_roots_linear():
    r = poly_roots(np.array([-1.0 / 6.0, 2.0]))
    assert r.roots[0] == pytest.approx(1.0 / 12.0, rel=1e-15)


def test_poly_roots_constant_empty():
    assert poly_roots(np.array([3.0])).roots.size == 0


def test_poly_roots_zero_poly_rejected():
    with pytest.raises(ValueError):
        poly_roots(np.zeros(4))


def test_poly_roots_exact_zero_root_deflation():
    r = poly_roots(np.array([0.0, 0.0, 1.0, 1.0]))
    zero_roots = r.roots[np.abs(r.roots) == 0.0]
    assert zero_roots.size == 2


def test_poly_roots_residual_bound():
    # |p(r)| / (max|c| * max(1, |r|)^deg) at every root
    rng = np.random.default_rng(9)
    for deg in (3, 8, 15, 20):
        c = rng.standard_normal(deg + 1)
        roots = poly_roots(c).roots
        assert roots.size == deg
        resid = np.abs(np.polyval(c[::-1], roots)) / (np.max(np.abs(c)) * np.maximum(1.0, np.abs(roots)) ** deg)
        assert np.max(resid) <= 1e-8


# tiny constant terms: Newton steps from the companion eigenvalues overflow
TINY_CONSTANT_TERMS = [
    [1.1125369292536007e-308, 1.1125369292536007e-308, 1.0, 2.0],
    [7.637969525939603e-191, 5.905560572639292e-279, 0.0, 1.0, 1.0],
    [5.110354631015551e-121, 5.719852807521574e-226, 1.0, 1.0],
]
# z^6 + 3 z^3 + 5e-324: three roots of modulus ~1e-108, which np.roots of the
# raw coefficients puts ~2e-6 from the origin
SUBNORMAL_CONSTANT_TERM = [5e-324, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0]


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=21))
@example(TINY_CONSTANT_TERMS[0])
@example(TINY_CONSTANT_TERMS[1])
@example(TINY_CONSTANT_TERMS[2])
@example(SUBNORMAL_CONSTANT_TERM)
def test_poly_roots_matches_numpy(coeffs):
    from scipy.optimize import linear_sum_assignment

    c = np.asarray(coeffs)
    if not np.any(c != 0.0) or abs(c[-1]) < 1e-3 * np.max(np.abs(c)):
        return
    got = poly_roots(c).roots
    # the reference solves the same max-normalized coefficients poly_roots
    # starts from (scaling leaves the roots unchanged): a subnormal constant
    # term that normalization flushes to zero would otherwise reach LAPACK,
    # and np.roots then misplaces the cluster of roots at the origin
    ref = np.roots((c / np.max(np.abs(c)))[::-1])
    assert got.size == ref.size
    if got.size:
        # optimal pairing: lexicographic sorting is unstable under ties
        cost = np.abs(got[:, None] - ref[None, :])
        rows, cols = linear_sum_assignment(cost)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(cost[rows, cols].max()) <= 1e-7 * scale


@pytest.mark.parametrize("coeffs", TINY_CONSTANT_TERMS)
def test_poly_roots_polish_overflow_warns_nothing(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = poly_roots(np.array(coeffs))
    assert res.roots.size == len(coeffs) - 1
    assert np.all(np.isfinite(res.roots))


# ---------------------------------------------------------------------------
# split_finite


def test_split_finite_cutoff():
    lams, n_inf = split_finite(np.array([1e-30, 0.5, -0.25]))
    assert n_inf == 1
    assert_allclose(sorted_c(lams), sorted_c([2.0, -4.0]))


# ---------------------------------------------------------------------------
# classify


def test_classify_exact_pair():
    q1 = 4.493409457909064  # bisection oracle for q = tan q in (pi, 3pi/2)
    rep = classify({"even": ([-math.pi**2], 0), "odd": ([-(q1**2)], 0)})
    assert rep.classes == ["real_negative", "real_negative"]
    assert rep.distinct and rep.interlaced


def test_classify_spurious():
    rep = classify({"even": ([12.0], 0)})
    assert rep.classes == ["spurious_positive"]


def test_classify_conjugate_dust_merges_to_real():
    rep = classify({"even": ([complex(-1.0, 1e-15), complex(-1.0, -1e-15)], 0)})
    assert rep.classes == ["real_negative", "real_negative"]
    # one eigenvalue after the conjugate merge: the two entries coincide
    assert not rep.distinct
    assert len({round(e.real, 12) for e in rep.eigenvalues}) == 1


def test_classify_complex_pair():
    rep = classify({"even": ([complex(-1.0, 2.0), complex(-1.0, -2.0)], 0)})
    assert rep.classes == ["complex_pair", "complex_pair"]


def test_classify_interlacing_detection():
    rep = classify({"even": ([-1.0, -3.0], 0), "odd": ([-2.0, -4.0], 0)})
    assert rep.interlaced
    rep2 = classify({"even": ([-1.0, -4.0], 0), "odd": ([-2.0, -3.0], 0)})
    assert not rep2.interlaced
    # one ladder has nothing to interlace with
    assert classify({"odd": ([-1.0, -3.0], 0)}).interlaced is None


def test_classify_near_infinite_entries():
    rep = classify({"even": ([-2.0], 1), "odd": ([], 1)})
    assert rep.n_infinite == 2
    assert len(rep.eigenvalues) == 3
    assert rep.count("real_negative") + rep.n_infinite == 3
    assert rep.finite_eigenvalues() == [-2.0]
    assert rep.parities == ["even", "even", "odd"]


def test_classify_empty():
    for ladders in ({}, {"even": ([], 0)}):
        rep = classify(ladders)
        assert rep.eigenvalues == [] and rep.classes == [] and rep.parities == []
        assert rep.distinct


def test_classify_subnormal_scale_compares_zeros_without_dividing_by_zero():
    # the median nonzero |lambda| is subnormal, so real_abs * scale rounds to
    # 0 and the gap between the two zeros has no denominator: they coincide
    rep = classify({"even": ([0j, 0j, 5e-324 + 0j], 0)})
    assert rep.classes == ["spurious_positive"] * 3 and not rep.distinct
    assert classify({"even": ([0j, 5e-324 + 0j], 0)}).distinct


def parent_classify(eigs, parities=None, n_infinite=0, infinite_parities=None):
    """The earlier ``classify``: one flat eigenvalue array and parity tag
    lists built by the caller, one tag per eigenvalue and per near-infinite
    entry."""
    tol = DEFAULT_TOLERANCES
    eigs = np.atleast_1d(np.asarray(eigs, dtype=complex))
    scale = _scale_of(eigs)
    eig_list = [complex(e) for e in eigs]
    if parities is not None and len(parities) != len(eig_list):
        raise ValueError("parities must match eigenvalues in length")
    if parities is not None and len(infinite_parities or ()) != n_infinite:
        raise ValueError("infinite_parities must match n_infinite in length")

    classes = []
    reals = []
    for i, lam in enumerate(eig_list):
        is_real = abs(lam.imag) <= max(tol["real_rel"] * abs(lam), tol["real_abs"] * scale)
        if is_real:
            negative = lam.real < -tol["real_abs"] * scale
            classes.append("real_negative" if negative else "spurious_positive")
            reals.append((lam.real, parities[i] if parities else None))
        else:
            classes.append(COMPLEX_PAIR)

    reals.sort(key=lambda t: t[0])
    distinct = True
    for (a, _), (b, _) in zip(reals, reals[1:]):
        gap = abs(b - a) / max(abs(a), abs(b), tol["real_abs"] * scale)
        if gap <= tol["distinct_rel"]:
            distinct = False
            break

    interlaced = None
    if parities is not None:
        seq = [p for _, p in sorted(reals, key=lambda t: -t[0])]
        interlaced = all(p != q for p, q in zip(seq, seq[1:]))

    eig_out = list(eig_list)
    par_out = list(parities) if parities is not None else None
    for j in range(n_infinite):
        eig_out.append(complex(math.inf, 0.0))
        classes.append("near_infinite")
        if par_out is not None:
            par_out.append(infinite_parities[j])
    return SpectrumReport(eigenvalues=eig_out, classes=classes, distinct=distinct, interlaced=interlaced,
                          parities=par_out)


def parent_ladder_report(ladders):
    """The earlier spectrum drivers' report of parity ladders: the tag lists
    built from the ladders, and ``interlaced`` reset for a single ladder."""
    lams, parities, inf_parities = [], [], []
    for parity, (lam, n_inf) in ladders.items():
        lams.append(np.asarray(lam, dtype=complex))
        parities += [parity] * len(lam)
        inf_parities += [parity] * n_inf
    report = parent_classify(np.concatenate(lams), parities, len(inf_parities), inf_parities)
    if len(ladders) == 1:
        report.interlaced = None
    return report


# real parts that tie across and within ladders, straddle -real_abs * scale
# at scale 1, or spread widely; no subnormal, where real_abs * scale is 0
FLOATS = functools.partial(st.floats, allow_subnormal=False)
TIE_REALS = st.sampled_from([-1.0, -2.0, 3.0, 0.0, -0.0, -1e-10, 1e-10, -1.0000001e-10, -9.9999999e-11, -2e-10])
REALS = st.one_of(TIE_REALS, FLOATS(-100, 100), FLOATS(-1e-9, 1e-9))
DUST = FLOATS(0.0, 1e-9) | st.sampled_from([1e-15, 1e-10, 1.0000001e-10, 1e-8])
# one real eigenvalue, or a conjugate pair with a wide or a dust-sized imaginary part
ENTRIES = st.one_of(
    REALS.map(lambda re: [complex(re, 0.0)]),
    st.tuples(REALS, FLOATS(-100, 100) | DUST).map(lambda t: [complex(*t), complex(t[0], -t[1])]),
)
LADDER = st.tuples(st.lists(ENTRIES, max_size=6).map(lambda xs: [z for x in xs for z in x]), st.integers(0, 3))


@given(st.one_of(
    st.tuples(st.sampled_from(["even", "odd"]), LADDER).map(lambda t: {t[0]: t[1]}),
    st.tuples(LADDER, LADDER).map(lambda t: {"even": t[0], "odd": t[1]}),
))
@example({"even": ([-1.0, -3.0], 0), "odd": ([-1.0, -2.0], 2)})
@example({"odd": ([], 2)})
def test_classify_matches_parent_tag_lists(ladders):
    got, want = classify(ladders), parent_ladder_report(ladders)
    assert list(map(repr, got.eigenvalues)) == list(map(repr, want.eigenvalues))
    assert (got.classes, got.parities) == (want.classes, want.parities)
    assert (got.distinct, got.interlaced) == (want.distinct, want.interlaced)


def _near(value, threshold, rel):
    return abs(value - threshold) <= rel * threshold


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100),
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=1e-6, max_value=1e6),
)
@example(pairs=[(99.99999999999999, 1e-06)], c=1e-06)
def test_classify_scale_invariance(pairs, c):
    eigs = [complex(re, im) for re, im in pairs]
    scaled_eigs = [c * e for e in eigs]
    scale = _scale_of(np.array(eigs))
    # classify's scale is the median nonzero |lambda|; drop inputs where a
    # product underflows and so moves it by more than rounding
    assume(math.isclose(_scale_of(np.array(scaled_eigs)), c * scale, rel_tol=1e-12))
    base = classify({"even": (eigs, 0)})
    # Rounding c * lambda moves a quantity that sits on a threshold across
    # it, so inputs whose deciding ratios lie that close are dropped: within
    # a relative 1e-12 for |Im| and Re against their thresholds, and within
    # 1e-6 for the distinct gap, whose rounding error is absolute (a few
    # ulps of 1, i.e. ~1e-8 relative to distinct_rel = 1e-8).
    tol = DEFAULT_TOLERANCES
    floor = tol["real_abs"] * scale
    reals = []
    for lam, cls in zip(eigs, base.classes):
        assume(not _near(abs(lam.imag), max(tol["real_rel"] * abs(lam), floor), 1e-12))
        if cls != COMPLEX_PAIR:
            assume(not _near(-lam.real, floor, 1e-12))
            reals.append(lam.real)
    reals.sort()
    for a, b in zip(reals, reals[1:]):
        gap = abs(b - a) / max(abs(a), abs(b), floor)
        assume(not _near(gap, tol["distinct_rel"], 1e-6))
    scaled = classify({"even": (scaled_eigs, 0)})
    assert base.classes == scaled.classes
    assert base.distinct == scaled.distinct


def test_every_tolerance_is_applied():
    # each threshold of the fixed table is read by a subscript somewhere in
    # the package; the table itself is a dict literal, not a subscript
    read = set()
    for path in Path(gegtau.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                read.add(node.slice.value)
    assert set(DEFAULT_TOLERANCES) - read == set()
    assert set(DEFAULT_TOLERANCES) == {"real_rel", "real_abs", "distinct_rel", "mu_infinite"}
