"""Drivers from a method configuration to a classified spectrum.

Two independent routes to the same eigenvalues exist for alpha = 0:
the pencil route (assemble, eliminate boundary rows, LAPACK eigenvalues)
and the characteristic-polynomial route (endpoint ladders, companion roots).
Their agreement is the central cross-validation of the package.

The pencil route solves every parity ladder in ``pencil_lambdas``: one
ladder, or each ladder of an iterable of configurations (a grid) in turn.
Ladders repeat: stepping n by one gives each to two adjacent degrees, and
Galerkin and inviscid Galerkin are tau at gamma + 2 and gamma + 1.  So a
window of configurations assembles all its ladders and keeps each distinct
one (equal A, B and C bytes) once.  One pass eliminates the boundary rows
of distinct ladders with one count of such rows, whatever their widths,
each zero-padded to the widest, then reduces and solves the ladders of
each block shape as one stack, a lone ladder as a stack of one: one BLAS
or LAPACK call per ladder, so each result equals the ladder's own solve
byte for byte.  A pass that raises is solved again a ladder at a time, so
that each ladder gets its own result or error.  No solve is kept between
calls; boundary rows are read from the endpoint tables that ``gegenbauer``
keeps for the last 8 gammas.

``classify`` labels a configuration's ladders together.  Asked for
``vectors``, each solve is LAPACK's eigenvalues-and-eigenvectors job, and
the report keeps each ladder's M, eigenvalues and right eigenvectors in
``SpectrumReport.eigenpairs``, so consumers such as the CLI's residual
column never assemble, reduce or solve again.  Every other caller asks for
the eigenvalues alone, the cheaper job, and its report keeps no matrix.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from . import pencil
from .charpoly import CharPoly, even_charpoly, odd_charpoly
from .eig import SpectrumReport, classify, dense_eigs, poly_roots, split_finite
from .pencil import MethodConfig, Pencil, assemble, reduce_to_standard


def ladder_degree(n: int, parity: str) -> int:
    """Degree of the even or odd sub-ladder inside a degree-n system."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return n if (n % 2 == 0) == (parity == "even") else n - 1


def charpoly_for(gamma: float, n: int, parity: str) -> CharPoly:
    """Characteristic polynomial of one parity ladder of a degree-n system."""
    m = ladder_degree(n, parity)
    return even_charpoly(gamma, m) if parity == "even" else odd_charpoly(gamma, m)


def charpoly_lambdas(gamma: float, n: int, parity: str) -> tuple[np.ndarray, int]:
    """Finite eigenvalues (and near-infinite count) from the polynomial route."""
    cp = charpoly_for(gamma, n, parity)
    mus = poly_roots(cp.normalized_coeffs()).roots
    return split_finite(mus)


PARITIES = ("even", "odd")


def pencil_lambdas(
    config: MethodConfig | Iterable[MethodConfig], parity: str | tuple[str, ...], vectors: bool = False
) -> tuple | Iterator[tuple]:
    """Finite eigenvalues, near-infinite count, and the reduced matrix M of
    one parity ladder; with ``vectors``, also ``(mu, V)``, M's eigenvalues
    and right eigenvectors from the same solve.

    ``M`` is the matrix of the standard problem ``M x = mu x`` whose
    eigenvalues the lambdas (= 1/mu) came from; it is returned so that
    consumers such as the residual check reuse it instead of rebuilding it.

    Given an iterable of configurations and a tuple of parities, returns an
    iterator of those tuples: each configuration's ladders in the order of
    ``parities``, configuration by configuration.  Each tuple equals the
    one-ladder result byte for byte, and an error, of a configuration or of
    one of its ladders, is raised when the iterator reaches that ladder.
    """
    if isinstance(config, MethodConfig):
        return next(_solved_ladders(iter((config,)), (parity,), vectors))
    return _solved_ladders(iter(config), tuple(parity), vectors)


# A window of configurations closes when their (n + 1)^2 sum reaches this.
# Each default suite's grid is one window (theorem-range's sums to 281547).
# ``verify --suite theorem-range --n-hi 160`` peaks at 37.2 MB of RSS (35.8 MB
# when windows kept eigenvalues alone, not each ladder's M); one solve per
# ladder peaked at 37.2 MB, and windows of 600000 and 1200000 at 37.2 and
# 40.3 MB, with eigenvalues alone.
_GRID_WINDOW = 300_000

# An elimination pass takes a window's block shapes with one count of
# boundary rows in turn while its padded bases, (ladders) x (widest) x
# (widest - rows), hold at most this many entries; a shape larger alone is a
# pass of its own.  A sweep row (n 8..40 step 4: 18 ladders, 21 columns at
# most) is one pass of 7182 entries, and theorem-range's default grid takes
# 6 passes.  With no cap, ``verify --suite theorem-range --n-hi 160`` peaked
# at 41.7 MB of RSS: one pass padded 87 ladders to 81 columns, 4.3 MB.
_PASS_SIZE = 16384


def _solved_ladders(configs: Iterator[MethodConfig], parities: tuple[str, ...], vectors: bool) -> Iterator[tuple]:
    """``pencil_lambdas``'s tuple for each parity of each configuration,
    solved a window of configurations at a time.

    A window assembles every ladder, keeps one copy of each distinct ladder
    (equal A, B and C bytes) and solves the distinct ladders in
    ``_solve_passes``.  An error is raised at its ladder, as the one-ladder
    ``pencil_lambdas`` raises it: an invalid configuration or a failed
    assembly ends the window, and no later ladder is assembled.
    """
    while True:
        window, size, error = [], 0, None
        try:
            for config in configs:
                window.append(config)
                size += (config.n + 1) ** 2
                if size >= _GRID_WINDOW:
                    break
        except ValueError as exc:  # an invalid configuration: raised in its turn
            error = exc
        index: dict = {}
        slots = []
        for config, parity in itertools.product(window, parities):
            try:
                p = assemble(config, parity)
            except (RuntimeError, ValueError) as exc:
                error = exc
                break
            slots.append(index.setdefault((p.A.shape, p.C.shape, b"".join((p.A, p.B, p.C))), len(index)))
        # a distinct ladder is kept as its key alone: the bytes of A, B and C
        ladders = list(index)
        del index, window
        solves = _solve_passes(ladders, vectors)
        for slot in slots:
            solve = solves[slot]
            if isinstance(solve, Exception):
                raise solve
            yield solve
        if error is not None:
            raise error
        if size < _GRID_WINDOW:
            return


def _solve_passes(ladders: list[tuple], vectors: bool) -> list:
    """Each ladder's ``pencil_lambdas`` tuple, or the error its solve raised.

    ``ladders`` are keys ``(A.shape, C.shape, bytes)``; each ladder's bytes
    are the rows of A, B and C, and are dropped from ``ladders`` once its
    pass is solved.  Each count of boundary rows, in turn, packs its block
    shapes into passes of at most ``_PASS_SIZE`` padded basis entries, and
    each pass is solved by ``_solve_pass``.  If a pass of several ladders
    raises, each of its ladders is solved again as a pass of its own, so
    that each gets its own result or error; a lone ladder's error is its
    result.
    """
    groups: dict = {}
    for k, (a_shape, c_shape, _) in enumerate(ladders):
        groups.setdefault(c_shape[0], {}).setdefault(a_shape, []).append(k)
    passes: list = []
    for c, shapes in groups.items():
        passes.append({})
        size = width = 0  # the last pass's ladders and widest ladder
        for (r, d), alike in shapes.items():
            size, width = size + len(alike), max(width, d)
            if passes[-1] and size * width * (width - c) > _PASS_SIZE:
                passes.append({})
                size, width = len(alike), d
            passes[-1][r, d] = alike

    def attempt(members: list[int]) -> list:
        try:
            return _solve_pass([ladders[k] for k in members], vectors)
        except (RuntimeError, ValueError) as exc:
            return [exc] if len(members) == 1 else [solve for k in members for solve in attempt([k])]

    out: list = [None] * len(ladders)
    for run in passes:
        members = [k for alike in run.values() for k in alike]
        for k, solve in zip(members, attempt(members)):
            out[k] = solve
            ladders[k] = None
    return out


def _solve_pass(ladders: list[tuple], vectors: bool) -> list:
    """Each ladder's ``pencil_lambdas`` tuple, for keys as in
    ``_solve_passes`` with one count of boundary rows, listed shape by
    shape; raises if any of their solves would.

    One elimination (``pencil._nullspace_by_elimination``) takes every C,
    each zero-padded to the widest; each basis is cut back to its own
    width, which gives its own elimination's bytes, and copied out
    C-ordered, the layout a basis of its own has.  The ladders of each
    shape are then reduced and solved as one stack, a lone ladder as a
    stack of one.
    """
    c = ladders[0][1][0]
    padded = np.zeros((len(ladders), c, max(d for (_, d), _, _ in ladders)))
    for rows, ((r, d), _, data) in zip(padded, ladders):
        rows[:, :d] = np.frombuffer(data, offset=16 * r * d).reshape(c, d)
    t = pencil._nullspace_by_elimination(padded)
    out: list = []
    for (r, d), alike in itertools.groupby(ladders, key=lambda ladder: ladder[0]):
        x = np.frombuffer(b"".join(data for _, _, data in alike)).reshape(-1, 2 * r + c, d)
        # this shape's bases follow those of the ladders solved so far
        basis = np.ascontiguousarray(t[len(out) : len(out) + len(x), :d, : d - c])
        m = reduce_to_standard(Pencil(x[:, :r], x[:, r : 2 * r], x[:, 2 * r :]), basis).M
        eigs = dense_eigs(m, vectors)
        if not vectors:
            out += [(*split_finite(mu), mk) for mk, mu in zip(m, eigs)]
            continue
        # a stack's eigenvectors are complex if any of its spectra is; a
        # real spectrum's own solve gives them real
        out += [(*split_finite(mu), mk, (mu, v if mu.imag.any() else v.real)) for mk, mu, v in zip(m, *eigs)]
    return out


def spectrum_report(
    config: MethodConfig | Iterable[MethodConfig], vectors: bool = False
) -> SpectrumReport | Iterator[SpectrumReport]:
    """Classified spectrum for one configuration; for an iterable of
    configurations (a grid), an iterator of their reports.

    The even and odd ladders are solved separately and classified together,
    which the interlacing check needs.  ``vectors`` asks each ladder's solve
    for right eigenvectors too (``SpectrumReport.eigenpairs``).  A grid's
    reports equal ``spectrum_report(config)`` for each configuration,
    byte for byte, and an error, of a configuration or of one of its
    ladders, is raised when the iterator reaches that configuration.
    """
    if isinstance(config, MethodConfig):
        return next(_reports((config,), PARITIES, vectors))
    return _reports(config, PARITIES, vectors)


def single_parity_report(config: MethodConfig, parity: str) -> SpectrumReport:
    """Spectrum of one parity ladder of a config (interlacing not applicable),
    with the ladder's M, eigenvalues and eigenvectors in ``eigenpairs``."""
    return next(_reports((config,), (parity,), True))


def _reports(configs: Iterable[MethodConfig], parities: tuple[str, ...], vectors: bool) -> Iterator[SpectrumReport]:
    """Each configuration's ladders, from ``pencil_lambdas``, classified
    together; with ``vectors``, each ladder's M, eigenvalues and
    eigenvectors kept in ``eigenpairs``."""
    ladders = pencil_lambdas(configs, parities, vectors)
    for solves in zip(*[ladders] * len(parities)):  # one configuration's ladders
        report = classify({parity: solve[:2] for parity, solve in zip(parities, solves)})
        if vectors:
            report.eigenpairs = {parity: (m, *pair) for parity, (_, _, m, pair) in zip(parities, solves)}
        yield report
