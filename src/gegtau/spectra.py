"""Drivers from a method configuration to a classified spectrum.

Two independent routes to the same eigenvalues exist for alpha = 0:
the pencil route (assemble, eliminate boundary rows, LAPACK eigenvalues)
and the characteristic-polynomial route (endpoint ladders, companion roots).
Their agreement is the central cross-validation of the package.

The pencil route solves each parity ladder exactly once: ``pencil_lambdas``
returns ``(lambdas, n_infinite, M)``, and ``classify`` labels the ladders'
eigenvalues together.  Asked for ``vectors``, that one solve is LAPACK's
eigenvalues-and-eigenvectors job, and the report keeps each ladder's ``M``
with its eigenvalues and right eigenvectors in ``SpectrumReport.eigenpairs``,
so consumers such as the CLI's residual column never assemble, reduce or
solve again.  Every other caller asks for the eigenvalues alone, which is
the cheaper job, and its report keeps no matrix.

Ladders repeat: stepping n by one gives each to two adjacent degrees, and
Galerkin and inviscid Galerkin are tau at gamma + 2 and gamma + 1.  So the
last 16 values-only solves are kept for the process, keyed by their blocks,
as ``pencil`` keeps its last operator; no caller opts in.  Every ladder is
still assembled; its boundary rows are read from the endpoint tables that
``gegenbauer`` keeps for the last 8 gammas.

A grid, ``spectrum_report`` of an iterable of configurations, solves many
configurations together; the theorem-range and equivalence suites read
their reports from one.  A window of configurations assembles all its
ladders and keeps each distinct ladder once.  The distinct ladders of one
block shape (tau at any two gammas with the same n and parity, say) are
reduced and solved as one stack, one LAPACK call per ladder, so each report
equals its configuration's own byte for byte.  ``spectrum``, ``sweep`` and
the other suites solve one configuration at a time, through the kept
solves.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

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


# the last 16 values-only ladders solved, keyed by their blocks, oldest first
_shared: dict = {}


def pencil_lambdas(config: MethodConfig, parity: str, vectors: bool = False) -> tuple:
    """Finite eigenvalues, near-infinite count, and the reduced matrix M of
    one parity ladder; with ``vectors``, also ``(mu, V)``, M's eigenvalues
    and right eigenvectors from the same solve.

    ``M`` is the matrix of the standard problem ``M x = mu x`` whose
    eigenvalues the lambdas (= 1/mu) came from; it is returned so that
    consumers such as the residual check reuse it instead of rebuilding it.
    Both arrays are read-only, and the last 16 results are kept under their
    ladder's A, B and C, so a ladder whose blocks equal a kept one's byte
    for byte reuses that solve: no output depends on it.  Every ladder is
    still assembled, its boundary rows read from the endpoint table of the
    shifted gamma.  A solve with ``vectors`` is never kept, and its arrays
    stay writable.
    """
    p = assemble(config, parity)
    if vectors:
        red = reduce_to_standard(p)
        pair = dense_eigs(red.M, vectors)
        return (*split_finite(pair[0]), red.M, pair)
    key = (p.A.shape, p.A.tobytes(), p.B.tobytes(), p.C.tobytes())
    solve = _shared.get(key)
    if solve is None:
        red = reduce_to_standard(p)
        lams, n_inf = split_finite(dense_eigs(red.M))
        lams.flags.writeable = red.M.flags.writeable = False
        if len(_shared) == 16:
            del _shared[next(iter(_shared))]
        solve = _shared[key] = lams, n_inf, red.M
    return solve


def _classified(config: MethodConfig, ladders: tuple[str, ...], vectors: bool) -> SpectrumReport:
    """Solve each parity ladder once and classify them together; with
    ``vectors``, keep each ladder's M, eigenvalues and eigenvectors."""
    solves = {parity: pencil_lambdas(config, parity, vectors) for parity in ladders}
    report = classify({parity: solve[:2] for parity, solve in solves.items()})
    if vectors:
        report.eigenpairs = {parity: (m, *pair) for parity, (_, _, m, pair) in solves.items()}
    return report


def spectrum_report(
    config: MethodConfig | Iterable[MethodConfig], vectors: bool = False
) -> SpectrumReport | Iterator[SpectrumReport]:
    """Classified spectrum for one configuration; for an iterable of
    configurations (a grid), an iterator of their values-only reports.

    The even and odd ladders are solved separately and classified together,
    which the interlacing check needs.  ``vectors`` asks each ladder's solve
    for right eigenvectors too (``SpectrumReport.eigenpairs``).  A grid's
    reports equal ``spectrum_report(config)`` for each configuration,
    byte for byte, and an error, of a configuration or of one of its
    ladders, is raised when the iterator reaches that configuration.
    """
    if isinstance(config, MethodConfig):
        return _classified(config, ("even", "odd"), vectors)
    if vectors:
        raise ValueError("a grid of configurations is solved for eigenvalues alone")
    return map(classify, _grid_ladders(config))


# A grid window closes when its configurations' (n + 1)^2 sum reaches this.
# Each default suite's grid is one window (theorem-range's sums to 281547).
# ``verify --suite theorem-range --n-hi 160`` peaks at 35.9 MB of RSS, where
# one solve per ladder peaked at 37.2 MB; at 600000 it peaked at 37.2 MB, at
# 1200000 at 40.3 MB.
_GRID_WINDOW = 300_000


def _grid_ladders(configs: Iterable[MethodConfig]) -> Iterator[dict]:
    """``{parity: (lambdas, n_infinite)}`` of each configuration, in order,
    solved a window of configurations at a time."""
    configs = iter(configs)
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
        yield from _window_ladders(window)
        if error is not None:
            raise error
        if size < _GRID_WINDOW:
            return


def _window_ladders(window: list[MethodConfig]) -> Iterator[dict]:
    """Assemble every parity ladder of the window, keep one copy of each
    distinct ladder (equal A, B and C bytes), solve the distinct ladders of
    each block shape together, and yield each configuration's ladders.  An
    error is raised at its configuration, even ladder first, as
    ``spectrum_report(config)`` raises it."""
    index: dict = {}
    slots = []
    for config in window:
        for parity in ("even", "odd"):
            try:
                p = assemble(config, parity)
            except (RuntimeError, ValueError) as exc:
                slots.append(exc)
                continue
            slots.append(index.setdefault((p.A.shape, p.C.shape, b"".join((p.A, p.B, p.C))), len(index)))
    # a distinct ladder is kept as its key alone: the bytes of A, B and C
    ladders = list(index)
    del index
    shapes: dict = {}
    for slot, (a_shape, c_shape, _) in enumerate(ladders):
        shapes.setdefault((a_shape, c_shape), []).append(slot)
    solves = [None] * len(ladders)
    for alike in shapes.values():
        for slot, solve in zip(alike, _solve_alike([ladders[slot] for slot in alike])):
            solves[slot] = solve
            ladders[slot] = None  # its bytes are no longer needed
    for k in range(len(window)):
        out = {}
        for parity, slot in zip(("even", "odd"), slots[2 * k : 2 * k + 2]):
            solve = slot if isinstance(slot, Exception) else solves[slot]
            if isinstance(solve, Exception):
                raise solve
            out[parity] = split_finite(solve)
        yield out


def _solve_alike(ladders: list[tuple]) -> list:
    """Each ladder's mu eigenvalues, or the error its solve raised.

    ``ladders`` are keys of one shape, ``(A.shape, C.shape, bytes)``; each
    ladder's bytes are the rows of A, B and C, so they read back as one
    (k, 2r + c, d) array.  Two or more ladders are reduced and solved as
    one stack; if the stack raises, they are solved again one at a time, so
    that each gets its own result or error.
    """
    (r, d), (c, _), _ = ladders[0]
    rows = np.frombuffer(b"".join(data for _, _, data in ladders)).reshape(len(ladders), 2 * r + c, d)

    def pencil(x: np.ndarray) -> Pencil:
        return Pencil(x[..., :r, :], x[..., r : 2 * r, :], x[..., 2 * r :, :])

    if len(ladders) > 1:
        try:
            return list(dense_eigs(reduce_to_standard(pencil(rows)).M))
        except (RuntimeError, ValueError):
            pass
    solves = []
    for x in rows:
        try:
            solves.append(dense_eigs(reduce_to_standard(pencil(x)).M))
        except (RuntimeError, ValueError) as exc:
            solves.append(exc)
    return solves


def single_parity_report(config: MethodConfig, parity: str) -> SpectrumReport:
    """Spectrum of one parity ladder of a config (interlacing not applicable),
    with the ladder's M, eigenvalues and eigenvectors in ``eigenpairs``."""
    return _classified(config, (parity,), True)
