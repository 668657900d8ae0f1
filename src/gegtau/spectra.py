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
"""

from __future__ import annotations

import numpy as np

from .charpoly import CharPoly, even_charpoly, odd_charpoly
from .eig import SpectrumReport, classify, dense_eigs, poly_roots, split_finite
from .pencil import MethodConfig, assemble, reduce_to_standard


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


def spectrum_report(config: MethodConfig, vectors: bool = False) -> SpectrumReport:
    """Classified spectrum for one configuration.

    The even and odd ladders are solved separately and classified together,
    which the interlacing check needs.  ``vectors`` asks each ladder's solve
    for right eigenvectors too (``SpectrumReport.eigenpairs``).
    """
    return _classified(config, ("even", "odd"), vectors)


def single_parity_report(config: MethodConfig, parity: str) -> SpectrumReport:
    """Spectrum of one parity ladder of a config (interlacing not applicable),
    with the ladder's M, eigenvalues and eigenvectors in ``eigenpairs``."""
    return _classified(config, (parity,), True)
