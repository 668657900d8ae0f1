"""Drivers from a method configuration to a classified spectrum.

Two independent routes to the same eigenvalues exist for alpha = 0:
the pencil route (assemble, eliminate boundary rows, LAPACK eigenvalues)
and the characteristic-polynomial route (endpoint ladders, companion roots).
Their agreement is the central cross-validation of the package.

The pencil route solves each parity ladder exactly once: ``pencil_lambdas``
returns ``(lambdas, n_infinite, M)``, and every report keeps the reduced
matrix ``M`` of each ladder in ``SpectrumReport.reduced``, so consumers
(such as the CLI's residual column) never assemble or reduce again.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .charpoly import CharPoly, even_charpoly, odd_charpoly
from .eig import SpectrumReport, classify, dense_eigs, poly_roots
from .pencil import MethodConfig, assemble, reduce_to_standard, split_finite


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


def pencil_lambdas(
    config: MethodConfig, parity: str | None = None
) -> tuple[np.ndarray, int, np.ndarray]:
    """Finite eigenvalues, near-infinite count, and the reduced matrix M.

    ``M`` is the matrix of the standard problem ``M x = mu x`` whose
    eigenvalues the lambdas (= 1/mu) came from; it is returned so that
    consumers such as the residual check reuse it instead of rebuilding it.
    """
    red = reduce_to_standard(assemble(config, parity))
    if red.M.shape[0] == 0:
        return np.zeros(0, dtype=complex), 0, red.M
    lams, n_inf = split_finite(dense_eigs(red.M))
    return lams, n_inf, red.M


def _scale_of(lams: np.ndarray) -> float:
    mags = np.abs(lams)
    mags = mags[mags > 0.0]
    return float(np.median(mags)) if mags.size else 1.0


def _classified(config: MethodConfig, ladders: tuple[str | None, ...]) -> SpectrumReport:
    """Solve each parity ladder once, classify the merged spectrum, keep each M.

    ``ladders`` is ``(None,)`` for the coupled system; otherwise every
    eigenvalue is tagged with the parity of the ladder it came from.
    """
    lams, parities, inf_parities, reduced = [], [], [], {}
    for parity in ladders:
        lam, n_inf, reduced[parity] = pencil_lambdas(config, parity)
        lams.append(lam)
        parities += [parity] * lam.size
        inf_parities += [parity] * n_inf
    merged = np.concatenate(lams)
    tagged = ladders != (None,)
    report = classify(
        merged,
        _scale_of(merged),
        parities=parities if tagged else None,
        n_infinite=len(inf_parities),
        infinite_parities=inf_parities if tagged else None,
    )
    report.reduced = reduced
    return report


def spectrum_report(config: MethodConfig) -> SpectrumReport:
    """Classified spectrum for one configuration.

    With ``config.parity_split`` the even and odd ladders are computed
    separately and merged with parity tags, enabling the interlacing check;
    otherwise the full coupled pencil is solved and no parity information
    is attached.
    """
    ladders = ("even", "odd") if config.parity_split else (None,)
    return _classified(config, ladders)


def single_parity_report(config: MethodConfig, parity: str) -> SpectrumReport:
    """Spectrum of one parity ladder only (interlacing not applicable)."""
    report = _classified(dataclasses.replace(config, parity_split=True), (parity,))
    report.interlaced = None
    return report
