"""Drivers from a method configuration to a classified spectrum.

Two independent routes to the same eigenvalues exist for alpha = 0:
the pencil route (assemble, eliminate boundary rows, LAPACK eigenvalues)
and the characteristic-polynomial route (endpoint ladders, companion roots).
Their agreement is the central cross-validation of the package.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import eig
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


def pencil_lambdas(config: MethodConfig, parity: str | None = None) -> tuple[np.ndarray, int]:
    """Finite eigenvalues (and near-infinite count) from the pencil route."""
    red = reduce_to_standard(assemble(config, parity))
    if red.M.shape[0] == 0:
        return np.zeros(0, dtype=complex), 0
    mus = dense_eigs(red.M)
    return split_finite(mus, red.mu_cutoff)


def _scale_of(lams: np.ndarray) -> float:
    mags = np.abs(lams)
    mags = mags[mags > 0.0]
    return float(np.median(mags)) if mags.size else 1.0


def spectrum_report(config: MethodConfig, tolerances: dict | None = None) -> SpectrumReport:
    """Classified spectrum for one configuration.

    With ``config.parity_split`` the even and odd ladders are computed
    separately and merged with parity tags, enabling the interlacing check;
    otherwise the full coupled pencil is solved and no parity information
    is attached.
    """
    if config.parity_split:
        lam_e, inf_e = pencil_lambdas(config, "even")
        lam_o, inf_o = pencil_lambdas(config, "odd")
        lams = np.concatenate([lam_e, lam_o])
        parities = ["even"] * lam_e.size + ["odd"] * lam_o.size
        inf_par = ["even"] * inf_e + ["odd"] * inf_o
        return classify(
            lams,
            _scale_of(lams),
            parities=parities,
            n_infinite=inf_e + inf_o,
            infinite_parities=inf_par,
            config=config,
            tolerances=tolerances,
        )
    lams, n_inf = pencil_lambdas(config)
    return classify(
        lams,
        _scale_of(lams),
        n_infinite=n_inf,
        config=config,
        tolerances=tolerances,
    )


def single_parity_report(
    config: MethodConfig, parity: str, tolerances: dict | None = None
) -> SpectrumReport:
    """Spectrum of one parity ladder only (interlacing not applicable)."""
    cfg = dataclasses.replace(config, parity_split=True)
    lams, n_inf = pencil_lambdas(cfg, parity)
    report = classify(
        lams,
        _scale_of(lams),
        parities=[parity] * lams.size,
        n_infinite=n_inf,
        infinite_parities=[parity] * n_inf,
        config=cfg,
        tolerances=tolerances,
    )
    report.interlaced = None
    return report
