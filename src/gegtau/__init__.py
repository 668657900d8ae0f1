"""Gegenbauer tau/Galerkin spectra for the clamped problem D4 u = lambda D2 u."""

from .charpoly import (
    CharPoly,
    even_charpoly,
    odd_charpoly,
    second_order_pair,
    stability_poly,
)
from .eig import SpectrumReport, classify, dense_eigs, poly_roots
from .gegenbauer import (
    deriv_at_one,
    evaluate,
    lobatto_interior_nodes,
    value_at_one,
)
from .pencil import (
    MethodConfig,
    Pencil,
    assemble,
    reduce_to_standard,
)
from .spectra import charpoly_lambdas, pencil_lambdas, spectrum_report

__version__ = "0.1.0"

__all__ = [
    "CharPoly",
    "MethodConfig",
    "Pencil",
    "SpectrumReport",
    "assemble",
    "charpoly_lambdas",
    "classify",
    "dense_eigs",
    "deriv_at_one",
    "evaluate",
    "even_charpoly",
    "lobatto_interior_nodes",
    "odd_charpoly",
    "pencil_lambdas",
    "poly_roots",
    "reduce_to_standard",
    "second_order_pair",
    "spectrum_report",
    "stability_poly",
    "value_at_one",
    "__version__",
]
