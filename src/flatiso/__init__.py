"""Flat structures on spaces of isomonodromic deformations.

Exact verification of extended-WDVV potential vector fields, construction of
the associated Saito/Okubo matrix data, Painlevé VI extraction from
three-dimensional flat structures, and numeric middle-convolution and
Schlesinger machinery.
"""

from .ring import Ring, RingElem
from .exprio import parse_expr, parse_pvf, serialize_pvf
from .flatcore import (PotentialVF, build_saito_matrices, check_extended_wdvv,
                       frobenius_check)
from .catalog import catalog_get, catalog_list, catalog_verify

__all__ = [
    "Ring", "RingElem",
    "parse_expr", "parse_pvf", "serialize_pvf",
    "PotentialVF", "build_saito_matrices",
    "check_extended_wdvv", "frobenius_check",
    "catalog_get", "catalog_list", "catalog_verify",
]
__version__ = "0.1.0"
