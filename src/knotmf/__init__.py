"""Exact symbolic workbench for braid closure invariants.

Layers: exact Laurent/rational scalars, braid and permutation combinatorics,
the Hecke algebra Markov trace and the closure invariant, the rank-2 Koszul
factorization calculus with its scripted convolution pipelines, and the
fixed-point character formulas with their residue evaluation.
"""

from .braid import BraidWord, Permutation, parse_braid, jm_element, full_twist
from .hecke import (HeckeElement, InvariantValue, from_braid, gen_image,
                    homflypt, trace_ocneanu)
from .ring import LaurentPoly, QuotientReducer, VarRegistry
from .scalars import RatFunc

__all__ = [
    "BraidWord", "Permutation", "parse_braid", "jm_element", "full_twist",
    "HeckeElement", "InvariantValue", "from_braid", "gen_image", "homflypt",
    "trace_ocneanu",
    "LaurentPoly", "QuotientReducer", "VarRegistry",
    "RatFunc",
]
