"""Exact rings of differential operators on polynomial rings.

Divided-power normal forms in any characteristic, order and level
filtrations, standard and twisted transpositions, level-e matrix
representations, order filtrations on Artinian monomial quotients with
their socle adjoints, and finite linear group actions with Reynolds
averaging.  All arithmetic is exact (rationals or prime fields).
"""

from ._kernels import KERNEL_BACKEND
from .artinian import ArtinianAlgebra, order_filtration, socle_adjoint
from .diffop import (
    DiffOp,
    bracket,
    level_by_commutation_oracle,
    order_by_bracket_oracle,
)
from .errors import DomainError, ParseError, WeylOpsError
from .exponents import alternating_multinomial_sum
from .field import FieldSpec
from .invariants import (
    FiniteGroup,
    GroupElement,
    act_on_op,
    act_on_poly,
    equivariance_check,
    is_invariant,
    is_pseudoreflection,
    reynolds,
)
from .levelmatrix import FrobeniusBasis, LevelMatrix, matrix_mul_consistency, to_matrix, to_operator
from .linalg import Matrix
from .opparser import parse_operator, parse_polynomial
from .poly import Polynomial, PolyRing, RingMap, apply_ring_map
from .transpose import (
    standard_transpose,
    transport_via_coordinates,
    twisted_transpose,
)

__version__ = "0.1.0"

__all__ = [
    "ArtinianAlgebra",
    "DiffOp",
    "DomainError",
    "FieldSpec",
    "FiniteGroup",
    "FrobeniusBasis",
    "GroupElement",
    "KERNEL_BACKEND",
    "LevelMatrix",
    "Matrix",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "RingMap",
    "WeylOpsError",
    "act_on_op",
    "act_on_poly",
    "alternating_multinomial_sum",
    "apply_ring_map",
    "bracket",
    "equivariance_check",
    "is_invariant",
    "is_pseudoreflection",
    "level_by_commutation_oracle",
    "matrix_mul_consistency",
    "order_by_bracket_oracle",
    "order_filtration",
    "parse_operator",
    "parse_polynomial",
    "reynolds",
    "socle_adjoint",
    "standard_transpose",
    "to_matrix",
    "to_operator",
    "transport_via_coordinates",
    "twisted_transpose",
]
