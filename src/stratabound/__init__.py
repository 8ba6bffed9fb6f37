"""Boundary components of central streams via arrowed binary sequences."""

from .newton import NewtonPolygon, Segment, curtail, dual, parse_polygon, phi, validate
from .sequences import (
    ABS,
    Symbol,
    abs_from_binary_sequence,
    length,
    minimal_abs,
    minimal_abs_segment,
    to_binary_sequence,
)
from .weyl import JWContext, Permutation, binary_to_jw, coxeter_length, jw_elements, jw_to_binary, specializes
from .modification import (
    CensusRow,
    ModificationTrace,
    SmallModPair,
    construction_a,
    construction_b,
    eligible_pairs,
    full_modification,
    modification_census,
    parse_pair,
    small_modification,
    specialization_to_weyl,
)
from .boundary import (
    BoundarySet,
    boundary_set,
    boundary_set_oracle,
    verify_curtailment,
    verify_direct_sum,
    verify_duality,
)

__version__ = "0.1.0"

__all__ = [
    "ABS",
    "BoundarySet",
    "CensusRow",
    "JWContext",
    "ModificationTrace",
    "NewtonPolygon",
    "Permutation",
    "Segment",
    "SmallModPair",
    "Symbol",
    "abs_from_binary_sequence",
    "binary_to_jw",
    "boundary_set",
    "boundary_set_oracle",
    "construction_a",
    "construction_b",
    "coxeter_length",
    "curtail",
    "dual",
    "eligible_pairs",
    "full_modification",
    "jw_elements",
    "jw_to_binary",
    "length",
    "minimal_abs",
    "minimal_abs_segment",
    "modification_census",
    "parse_pair",
    "parse_polygon",
    "phi",
    "small_modification",
    "specialization_to_weyl",
    "specializes",
    "to_binary_sequence",
    "validate",
]
