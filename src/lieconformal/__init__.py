"""Exact-arithmetic Lie theory toolkit for classifying essential
conformal holomorphic Riemannian homogeneous structures."""

from .chevalley import (
    AlgebraElement,
    StructureConstants,
    bracket,
    cached_constants,
    elem_e,
    elem_h,
    structure_constants,
)
from .classify import ClassificationReport, classify_all, expected_survivors
from .errors import (
    DimensionMismatch,
    Inconsistent,
    InvalidRank,
    NoWitness,
    NotARoot,
    NotValidated,
    Reducible,
    ResidualNonzero,
    SystemMismatch,
    Unalignable,
)
from .invform import AssembledSystem, FormSolution, assemble, solve, verify_invariance
from .isotropy import (
    CASE1,
    CASE2,
    LOWRANK,
    PARABOLIC,
    Distortion,
    IsotropyConfig,
    derive_isotropy,
    parabolic_distortion,
    quotient_basis,
    validate,
)
from .rootsys import RootSystem, build, minimal_root, vec

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AssembledSystem",
    "CASE1",
    "CASE2",
    "ClassificationReport",
    "DimensionMismatch",
    "Distortion",
    "FormSolution",
    "Inconsistent",
    "InvalidRank",
    "IsotropyConfig",
    "LOWRANK",
    "NoWitness",
    "NotARoot",
    "NotValidated",
    "PARABOLIC",
    "Reducible",
    "ResidualNonzero",
    "RootSystem",
    "StructureConstants",
    "SystemMismatch",
    "Unalignable",
    "assemble",
    "bracket",
    "build",
    "cached_constants",
    "classify_all",
    "derive_isotropy",
    "elem_e",
    "elem_h",
    "expected_survivors",
    "minimal_root",
    "parabolic_distortion",
    "quotient_basis",
    "solve",
    "structure_constants",
    "validate",
    "vec",
    "verify_invariance",
]
