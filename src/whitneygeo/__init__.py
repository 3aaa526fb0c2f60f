"""Numerical certification of curvature identities for Lagrangian and
Legendrian sphere immersions in the constant-curvature model spaces.

The package evaluates explicit sphere immersions through truncated-Taylor
(jet) arithmetic, derives every first-, second-, and third-order extrinsic
invariant, and certifies the pointwise identities, pointwise inequalities,
and integral inequality that characterize the Whitney spheres and their
contact analogues, including the equality-case classification.
"""

from .immersions import (
    CATALOG,
    HamiltonianDeformation,
    ImmersionSpec,
    eval_immersion,
    hamiltonian_flow,
    make_spec,
    model_for,
)
from .geometry import (
    CurvatureData,
    PointGeometry,
    curvature_data,
    paper_residuals,
    pointwise_geometry,
    structure_checks,
)
from .quadrature import IntegrationGrid, build_grid, sphere_volume
from .spaceforms import DomainError, ModelValidationError, make_model
from .verify import Tolerances, VerificationReport, classify_equality, run_case

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CurvatureData",
    "DomainError",
    "HamiltonianDeformation",
    "ImmersionSpec",
    "IntegrationGrid",
    "ModelValidationError",
    "PointGeometry",
    "Tolerances",
    "VerificationReport",
    "build_grid",
    "classify_equality",
    "curvature_data",
    "eval_immersion",
    "hamiltonian_flow",
    "make_model",
    "make_spec",
    "model_for",
    "paper_residuals",
    "pointwise_geometry",
    "run_case",
    "sphere_volume",
    "structure_checks",
]
