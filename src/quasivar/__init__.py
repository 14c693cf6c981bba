"""quasivar: variational toolkit for coupled quasilinear elliptic systems.

Checks the structural hypotheses of a supercritical model class with
exact rational arithmetic, evaluates the associated energy functional
and its weak differential on uniform grids, computes first Dirichlet
eigenpairs of the p-Laplacian, and searches for mountain-pass critical
points with geometry certification and a multi-start multiplicity
heuristic.
"""

__version__ = "0.1.0"

from .exponents import (DerivedExponents, ExponentConfig, HypothesisReport,
                        InequalityRecord, InfeasibleIntervalError,
                        ModelConstants, NonAdmissibleConfigError,
                        check_model_hypotheses, compute_model_constants,
                        critical_exponent, derive_auxiliary_exponents)
from .grid import (FieldPair, Grid, GridFunction, dump_field, ell_norm,
                   integrate, norm_Linf, norm_Lp, norm_W, pair_norm_W,
                   power_map)
from .model import (ModelFunctions, StructuralSampleReport,
                    sample_structural_hypotheses)
from .energy import (NonFiniteEnergyError, dJ_apply, dJ_loads,
                     gradient_representative, j_value, residual_norm)
from .eigen import EigenPair, first_eigenpair, rayleigh_quotient
from .mpsolver import (CriticalPointCandidate, GeometryCertificate,
                       SolverParams, VerificationRecord, certify_geometry,
                       mountain_pass_search, multiplicity_search,
                       scale_to_ell, verify_candidate)

__all__ = [
    "__version__",
    # exponents
    "ExponentConfig", "DerivedExponents", "ModelConstants",
    "InequalityRecord", "HypothesisReport", "InfeasibleIntervalError",
    "NonAdmissibleConfigError", "critical_exponent",
    "derive_auxiliary_exponents", "check_model_hypotheses",
    "compute_model_constants",
    # grid
    "Grid", "GridFunction", "FieldPair", "integrate", "norm_W", "norm_Lp",
    "norm_Linf", "power_map", "pair_norm_W", "ell_norm", "dump_field",
    # model
    "ModelFunctions", "StructuralSampleReport", "sample_structural_hypotheses",
    # energy
    "NonFiniteEnergyError", "j_value", "dJ_loads", "dJ_apply",
    "gradient_representative", "residual_norm",
    # eigen
    "EigenPair", "first_eigenpair", "rayleigh_quotient",
    # mpsolver
    "SolverParams", "GeometryCertificate", "CriticalPointCandidate",
    "VerificationRecord", "certify_geometry", "scale_to_ell",
    "mountain_pass_search", "multiplicity_search", "verify_candidate",
]
