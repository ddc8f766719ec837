"""Alternating projections between the PSD cone and affine subspaces of S^n:
projections, parametric update formulas, singleton-intersection plane
families, the rational slowest curve, and convergence-rate estimation."""

from .apengine import (APTrace, ap_step, eigenvalue_formula_step,
                       grad_half_dist2_psi, m_matrix, psi,
                       rank_one_step_residual, run_ap)
from .catalog import BUILTIN_IDS, get_example
from .planes import (PlaneSpec, build_plane, plucker_coords,
                     plucker_relation_defect, singularity_degree,
                     slow_step_constant)
from .rates import (RateFit, RecursionRun, fit_geometric, fit_inverse_power,
                    recursive_sequence, slow_rate_constant)
from .series import (TruncSeries, det_series, expand_curve,
                     moment_curve_defect, w_recursion_defect)
from .slowcurve import (CurvePoint, PerturbGain, ap_image_formula,
                        curve_point, newton_slowest_point, perturb_gain,
                        psd_projection_formula, residual_order_certified,
                        tube_check, valid_t_max)
from .symcore import (AffineSubspace, EigDecomp, eig_sym, frob_inner,
                      frob_norm, orthogonalize, project_affine, project_psd,
                      sym_matrix)

__version__ = "0.1.0"

# Nothing is compiled; the benchmark header (apbench/run.py) reads this name.
USING_NUMBA = False

__all__ = [
    "APTrace", "AffineSubspace", "BUILTIN_IDS", "CurvePoint", "EigDecomp",
    "PerturbGain", "PlaneSpec", "RateFit", "RecursionRun", "TruncSeries",
    "USING_NUMBA",
    "ap_image_formula", "ap_step", "build_plane", "curve_point", "det_series",
    "eig_sym", "eigenvalue_formula_step", "expand_curve", "fit_geometric",
    "fit_inverse_power", "frob_inner", "frob_norm", "get_example",
    "grad_half_dist2_psi", "m_matrix", "moment_curve_defect",
    "newton_slowest_point", "orthogonalize", "perturb_gain", "plucker_coords",
    "plucker_relation_defect", "project_affine", "project_psd",
    "psd_projection_formula", "psi", "rank_one_step_residual",
    "recursive_sequence", "residual_order_certified", "run_ap",
    "singularity_degree", "slow_rate_constant", "slow_step_constant",
    "sym_matrix", "tube_check", "valid_t_max", "w_recursion_defect",
]
