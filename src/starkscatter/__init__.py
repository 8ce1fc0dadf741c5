"""Numerics for Stark-Hamiltonian scattering: classical flows, parabolic
phase calculus, transport symbols, oscillatory integrals and Born-level
scattering kernels."""

from .errors import (
    BudgetError,
    ConfigError,
    ConvergenceError,
    DomainError,
    StarkScatterError,
)
from .potentials import (
    PotentialSpec,
    coulomb,
    eval_potential,
    homogeneous,
    zero_potential,
)
from .special import KernelLaw, airy_ai, c1_constant, c2_constant
from .parabolic import (
    ParabolicPoint,
    eikonal_residual,
    exact_phase,
    jacobian_det,
    theta_laplacian,
    to_parabolic,
)
from .classical import (
    GammaObservables,
    PhasePoint,
    Trajectory,
    asymptotic_momentum,
    cone_mask,
    decay_slope,
    energy,
    free_flow,
    gamma_observables,
    integrate_orbit,
)
from .transport import (
    SymbolResult,
    decay_fit_symbols,
    symbols,
)
from .oscillatory import (
    BumpProfile,
    airy_reduction,
    free_eigenfunction,
    stationary_phase_eigenfunction,
)
from .kernel import (
    KernelFit,
    born_symbol_tail,
    born_symbols,
    fit_kernel_law,
    kernel_singularity_law,
    radial_kernel,
    radial_transform,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "StarkScatterError",
    "PotentialSpec",
    "coulomb",
    "homogeneous",
    "zero_potential",
    "eval_potential",
    "KernelLaw",
    "airy_ai",
    "c1_constant",
    "c2_constant",
    "ParabolicPoint",
    "to_parabolic",
    "theta_laplacian",
    "exact_phase",
    "jacobian_det",
    "eikonal_residual",
    "PhasePoint",
    "Trajectory",
    "GammaObservables",
    "free_flow",
    "integrate_orbit",
    "energy",
    "asymptotic_momentum",
    "gamma_observables",
    "decay_slope",
    "cone_mask",
    "SymbolResult",
    "symbols",
    "decay_fit_symbols",
    "BumpProfile",
    "airy_reduction",
    "free_eigenfunction",
    "stationary_phase_eigenfunction",
    "born_symbols",
    "kernel_singularity_law",
    "born_symbol_tail",
    "radial_transform",
    "radial_kernel",
    "KernelFit",
    "fit_kernel_law",
]
