"""Semiclassical shell structure of radially perturbed isotropic harmonic traps.

The package computes the oscillating part of the quantum density of states
for a D-dimensional isotropic harmonic oscillator with even radial monomial
or polynomial perturbations, to leading order in the perturbation strength,
and cross-validates it against torus quantization and direct classical
mechanics.
"""

__version__ = "0.1.0"

from .actionpoly import (
    ActionPolynomial,
    PerturbationTerm,
    SystemParams,
    action_coefficients,
    delta_s,
    effective_frequency,
    polynomial_delta_s,
    sigma_alpha,
    verify_legendre_form,
)
from .dos import (
    DosCurve,
    envelope_nodes,
    ho_dos,
    pert_dos,
    supershell_factorized,
    supershell_nodes,
)
from .ebk import (
    EbkLevel,
    angular_degeneracy,
    ebk_dos,
    ebk_energy,
    enumerate_levels,
    outer_turning_point,
    radial_action,
    tf_smooth,
)
from .errors import (
    AccuracyError,
    DomainError,
    ForeignLevelsError,
    NoBoundStateError,
    PropertyViolationError,
    StepSizeError,
    TruncationWarning,
    UnsupportedMethodError,
)
from .modfactor import (
    ModulationFactor,
    modulation,
    modulation_closed_form,
    modulation_quadrature,
    spa_stationary_point_audit,
)
from .oracle import (
    EllipseOrbit,
    PhaseState,
    angular_momentum,
    delta_s_oracle,
    integrate_orbit,
)
from .specfun import (
    QuadratureRule,
    gauss_legendre,
    kummer_1f1,
)
