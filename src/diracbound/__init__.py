"""Dirac bound states for central Coulomb-like potentials.

Four pillars:

* closed-form Dirac-Coulomb eigenvalues and their coupling derivative
  (:mod:`diracbound.coulomb`),
* a shooting solver for the radial Dirac system on screened / shifted
  Coulomb potentials (:mod:`diracbound.radial`),
* envelope upper bounds built from tangent shifted-Coulomb potentials
  (:mod:`diracbound.envelope`),
* a spectral-ordering harness checking that pointwise-ordered potentials
  produce ordered eigenvalues (:mod:`diracbound.comparison`).

Energies are in electron rest-energy units (mc^2 = 1) unless a helper says
otherwise; radii are in reduced Compton wavelengths.
"""

from .channels import (
    DEFAULT_CONSTANTS,
    Channel,
    PhysicalConstants,
    parse_state_label,
    parity,
    principal_quantum_number,
    spectroscopic_label,
)
from .comparison import (
    ComparisonReport,
    IdentityCheck,
    assert_ordering,
    derivative_identity_check,
    identity_residual,
    random_screened_tangent_pair,
)
from .coulomb import coulomb_eigenvalue, coulomb_eigenvalue_derivative
from .envelope import EnvelopeBound, bound_at_t, bound_objective, minimize_bound
from .errors import (
    ConvergenceError,
    HypothesisViolationError,
    NoBoundStateError,
    SolverError,
)
from .potentials import (
    PureCoulomb,
    ScreenedCoulomb,
    ShiftedCoulomb,
    g_transform,
    g_transform_derivative,
    ordering_gap,
    tangent_at,
)
from .radial import (
    RadialGrid,
    RadialSolution,
    build_grid,
    count_nodes,
    integrate_radial,
    normalize,
    solve_eigenvalue,
)
from .table1 import REFERENCE_BINDINGS_KEV, TableCell, TableResult, compute_table

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "parse_state_label",
    "parity",
    "principal_quantum_number",
    "spectroscopic_label",
    "PureCoulomb",
    "ShiftedCoulomb",
    "ScreenedCoulomb",
    "g_transform",
    "g_transform_derivative",
    "tangent_at",
    "ordering_gap",
    "coulomb_eigenvalue",
    "coulomb_eigenvalue_derivative",
    "RadialGrid",
    "RadialSolution",
    "build_grid",
    "solve_eigenvalue",
    "integrate_radial",
    "count_nodes",
    "normalize",
    "EnvelopeBound",
    "bound_at_t",
    "bound_objective",
    "minimize_bound",
    "ComparisonReport",
    "IdentityCheck",
    "identity_residual",
    "derivative_identity_check",
    "assert_ordering",
    "random_screened_tangent_pair",
    "TableCell",
    "TableResult",
    "compute_table",
    "REFERENCE_BINDINGS_KEV",
    "SolverError",
    "NoBoundStateError",
    "ConvergenceError",
    "HypothesisViolationError",
    "__version__",
]
