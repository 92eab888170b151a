"""Numerical laboratory for viscoelastic von Karman plates and ribbons.

The package evolves the scaled 2D plate system and the effective 1D
ribbon system as metric gradient flows via minimizing movements, and
provides the diagnostics that probe the structural properties of the
pair: energy-dissipation balance, slope representations, recovery-energy
convergence, and the commutativity of time-step and width refinement.
"""

from .fem import (
    BFSSpace,
    BoundaryData,
    GaussRule,
    Hermite3Space,
    Mesh1D,
    Mesh2D,
    P1Space,
    Q1Space,
    Quadrature1D,
    Quadrature2D,
    assemble_quadratic,
    dirichlet_1d,
    dirichlet_2d,
    scaled_operators_2d,
)
from .flow import (
    DissipationLedger,
    SolverOptions,
    StepFailure,
    StepReport,
    Trajectory,
    dissipation_ledger,
    incremental_step,
    run_trajectory,
)
from .forms import (
    ExtendedForm,
    MaterialError,
    MaterialPair,
    QuadForm0,
    QuadForm1,
    QuadForm2,
    classify_hypothesis,
    dQ1,
    extended_form,
    h2_family_matrix,
    make_isotropic,
    reduce_to_0,
    reduce_to_1,
)
from .plate import (
    PlateState,
    PlateSystem,
    RecoveryInputs,
    build_recovery,
)
from .ribbon import (
    RibbonForces,
    RibbonState,
    RibbonSystem,
    SlopeSolution,
    mutual_shift,
)

__version__ = "0.1.0"
