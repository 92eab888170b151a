"""Numerical laboratory for viscoelastic von Karman plates and ribbons.

The package evolves the scaled 2D plate system and the effective 1D
ribbon system as metric gradient flows via minimizing movements, and
provides the diagnostics that probe the structural properties of the
pair: energy-dissipation balance, slope representations, recovery-energy
convergence, and the commutativity of time-step and width refinement.

The names below load their module on first access, so importing the
package loads no numpy; the command line (``__main__``) relies on that to
fix the BLAS thread count first.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "fem": (
        "BFSSpace",
        "BoundaryData",
        "GaussRule",
        "Hermite3Space",
        "Mesh1D",
        "Mesh2D",
        "P1Space",
        "Q1Space",
        "Quadrature1D",
        "Quadrature2D",
        "dirichlet_1d",
        "dirichlet_2d",
    ),
    "flow": (
        "Chord",
        "DissipationLedger",
        "SolverOptions",
        "StepFailure",
        "StepReport",
        "Trajectory",
        "dissipation_ledger",
        "incremental_step",
        "run_trajectory",
    ),
    "forms": (
        "ExtendedForm",
        "MaterialError",
        "MaterialPair",
        "QuadForm0",
        "QuadForm1",
        "QuadForm2",
        "classify_hypothesis",
        "dQ1",
        "extended_form",
        "h2_family_matrix",
        "make_isotropic",
        "reduce_to_0",
        "reduce_to_1",
    ),
    "plate": ("PlateState", "PlateSystem", "RecoveryInputs", "build_recovery"),
    "ribbon": ("RibbonForces", "RibbonState", "RibbonSystem", "SlopeSolution"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
