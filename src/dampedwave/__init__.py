"""Numerical laboratory for vectorial damped wave spectra on flat models.

The package computes the eigenvalue distribution of the damped wave
generator on the circle and flat tori, the Lyapunov bands of the associated
damping cocycle, and checks the confinement, counting and band-density
statements that relate the two, together with anti-Wick quantization
utilities and a propagator-factorization experiment.
"""

from .geometry import Manifold, PhasePoint, flow, sample_shell
from .damping import DampingField, ExtremalBounds, extremal_bounds, one_plus_cos, random_field
from .cocycle import ScaledMatrix, cocycle_residual, line_integral, propagate, scalar_closed_form
from .lyapunov import (
    band_estimates,
    exterior_sums,
    finite_time_bounds,
    lyapunov_spectrum,
)
from .spectrum import SpectrumSet, assemble, convergence_check, eigenvalues_tau, solve
from .analysis import band_outliers, cluster_histogram, counting, strip_outliers, weyl_prediction
from .evolution import WaveState, energy, energy_balance_residual, evolve, factorization_residual

__all__ = [
    "Manifold",
    "PhasePoint",
    "flow",
    "sample_shell",
    "DampingField",
    "ExtremalBounds",
    "extremal_bounds",
    "one_plus_cos",
    "random_field",
    "ScaledMatrix",
    "cocycle_residual",
    "line_integral",
    "propagate",
    "scalar_closed_form",
    "band_estimates",
    "exterior_sums",
    "finite_time_bounds",
    "lyapunov_spectrum",
    "SpectrumSet",
    "assemble",
    "convergence_check",
    "eigenvalues_tau",
    "solve",
    "band_outliers",
    "cluster_histogram",
    "counting",
    "strip_outliers",
    "weyl_prediction",
    "WaveState",
    "energy",
    "energy_balance_residual",
    "evolve",
    "factorization_residual",
]

__version__ = "0.1.0"
