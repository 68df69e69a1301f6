"""Semiclassical asymptotic scattering toolkit.

Grid wave functions, classical actions and trajectory densities,
split-operator and semiclassical propagation, imaging maps from momentum
wave functions to macroscopic detection densities, time-independent Green
functions and cross sections, and time-delay coincidence analysis.
All quantities are in Hartree atomic units.
"""

from .core import (
    CM_TO_BOHR,
    EV_TO_HARTREE,
    HBAR,
    MOMENTUM,
    POSITION,
    ComplexField,
    GaussianPacketSpec,
    Grid,
    UniformField,
    centered_grid_1d,
    normalize,
    sample_gaussian,
    to_momentum,
    to_position,
)
from .errors import ItkitError

__all__ = [
    "CM_TO_BOHR",
    "EV_TO_HARTREE",
    "HBAR",
    "MOMENTUM",
    "POSITION",
    "ComplexField",
    "GaussianPacketSpec",
    "Grid",
    "ItkitError",
    "UniformField",
    "centered_grid_1d",
    "normalize",
    "sample_gaussian",
    "to_momentum",
    "to_position",
]

__version__ = "0.1.0"
