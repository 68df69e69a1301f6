"""Maps between the momentum wave function at the reaction-volume edge and
macroscopic detection quantities.

The forward map sends Phi(p, tau) to the large-time position field via
Psi(r, t) ~ (m/(it))^{d/2} e^{i m r^2/(2 hbar t)} Phi(m r / t); densities
then factor into a classical trajectory density times the momentum-space
density.  The inverse map turns measured hit densities back into momentum
densities, and multi-particle and incident-channel variants keep any
entanglement of Phi intact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classical import stationary_momentum, van_vleck_time
from .core import HBAR, ComplexField, Grid, _freeze, _write_csv
from .errors import DomainError, ShapeError, finite, nonnegative, positive
from .propagate import _it_map, _moments, interpolate_field, it_field_uniform

MACROSCOPIC_RADIUS = 1e3
FAR_FIELD_RATIO = 10.0


@dataclass(frozen=True)
class DetectorPatch:
    """Small acceptance volume at macroscopic distance: r^2 dOmega dr."""

    position: np.ndarray
    solid_angle: float
    radial_extent: float

    def __post_init__(self):
        r = np.array(self.position, dtype=float, ndmin=1)
        _freeze(self, position=r)
        R = math.hypot(*r)  # scales before it squares: no overflow below the float range
        finite(**{"|position|": R})
        if not R > MACROSCOPIC_RADIUS:
            raise DomainError(
                f"detector must sit beyond {MACROSCOPIC_RADIUS:g} a.u. from the reaction volume"
            )
        positive(solid_angle=self.solid_angle, radial_extent=self.radial_extent)
        # Python floats: an overflowing volume becomes inf without a warning
        finite(volume=self.volume)

    @property
    def volume(self) -> float:
        r = math.hypot(*self.position)
        return (r * self.solid_angle) * (r * self.radial_extent)


@dataclass(frozen=True)
class ITResult:
    """One point of the imaging map: density = vv_factor * |Phi(p')|^2."""

    position_density: float
    momentum_point: np.ndarray
    vv_factor: float
    phase: float

    def __post_init__(self):
        p = np.array(self.momentum_point, dtype=float, ndmin=1)
        nonnegative(position_density=self.position_density)
        positive(vv_factor=self.vv_factor)
        finite(momentum_point=p, phase=self.phase)
        _freeze(self, momentum_point=p)


def apply_it_free(momentum_field: ComplexField, m: float, t: float, r_grid: Grid) -> ComplexField:
    """Asymptotic position field Psi(r,t) = (m/(it))^{d/2} e^{i m r^2/(2 hbar t)} Phi(m r/t).

    The F = 0 case of :func:`itkit.propagate.it_field_uniform`, plus a
    warning when t is not deep in the far field.
    """
    out = it_field_uniform(momentum_field, r_grid, t, 0.0, m)
    sigma_p = math.sqrt(sum(_moments(momentum_field)[1]) / momentum_field.grid.dimension)
    sigma_x = HBAR / (2.0 * sigma_p)
    if t * sigma_p / (m * sigma_x) <= FAR_FIELD_RATIO:
        warnings.warn(
            "t is not far-field for this packet; imaging-map error may be large",
            stacklevel=2,
        )
    return out


def it_density(momentum_density, vv_factor):
    """Position density as trajectory density times momentum density."""
    positive(vv_factor=vv_factor)
    nonnegative(momentum_density=momentum_density)
    return np.asarray(vv_factor, dtype=float) * np.asarray(momentum_density, dtype=float)


def it_point(momentum_field: ComplexField, m: float, t: float, r) -> ITResult:
    """Imaging map at a single detector position."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    p_prime, s, psi = _it_map(momentum_field, r.reshape(1, -1), t, 0.0, m)
    vv = van_vleck_time(m, t, len(r))
    return ITResult(float(abs(psi[0]) ** 2), p_prime[0], vv, float(s[0] / HBAR))


def detection_probability(position_field: ComplexField, patch: DetectorPatch) -> float:
    """dP = |Psi(r, t)|^2 r^2 dOmega dr at a detector patch."""
    # a patch off the grid is a SupportError, which is a CoverageError
    val = interpolate_field(position_field, patch.position.reshape(1, -1))[0]
    dens = abs(complex(val)) ** 2
    return float(dens * patch.volume)


def momentum_density_from_hits(position_density, r, t: float, m: float,
                               dimension: int = 3):
    """Invert the imaging map: |Phi(p')|^2 = (r/p')^d |Psi(r, t)|^2, p' = m r/t.

    For vector input ``r`` is the radial distance; the factor (r/p')^d is
    just (t/m)^d, so the inversion needs no angular information.
    """
    dens = np.asarray(position_density, dtype=float)
    positive(t=t, m=m, r=np.asarray(r, dtype=float), dimension=dimension)
    nonnegative(position_density=dens)
    return dens * (t / m) ** dimension


def many_particle_it(momentum_field: ComplexField, masses, times, positions) -> float:
    """Joint detection density for N particles at positions r_n, times t_n:

    |Psi|^2 = prod_n (m_n / t_n)^d |Phi(p_1', ..., p_N')|^2, p_n' = m_n r_n / t_n.

    ``momentum_field`` lives on the joint (N*d)-dimensional momentum grid;
    entanglement in Phi is preserved since no factorization is assumed.
    """
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    n = len(masses)
    if len(times) != n or pos.shape[0] != n:
        raise ShapeError("need one time and one position per particle")
    positive(masses=masses, times=times)
    finite(positions=pos)
    d = pos.shape[1]
    if momentum_field.grid.dimension != n * d:
        raise ShapeError(
            f"joint momentum grid must have {n * d} axes, found {momentum_field.grid.dimension}"
        )
    vv = van_vleck_time(masses, times, d)
    p_primes = stationary_momentum(pos, 0.0, times[:, None], masses[:, None])
    phi = complex(interpolate_field(momentum_field, p_primes.reshape(1, -1), fill=0.0)[0])
    return vv * abs(phi) ** 2


def incident_amplitude(collimator_field: ComplexField, m: float, t_i: float, r_i) -> complex:
    """Semiclassical incident-channel amplitude in d dimensions

    A_i = (-i)^{d/2} (2 pi hbar m / t_i)^{d/2} Phi_i(p_i),  p_i = -m r_i / t_i,

    so that |A_i|^2 is the incident probability density at the reaction volume.
    """
    positive(m=m, t_i=t_i)
    r_i = np.atleast_1d(np.asarray(r_i, dtype=float))
    finite(r_i=r_i)
    d = collimator_field.grid.dimension
    if len(r_i) != d:
        raise ShapeError(f"r_i has {len(r_i)} coordinates, the collimator field {d} axes")
    p_i = stationary_momentum(0.0, r_i, t_i, m)  # the path from r_i into the reaction volume
    phi = complex(interpolate_field(collimator_field, p_i.reshape(1, -1), fill=0.0)[0])
    return np.exp(-1j * np.pi * d / 4.0) * (2.0 * np.pi * HBAR * m / t_i) ** (d / 2.0) * phi


def incident_density(collimator_field: ComplexField, m: float, t_i: float, r_i) -> float:
    """P_i = |A_i|^2 = (2 pi hbar m / t_i)^d |Phi_i(p_i)|^2."""
    return abs(incident_amplitude(collimator_field, m, t_i, r_i)) ** 2


def chained_density(final_it_density, incident_density_value: float):
    """Counting-rate density: imaging-map density scaled by the incident flux."""
    dens = np.asarray(final_it_density, dtype=float)
    nonnegative(final_it_density=dens, incident_density_value=incident_density_value)
    return dens * incident_density_value


def density_to_csv(grid: Grid, density: np.ndarray, path, comment: str | None = None) -> None:
    """Columns: one coordinate per axis, then density."""
    density = np.asarray(density).ravel()
    n_rows = math.prod(grid.n)
    if density.size != n_rows:
        raise ShapeError(f"{density.size} density values for a grid of {n_rows} points")
    header = ",".join(f"x{i}" for i in range(grid.dimension)) + ",density"
    _write_csv(path, header, [*grid.coordinate_columns(), density], comment)
