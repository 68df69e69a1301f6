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

import warnings
from dataclasses import dataclass

import numpy as np

from .classical import van_vleck_time
from .core import HBAR, MOMENTUM, POSITION, ComplexField, Grid, _write_csv
from .errors import CoverageError, DomainError, RepresentationError, ShapeError
from .propagate import interpolate_field

MACROSCOPIC_RADIUS = 1e3
FAR_FIELD_RATIO = 10.0


@dataclass(frozen=True)
class DetectorPatch:
    """Small acceptance volume at macroscopic distance: r^2 dOmega dr."""

    position: np.ndarray
    solid_angle: float
    radial_extent: float
    arrival_time: float

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.position, dtype=float))
        r.setflags(write=False)
        object.__setattr__(self, "position", r)
        if np.linalg.norm(r) <= MACROSCOPIC_RADIUS:
            raise DomainError(
                f"detector must sit beyond {MACROSCOPIC_RADIUS:g} a.u. from the reaction volume"
            )
        if self.solid_angle <= 0 or self.radial_extent <= 0:
            raise DomainError("solid angle and radial extent must be positive")

    @property
    def volume(self) -> float:
        r = float(np.linalg.norm(self.position))
        return r * r * self.solid_angle * self.radial_extent


@dataclass(frozen=True)
class ITResult:
    """One point of the imaging map: density = vv_factor * |Phi(p')|^2."""

    position_density: float
    momentum_point: np.ndarray
    vv_factor: float
    phase: float

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.momentum_point, dtype=float))
        p.setflags(write=False)
        object.__setattr__(self, "momentum_point", p)
        if self.vv_factor <= 0:
            raise DomainError("vv_factor must be positive")


def _estimate_sigma_p(momentum_field: ComplexField) -> float:
    dens = momentum_field.density()
    w = dens / dens.sum()
    axes = momentum_field.grid.meshgrid()
    var = 0.0
    for a in axes:
        mean = float(np.sum(w * a))
        var += float(np.sum(w * (a - mean) ** 2))
    return np.sqrt(var / momentum_field.grid.dimension)


def apply_it_free(momentum_field: ComplexField, m: float, t: float, r_grid: Grid) -> ComplexField:
    """Asymptotic position field Psi(r,t) = (m/(it))^{d/2} e^{i m r^2/(2 hbar t)} Phi(m r/t).

    Phi is interpolated cubically at the classical momenta m r / t; points
    mapping outside the momentum grid contribute zero (Phi has decayed).
    Warns when t is not deep in the far field.
    """
    if momentum_field.representation != MOMENTUM:
        raise RepresentationError("apply_it_free expects a momentum-representation field")
    if t <= 0:
        raise DomainError("t must be positive")
    d = r_grid.dimension
    if momentum_field.grid.dimension != d:
        raise ShapeError("momentum and position grids must share dimension")
    sigma_p = _estimate_sigma_p(momentum_field)
    sigma_x = HBAR / (2.0 * sigma_p)
    if t * sigma_p / (m * sigma_x) <= FAR_FIELD_RATIO:
        warnings.warn(
            "t is not far-field for this packet; imaging-map error may be large",
            stacklevel=2,
        )
    axes = np.meshgrid(*r_grid.axes(), indexing="ij")
    pts = np.stack([a.ravel() * (m / t) for a in axes], axis=-1)
    phi = interpolate_field(momentum_field, pts, fill=0.0)
    r2 = sum(a.ravel() ** 2 for a in axes)
    pref = (m / t) ** (d / 2.0) * np.exp(-1j * np.pi * d / 4.0)
    vals = (pref * np.exp(1j * m * r2 / (2.0 * HBAR * t)) * phi).reshape(tuple(r_grid.n))
    return ComplexField(r_grid, POSITION, vals, t)


def it_density(momentum_density, vv_factor):
    """Position density as trajectory density times momentum density."""
    c = np.asarray(vv_factor, dtype=float)
    if np.any(c <= 0):
        raise DomainError("vv_factor must be positive")
    return c * np.asarray(momentum_density, dtype=float)


def it_point(momentum_field: ComplexField, m: float, t: float, r) -> ITResult:
    """Imaging map at a single detector position."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    d = momentum_field.grid.dimension
    p_prime = m * r / t
    phi = complex(interpolate_field(momentum_field, p_prime.reshape(1, -1), fill=0.0)[0])
    vv = van_vleck_time(m, t, d)
    density = float(vv * abs(phi) ** 2)
    phase = float(m * np.dot(r, r) / (2.0 * HBAR * t))
    return ITResult(density, p_prime, vv, phase)


def detection_probability(position_field: ComplexField, patch: DetectorPatch) -> float:
    """dP = |Psi(r, t)|^2 r^2 dOmega dr at a detector patch."""
    grid = position_field.grid
    for ax in range(grid.dimension):
        lo = grid.origin[ax]
        hi = grid.origin[ax] + grid.spacing[ax] * (grid.n[ax] - 1)
        if not (lo <= patch.position[ax] <= hi):
            raise CoverageError("detector patch lies outside the field grid")
    val = interpolate_field(position_field, patch.position.reshape(1, -1))[0]
    dens = abs(complex(val)) ** 2
    return float(dens * patch.volume)


def momentum_density_from_hits(position_density, r, t: float, m: float,
                               dimension: int = 3):
    """Invert the imaging map: |Phi(p')|^2 = (r/p')^d |Psi(r, t)|^2, p' = m r/t.

    For vector input ``r`` is the radial distance; the factor (r/p')^d is
    just (t/m)^d, so the inversion needs no angular information.
    """
    if t <= 0 or m <= 0:
        raise DomainError("t and m must be positive")
    if np.any(np.asarray(r, dtype=float) <= 0):
        raise DomainError("r must be positive")
    return np.asarray(position_density, dtype=float) * (t / m) ** dimension


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
    d = pos.shape[1]
    if momentum_field.grid.dimension != n * d:
        raise ShapeError(
            f"joint momentum grid must have {n * d} axes, found {momentum_field.grid.dimension}"
        )
    if np.any(times <= 0):
        raise DomainError("times must be positive")
    p_primes = (masses[:, None] / times[:, None]) * pos
    point = p_primes.reshape(1, -1)
    phi = complex(interpolate_field(momentum_field, point, fill=0.0)[0])
    vv = float(np.prod((masses / times) ** d))
    return vv * abs(phi) ** 2


def incident_amplitude(collimator_field: ComplexField, m: float, t_i: float, r_i) -> complex:
    """Semiclassical incident-channel amplitude

    A_i = (-i)^{3/2} (2 pi hbar)^{3/2} (m/t_i)^{3/2} Phi_i(p_i),  p_i = -m r_i / t_i,

    so that |A_i|^2 is the incident probability density at the reaction volume.
    """
    if t_i <= 0:
        raise DomainError("t_i must be positive")
    r_i = np.atleast_1d(np.asarray(r_i, dtype=float))
    p_i = -m * r_i / t_i
    phi = complex(interpolate_field(collimator_field, p_i.reshape(1, -1), fill=0.0)[0])
    pref = np.exp(-3j * np.pi / 4.0) * (2.0 * np.pi * HBAR) ** 1.5 * (m / t_i) ** 1.5
    return pref * phi


def incident_density(collimator_field: ComplexField, m: float, t_i: float, r_i) -> float:
    """P_i = |A_i|^2 = (2 pi hbar)^3 (m/t_i)^3 |Phi_i(p_i)|^2."""
    return abs(incident_amplitude(collimator_field, m, t_i, r_i)) ** 2


def chained_density(final_it_density, incident_density_value: float):
    """Counting-rate density: imaging-map density scaled by the incident flux."""
    if incident_density_value < 0:
        raise DomainError("incident density must be nonnegative")
    dens = np.asarray(final_it_density, dtype=float)
    if np.any(dens < 0):
        raise DomainError("densities must be nonnegative")
    return dens * incident_density_value


def density_to_csv(grid: Grid, density: np.ndarray, path, comment: str | None = None) -> None:
    """Columns: one coordinate per axis, then density."""
    axes = np.meshgrid(*grid.axes(), indexing="ij")
    cols = [a.ravel() for a in axes] + [np.asarray(density).ravel()]
    header = ",".join(f"x{i}" for i in range(grid.dimension)) + ",density"
    _write_csv(path, header, cols, comment)
