"""Time-independent scattering: Green functions, amplitudes, cross sections.

Single-particle pieces are the exact free Green function, its semiclassical
(action + trajectory-density) form, and the first-order Born amplitude.
The N-particle pieces work in the mass-weighted hyperspherical coordinate,
where free propagation of N particles collapses to one radial degree of
freedom with hyperradius R_hyp and hypermomentum P = sqrt(2 mu E); the
mass-scaling factor mu is arbitrary and every observable must not depend
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import hankel_h1
from .classical import _free_path_length, _ldexp, _van_vleck_frexp, van_vleck_time
from .core import HBAR, _edge_ratio, _freeze, _write_csv
from .errors import (CausticError, CoverageError, DegenerateInputError, DomainError,
                     ShapeError, SingularityError, finite, nonnegative, positive)

TWO_PI = 2.0 * math.pi
BORN_POINTS = 64  # trapezoid points per axis of the first-order amplitude's cube


# ---------------------------------------------------------------------------
# single particle

def green_free(r, r_prime, E: float, m: float = 1.0) -> complex:
    """Exact free Green function -(m / 2 pi hbar^2) e^{i p' R / hbar} / R."""
    R = _free_path_length(r, r_prime, E, m)
    p = math.sqrt(2.0 * m * E)
    # Python floats overflow to inf without a warning; a finite |G| bounds
    # both components of the complex expression
    finite(**{"phase p'R/hbar": p * R / HBAR, "|G|": m / (TWO_PI * HBAR ** 2) / R})
    return -(m / (TWO_PI * HBAR ** 2)) * np.exp(1j * p * R / HBAR) / R


def green_semiclassical(W: float, D: float) -> complex:
    """Green function from characteristic action W and trajectory density D:

    G = (1 / i hbar) (sqrt(D) / 2 pi i hbar) e^{i W / hbar}.

    With the free-motion W = p'R and D = m^2/R^2 this is the exact free
    Green function.
    """
    finite(W=W, D=D)
    if D <= 0:
        raise CausticError("trajectory density must be positive")
    return (1.0 / (1j * HBAR)) * (math.sqrt(D) / (TWO_PI * 1j * HBAR)) * np.exp(1j * W / HBAR)


def ti_it_density(momentum_density: float, p_prime: float, R: float) -> float:
    """Fixed-energy imaging map: |Psi(r,E)|^2 = (p'/R)^3 |Phi(p',E)|^2."""
    positive(p_prime=p_prime, R=R)
    nonnegative(momentum_density=momentum_density)
    return (p_prime / R) ** 3 * momentum_density


def amplitude_from_momentum_wfn(momentum_density: float, m: float, dT_dE: float) -> float:
    """|f|^2 = m^2 |dT/dE|^{-1} |Phi(p',E)|^2."""
    positive(m=m)
    nonnegative(momentum_density=momentum_density)
    finite(dT_dE=dT_dE)
    if dT_dE == 0.0:
        raise DegenerateInputError("dT/dE must be nonzero")
    return m * m / abs(dT_dE) * momentum_density


def born_amplitude(potential, p_in, p_out, m: float = 1.0,
                   extent: float = 14.0) -> complex | np.ndarray:
    """First-order amplitude f = -(m / 2 pi hbar^2) int V(r) e^{i q.r} dr.

    ``potential`` is V(x, y, z) on arrays; the integral runs over a cube of
    side ``extent`` centred on the origin with 64^3 trapezoid points, so V
    must be short-range on that scale.  q = p_in - p_out, and |p_in| must
    equal |p_out| (elastic kinematics).  ``p_out`` of shape (3,) gives one
    amplitude; (k, 3) gives k amplitudes from one sampling of V.
    """
    positive(m=m, extent=extent)
    p_in = np.atleast_1d(np.asarray(p_in, dtype=float))
    p_out = np.asarray(p_out, dtype=float)
    finite(p_in=p_in, p_out=p_out)
    p_mag = np.linalg.norm(p_in)
    if np.any(np.abs(p_mag - np.linalg.norm(p_out, axis=-1)) > 1e-10 * max(1.0, p_mag)):
        raise DomainError("elastic kinematics require |p_in| = |p_out|")
    q = np.atleast_2d(p_in - p_out)
    ax = np.linspace(-extent / 2.0, extent / 2.0, BORN_POINTS)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    v = np.broadcast_to(potential(x, y, z), (BORN_POINTS,) * 3)
    if not np.all(np.isfinite(v)):
        raise CoverageError("potential is not finite on the quadrature grid")
    if _edge_ratio("potential", np.abs(v)) > 1e-10:
        raise CoverageError("potential has not decayed at the quadrature boundary")
    # e^{i q.r} separates: one trapezoid-weighted phase vector per axis and momentum
    w = np.ones(BORN_POINTS)
    w[0] = w[-1] = 0.5
    ex, ey, ez = (w * np.exp(1j * qi[:, None] * ax / HBAR) for qi in q.T)
    dv = (ax[1] - ax[0]) ** 3
    # V stays real in the z products, so no complex copy of the cube is made
    integral = (np.einsum("xyk,ky,kx->k", v @ ez.real.T, ey, ex)
                + 1j * np.einsum("xyk,ky,kx->k", v @ ez.imag.T, ey, ex)) * dv
    f = -(m / (TWO_PI * HBAR ** 2)) * integral
    return complex(f[0]) if p_out.ndim == 1 else f


def cross_section(f) -> float | np.ndarray:
    """Differential cross section d sigma / d Omega = |f|^2, elementwise for an array."""
    finite(f=f)
    return np.abs(f) ** 2


def detection_probability_ti(f: complex, incident_density: float, p_in: float,
                             m: float, dt: float, d_omega: float) -> float:
    """dP = incident_density (p_in/m) dt |f|^2 dOmega."""
    nonnegative(incident_density=incident_density, p_in=p_in, dt=dt, d_omega=d_omega)
    positive(m=m)
    return incident_density * (p_in / m) * dt * cross_section(f) * d_omega


# ---------------------------------------------------------------------------
# N-particle hyperspherical forms

@dataclass(frozen=True)
class HyperConfig:
    """Mass-weighted radial reduction of N particles in 3-D.

    R_hyp^2 = sum_n m_n r_n^2 / mu, P = sqrt(2 mu E), eta = prod (m_n/mu)^3,
    alpha = (3N - 2)/2.  mu is an arbitrary scaling mass.
    """

    masses: np.ndarray
    mu: float
    energy: float

    def __post_init__(self):
        m = np.array(self.masses, dtype=float, ndmin=1)
        positive(masses=m, mu=self.mu, energy=self.energy)
        _freeze(self, masses=m)

    @property
    def n_particles(self) -> int:
        return len(self.masses)

    @property
    def hyper_momentum(self) -> float:
        return math.sqrt(2.0 * self.mu * self.energy)

    @property
    def eta(self) -> float:
        return float(np.prod((self.masses / self.mu) ** 3))

    @property
    def alpha(self) -> float:
        return (3 * self.n_particles - 2) / 2.0

    def _configuration(self, name: str, positions) -> np.ndarray:
        """``positions`` as finite (N, 3) coordinates, one 3-vector per particle."""
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if pos.shape != (self.n_particles, 3):
            raise ShapeError(f"{name} must hold one 3-vector per particle, shape "
                             f"({self.n_particles}, 3), got {pos.shape}")
        finite(**{name: pos})
        return pos

    def hyper_radius(self, positions) -> float:
        """Mass-weighted radius of a configuration: its separation from the origin."""
        return self.hyper_separation(positions, np.zeros((self.n_particles, 3)))

    def hyper_separation(self, positions, positions_prime) -> float:
        """Mass-weighted distance between two configurations (one 3-vector per particle)."""
        pos = self._configuration("positions", positions)
        posp = self._configuration("positions_prime", positions_prime)
        return _weighted_norm("mass-weighted distance", self.masses[:, None], self.mu, pos, posp)


def hyper_config(masses, mu: float, E: float) -> HyperConfig:
    return HyperConfig(np.asarray(masses, dtype=float), float(mu), float(E))


def characteristic_time_N(masses, displacements, E: float) -> float:
    """Common flight time T = sqrt(sum_n m_n R_n^2 / (2 E)).

    Equals dW/dE of the hyper-action and reduces to m R / p' at N = 1.
    """
    m = np.atleast_1d(np.asarray(masses, dtype=float))
    R = np.atleast_1d(np.asarray(displacements, dtype=float))
    positive(E=E, masses=m)
    finite(displacements=R)
    return _weighted_norm("characteristic time", m / 2.0, E, R)


def _weighted_norm(name: str, weights, divisor: float, x, x_prime=0.0) -> float:
    """sqrt(sum weights (x - x')^2 / divisor) over every element: ``math.hypot`` of the terms
    sqrt(w) / sqrt(divisor) (x - x'), whose scale is finite for a normal divisor, so only a
    result beyond the float range (or one term beyond it) is a DomainError naming ``name``."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.sqrt(weights) / math.sqrt(divisor) * (x - x_prime)
    norm = math.hypot(*scaled.ravel().tolist())
    finite(**{name: norm})
    return norm


def hyper_action(config: HyperConfig, separation: float) -> float:
    """W = P |R_hyp - R_hyp'| along the straight hyperradial path."""
    nonnegative(separation=separation)
    return config.hyper_momentum * separation


def vv_hyper(config: HyperConfig, separation: float) -> float:
    """Van Vleck factor eta (P / dR)^{3N}: C(T) at the common flight time T = mu dR / P."""
    positive(separation=separation)
    return van_vleck_time(config.masses, config.mu * separation / config.hyper_momentum, 3)


def density_D_N(config: HyperConfig, separation: float) -> float:
    """Fixed-energy density D = eta mu^2 / dR^2 (P / dR)^{3(N-1)}.

    Formed as T / (2E) C(T), C the van Vleck factor at the common flight time
    T = mu dR / P, with the binary exponents kept apart: a D in the float range
    comes back even where eta, (P / dR)^{3(N-1)}, P or T alone leaves it, and a D
    beyond it is a DomainError.  Reduces to m^2 / R^2 at N = 1, mu = m.
    """
    nonnegative(separation=separation)
    if separation == 0.0:
        raise SingularityError("coincident hyper-positions")
    # T = mu dR / sqrt(2 mu E) = t 2^k on the mantissas of mu, E and dR, so T, P and
    # 2E may leave the float range; C(t 2^k) = C(t) 2^{-3Nk}
    (a, i), (g, h), (b, j) = (math.frexp(x) for x in (config.mu, config.energy, float(separation)))
    u, v = 2.0 * a * g, i + h
    if v % 2:
        u, v = 2.0 * u, v - 1
    t, k = a * b / math.sqrt(u), i + j - v // 2
    q, e = _van_vleck_frexp(config.masses, t, 3)
    s, f = math.frexp(t / (2.0 * g))
    D = _ldexp(q * s, e + f - h + (1 - 3 * config.n_particles) * k)
    positive(density_D=D)
    return D


def green_hyper_asymptotic(config: HyperConfig, separation: float) -> complex:
    """Gutzwiller (stationary-phase) hyperspherical Green function:

    G = (1 / i hbar) (2 pi i hbar)^{-(3N-1)/2} sqrt(D) e^{i W / hbar},

    valid for separations large on the de Broglie scale.  At N = 1, mu = m
    this is the exact free Green function.
    """
    n = config.n_particles
    D = density_D_N(config, separation)
    W = hyper_action(config, separation)
    pref = (TWO_PI * 1j * HBAR) ** (-(3 * n - 1) / 2.0)
    return (1.0 / (1j * HBAR)) * pref * math.sqrt(D) * np.exp(1j * W / HBAR)


def green_hyper_hankel(config: HyperConfig, separation: float) -> complex:
    """Uniform (Hankel-function) hyperspherical Green function:

    G = -i mu/(2 hbar^2) (P / 2 pi hbar)^alpha H1_alpha(P dR / hbar) / dR^alpha * sqrt(eta),

    with alpha = (3N-2)/2.  Exact for free motion at every separation and
    equal to the stationary-phase form in the large-argument limit; at
    N = 1, mu = m it reproduces green_free.
    """
    nonnegative(separation=separation)
    if separation == 0.0:
        raise SingularityError("coincident hyper-positions")
    P = config.hyper_momentum
    a = config.alpha
    z = P * separation / HBAR
    h = hankel_h1(a, z)
    return -1j * config.mu / (2.0 * HBAR ** 2) * (P / (TWO_PI * HBAR)) ** a \
        * h / separation ** a * math.sqrt(config.eta)


def n_particle_amplitude(matrix_element: complex, config: HyperConfig) -> complex:
    """f = -sqrt(2 pi / hbar) mu (i P)^{3(N-1)/2} <P|V|Psi>.

    At N = 1 the prefactor collapses to -sqrt(2 pi / hbar) m.
    """
    finite(matrix_element=matrix_element)
    n = config.n_particles
    P = config.hyper_momentum
    return -math.sqrt(TWO_PI / HBAR) * config.mu \
        * (1j * P) ** (3 * (n - 1) / 2.0) * matrix_element


def green_scan_to_csv(rows, path, comment: str | None = None) -> None:
    """rows: iterable of (R, E, value: complex, form: str)."""
    rows = list(rows)
    numbers = np.array([(R, E, v.real, v.imag) for R, E, v, _ in rows], dtype=float)
    forms = np.array([form for *_, form in rows], dtype=object)
    _write_csv(path, "r_au,energy_au,re,im,form", [*numbers.reshape(-1, 4).T, forms], comment,
               formats=["%.17g"] * 4 + ["%s"])
