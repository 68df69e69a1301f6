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
from .core import HBAR, _write_csv
from .errors import CausticError, CoverageError, DegenerateInputError, DomainError, SingularityError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# single particle

def green_free(r, r_prime, E: float, m: float = 1.0) -> complex:
    """Exact free Green function -(m / 2 pi hbar^2) e^{i p' R / hbar} / R."""
    if E <= 0:
        raise DomainError("E must be positive")
    R = float(np.linalg.norm(np.atleast_1d(r) - np.atleast_1d(np.asarray(r_prime, dtype=float))))
    if R == 0.0:
        raise SingularityError("coincident points")
    p = math.sqrt(2.0 * m * E)
    return -(m / (TWO_PI * HBAR ** 2)) * np.exp(1j * p * R / HBAR) / R


def green_semiclassical(W: float, D: float) -> complex:
    """Green function from characteristic action W and trajectory density D:

    G = (1 / i hbar) (sqrt(D) / 2 pi i hbar) e^{i W / hbar}.

    With the free-motion W = p'R and D = m^2/R^2 this is the exact free
    Green function.
    """
    if D <= 0:
        raise CausticError("trajectory density must be positive")
    return (1.0 / (1j * HBAR)) * (math.sqrt(D) / (TWO_PI * 1j * HBAR)) * np.exp(1j * W / HBAR)


def ti_it_density(momentum_density: float, p_prime: float, R: float) -> float:
    """Fixed-energy imaging map: |Psi(r,E)|^2 = (p'/R)^3 |Phi(p',E)|^2."""
    if R <= 0 or p_prime <= 0:
        raise DomainError("p' and R must be positive")
    if momentum_density < 0:
        raise DomainError("density must be nonnegative")
    return (p_prime / R) ** 3 * momentum_density


def amplitude_from_momentum_wfn(momentum_density: float, m: float, dT_dE: float) -> float:
    """|f|^2 = m^2 |dT/dE|^{-1} |Phi(p',E)|^2."""
    if dT_dE == 0.0:
        raise DegenerateInputError("dT/dE must be nonzero")
    if momentum_density < 0:
        raise DomainError("density must be nonnegative")
    return m * m / abs(dT_dE) * momentum_density


def born_amplitude(potential, p_in, p_out, m: float = 1.0,
                   extent: float = 14.0, n: int = 64) -> complex | np.ndarray:
    """First-order amplitude f = -(m / 2 pi hbar^2) int V(r) e^{i q.r} dr.

    ``potential`` is V(x, y, z) on arrays; the integral runs over a cube of
    side ``extent`` centred on the origin with n^3 trapezoid points, so V
    must be short-range on that scale.  q = p_in - p_out, and |p_in| must
    equal |p_out| (elastic kinematics).  ``p_out`` of shape (3,) gives one
    amplitude; (k, 3) gives k amplitudes from one sampling of V.
    """
    p_in = np.atleast_1d(np.asarray(p_in, dtype=float))
    p_out = np.asarray(p_out, dtype=float)
    p_mag = np.linalg.norm(p_in)
    if np.any(np.abs(p_mag - np.linalg.norm(p_out, axis=-1)) > 1e-10 * max(1.0, p_mag)):
        raise DomainError("elastic kinematics require |p_in| = |p_out|")
    q = np.atleast_2d(p_in - p_out)
    ax = np.linspace(-extent / 2.0, extent / 2.0, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    v = np.broadcast_to(potential(x, y, z), (n, n, n))
    if not np.all(np.isfinite(v)):
        raise CoverageError("potential is not finite on the quadrature grid")
    peak = np.max(np.abs(v))
    edge = max(np.max(np.abs(np.take(v, i, axis=a))) for a in range(3) for i in (0, -1))
    if peak > 0 and edge > 1e-10 * peak:
        raise CoverageError("potential has not decayed at the quadrature boundary")
    # e^{i q.r} separates: one trapezoid-weighted phase vector per axis and momentum
    w = np.ones(n)
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
    return np.abs(f) ** 2


def detection_probability_ti(f: complex, incident_density: float, p_in: float,
                             m: float, dt: float, d_omega: float) -> float:
    """dP = incident_density (p_in/m) dt |f|^2 dOmega."""
    if min(incident_density, p_in, dt, d_omega) < 0:
        raise DomainError("inputs must be nonnegative")
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
        if not (np.all((m > 0) & (m < np.inf)) and 0 < self.mu < math.inf):
            raise DomainError("masses and mu must be positive and finite")
        if not 0 < self.energy < math.inf:
            raise DomainError("E must be positive and finite")
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

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

    def hyper_radius(self, positions) -> float:
        """Mass-weighted radius of a configuration (one 3-vector per particle)."""
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if pos.shape[0] != self.n_particles:
            raise DomainError("one position per particle required")
        return math.sqrt(float(np.sum(self.masses[:, None] * pos ** 2)) / self.mu)

    def hyper_separation(self, positions, positions_prime) -> float:
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        posp = np.atleast_2d(np.asarray(positions_prime, dtype=float))
        return math.sqrt(float(np.sum(self.masses[:, None] * (pos - posp) ** 2)) / self.mu)


def hyper_config(masses, mu: float, E: float) -> HyperConfig:
    return HyperConfig(np.asarray(masses, dtype=float), float(mu), float(E))


def characteristic_time_N(masses, displacements, E: float) -> float:
    """Common flight time T = sqrt(sum_n m_n R_n^2 / (2 E)).

    Equals dW/dE of the hyper-action and reduces to m R / p' at N = 1.
    """
    if E <= 0:
        raise DomainError("E must be positive")
    m = np.atleast_1d(np.asarray(masses, dtype=float))
    R = np.atleast_1d(np.asarray(displacements, dtype=float))
    return math.sqrt(float(np.sum(m * R ** 2)) / (2.0 * E))


def hyper_action(config: HyperConfig, separation: float) -> float:
    """W = P |R_hyp - R_hyp'| along the straight hyperradial path."""
    if separation < 0:
        raise DomainError("separation must be nonnegative")
    return config.hyper_momentum * separation


def vv_hyper(config: HyperConfig, separation: float) -> float:
    """Van Vleck factor eta (P / dR)^{3N} = eta (mu / T)^{3N}."""
    if separation <= 0:
        raise DomainError("separation must be positive")
    return config.eta * (config.hyper_momentum / separation) ** (3 * config.n_particles)


def density_D_N(config: HyperConfig, separation: float) -> float:
    """Fixed-energy density D = eta mu^2 / dR^2 (P / dR)^{3(N-1)}.

    Reduces to m^2 / R^2 at N = 1, mu = m.
    """
    if separation <= 0:
        raise SingularityError("coincident hyper-positions")
    n = config.n_particles
    return config.eta * config.mu ** 2 / separation ** 2 \
        * (config.hyper_momentum / separation) ** (3 * (n - 1))


def green_hyper_asymptotic(config: HyperConfig, separation: float) -> complex:
    """Gutzwiller (stationary-phase) hyperspherical Green function:

    G = (1 / i hbar) (2 pi i hbar)^{-(3N-1)/2} sqrt(D) e^{i W / hbar},

    valid for separations large on the de Broglie scale.  At N = 1, mu = m
    this is the exact free Green function.
    """
    if not math.isfinite(separation):
        raise DomainError(f"separation must be finite, got {separation}")
    if separation <= 0:
        raise SingularityError("coincident hyper-positions")
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
    if not math.isfinite(separation):
        raise DomainError(f"separation must be finite, got {separation}")
    if separation <= 0:
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
