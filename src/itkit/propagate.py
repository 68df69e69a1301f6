"""Grid time evolution (exact free, split-operator) and semiclassical kernels.

The split-operator stepper handles a uniform extraction field plus an
arbitrary sampled short-range potential.  The field drift is exact (the
closed-form Stark propagator), so only the sampled potential is split off
into kicks: ``n_steps`` and the kick-phase guard concern that potential
alone, and a field-only run is one exact step.  The semiclassical side provides
the mixed (momentum-to-position) and position-space kernels for free and
uniform-field motion and a stationary-phase evaluator for the momentum
integral that produces the asymptotic wave function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import (
    action_S_tilde_uniform,
    action_S_uniform,
    stationary_momentum,
)
from .core import (
    HBAR,
    MOMENTUM,
    POSITION,
    ComplexField,
    Grid,
    UniformField,
    _freeze,
    check_boundary,
    to_momentum,
    to_position,
)
from .errors import (
    CausticError,
    DegenerateInputError,
    DomainError,
    RepresentationError,
    ShapeError,
    StabilityError,
    SupportError,
    finite,
    nonnegative,
    positive,
)

MAX_KICK_PHASE = 0.1


@dataclass(frozen=True)
class EvolutionSpec:
    """Parameters of one grid propagation run."""

    mass: float
    t_start: float
    t_end: float
    n_steps: int
    field: UniformField | None = None
    potential: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.n_steps, (int, np.integer)):
            raise DomainError(f"n_steps must be an integer, got {self.n_steps!r}")
        positive(**{"t_end - t_start": self.t_end - self.t_start}, n_steps=self.n_steps,
                 mass=self.mass)
        if self.potential is not None:
            v = np.array(self.potential, dtype=float)
            finite(potential=v)
            _freeze(self, potential=v)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps


def evolve_free_exact(field: ComplexField, m: float, T: float) -> ComplexField:
    """Multiply the momentum representation by exp(-i p^2 T / (2 m hbar)).

    Accepts either representation and returns the same one.  Unitary by
    construction.
    """
    positive(m=m)
    nonnegative(T=T)
    if field.representation == MOMENTUM:
        p2 = _p_squared(field.grid)
        out = field.values * np.exp(-1j * p2 * T / (2.0 * m * HBAR))
        return field.with_values(out, field.time_label + T)
    phi = to_momentum(field)
    phi = evolve_free_exact(phi, m, T)
    psi = to_position(phi, field.grid)
    check_boundary(psi, "evolve_free_exact output")
    return psi


def _p_squared(pgrid: Grid) -> np.ndarray:
    axes = pgrid.meshgrid()
    return sum(a ** 2 for a in axes)


def evolve_split_operator(field: ComplexField, spec: EvolutionSpec) -> ComplexField:
    """Strang-split propagation under H = p^2/(2m) - F.r + V(r).

    Kinetic energy and the uniform field F evolve together by the exact
    Stark step (Avron & Herbst, Commun. Math. Phys. 52, 239 (1977)):

        psi <- e^{i (F.r dt - F^2 dt^3 / 6m) / hbar}
               IFFT[ FFT[psi] e^{-i (p^2 dt + p.F dt^2) / (2 m hbar)} ],

    so the field costs no accuracy at any step size.  Only the sampled
    potential V = ``spec.potential`` is split off: half kick, exact drift,
    half kick, repeated, with the Stark step's position factor folded into
    the kicks.  Requires max|V| dt / hbar < 0.1 so the kick phase stays well
    resolved.  Without a sampled potential the drifts compose into a single
    step over the whole interval, one FFT pair whatever ``n_steps`` is.
    """
    if field.representation != POSITION:
        raise RepresentationError("split-operator evolution starts from a position field")
    grid = field.grid
    f = np.zeros(grid.dimension) if spec.field is None else spec.field.force
    if len(f) != grid.dimension:
        raise ShapeError("field dimension does not match grid")
    v = spec.potential
    if v is None:
        dt, n_steps = spec.t_end - spec.t_start, 1
    else:
        if v.shape != tuple(grid.n):
            raise ShapeError("sampled potential shape does not match grid")
        dt, n_steps = spec.dt, spec.n_steps
        vmax = float(np.max(np.abs(v)))
        if vmax * dt / HBAR >= MAX_KICK_PHASE:
            raise StabilityError(
                f"max|V| dt / hbar = {vmax * dt:.3g} >= {MAX_KICK_PHASE}; increase n_steps"
            )
    check_boundary(field, "evolve_split_operator input")
    m = spec.mass
    f_dot_r = sum(fa * a for fa, a in zip(f, grid.meshgrid()))
    stark = np.exp(1j * (f_dot_r * dt - np.dot(f, f) * dt ** 3 / (6.0 * m)) / HBAR)
    half_kick = 1.0 if v is None else np.exp(-1j * v * dt / (2.0 * HBAR))
    last_kick = stark * half_kick
    full_kick = last_kick * half_kick
    pgrid = grid.conjugate()
    p_dot_f = sum(fa * a for fa, a in zip(f, pgrid.meshgrid()))
    # the drift phase is diagonal in p and commutes with the transform's
    # origin phases, so raw unshifted FFTs are exact here and cheaper
    drift = np.fft.ifftshift(
        np.exp(-1j * (_p_squared(pgrid) * dt + p_dot_f * dt ** 2) / (2.0 * m * HBAR))
    )
    # imported here, not at module level: scipy.fft is ~0.25 s of start-up
    import scipy.fft

    norm_in = field.norm()
    # a fresh array, so every step can transform and multiply in place
    vals = field.values * half_kick
    for step in range(n_steps):
        vals = scipy.fft.fftn(vals, overwrite_x=True)
        vals *= drift
        vals = scipy.fft.ifftn(vals, overwrite_x=True)
        vals *= full_kick if step + 1 < n_steps else last_kick
    out = field.with_values(vals, field.time_label + (spec.t_end - spec.t_start))
    check_boundary(out, "evolve_split_operator output")
    if not abs(out.norm() - norm_in) <= 1e-9 * max(norm_in, 1.0):
        raise StabilityError("norm drifted during split-operator evolution")
    return out


def kernel_mixed_semiclassical(r, p, t: float, tau: float, m: float, F=None) -> complex:
    """Momentum-to-position transition kernel (2 pi hbar)^{-d/2} e^{i S~ / hbar}.

    The mixed-action determinant is unity for free and uniform-field motion,
    so the modulus equals the plane-wave normalization; exact (not merely
    semiclassical) in both cases.
    """
    d = len(np.atleast_1d(r))
    s = action_S_tilde_uniform(r, p, t - tau, m, F)
    return (2.0 * np.pi * HBAR) ** (-d / 2.0) * np.exp(1j * s / HBAR)


def kernel_position_semiclassical(r, r_prime, t: float, tau: float, m: float, F=None) -> complex:
    """Position-space kernel [m/(2 pi i hbar T)]^{d/2} e^{i S / hbar}."""
    T = t - tau
    d = len(np.atleast_1d(r))
    s = action_S_uniform(r, r_prime, T, m, F)
    pref = (m / (2.0 * np.pi * 1j * HBAR * T)) ** (d / 2.0)
    return pref * np.exp(1j * s / HBAR)


def interpolate_field(field: ComplexField, points: np.ndarray,
                      fill: complex | None = None) -> np.ndarray:
    """Not-a-knot cubic tensor spline of the field values at off-grid points.

    The spline is itkit's own, on the uniform grid: one Toeplitz solve per
    axis, with numpy alone, and a 4-point stencil per axis to evaluate.  It is
    exact at the grid nodes in every dimension.  The field builds it on the
    first call and keeps it for later ones.  ``points`` has
    shape (..., d) for a grid of d axes; any other last axis raises a shape
    error.  Points outside the grid raise a support error unless ``fill`` is
    given (useful when the field has decayed to zero at its edges).
    """
    points = np.asarray(points, dtype=float)
    finite(points=points, fill=fill)
    grid = field.grid
    d = grid.dimension
    if points.shape[-1:] != (d,):
        raise ShapeError(f"points of shape {points.shape} need {d} coordinates, one per grid axis")
    lo, hi = np.transpose([grid.bounds(ax) for ax in range(d)])
    inside = np.all((lo <= points) & (points <= hi), axis=-1)
    if fill is None and not np.all(inside):
        raise SupportError(f"point {points[~inside][0]} lies outside the grid support")
    q = np.clip(points, lo, hi)
    out = field._spline_at(q)
    # without a fill every point is inside; np.where with None would give objects
    return out if fill is None else np.where(inside, out, fill)


def _moments(field: ComplexField) -> tuple[list[float], list[float]]:
    """Mean and variance of each coordinate, weighted by the field's density."""
    dens = field.density()
    if not dens.any():
        raise DegenerateInputError("an all-zero field has no density to weight by")
    w = dens / dens.sum()
    axes = field.grid.meshgrid()
    mean = [float(np.sum(w * a)) for a in axes]
    return mean, [float(np.sum(w * (a - c) ** 2)) for a, c in zip(axes, mean)]


def _stationary_point(action, r, T: float, grid: Grid, p_init: np.ndarray):
    """Damped Newton on grad_p S~(p) = 0 with finite differences."""
    d = grid.dimension
    p = np.array(p_init, dtype=float)
    scale = max(1.0, float(np.max(np.abs(p))))
    h = 1e-6 * scale
    for _ in range(60):
        grad = np.empty(d)
        hess = np.empty((d, d))
        for i in range(d):
            ei = np.zeros(d); ei[i] = h
            grad[i] = (action(p + ei, r, T) - action(p - ei, r, T)) / (2 * h)
            for j in range(i, d):
                ej = np.zeros(d); ej[j] = h
                hess[i, j] = hess[j, i] = (
                    action(p + ei + ej, r, T) - action(p + ei - ej, r, T)
                    - action(p - ei + ej, r, T) + action(p - ei - ej, r, T)
                ) / (4 * h * h)
        det = np.linalg.det(hess)
        if not np.isfinite(det) or abs(det) < 1e-14:
            raise CausticError("degenerate stationary-phase Hessian")
        step = np.linalg.solve(hess, grad)
        p = p - step
        if np.max(np.abs(step)) < 1e-12 * scale:
            break
    return p, hess


def spa_integrate(momentum_field: ComplexField, action, r, t: float, tau: float) -> complex:
    """Stationary-phase value of int K~(r, p) Phi(p, tau) dp.

    ``action`` is S~(p, r, T).  The stationary momentum p' must lie inside
    the momentum grid (support error otherwise); the result is

        |det H|^{-1/2} e^{i pi sig(H) / 4} e^{i S~(p') / hbar} Phi(p'),

    which for the free and uniform-field actions is i^{-d/2} (m/T)^{d/2}
    e^{i S~(p')/hbar} Phi(p').
    """
    if momentum_field.representation != MOMENTUM:
        raise RepresentationError("spa_integrate expects a momentum-representation field")
    T = t - tau
    positive(**{"t - tau": T})
    grid = momentum_field.grid
    r = np.atleast_1d(np.asarray(r, dtype=float))
    finite(r=r)
    # start Newton from the density-weighted mean momentum
    p_init = np.array(_moments(momentum_field)[0])
    p_star, hess = _stationary_point(action, r, T, grid, p_init)
    phi = complex(interpolate_field(momentum_field, p_star.reshape(1, -1))[0])
    eigs = np.linalg.eigvalsh(hess)
    sig = int(np.sum(eigs > 0) - np.sum(eigs < 0))
    det = float(np.prod(eigs))
    amp = abs(det) ** -0.5 * np.exp(1j * np.pi * sig / 4.0)
    return amp * np.exp(1j * action(p_star, r, T) / HBAR) * phi


def _it_map(momentum_field: ComplexField, r: np.ndarray, t: float, tau: float,
            m: float, F=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Imaging map at detector points ``r`` of shape (k, d).

    Returns the stationary momenta p' (k, d), the mixed actions S~ (k,) and
    Psi(r, t) = (m/T)^{d/2} e^{-i pi d/4} e^{i S~(p', r)/hbar} Phi(p') (k,).
    Phi is interpolated cubically; points mapping outside its grid give zero.
    """
    if momentum_field.representation != MOMENTUM:
        raise RepresentationError("expected a momentum-representation field")
    T = t - tau
    d = momentum_field.grid.dimension
    if r.shape[-1] != d:
        raise ShapeError(f"points have {r.shape[-1]} coordinates, the momentum grid {d} axes")
    p_star = stationary_momentum(r, 0.0, T, m, F)
    phi = interpolate_field(momentum_field, p_star, fill=0.0)
    s = action_S_tilde_uniform(r, p_star, T, m, F)
    amp = (m / T) ** (d / 2.0) * np.exp(-1j * np.pi * d / 4.0)
    return p_star, s, amp * np.exp(1j * s / HBAR) * phi


def it_field_uniform(momentum_field: ComplexField, r_grid: Grid, t: float, tau: float,
                     m: float, F=None) -> ComplexField:
    """Asymptotic position field from the mixed-kernel SPA on every r point.

    Uses the closed-form stationary momentum, so it is fast enough for full
    grids.  With F = None this is the free imaging map.
    """
    vals = _it_map(momentum_field, np.stack(r_grid.coordinate_columns(), -1), t, tau, m, F)[2]
    return ComplexField(r_grid, POSITION, vals.reshape(tuple(r_grid.n)), t)
