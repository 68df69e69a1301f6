"""Classical actions, stationary momenta and trajectory densities.

Covers free motion and motion in a uniform (constant-force) field, the two
asymptotic regimes where the position action S(r, r'; T), its mixed
Legendre partner S~(p, r; T) and the fixed-energy characteristic action
W(r, r'; E) all have closed forms.  Free motion is the F = None case of
the uniform-field actions.  Van Vleck trajectory densities C and D are
provided both analytically and by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UniformField, _freeze, _write_csv
from .errors import (CausticError, DomainError, ShapeError, SingularityError, finite,
                     nonnegative, positive)

FD_REL_STEP = 1e-5


def _vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _distance(r, r_prime) -> float:
    """|r - r'| between two finite points of one dimension.

    ``math.dist`` scales before it squares, so it overflows only when the
    distance itself is beyond the float range, a DomainError.
    """
    r, r_prime = _vec(r), _vec(r_prime)
    finite(r=r, r_prime=r_prime)
    if r.ndim != 1 or r.shape != r_prime.shape:
        raise ShapeError(f"r and r_prime must be points of one dimension, got shapes "
                         f"{r.shape} and {r_prime.shape}")
    R = math.dist(r.tolist(), r_prime.tolist())
    finite(distance=R)
    return R


@dataclass(frozen=True)
class Trajectory:
    """Classical path between (r_start, t_start) and (r_end, t_end).

    Construction verifies the equation of motion for the stated field:
    r_end = r_start + p_start T/m (+ F T^2/(2m)) and p_end = p_start + F T.
    """

    r_start: np.ndarray
    p_start: np.ndarray
    t_start: float
    r_end: np.ndarray
    p_end: np.ndarray
    t_end: float
    mass: float = 1.0
    field: UniformField | None = None

    def __post_init__(self):
        ends = {name: np.array(getattr(self, name), dtype=float, ndmin=1)
                for name in ("r_start", "p_start", "r_end", "p_end")}
        finite(**ends)
        _freeze(self, **ends)
        if len({self.r_start.shape, self.p_start.shape, self.r_end.shape, self.p_end.shape}) > 1:
            raise ShapeError("r_start, p_start, r_end and p_end need the same length")
        T = self.duration
        # a non-finite time leaves T infinite or NaN
        positive(**{"t_end - t_start": T}, mass=self.mass)
        # free motion is F = None: no field term
        terms, p_pred = [self.r_start, self.p_start * T / self.mass], self.p_start
        if self.field is not None:
            f = self.field.force
            if f.shape != self.r_start.shape:
                raise ShapeError(f"field has {len(f)} components, the endpoints {len(self.r_start)}")
            terms.append(f * T ** 2 / (2.0 * self.mass))
            p_pred = p_pred + f * T
        # rounding in r_pred grows with its largest term, which on a long
        # weak-field path (p T/m ~ F T^2/2m >> r) far exceeds |r_end|
        scale = max(1.0, float(np.max(np.abs([*terms, self.r_end]))))
        r_pred = sum(terms)
        if np.max(np.abs(r_pred - self.r_end)) > 1e-9 * scale:
            raise DomainError("endpoints do not satisfy the equation of motion")
        if np.max(np.abs(p_pred - self.p_end)) > 1e-9 * max(1.0, float(np.max(np.abs(self.p_end)))):
            raise DomainError("momenta do not satisfy the equation of motion")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def energy(self) -> float:
        e = np.dot(self.p_end, self.p_end) / (2.0 * self.mass)
        if self.field is not None:
            e = e - np.dot(self.field.force, self.r_end)
        return float(e)

    @property
    def action(self) -> float:
        f = None if self.field is None else self.field.force
        return action_S_uniform(self.r_end, self.r_start, self.duration, self.mass, f)


def action_S_uniform(r, r_prime, T: float, m: float = 1.0, F=None) -> float:
    """Position action, in a uniform field F (potential -F.r) if F is given:

    S = m (r - r')^2 / (2T) [+ F.(r + r') T/2 - F^2 T^3 / (24 m)].
    """
    positive(T=T, m=m)
    r, rp = _vec(r), _vec(r_prime)
    finite(r=r, r_prime=rp, F=F)
    dr = r - rp
    s = m * np.dot(dr, dr) / (2.0 * T)
    if F is not None:
        f = _vec(F)
        s = s + np.dot(f, r + rp) * T / 2.0 - np.dot(f, f) * T ** 3 / (24.0 * m)
    return float(s)


def action_S_tilde_uniform(r, p, T: float, m: float = 1.0, F=None) -> float | np.ndarray:
    """Mixed action, in a uniform field F if F is given; valid for T >= 0:

    S~ = p.r - p^2 T/(2m) [+ F.r T - p.F T^2/(2m) - F^2 T^3/(6m)].

    Satisfies dS~/dp = r' (launch point traced back from (p, r)) and
    |det d^2 S~ / dr dp| = 1.  ``r`` and ``p`` may stack points on leading
    axes (shape (..., d)); the result is then an array of shape (...), else
    a float.
    """
    nonnegative(T=T)
    positive(m=m)
    r, p = _vec(r), _vec(p)
    finite(r=r, p=p, F=F)
    # vecdot dots over the last axis exactly as np.dot does per point
    s = np.vecdot(p, r) - np.vecdot(p, p) * T / (2.0 * m)
    if F is not None:
        f = _vec(F)
        s = (s + np.vecdot(f, r) * T - np.vecdot(p, f) * T ** 2 / (2.0 * m)
             - np.vecdot(f, f) * T ** 3 / (6.0 * m))
    return float(s) if np.ndim(s) == 0 else s


def stationary_momentum(r, r_prime, T: float, m: float = 1.0, F=None) -> np.ndarray:
    """Launch momentum of the unique path from r' to r in time T.

    Free: p' = m (r - r') / T.  Uniform field adds -F T / 2.  ``r`` may
    stack end points on leading axes (shape (..., d)); p' then has the
    same shape.
    """
    positive(T=T, m=m)
    r, r_prime = _vec(r), _vec(r_prime)
    finite(r=r, r_prime=r_prime, F=F)
    p = m * (r - r_prime) / T
    if F is not None:
        p = p - _vec(F) * T / 2.0
    return p


def van_vleck_time(m, T, dimension: int = 3) -> float:
    """Free van Vleck factor C = prod_n (m_n / T_n)^d over particles.

    ``m`` and ``T`` may be scalars (one particle) or equal-length sequences.
    C is evaluated on the frexp mantissas with the binary exponents summed
    apart, so no factor or partial product (up to 1,000 particles) leaves the
    float range; a C beyond it is a DomainError.  Against the plain product
    the result moves by at most an ulp, about once in 15,000 inputs: pow is
    not exact under scaling by powers of two.
    """
    m = _vec(m)
    T = np.broadcast_to(_vec(T), m.shape)
    positive(m=m, T=T, dimension=dimension)
    if not isinstance(dimension, (int, np.integer)):
        raise DomainError(f"dimension must be an integer, got {dimension!r}")
    (mm, a), (tt, c) = np.frexp(m), np.frexp(T)
    q, e = np.frexp((mm / tt) ** dimension)
    try:
        C = math.ldexp(float(np.prod(q)), int(dimension * np.sum(a - c) + np.sum(e)))
    except OverflowError:
        C = math.inf
    positive(van_vleck_factor=C)
    return C


def van_vleck_numeric(momentum_map, r) -> float:
    """|det dp'/dr| of a launch-momentum map by central differences.

    ``momentum_map`` takes a final position vector and returns the launch
    momentum p' of the trajectory bundle.  Raises CausticError when the
    Jacobian is numerically singular (a conjugate point).
    """
    r = _vec(r)
    finite(r=r)
    d = len(r)
    step = FD_REL_STEP * max(1.0, float(np.max(np.abs(r))))
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        jac[:, j] = (_vec(momentum_map(r + e)) - _vec(momentum_map(r - e))) / (2.0 * step)
    det = np.linalg.det(jac)
    if not np.isfinite(det) or abs(det) < 1e-12:
        raise CausticError("trajectory bundle is degenerate (det dp'/dr ~ 0)")
    return float(abs(det))


def characteristic_action_W_free(r, r_prime, E: float, m: float = 1.0) -> float:
    """W = sqrt(2 m E) |r - r'|."""
    positive(E=E, m=m)
    return math.sqrt(2.0 * m * E) * _distance(r, r_prime)


def _free_path_length(r, r_prime, E: float, m: float) -> float:
    """|r - r'| of a free path at energy E; coincident endpoints are a SingularityError."""
    positive(E=E, m=m)
    R = _distance(r, r_prime)
    if R == 0.0:
        raise SingularityError("coincident endpoints")
    return R


def time_of_flight_free(r, r_prime, E: float, m: float = 1.0) -> tuple[float, float]:
    """(T, dT/dE) for the free path: T = m R / p', dT/dE = -T / (2E)."""
    T = m * _free_path_length(r, r_prime, E, m) / math.sqrt(2.0 * m * E)
    return T, -T / (2.0 * E)


def density_D_free(r, r_prime, E: float, m: float = 1.0) -> float:
    """Fixed-energy trajectory density D = -(dT/dE) C(T) = m^2 / R^2 in 3-D, for any E > 0."""
    R = _free_path_length(r, r_prime, E, m)
    return m * m / (R * R)


def enumerate_trajectories_uniform_1d(
    r_prime: float, r: float, E: float, m: float = 1.0, F: float = 0.0
) -> list[Trajectory]:
    """All 1-D fixed-energy paths from r' to r in a constant force F.

    Launch speed follows from p'^2/(2m) - F r' = E; both launch-momentum
    signs are tried and positive flight times kept.  Classically forbidden
    geometry yields an empty list.
    """
    positive(m=m)
    finite(r_prime=r_prime, r=r, E=E, F=F)
    ke = 2.0 * m * (E + F * r_prime)
    if ke < 0:
        return []
    p0_mag = math.sqrt(ke)
    field = UniformField(np.array([F])) if F != 0.0 else None
    found: list[Trajectory] = []
    for sign in (+1.0, -1.0):
        p0 = sign * p0_mag
        # r = r' + p0 T/m + F T^2/(2m): a T^2 + b T + c = 0, linear when F = 0
        a = F / (2.0 * m)
        b = p0 / m
        c = -(r - r_prime)
        disc = b * b - 4.0 * a * c
        if disc < 0:
            continue
        # the root pair without cancellation (Numerical Recipes 5.6): -b +- sqrt(disc)
        # loses every digit of the short root once |4ac| << b^2, as in a weak field
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
        if q == 0.0:
            continue
        roots = [c / q] + ([q / a] if a != 0.0 else [])
        for T in (t for t in roots if t > 1e-14):
            p_end = p0 + F * T
            if abs(p_end ** 2 / (2.0 * m) - F * r - E) > 1e-10 * max(1.0, abs(E)):
                raise CausticError("energy drift on enumerated trajectory")
            found.append(
                Trajectory(
                    r_start=[r_prime], p_start=[p0], t_start=0.0,
                    r_end=[r], p_end=[p_end], t_end=T,
                    mass=m, field=field,
                )
            )
    uniq: list[Trajectory] = []
    for tr in sorted(found, key=lambda t: t.duration):
        if uniq and abs(uniq[-1].duration - tr.duration) < 1e-12 \
                and abs(uniq[-1].p_start[0] - tr.p_start[0]) < 1e-12:
            continue
        uniq.append(tr)
    return uniq


def trajectories_to_csv(trajectories: list[Trajectory], path, comment: str | None = None) -> None:
    """Columns per axis: r', p', tau, r, p, t, then S, W, T."""
    d = len(trajectories[0].r_start) if trajectories else 1
    names, cols = [], []
    for end in ("start", "end"):
        for i in range(d):
            names += [f"r_{end}_{i}_au", f"p_{end}_{i}_au"]
            cols += [[getattr(tr, f"r_{end}")[i] for tr in trajectories],
                     [getattr(tr, f"p_{end}")[i] for tr in trajectories]]
        names.append(f"t_{end}_au")
        cols.append([getattr(tr, f"t_{end}") for tr in trajectories])
    names += ["action_S_au", "action_W_au", "duration_au"]
    cols += [[tr.action for tr in trajectories],
             [tr.action + tr.energy * tr.duration for tr in trajectories],
             [tr.duration for tr in trajectories]]
    _write_csv(path, ",".join(names), cols, comment)
