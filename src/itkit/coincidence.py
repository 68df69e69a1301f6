"""Time-delay coincidence analysis for fragment pairs and N-fragment events.

Arrival-time differences at fixed total energy pin down the initial
fragment momenta: the two-particle case has a closed form, the general
case is a Newton root of the energy equation in the earliest fragment's
flight time, where the equation's -1/2 power is concave, so the iterates
rise monotonically to the root.  A two-Gaussian momentum model (relative
width sigma, center-of-mass width Sigma) maps through the imaging
relations to a coincidence-rate curve P(DeltaT), which can be synthesized
with Poisson noise and fit back.

In strict back-to-back geometry the curve depends on (sigma, Sigma) only
through kappa = 1/Sigma^2 - 1/(4 sigma^2) plus an overall scale, so the
fit works in (kappa, log scale) and resolves the flat direction by holding
Sigma at its initial value.  The fit is a two-parameter Levenberg-Marquardt
loop after MINPACK's lmder, in numpy alone: nothing here loads scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .classical import _ldexp, _positive_float, _sqrt_frexp
from .core import _freeze, _write_csv
from .errors import DomainError, FitError, InfeasibleError, finite, nonnegative, positive

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
# numpy's Poisson sampler refuses a mean above ~9.2e18
MAX_EVENTS = 1e18
# the pair fit's stopping tolerance and evaluation budget
LM_TOL = 1e-14
LM_MAX_NFEV = 2000


@dataclass(frozen=True)
class DelayObservation:
    """Arrival-delay measurement: N fragments, delays relative to detector 1."""

    masses: np.ndarray
    distances: np.ndarray
    energy: float
    delays: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writable
        m = np.array(self.masses, dtype=float, ndmin=1)
        r = np.array(self.distances, dtype=float, ndmin=1)
        d = np.array(self.delays, dtype=float, ndmin=1)
        if max(m.ndim, r.ndim, d.ndim) > 1:
            raise DomainError("masses, distances and delays must be one-dimensional")
        # plain floats: numpy's per-call overhead dominates on 2-3 fragments
        positive(masses=m.tolist(), distances=r.tolist(), energy=self.energy)
        if len(d) != len(m) - 1 or len(r) != len(m):
            raise DomainError("need one distance per fragment and N-1 delays")
        finite(delays=d.tolist())
        # set directly, not through _freeze: its generic loop costs about 1 us an event
        for a in (m, r, d):
            a.setflags(write=False)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "distances", r)
        object.__setattr__(self, "delays", d)


@dataclass(frozen=True)
class PairModelParams:
    """Widths of the two-Gaussian pair momentum model, both in a.u."""

    sigma: float
    Sigma: float

    def __post_init__(self):
        positive(sigma=self.sigma, Sigma=self.Sigma)


@dataclass(frozen=True)
class PairGeometry:
    """Back-to-back pair geometry: equal masses, equal detector distances."""

    mass: float
    distance: float

    def __post_init__(self):
        positive(mass=self.mass, distance=self.distance)


@dataclass(frozen=True)
class CoincidenceDataset:
    delta_t: np.ndarray
    counts: np.ndarray
    geometry: PairGeometry
    energy: float

    def __post_init__(self):
        dt = np.array(self.delta_t, dtype=float, ndmin=1)
        c = np.array(self.counts, dtype=float, ndmin=1)
        if dt.ndim > 1 or c.shape != dt.shape:
            raise DomainError("delta_t and counts must be one-dimensional and of equal length")
        finite(delta_t=dt)
        nonnegative(counts=c)
        positive(energy=self.energy)
        if not np.all(dt[1:] > dt[:-1]):
            raise DomainError("delta_t must be strictly increasing")
        _freeze(self, delta_t=dt, counts=c)


def characteristic_time(m: float, r: float, E: float) -> float:
    """Natural delay scale t = sqrt(m r^2 / E), on frexp mantissas (``_sqrt_frexp``):
    m r^2 / E may leave the float range where t does not, and a t beyond it is a
    DomainError."""
    positive(m=m, r=r, E=E)
    (mm, a), (rr, b), (ee, c) = math.frexp(m), math.frexp(r), math.frexp(E)
    return _positive_float("characteristic_time", *_sqrt_frexp(mm * rr * rr / ee, a + 2 * b - c))


def _pair_momenta(q, c, p0, sqrt):
    """Larger and smaller momentum at |tau| = q c, c a power of two: on plain floats
    with ``math.sqrt`` or on arrays with ``np.sqrt``, the same operations and bits."""
    w = 1.0 / c + sqrt(1.0 / c / c + 2.0 * q * q)  # (1 + s) / c
    big = 0.5 * sqrt(2.0 + 4.0 / c / w) + q / w  # u + |h|
    larger, smaller = p0 * big, p0 * (2.0 / w / big / c)
    positive(larger_momentum=larger, smaller_momentum=smaller)
    return larger, smaller


def invert_delays_pair(tau, m: float = 1.0, E: float = 1.0):
    """Momenta (p1', p2') of an equal-mass pair from the scaled delay tau.

    tau = DeltaT / sqrt(m r^2 / E) with DeltaT = m r / p2' - m r / p1',
    subject to p1'^2 + p2'^2 = 2 m E.  With s = sqrt(1 + 2 tau^2),
    h = tau / (1 + s) and u = sqrt(2 + 4/(1 + s)) / 2 the closed form is

        p_{1,2}' = sqrt(mE) (u ± h),

    stable down to tau = 0, where both momenta reduce to sqrt(mE).  The
    smaller momentum is taken from the exact identity
    u - |h| = 2 / ((1 + s)(u + |h|)), which avoids the cancellation of
    u - |h| at large |tau|, and for |tau| > 1 every term is divided through
    by a power of two near |tau| so that s never overflows.  sqrt(mE) is
    formed like ``characteristic_time``, on the frexp mantissas, so it
    stays representable wherever the momenta are; a momentum beyond the
    float range is a DomainError.

    ``tau`` may be a Python scalar, giving a tuple of two floats computed in
    plain Python, or an array, giving two arrays of its shape (a 0-d array
    gives two floats); both give the same bits.  Every element must be finite.
    """
    positive(m=m, E=E)
    finite(tau=tau)
    (mm, km), (me, ke) = math.frexp(m), math.frexp(E)
    p0 = _ldexp(*_sqrt_frexp(mm * me, km + ke))  # sqrt(mE)
    # a power of two near |tau| (1 for |tau| <= 1): dividing by it is exact,
    # so the scaled terms carry the bits of the unscaled ones
    if isinstance(tau, (int, float)):
        # plain floats: numpy's per-call overhead on a 0-d array would dominate
        a = math.fabs(tau)
        c = math.ldexp(1.0, max(math.frexp(a)[1] - 1, 0))
        larger, smaller = _pair_momenta(a / c, c, p0, math.sqrt)
        return (smaller, larger) if tau < 0 else (larger, smaller)
    t = np.asarray(tau, dtype=float)
    a = np.abs(t)
    c = np.ldexp(1.0, np.maximum(np.frexp(a)[1] - 1, 0))
    with np.errstate(over="ignore"):
        larger, smaller = _pair_momenta(a / c, c, p0, np.sqrt)
    swap = t < 0
    p1 = np.where(swap, smaller, larger)
    p2 = np.where(swap, larger, smaller)
    if t.ndim == 0:
        return float(p1), float(p2)
    return p1, p2


def invert_delays_numeric(obs: DelayObservation) -> np.ndarray:
    """Solve the N delay equations for the fragment momenta.

    Let fragment k arrive first and let T_k be its flight time were it to
    carry all of E.  In units of T_k every flight time is u + b_n, with
    b_n >= 0 the arrival lag of fragment n behind k, and the energy shell
    reads K(u) = sum g_n / (u + b_n)^2 = 1 with g_n = (m_n / m_k)(r_n / r_k)^2.
    K^(-1/2) is a power mean of the flight times with exponent -2, so it is
    increasing and concave in u.  No energy share w_n^2 = g_n / (u + b_n)^2
    exceeds 1 at the root, so u >= sqrt(g_n) - b_n for every n (n = k gives
    1).  Newton's method on K^(-1/2) = 1, started at the largest of these
    bounds, where K >= 1, climbs monotonically to the unique root, and then
    p_n' = sqrt(2 m_n E) w_n.
    """
    # plain floats: Newton evaluates K a few times on 2-3 fragments, where
    # numpy's per-call overhead would dominate.  Products such as m r or
    # r / v leave the float range, so everything stays in units of T_k, and
    # a non-finite or non-positive intermediate means no representable answer.
    m = obs.masses.tolist()
    r = obs.distances.tolist()
    E = float(obs.energy)
    lag = [0.0] + obs.delays.tolist()
    k = lag.index(min(lag))
    inv_t = math.sqrt(2.0 * E) / math.sqrt(m[k]) / r[k]  # 1 / T_k
    s = [math.sqrt(mn / m[k]) * (rn / r[k]) for mn, rn in zip(m, r)]  # sqrt(g_n)
    b = [(dn - lag[k]) * inv_t for dn in lag]
    if not (0.0 < inv_t < math.inf and all(0.0 < sn < math.inf for sn in s)
            and all(bn < math.inf for bn in b)):
        raise InfeasibleError("delays, masses or distances span more than the float range")
    u = max(sn - bn for sn, bn in zip(s, b))
    for _ in range(NEWTON_MAX_ITER):
        K = dK = 0.0  # K(u) and -K'(u) / 2
        for sn, bn in zip(s, b):
            x = u + bn
            q = sn / x * (sn / x)
            K += q
            dK += q / x
        step = K * (math.sqrt(K) - 1.0) / dK
        u += step
        # the iterates rise to the root, so a step below rounding ends it
        if not step > 4e-16 * u:
            break
    w = [sn / (u + bn) for sn, bn in zip(s, b)]
    p = [math.sqrt(2.0 * mn) * (math.sqrt(E) * wn) for mn, wn in zip(m, w)]
    if not (abs(sum(wn * wn for wn in w) - 1.0) <= NEWTON_TOL
            and all(0.0 < pn < math.inf for pn in p)):
        raise InfeasibleError("delay inversion did not converge")
    return np.array(p)


def pair_model_momentum_density(p1_vec, p2_vec, params: PairModelParams):
    """Two-Gaussian pair momentum density at 3-vectors (p1', p2'):

    |Phi|^2 = N(p'; sigma) N(P'; Sigma) with relative p' = (p1' - p2')/2 and
    total P' = p1' + p2', each a normalized 3-D Gaussian.  Vectors may be
    stacked on leading axes (shape (..., 3)), giving an array of densities;
    a single pair gives a float.
    """
    p1 = np.atleast_1d(np.asarray(p1_vec, dtype=float))
    p2 = np.atleast_1d(np.asarray(p2_vec, dtype=float))
    finite(p1_vec=p1, p2_vec=p2)
    # p' / sigma = (p1' - p2') / 2 sigma and P' / Sigma, with the norm in logs: no width
    # squares past the float range, and a density beyond it is 0 or a DomainError
    log_norm = -3.0 * (math.log(2.0 * math.pi) + math.log(params.sigma) + math.log(params.Sigma))
    with np.errstate(over="ignore"):
        u = (p1 - p2) / params.sigma
        w = (p1 + p2) / params.Sigma
        dens = np.exp(log_norm - 0.125 * np.sum(u * u, axis=-1) - 0.5 * np.sum(w * w, axis=-1))
    finite(pair_density=dens)
    return float(dens) if dens.ndim == 0 else dens


def _inverse_square(x: float, k: float = 1.0) -> float:
    """1 / (k x^2) for a power of two k, with the plain formula's bits; where ``**`` raises,
    on x's frexp mantissa with the exponent kept apart, and inf past the float range."""
    try:
        return 1.0 / (k * x ** 2)
    except (OverflowError, ZeroDivisionError):
        mx, ex = math.frexp(x)
        return _ldexp(1.0 / (k * mx * mx), -2 * ex)


def _kappa(params: PairModelParams) -> float:
    """kappa = 1/Sigma^2 - 1/(4 sigma^2), a finite float or a DomainError naming kappa:
    the plain formula where it gives a float, else both terms on the widths over
    2^n, n the narrower width's exponent, so kappa comes back even where both leave it."""
    S, s = params.Sigma, params.sigma
    try:
        kappa = 1.0 / S ** 2 - 1.0 / (4.0 * s ** 2)
    except (OverflowError, ZeroDivisionError):
        kappa = math.nan
    if not math.isfinite(kappa):
        n = min(math.frexp(S)[1], math.frexp(s)[1])
        kappa = _ldexp(_inverse_square(_ldexp(S, -n)) - _inverse_square(_ldexp(s, -n), 4.0), -2 * n)
    finite(kappa=kappa)
    return kappa


def _log_shell_constant(mE: float, params: PairModelParams) -> float:
    """Log of the back-to-back density's kappa-free factor on the shell p1^2 + p2^2 = 2mE."""
    s, S = params.sigma, params.Sigma
    return -3.0 * math.log(2.0 * math.pi * s * S) - mE * (1.0 / (4.0 * s * s) + 1.0 / (S * S))


def _reduced_curve(p1, p2, distance: float, kappa: float, log_scale: float) -> np.ndarray:
    """Back-to-back model at inverted momenta p1, p2, in its identifiable parametrization.

    On the energy shell p1^2 + p2^2 = 2mE the two Gaussian exponents
    collapse to kappa * p1 p2 plus constants, kappa = 1/Sigma^2 - 1/(4 sigma^2).
    """
    # two divisions by r: a Python float's r ** 2 raises OverflowError past 1e154
    return np.exp(log_scale + kappa * p1 * p2) * (p1 * p2 / distance / distance) ** 3


def coincidence_curve(geometry: PairGeometry, params: PairModelParams, E: float,
                      delta_t, normalize: bool = True):
    """Back-to-back coincidence rate P(DeltaT) on a delay grid.

    Each delay is inverted to (p1', p2'); the rate is the phase-space
    factor (p1' p2' / r^2)^3 times the model momentum density at the
    back-to-back vectors p1' z, -p2' z: the reduced model, scaled by the
    density's shell constant.  Returns (delta_t, p1, p2, P); ``normalize``
    scales the peak to 1 without forming that constant, which may underflow,
    or using r, on which the scaled curve does not depend: sqrt(max p1' p2')
    stands in for it, so (p1' p2' / r^2)^3 is at most 1 at any distance.  A max
    p1' p2' of 0 or past the float range, or a max kappa p1' p2' past it, is a DomainError.
    """
    delta_t = np.atleast_1d(np.asarray(delta_t, dtype=float))
    finite(delta_t=delta_t)
    t0 = characteristic_time(geometry.mass, geometry.distance, E)
    p1, p2 = invert_delays_pair(delta_t / t0, geometry.mass, E)
    kappa = _kappa(params)
    if not normalize:
        log_scale = _log_shell_constant(geometry.mass * E, params)
        return delta_t, p1, p2, _reduced_curve(p1, p2, geometry.distance, kappa, log_scale)
    with np.errstate(over="ignore"):
        peak, top = float(np.max(p1 * p2)), float(np.max(kappa * p1 * p2))
        positive(**{"p1' p2'": peak})
        finite(**{"kappa p1' p2'": top})
        # every exponent is now at most 0, so one past the float range is a zero
        prob = _reduced_curve(p1, p2, math.sqrt(peak), kappa, -top)
    if prob.max() > 0:
        prob = prob / prob.max()
    return delta_t, p1, p2, prob


def synthesize_dataset(geometry: PairGeometry, params: PairModelParams, E: float,
                       n_events: float, seed: int, delta_t=None) -> CoincidenceDataset:
    """Poisson-sampled coincidence histogram, reproducible for a fixed seed.

    Expected counts are n_events P / sum(P), which does not depend on the
    curve's scale, so the normalized curve serves.  The default delay grid
    spans ±6 characteristic times in 121 bins.
    """
    positive(n_events=n_events)
    nonnegative(seed=seed)
    if n_events > MAX_EVENTS:
        raise DomainError(f"n_events must be at most {MAX_EVENTS:g}, got {n_events:g}")
    if delta_t is None:
        t0 = characteristic_time(geometry.mass, geometry.distance, E)
        delta_t = np.linspace(-6.0 * t0, 6.0 * t0, 121)
    dt, _, _, prob = coincidence_curve(geometry, params, E, delta_t)
    expected = n_events * prob / prob.sum()
    rng = np.random.default_rng(seed)
    counts = rng.poisson(expected)
    return CoincidenceDataset(dt, counts, geometry, E)


def _weighted_residuals(p1, p2, distance: float, counts, w):
    """Weighted residuals of the reduced model in x = (kappa, log_scale), and their Jacobian.

    The model m = exp(log_scale + kappa p1 p2) (p1 p2 / r^2)^3 has the
    exact derivatives dm/dkappa = p1 p2 m and dm/dlog_scale = m.
    """
    pp = p1 * p2

    def resid(x):
        return w * (_reduced_curve(p1, p2, distance, x[0], x[1]) - counts)

    def jac(x):
        wm = w * _reduced_curve(p1, p2, distance, x[0], x[1])
        return np.column_stack((pp * wm, wm))

    return resid, jac


def _damped_step(mu, q, radius: float):
    """Damping lam >= 0 and the step z = -q / (mu + lam), at most about ``radius`` long.

    mu are the eigenvalues of the scaled normal matrix and q the gradient
    along its eigenvectors, two floats each.  lam is 0 when the Gauss-Newton
    step fits in the radius; otherwise Newton's method on 1/|z(lam)| -
    1/radius, which is increasing and concave in lam, climbs to a length
    within 10% of the radius, as MINPACK's lmpar does.
    """
    mu = [m if g else 1.0 for m, g in zip(mu, q)]  # no step without gradient
    lam = 0.0
    for _ in range(10):
        z = [-g / (m + lam) if m + lam > 0.0 else -math.copysign(math.inf, g)
             for m, g in zip(mu, q)]
        length = math.hypot(*z)
        if length <= radius or (lam > 0.0 and length <= 1.1 * radius):
            return lam, z
        # each |z_i| = |q_i| / (mu_i + lam) must fit in the radius on its own
        bound = max(abs(g) / radius - m for m, g in zip(mu, q))
        if math.isinf(length):
            lam = bound
            continue
        newton = lam + (length - radius) / (
            radius * sum((zi / length) ** 2 / (m + lam) for zi, m in zip(z, mu)))
        lam = max(newton, bound) if math.isfinite(newton) else bound
    lam = math.hypot(*q) / radius  # then |z| <= |q| / lam = radius
    return lam, [-g / (m + lam) for m, g in zip(mu, q)]


def _levenberg_marquardt(resid, jac, x0) -> np.ndarray:
    """Minimize |resid(x)|^2 over two parameters from x0 by Levenberg-Marquardt.

    A trial step solves the damped normal equations (J^T J + lam D^2) dx =
    -J^T r with Marquardt's scaling D^2 = diag(J^T J), lam set by a trust
    radius on |D dx| as in MINPACK's lmder (More 1978): the radius doubles
    after a trial that does as well as predicted and shrinks, up to tenfold,
    after one that does not or whose residual is not finite (the model may
    overflow), so that lam grows.  A trial that lowers chi^2 by at least
    1e-4 of the predicted amount is taken.  The stops are lmder's at LM_TOL:
    actual and predicted relative reductions of chi^2 both below it, a trust
    radius below it relative to |D x|, or a gradient whose cosine with each
    Jacobian column is below it.  When no step lowers chi^2 as lam grows,
    the gradient is zero: the shrinking radius meets the step test.  More
    than LM_MAX_NFEV residual evaluations is a FitError.
    """
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        r = resid(x)
        chi2 = float(r @ r)
    if not math.isfinite(chi2):
        raise FitError("the pair model is not finite at the initial parameters")
    half = math.sqrt(0.5)
    nfev, radius = 1, None
    while True:
        # column norms by hypot, which neither under- nor overflows: u and v
        # are unit vectors
        J = jac(x)
        d = np.hypot.reduce(J, axis=0)
        d[d == 0.0] = 1.0
        u, v = (J / d).T
        d = d.tolist()
        if not max(abs(float(u @ r)), abs(float(v @ r))) > LM_TOL * math.sqrt(chi2):
            return x
        # in y = D dx the normal matrix is [[1, b], [b, 1]] with b = u.v; its
        # eigenvectors (1, +-1)/sqrt(2) map to (u +- v)/sqrt(2), whose squared
        # norms, the eigenvalues, stay accurate as the columns align
        plus, minus = u + v, u - v
        mu = [0.5 * float(plus @ plus), 0.5 * float(minus @ minus)]
        q = [half * float(plus @ r), half * float(minus @ r)]
        xnorm = math.hypot(d[0] * x[0], d[1] * x[1])
        if radius is None:
            radius = 100.0 * xnorm or 100.0
        while True:
            if nfev >= LM_MAX_NFEV:
                raise FitError(f"the pair fit did not converge in {LM_MAX_NFEV} evaluations")
            lam, (zp, zm) = _damped_step(mu, q, radius)
            step = math.hypot(zp, zm)
            trial = x + np.array([half * (zp + zm) / d[0], half * (zp - zm) / d[1]])
            with np.errstate(over="ignore", invalid="ignore"):
                r_trial = resid(trial)
                chi2_trial = float(r_trial @ r_trial)
            nfev += 1
            # -1 where |r| grew tenfold or is not finite
            actual = 1.0 - chi2_trial / chi2 if chi2_trial < 100.0 * chi2 else -1.0
            predicted = ((mu[0] + 2.0 * lam) * zp * zp + (mu[1] + 2.0 * lam) * zm * zm) / chi2
            ratio = actual / predicted if predicted > 0.0 else 0.0
            if ratio <= 0.25:
                # lmder's shrink: the minimum of a quadratic along the step
                slope = ((mu[0] + lam) * zp * zp + (mu[1] + lam) * zm * zm) / chi2
                shrink = 0.5 if actual >= 0.0 else 0.5 * slope / (slope - 0.5 * actual)
                radius = max(shrink, 0.1) * min(radius, 10.0 * step)
            elif lam == 0.0 or ratio >= 0.75:
                radius = 2.0 * step
            if ratio >= 1e-4:
                x, r, chi2 = trial, r_trial, chi2_trial
                xnorm = math.hypot(d[0] * x[0], d[1] * x[1])
            if ((abs(actual) <= LM_TOL and predicted <= LM_TOL and ratio <= 2.0)
                    or radius <= LM_TOL * xnorm):
                return x
            if ratio >= 1e-4:
                break


def fit_pair_model(dataset: CoincidenceDataset, initial: PairModelParams):
    """Weighted least-squares fit of the pair model to a coincidence histogram.

    Counting weights are 1/sqrt(max(count, 1)).  Because back-to-back data
    constrain only kappa and the scale, the Levenberg-Marquardt loop works in
    those two parameters, on the model's exact Jacobian; sigma is then recovered
    holding Sigma at its initial value (or Sigma is moved if that leaves no
    positive sigma^2).  Returns (params, scale, result dict) with the
    (sigma, Sigma, scale) covariance from the fit's own Jacobian, carried to
    those parameters by the chain rule; the flat direction shows up there as
    a large variance on Sigma.  A scale or 1/scale out of float range is a FitError.
    """
    if len(dataset.delta_t) < 5:
        raise FitError("need at least 5 histogram rows to fit")
    counts = dataset.counts
    if counts.max() <= 0:
        raise FitError("dataset has no counts")
    w = 1.0 / np.sqrt(np.maximum(counts, 1.0))
    g = dataset.geometry
    t0 = characteristic_time(g.mass, g.distance, dataset.energy)
    p1, p2 = invert_delays_pair(dataset.delta_t / t0, g.mass, dataset.energy)

    # the start matches the model's peak to the largest count, in logs: the
    # model's two factors may each leave the float range
    kappa0 = _kappa(initial)
    pp = p1 * p2
    with np.errstate(divide="ignore"):
        log_peak = float(np.max(kappa0 * pp + 3.0 * np.log(pp)))
    scale0 = math.log(counts.max()) + 6.0 * math.log(g.distance) - log_peak

    resid, jac = _weighted_residuals(p1, p2, g.distance, counts, w)
    x_hat = _levenberg_marquardt(resid, jac, (kappa0, scale0))
    kappa_hat, log_scale_hat = x_hat
    chi2 = float(np.sum(resid(x_hat) ** 2))
    # any model that overlaps the counts does better than none at all: one
    # that does not has vanished on their rows, and the loop stopped there
    if not chi2 < float(np.sum((w * counts) ** 2)):
        raise FitError("the fitted model vanishes where the counts are: "
                       "it fits no better than zero counts")

    # back out widths, pinning the flat direction at the initial Sigma
    inv4s2 = _inverse_square(initial.Sigma) - kappa_hat
    if inv4s2 > 0:
        params = PairModelParams(sigma=0.5 / math.sqrt(inv4s2), Sigma=initial.Sigma)
    else:
        invS2 = kappa_hat + _inverse_square(initial.sigma, 4.0)
        if invS2 <= 0:
            raise FitError("fitted kappa is incompatible with positive widths")
        params = PairModelParams(sigma=initial.sigma, Sigma=1.0 / math.sqrt(invS2))

    if not abs(log_scale_hat) < math.log(np.finfo(float).max):
        raise FitError(f"fitted log(scale) = {log_scale_hat:.6g} leaves the float range")
    scale = math.exp(log_scale_hat)
    dof = max(len(counts) - 2, 1)

    # covariance of (sigma, Sigma, scale): the chain rule through kappa(sigma, Sigma)
    # and log_scale = log(scale) + the shell constant's change from the fitted point
    s, S, mE = params.sigma, params.Sigma, g.mass * dataset.energy
    try:
        chain = np.array([[0.5 / s ** 3, -2.0 / S ** 3, 0.0],
                          [0.5 * mE / s ** 3 - 3.0 / s, 2.0 * mE / S ** 3 - 3.0 / S, 1.0 / scale]])
    except (OverflowError, ZeroDivisionError):  # a width's cube is no float
        chain = np.full((2, 3), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        full_jac = jac(x_hat) @ chain
        info = full_jac.T @ full_jac
    if not np.all(np.isfinite(info)):
        raise FitError("the (sigma, Sigma, scale) covariance leaves the float range")
    cov = np.linalg.pinv(info, rcond=1e-12)

    report = {
        "sigma": params.sigma,
        "Sigma": params.Sigma,
        "scale": scale,
        "kappa": kappa_hat,
        "chi2": chi2,
        "chi2_per_dof": chi2 / dof,
        "covariance": cov.tolist(),
        "n_rows": int(len(counts)),
    }
    return params, scale, report


# ---------------------------------------------------------------------------
# serialization

def dataset_to_csv(dataset: CoincidenceDataset, path, comment: str | None = None) -> None:
    # np.rint rounds half to even, like round(); as Python ints the counts print whole
    counts = np.array([int(c) for c in np.rint(dataset.counts).tolist()], dtype=object)
    _write_csv(path, "delta_t_au,count", [dataset.delta_t, counts], comment)


def dataset_from_csv(path, geometry: PairGeometry, energy: float) -> CoincidenceDataset:
    dts, counts = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("delta_t_au"):
                continue
            try:
                dt, count = (float(v) for v in line.split(","))
                if not (math.isfinite(dt) and math.isfinite(count)):
                    raise ValueError
            except ValueError:
                raise DomainError(f"{path}:{lineno}: expected two finite numbers "
                                  f"'delta_t,count', got {line!r}") from None
            dts.append(dt)
            counts.append(count)
    return CoincidenceDataset(np.array(dts), np.array(counts), geometry, energy)


def curve_to_csv(delta_t, p1, p2, prob, path, comment: str | None = None) -> None:
    _write_csv(path, "delta_t_au,p1_au,p2_au,probability", [delta_t, p1, p2, prob], comment)


def fit_report_to_json(report: dict, path) -> None:
    """Write a report, a fit's or the delays command's momenta, as JSON indented by 2."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
