"""Correctness checks for the benchmark workloads.

Every reference here is computed apart from itkit (closed forms, numpy FFTs,
scipy.special) or is a property the method must have.  Each check takes
plain arrays and numbers, raises :class:`CheckFailed` on the first
violation, and returns nothing; ``test_checks.py`` hands each one a
perturbed result and expects the refusal.
"""

from __future__ import annotations

import math

import numpy as np

# Agreement measured on the reference host is given beside each tolerance.
TOL_CSV_DENSITY = 1e-9        # free-imaging CSV densities vs closed forms (7.8e-13)
TOL_REPORTED_ERROR = 1e-9     # it-check's error column vs recomputation (exact)
IT_ERROR_LAST_MAX = 1e-4      # imaging-map error at the last time (5.0e-5)
TOL_STARK_AMPLITUDE = 1e-6    # split operator vs Stark propagator (5.5e-8)
TOL_IT_FIELD_DENSITY = 1e-4   # it_field_uniform vs Stark, relative density (5.4e-6)
TOL_ROUND_TRIP = 1e-10        # time-reversal round trip (2.3e-13)
TOL_NORM = 1e-11              # norm change in one evolution (8e-14)
TOL_ENERGY = 1e-4             # relative <H> change, Strang splitting (7e-7)
MAX_OVERLAP_MOVED = 0.1       # |<psi0|psi(t)>| after the evolution (2e-4)
TOL_PAIR_GAP = 1e-9           # closed form vs Brent inversion
TOL_ENERGY_SHELL = 1e-12      # p1^2 + p2^2 - 2 m E, relative to 2 m E
TOL_DELAY_EQUATION = 1e-9     # recomputed delays vs requested
TOL_CURVE_SYMMETRY = 1e-10    # |P(dT) - P(-dT)| / max P
TOL_SIGMA = 0.10              # fitted sigma vs truth (fit scatter sd 0.014)
TOL_BORN = 1e-10              # Born amplitude vs Gaussian form factor (3.9e-15)
TOL_HANKEL = 1e-8             # green_hyper_hankel vs scipy hankel1 (1.4e-10)


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


def gaussian_pdf(x, mean: float, sd: float) -> np.ndarray:
    return np.exp(-((np.asarray(x) - mean) ** 2) / (2.0 * sd * sd)) / (math.sqrt(2.0 * math.pi) * sd)


def probability_region(density: np.ndarray, frac: float = 0.99) -> np.ndarray:
    """Indices of the smallest point set holding ``frac`` of the density."""
    order = np.argsort(density)[::-1]
    csum = np.cumsum(density[order])
    k = int(np.searchsorted(csum, frac * csum[-1])) + 1
    return order[:k]


# ---------------------------------------------------------------------------
# free_imaging

def check_free_imaging(mass, p0, sigma_p, times, grids, exact, imaged, reported):
    """``grids``, ``exact`` and ``imaged`` hold one array per time, read from
    the CSVs; ``reported`` is the error column of error_vs_time.csv.

    The exact density of a free minimum-uncertainty Gaussian and the
    imaging-map density (m/t)|Phi(m x/t)|^2 are both Gaussians in x, so both
    CSVs are checked against closed forms; the imaging-map error is then
    recomputed from the CSVs and must fall strictly with t.
    """
    if len(reported) != len(times):
        _fail(f"error_vs_time has {len(reported)} rows, expected {len(times)}")
    sigma_x = 1.0 / (2.0 * sigma_p)
    errors = []
    for t, x, de, di, rep in zip(times, grids, exact, imaged, reported):
        centre = p0 * t / mass
        ref_exact = gaussian_pdf(x, centre, math.hypot(sigma_x, sigma_p * t / mass))
        ref_it = gaussian_pdf(x, centre, sigma_p * t / mass)
        dev = float(np.max(np.abs(de - ref_exact))) / float(ref_exact.max())
        if not dev < TOL_CSV_DENSITY:
            _fail(f"t={t:g}: exact density off the closed form by {dev:.2e}")
        dev = float(np.max(np.abs(di - ref_it))) / float(ref_it.max())
        if not dev < TOL_CSV_DENSITY:
            _fail(f"t={t:g}: imaging-map density off the closed form by {dev:.2e}")
        region = probability_region(de)
        err = float(np.max(np.abs(di[region] - de[region]) / de[region]))
        if not abs(err - rep) <= TOL_REPORTED_ERROR * err:
            _fail(f"t={t:g}: reported error {rep:.6e} but the CSVs give {err:.6e}")
        errors.append(err)
    if not all(a > b for a, b in zip(errors, errors[1:])):
        _fail(f"imaging-map error does not fall strictly with t: {errors}")
    if not errors[-1] < IT_ERROR_LAST_MAX:
        _fail(f"imaging-map error {errors[-1]:.2e} at t={times[-1]:g} is not below {IT_ERROR_LAST_MAX:g}")


# ---------------------------------------------------------------------------
# field_extraction

def stark_propagate(psi0: np.ndarray, x: np.ndarray, mass: float, force: float, t: float) -> np.ndarray:
    """Closed-form evolution under p^2/2m - F x (Avron & Herbst), one FFT pair:

    psi(t) = e^{i F t x - i F^2 t^3 / 6m} IFFT[ FFT[psi0] e^{-i (k^2 t + k F t^2) / 2m} ].
    """
    dx = x[1] - x[0]
    k = 2.0 * math.pi * np.fft.fftfreq(len(x), dx)
    phase = np.exp(-1j * (k * k * t + k * force * t * t) / (2.0 * mass))
    moved = np.fft.ifft(np.fft.fft(psi0) * phase)
    return np.exp(1j * (force * t * x - force * force * t ** 3 / (6.0 * mass))) * moved


def check_field_alone(psi_split: np.ndarray, psi_stark: np.ndarray) -> None:
    """Split-operator result equals the Stark propagator up to a global phase."""
    theta = np.angle(np.vdot(psi_stark, psi_split))
    dev = float(np.max(np.abs(psi_split - psi_stark * np.exp(1j * theta)))) / float(np.max(np.abs(psi_stark)))
    if not dev < TOL_STARK_AMPLITUDE:
        _fail(f"split-operator field evolution off the Stark propagator by {dev:.2e}")


def check_it_field(density_it: np.ndarray, psi_stark: np.ndarray) -> None:
    """Uniform-field imaging map reproduces the exact density where it lives."""
    ref = np.abs(psi_stark) ** 2
    region = probability_region(ref)
    dev = float(np.max(np.abs(density_it[region] - ref[region]) / ref[region]))
    if not dev < TOL_IT_FIELD_DENSITY:
        _fail(f"it_field_uniform density off the Stark propagator by {dev:.2e}")


def expectation_energy(psi: np.ndarray, dx: float, mass: float, potential: np.ndarray) -> float:
    k = 2.0 * math.pi * np.fft.fftfreq(len(psi), dx)
    c2 = np.abs(np.fft.fft(psi)) ** 2
    d = np.abs(psi) ** 2
    return float(np.sum(c2 * k * k) / (2.0 * mass * np.sum(c2)) + np.sum(d * potential) / np.sum(d))


def check_with_potential(psi0, psi_t, psi_back, dx, mass, total_potential) -> None:
    """Evolution with a sampled potential: the packet moved, norm and <H> are
    conserved, and evolve-conjugate-evolve-conjugate returns psi0."""
    n0 = math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx)
    nt = math.sqrt(float(np.sum(np.abs(psi_t) ** 2)) * dx)
    if not abs(nt - n0) < TOL_NORM * n0:
        _fail(f"norm changed by {abs(nt - n0):.2e}")
    overlap = abs(complex(np.vdot(psi0, psi_t))) * dx / (n0 * nt)
    if not overlap < MAX_OVERLAP_MOVED:
        _fail(f"the packet did not move: overlap with psi0 is {overlap:.3f}")
    e0 = expectation_energy(psi0, dx, mass, total_potential)
    et = expectation_energy(psi_t, dx, mass, total_potential)
    if not abs(et - e0) < TOL_ENERGY * abs(e0):
        _fail(f"<H> changed from {e0:.9g} to {et:.9g}")
    dev = float(np.max(np.abs(psi_back - psi0))) / float(np.max(np.abs(psi0)))
    if not dev < TOL_ROUND_TRIP:
        _fail(f"time-reversal round trip misses psi0 by {dev:.2e}")


# ---------------------------------------------------------------------------
# coincidence

def check_pair_inversion(taus, closed, numeric, mass: float, energy: float) -> None:
    """``closed`` and ``numeric`` are (n, 2) momenta for scaled delays ``taus``
    (distance 1, so DeltaT = tau sqrt(m / E))."""
    closed = np.asarray(closed)
    numeric = np.asarray(numeric)
    gap = float(np.max(np.abs(closed - numeric)))
    if not gap < TOL_PAIR_GAP:
        _fail(f"closed form and Brent inversion differ by {gap:.2e}")
    shell = float(np.max(np.abs(np.sum(closed ** 2, axis=1) - 2.0 * mass * energy))) / (2.0 * mass * energy)
    if not shell < TOL_ENERGY_SHELL:
        _fail(f"pair momenta leave the energy shell by {shell:.2e}")
    delays = mass / closed[:, 1] - mass / closed[:, 0]
    want = np.asarray(taus) * math.sqrt(mass / energy)
    dev = float(np.max(np.abs(delays - want) / np.maximum(1.0, np.abs(want))))
    if not dev < TOL_DELAY_EQUATION:
        _fail(f"pair momenta reproduce the delays only to {dev:.2e}")


def check_multi_inversion(truth, found, masses, distances, energy, delays) -> None:
    """N-fragment inversion recovers the momenta the delays were made from."""
    truth = np.asarray(truth)
    found = np.asarray(found)
    dev = float(np.max(np.abs(found - truth) / truth))
    if not dev < TOL_PAIR_GAP:
        _fail(f"N-fragment inversion misses the true momenta by {dev:.2e}")
    shell = float(np.max(np.abs(np.sum(found ** 2 / (2.0 * masses), axis=1) - energy))) / energy
    if not shell < TOL_ENERGY_SHELL:
        _fail(f"N-fragment momenta leave the energy shell by {shell:.2e}")
    t = masses * distances / found
    dev = float(np.max(np.abs((t[:, 1:] - t[:, :1]) - delays)))
    if not dev < TOL_DELAY_EQUATION:
        _fail(f"N-fragment momenta reproduce the delays only to {dev:.2e}")


def check_curve(delta_t, prob) -> None:
    """Back-to-back curve on a grid symmetric about 0: symmetric, peaked at 0."""
    delta_t = np.asarray(delta_t)
    prob = np.asarray(prob)
    if not np.allclose(delta_t, -delta_t[::-1], rtol=0.0, atol=1e-12 * float(np.max(np.abs(delta_t)))):
        _fail("delay grid is not symmetric about zero")
    asym = float(np.max(np.abs(prob - prob[::-1]))) / float(prob.max())
    if not asym < TOL_CURVE_SYMMETRY:
        _fail(f"coincidence curve asymmetric by {asym:.2e}")
    if int(np.argmax(prob)) != len(prob) // 2:
        _fail("coincidence curve does not peak at zero delay")


def check_dataset(counts, n_events: float) -> None:
    counts = np.asarray(counts)
    if np.any(counts < 0) or np.any(counts != np.round(counts)):
        _fail("dataset counts are not nonnegative integers")
    total = float(counts.sum())
    if not abs(total - n_events) < 6.0 * math.sqrt(n_events):
        _fail(f"dataset holds {total:g} events, expected about {n_events:g}")


def check_fit(sigma_fit: float, sigma_true: float) -> None:
    if not abs(sigma_fit - sigma_true) < TOL_SIGMA:
        _fail(f"fitted sigma {sigma_fit:.4f} is not within {TOL_SIGMA} of the truth {sigma_true:.4f}")


# ---------------------------------------------------------------------------
# scattering

def born_gaussian(v0: float, a: float, mass: float, q: np.ndarray) -> np.ndarray:
    """First-order amplitude of V = v0 exp(-r^2/a^2): -(m/2pi) v0 pi^{3/2} a^3 e^{-q^2 a^2/4}."""
    return -(mass / (2.0 * math.pi)) * v0 * math.pi ** 1.5 * a ** 3 * np.exp(-(q * a) ** 2 / 4.0)


def check_born(f, f_ref) -> None:
    f = np.asarray(f)
    f_ref = np.asarray(f_ref)
    dev = float(np.max(np.abs(f - f_ref))) / float(np.max(np.abs(f_ref)))
    if not dev < TOL_BORN:
        _fail(f"Born amplitudes off the Gaussian form factor by {dev:.2e}")


def hankel_reference(n_particles: int, mu: float, energy: float, separation: float) -> complex:
    """green_hyper_hankel for equal unit masses, with scipy's AMOS Hankel function."""
    from scipy.special import hankel1

    p = math.sqrt(2.0 * mu * energy)
    alpha = (3 * n_particles - 2) / 2.0
    eta = (1.0 / mu) ** (3 * n_particles)
    return complex(-1j * mu / 2.0 * (p / (2.0 * math.pi)) ** alpha
                   * hankel1(alpha, p * separation) / separation ** alpha * math.sqrt(eta))


def hankel_point_ok(value: complex | None, reference: complex) -> bool:
    """A Hankel point fails when it raised (``None``) or misses the reference."""
    return value is not None and abs(value - reference) <= TOL_HANKEL * abs(reference)
