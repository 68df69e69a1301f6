"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with its measured figure of merit so a
run of ``pytest tests/test_acceptance.py -s`` reads as a checklist.  The
tolerances are pinned; see the README for the scenario definitions.
"""

import math
import time

import numpy as np

from itkit.classical import (
    action_S_free,
    action_S_tilde_free,
    action_S_tilde_uniform,
    action_S_uniform,
    characteristic_action_W_free,
    stationary_momentum,
    time_of_flight_free,
)
from itkit.coincidence import (
    PairGeometry,
    PairModelParams,
    characteristic_time,
    coincidence_curve,
    fit_pair_model,
    invert_delays_numeric,
    invert_delays_pair,
    synthesize_dataset,
    DelayObservation,
)
from itkit.core import (
    CM_TO_BOHR,
    EV_TO_HARTREE,
    MOMENTUM,
    POSITION,
    GaussianPacketSpec,
    UniformField,
    centered_grid_1d,
    sample_gaussian,
    to_momentum,
)
from itkit.imaging import apply_it_free
from itkit.propagate import EvolutionSpec, evolve_free_exact, evolve_split_operator, it_field_uniform
from itkit.scatter import (
    born_amplitude,
    cross_section,
    green_free,
    green_hyper_asymptotic,
    green_hyper_hankel,
    green_semiclassical,
    hyper_config,
    n_particle_amplitude,
    vv_hyper,
)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def probability_region(density, frac=0.99):
    order = np.argsort(density)[::-1]
    csum = np.cumsum(density[order])
    k = int(np.searchsorted(csum, frac * csum[-1])) + 1
    mask = np.zeros(density.size, dtype=bool)
    mask[order[:k]] = True
    return mask


def test_criterion_1_imaging_map_convergence():
    start = time.time()
    m, sigma_p, p0 = 1.0, 0.25, 1.0
    pgrid = centered_grid_1d(16 * sigma_p, 16384, p0)
    phi = sample_gaussian(GaussianPacketSpec([p0], [sigma_p]), pgrid, MOMENTUM)
    rgrid = phi.grid.conjugate()
    errors = []
    for t in (250.0, 500.0, 1000.0, 2000.0):
        from itkit.core import to_position
        exact = to_position(evolve_free_exact(phi, m, t), rgrid).density()
        it = apply_it_free(phi, m, t, rgrid).density()
        region = probability_region(exact)
        errors.append(float(np.max(np.abs(it[region] - exact[region]) / exact[region])))
    elapsed = time.time() - start
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = errors[-1] < 1e-4 and decreasing and elapsed < 10.0
    report("criterion 1 (free-map convergence)", ok,
           f"errors={[f'{e:.3e}' for e in errors]}, final<1e-4 and strictly "
           f"decreasing, {elapsed:.1f}s")


def test_criterion_2_uniform_field_exactness():
    start = time.time()
    # a wide momentum packet keeps the stationary-phase curvature correction
    # (second order in sigma_p^-2 m / t) below the 1e-6 density tolerance
    m, F, t, sigma_p = 1.0, 1e-3, 200.0, 3.0
    spec = GaussianPacketSpec(p0=[0.0], sigma_p=[sigma_p], r0=[0.0])
    drift = F * t * t / 2.0
    xgrid = centered_grid_1d(9000.0, 65536, drift)
    # the reference runs on a box twice as wide with the same spacing, so
    # the periodic images of the 600-wide packet stay off its edges, and is
    # compared on the central 65536 points, which coincide with xgrid
    padded = centered_grid_1d(18000.0, 131072, drift)
    psi0 = sample_gaussian(spec, padded, POSITION)
    evo = EvolutionSpec(mass=m, t_start=0.0, t_end=t, n_steps=9100,
                        field=UniformField([F]))
    ref = evolve_split_operator(psi0, evo)

    pgrid = centered_grid_1d(32 * sigma_p, 8192, 0.0)
    phi = sample_gaussian(spec, pgrid, MOMENTUM)
    approx = it_field_uniform(phi, xgrid, t, 0.0, m, [F])

    d_ref = ref.density()[32768:32768 + 65536]
    d_it = approx.density()
    region = probability_region(d_ref)
    err = float(np.max(np.abs(d_it[region] - d_ref[region]) / d_ref[region]))
    elapsed = time.time() - start
    ok = err < 1e-6 and elapsed < 30.0
    report("criterion 2 (uniform-field exactness)", ok,
           f"max relative density error {err:.3e} < 1e-6, {elapsed:.1f}s")


def test_criterion_3_delay_inversion():
    start = time.time()
    rng = np.random.default_rng(1)
    taus = rng.uniform(-5.0, 5.0, 1000)
    worst_gap = 0.0
    worst_energy = 0.0
    for tau in taus:
        p1a, p2a = invert_delays_pair(float(tau), 1.0, 1.0)
        obs = DelayObservation([1.0, 1.0], [1.0, 1.0], 1.0, [float(tau)])
        p = invert_delays_numeric(obs)
        worst_gap = max(worst_gap, abs(p[0] - p1a), abs(p[1] - p2a))
        worst_energy = max(worst_energy, abs(p1a ** 2 + p2a ** 2 - 2.0))
    lim_large = abs(invert_delays_pair(1e6)[0] - math.sqrt(2.0))
    lim_small = abs(invert_delays_pair(1e-8)[0] - 1.0)
    elapsed = time.time() - start
    ok = (worst_gap < 1e-9 and worst_energy < 1e-12
          and lim_large < 1e-5 and lim_small < 1e-6 and elapsed < 1.0)
    report("criterion 3 (delay inversion)", ok,
           f"analytic-vs-numeric {worst_gap:.1e} < 1e-9, energy residual "
           f"{worst_energy:.1e} < 1e-12, limits {lim_large:.1e}/{lim_small:.1e}, "
           f"{elapsed:.2f}s")


def test_criterion_4_pair_model_reproduction():
    start = time.time()
    # shape checks at the published kinematics
    geometry = PairGeometry(mass=1.0, distance=2.0 * CM_TO_BOHR)
    params = PairModelParams(sigma=1.0, Sigma=10.0)
    energy = 0.37 * EV_TO_HARTREE
    t0 = characteristic_time(geometry.mass, geometry.distance, energy)
    dt = np.linspace(-5 * t0, 5 * t0, 201)
    _, _, _, prob = coincidence_curve(geometry, params, energy, dt)
    asym = float(np.max(np.abs(prob - prob[::-1])))
    peak_at_zero = int(np.argmax(prob)) == 100
    diffs = np.sign(np.diff(prob))
    unimodal = np.all(diffs[:100] >= 0) and np.all(diffs[100:] <= 0)

    # fit clause on seeded synthetic data at desk-scale kinematics, where the
    # curve retains statistical sensitivity to the relative width
    g = PairGeometry(1.0, 1.0)
    e_fit = 8.0
    grid = np.linspace(-6 * characteristic_time(1.0, 1.0, e_fit),
                       6 * characteristic_time(1.0, 1.0, e_fit), 121)
    curve = coincidence_curve(g, PairModelParams(1.0, 10.0), e_fit, grid,
                              normalize=False)[3]
    n_events = 200.0 * curve.sum() / curve.max()  # peak expectation 200
    ds = synthesize_dataset(g, PairModelParams(1.0, 10.0), e_fit, n_events,
                            seed=42, delta_t=grid)
    fitted, _, _ = fit_pair_model(ds, PairModelParams(0.8, 12.0))
    sigma_err = abs(fitted.sigma - 1.0)
    big_err = abs(fitted.Sigma - 10.0) / 10.0
    elapsed = time.time() - start
    ok = (asym < 1e-10 and peak_at_zero and bool(unimodal)
          and sigma_err < 0.10 and big_err < 0.25 and elapsed < 30.0)
    report("criterion 4 (pair-model reproduction)", ok,
           f"asymmetry {asym:.1e} < 1e-10, peak at zero {peak_at_zero}, "
           f"unimodal {bool(unimodal)}, sigma error {sigma_err:.3f} < 0.10, "
           f"Sigma error {big_err:.3f} < 0.25, {elapsed:.1f}s")


def test_criterion_5_green_function_identities():
    start = time.time()
    rng = np.random.default_rng(3)
    worst_sc = 0.0
    worst_h1 = 0.0
    for _ in range(50):
        R = float(rng.uniform(5.0, 500.0))
        E = float(rng.uniform(0.05, 5.0))
        g0 = green_free([R, 0.0, 0.0], [0.0, 0.0, 0.0], E, 1.0)
        gsc = green_semiclassical(math.sqrt(2.0 * E) * R, 1.0 / R ** 2)
        cfg = hyper_config([1.0], 1.0, E)
        gh = green_hyper_hankel(cfg, R)
        worst_sc = max(worst_sc, abs(gsc - g0) / abs(g0))
        worst_h1 = max(worst_h1, abs(gh - g0) / abs(g0))

    cfg2 = hyper_config([1.0, 1.0], 1.0, 1.0)
    z_values = np.logspace(2, 4, 9)
    errs = []
    for z in z_values:
        sep = z / cfg2.hyper_momentum
        ga = green_hyper_asymptotic(cfg2, sep)
        gh = green_hyper_hankel(cfg2, sep)
        errs.append(abs(abs(ga) - abs(gh)) / abs(gh))
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    elapsed = time.time() - start
    ok = (worst_sc < 1e-12 and worst_h1 < 1e-10 and errs[0] < 0.01
          and monotone and elapsed < 5.0)
    report("criterion 5 (Green-function identities)", ok,
           f"semiclassical {worst_sc:.1e} < 1e-12, Hankel form {worst_h1:.1e} "
           f"< 1e-10, two-body modulus error {errs[0]:.2e} < 1% at z=100 and "
           f"decreasing to z=1e4, {elapsed:.1f}s")


def test_criterion_6_born_oracle():
    start = time.time()
    v0, a, m = 0.01, 1.0, 1.0

    def potential(x, y, z):
        return v0 * np.exp(-(x * x + y * y + z * z) / (a * a))

    p = 1.0
    p_in = np.array([0.0, 0.0, p])
    f0 = born_amplitude(potential, p_in, p_in, m)
    # analytic forward value -(m / 2 pi) V0 pi^{3/2} a^3 = -0.0088623 to the
    # five figures quoted; the quadrature is held to 1e-6 of the full-precision
    # analytic number and to half an ulp of the quoted one
    analytic0 = -(m / (2.0 * math.pi)) * v0 * math.pi ** 1.5 * a ** 3
    rel0 = abs(f0.real - analytic0) / abs(analytic0)
    quoted_gap = abs(f0.real - (-0.0088623))

    max_gap = 0.0
    for th in np.linspace(0.0, math.pi, 19):
        p_out = p * np.array([math.sin(th), 0.0, math.cos(th)])
        f = born_amplitude(potential, p_in, p_out, m)
        max_gap = max(max_gap, abs(cross_section(f) - abs(f) ** 2))
    elapsed = time.time() - start
    ok = rel0 < 1e-6 and quoted_gap < 5e-8 and max_gap == 0.0 and elapsed < 5.0
    report("criterion 6 (first-order amplitude oracle)", ok,
           f"forward amplitude rel error {rel0:.1e} < 1e-6 "
           f"(quoted -0.0088623 within {quoted_gap:.1e}), "
           f"cross-section equals |f|^2 across 19 angles, {elapsed:.1f}s")


def test_criterion_7_gradient_legendre_suite():
    start = time.time()
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        m = float(rng.uniform(0.5, 2.0))
        T = float(rng.uniform(1.0, 20.0))
        r = rng.uniform(-5.0, 5.0, 3)
        rp = rng.uniform(-5.0, 5.0, 3)
        F = rng.uniform(-0.05, 0.05, 3) if rng.random() < 0.5 else None
        p_prime = stationary_momentum(r, rp, T, m, F)

        if F is None:
            s_of = lambda rr, rrpp, TT: action_S_free(rr, rrpp, TT, m)
            st_of = lambda rr, pp, TT: action_S_tilde_free(rr, pp, TT, m)
        else:
            s_of = lambda rr, rrpp, TT: action_S_uniform(rr, rrpp, TT, m, F)
            st_of = lambda rr, pp, TT: action_S_tilde_uniform(rr, pp, TT, m, F)

        # Legendre relation at the stationary point
        gap = abs(st_of(r, p_prime, T) - float(np.dot(p_prime, rp)) - s_of(r, rp, T))
        worst = max(worst, gap / max(1.0, abs(s_of(r, rp, T))))

        # final momentum from the position gradient of S
        p_final = p_prime + (np.asarray(F) * T if F is not None else 0.0)
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            dS = (s_of(r + e, rp, T) - s_of(r - e, rp, T)) / (2 * h)
            worst = max(worst, abs(dS - p_final[ax]) / max(1.0, abs(p_final[ax])))
            dSp = (s_of(r, rp + e, T) - s_of(r, rp - e, T)) / (2 * h)
            worst = max(worst, abs(dSp + p_prime[ax]) / max(1.0, abs(p_prime[ax])))

    # fixed-energy identities on free radial motion
    for _ in range(100):
        m = float(rng.uniform(0.5, 2.0))
        R = float(rng.uniform(1.0, 50.0))
        E = float(rng.uniform(0.1, 5.0))
        W = characteristic_action_W_free([R], [0.0], E, m)
        T, dT_dE = time_of_flight_free([R], [0.0], E, m)
        p = math.sqrt(2.0 * m * E)
        dW_dr = (characteristic_action_W_free([R + h], [0.0], E, m)
                 - characteristic_action_W_free([R - h], [0.0], E, m)) / (2 * h)
        worst = max(worst, abs(dW_dr - p) / p)
        dW_dE = (characteristic_action_W_free([R], [0.0], E + h, m)
                 - characteristic_action_W_free([R], [0.0], E - h, m)) / (2 * h)
        worst = max(worst, abs(dW_dE - T) / T)
        S = action_S_free(np.array([R]), np.array([0.0]), T, m)
        worst = max(worst, abs(S + E * T - W) / max(1.0, abs(W)))
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 1.0
    report("criterion 7 (gradient/Legendre suite)", ok,
           f"worst relative deviation {worst:.1e} < 1e-6 over 200 random "
           f"configurations, {elapsed:.2f}s")


def test_criterion_8_reduced_mass_independence():
    start = time.time()
    masses = [1.0, 2.0, 0.5]
    energy = 1.3
    positions = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    n = len(masses)

    def observables(mu):
        cfg = hyper_config(masses, mu, energy)
        rr = math.sqrt(sum(m * float(np.dot(x, x)) for m, x in zip(masses, positions)) / mu)
        g_h = green_hyper_hankel(cfg, rr)
        g_a = green_hyper_asymptotic(cfg, rr)
        vv = vv_hyper(cfg, rr)
        # lab-frame matrix element: the mass-weighted volume element maps
        # M_lab to sqrt(eta) * M_lab in hyper coordinates
        m_hyper = math.sqrt(cfg.eta) * 0.02
        f = n_particle_amplitude(m_hyper, cfg)
        detector_density = abs(f) ** 2 / rr ** (3 * n - 1)
        return np.array([abs(g_h), abs(g_a), vv, detector_density])

    base = observables(1.0)
    worst = 0.0
    for mu in (0.5, 2.0):
        other = observables(mu)
        worst = max(worst, float(np.max(np.abs(other - base) / np.abs(base))))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report("criterion 8 (reduced-mass independence)", ok,
           f"max relative spread over mu in {{0.5, 1, 2}}: {worst:.1e} < 1e-10, "
           f"{elapsed:.2f}s")
