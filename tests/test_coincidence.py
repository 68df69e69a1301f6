import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from itkit import coincidence
from itkit.coincidence import (
    MAX_EVENTS,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    CoincidenceDataset,
    DelayObservation,
    PairGeometry,
    PairModelParams,
    _pair_residual,
    _kappa,
    _reduced_curve,
    _weighted_residuals,
    characteristic_time,
    coincidence_curve,
    curve_to_csv,
    dataset_from_csv,
    dataset_to_csv,
    fit_pair_model,
    fit_report_to_json,
    invert_delays_numeric,
    invert_delays_pair,
    pair_model_momentum_density,
    synthesize_dataset,
)
from itkit.errors import DomainError, FitError, InfeasibleError

EV = 1.0 / 27.211386245988
CM = 1.0 / 5.29177210903e-9

CM_SCALE_GEOMETRY = PairGeometry(mass=1.0, distance=2.0 * CM)
MODEL_PARAMS = PairModelParams(sigma=1.0, Sigma=10.0)
CM_SCALE_ENERGY = 0.37 * EV
EPS = np.finfo(float).eps


def numeric_inversion_reference(obs):
    """Delay inversion with the energy equation evaluated in numpy, as the
    library did before it switched to plain floats."""
    m = obs.masses
    r = obs.distances
    E = obs.energy
    t1 = m[0] * r[0]

    def momenta(p1):
        if p1 < 1.0:
            rest = m[1:] * r[1:] * p1 / (obs.delays * p1 + t1)
        else:
            rest = m[1:] * r[1:] / (obs.delays + t1 / p1)
        return np.concatenate(([p1], rest))

    def h(p1):
        p = momenta(p1)
        return float(np.sum(p * p / (2.0 * m))) - E

    hi = math.sqrt(2.0 * m[0] * E)
    earliest = -float(np.min(obs.delays))
    if earliest * hi > t1:
        hi = t1 / earliest
    shrink = 1e-12
    while not (math.isfinite(h(hi * (1.0 - shrink))) and h(hi * (1.0 - shrink)) > 0.0):
        shrink *= 4.0
        assert shrink < 0.5
    hi_eff = hi * (1.0 - shrink)
    p1 = brentq(h, hi_eff * 1e-12, hi_eff, xtol=1e-300, rtol=8.881784197001252e-16,
                maxiter=NEWTON_MAX_ITER)
    assert abs(h(p1)) <= NEWTON_TOL * max(1.0, E)
    return momenta(p1)


def mpmath_inversion(mp, obs):
    """Momenta of ``obs`` to the working precision of ``mp``.

    Independent of the library's scaled Newton iteration: the unknown is the
    earliest fragment's flight time t, every other flight time is t plus its
    arrival lag, and the energy equation sum m_n r_n^2 / 2 t_n^2 = E is
    solved by Anderson's bracketing method between the flight time of the
    earliest fragment carrying all of E and the common flight time of all.
    """
    m = [mp.mpf(x) for x in obs.masses.tolist()]
    r = [mp.mpf(x) for x in obs.distances.tolist()]
    lag = [mp.mpf(0)] + [mp.mpf(x) for x in obs.delays.tolist()]
    E = mp.mpf(float(obs.energy))
    first = min(lag)
    c = [mn * rn * rn / 2 for mn, rn in zip(m, r)]
    t = mp.findroot(lambda t: sum(cn / (t + ln - first) ** 2 for cn, ln in zip(c, lag)) - E,
                    (mp.sqrt(c[lag.index(first)] / E), mp.sqrt(sum(c) / E)), solver="anderson")
    return [mn * rn / (t + ln - first) for mn, rn, ln in zip(m, r, lag)]


def inversion_condition(obs, p):
    """First-order bound on the relative change of each p_n, in units of eps,
    when every mass, distance, delay and the energy moves by eps relative to
    itself.

    With the earliest flight time tau, t_n = tau + lag_n - lag_k and energy
    shares e_n = m_n r_n^2 / 2 t_n^2, the energy equation moves tau by at
    most [3 sum e_n + E + 2 sum e_n (|lag_n| + |lag_k|) / t_n] / (2 sum e_n / t_n),
    and p_n = m_n r_n / t_n adds its own mass, distance and lag terms.
    """
    m, r = obs.masses.tolist(), obs.distances.tolist()
    lag = [0.0] + obs.delays.tolist()
    first = abs(min(lag))
    t = [mn * rn / pn for mn, rn, pn in zip(m, r, p)]
    e = [pn * pn / (2.0 * mn) for mn, pn in zip(m, p)]
    shift = (3.0 * sum(e) + float(obs.energy)
             + 2.0 * sum(en * (abs(ln) + first) / tn for en, ln, tn in zip(e, lag, t))) \
        / (2.0 * sum(en / tn for en, tn in zip(e, t)))
    return [2.0 + (shift + abs(ln) + first) / tn for ln, tn in zip(lag, t)]


def curve_loop_reference(geometry, params, E, delta_t):
    """Unnormalized coincidence curve evaluated one delay at a time."""
    t0 = characteristic_time(geometry.mass, geometry.distance, E)
    zhat = np.array([0.0, 0.0, 1.0])
    rows = []
    for dt in delta_t:
        a, b = invert_delays_pair(dt / t0, geometry.mass, E)
        dens = pair_model_momentum_density(a * zhat, -b * zhat, params)
        rows.append((a, b, (a * b / geometry.distance ** 2) ** 3 * dens))
    return np.array(rows).T


def reduced_curve_loop_reference(dataset, kappa, log_scale):
    g = dataset.geometry
    t0 = characteristic_time(g.mass, g.distance, dataset.energy)
    out = []
    for dt in dataset.delta_t:
        p1, p2 = invert_delays_pair(dt / t0, g.mass, dataset.energy)
        out.append(math.exp(log_scale + kappa * p1 * p2) * (p1 * p2 / g.distance ** 2) ** 3)
    return np.array(out)


class TestPairInversion:
    def test_zero_delay_limit(self):
        p1, p2 = invert_delays_pair(0.0, 2.0, 3.0)
        assert p1 == p2 == pytest.approx(math.sqrt(6.0))

    def test_large_delay_limit(self):
        # as tau -> infinity the first fragment takes all the energy
        p1, p2 = invert_delays_pair(1e6)
        assert p1 == pytest.approx(math.sqrt(2.0), rel=1e-5)

    def test_small_delay_stability(self):
        p1, p2 = invert_delays_pair(1e-8)
        assert p1 == pytest.approx(1.0, abs=1e-6)
        assert p2 == pytest.approx(1.0, abs=1e-6)

    def test_reference_point(self):
        p1, p2 = invert_delays_pair(1.0)
        assert p1 == pytest.approx(1.2966300, abs=1e-6)
        assert p2 == pytest.approx(0.5645795, abs=1e-6)

    @given(st.floats(min_value=-50.0, max_value=50.0),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_constraints_hold(self, tau, m, E):
        p1, p2 = invert_delays_pair(tau, m, E)
        assert p1 > 0 and p2 > 0
        energy_residual = abs(p1 * p1 + p2 * p2 - 2 * m * E) / (2 * m * E)
        assert energy_residual < 1e-12
        assert abs(_pair_residual(tau, p1, p2, m, E)) < 1e-10

    @given(st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry(self, tau):
        a = invert_delays_pair(tau)
        b = invert_delays_pair(-tau)
        assert a == (b[1], b[0])

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            invert_delays_pair(1.0, m=0.0)
        with pytest.raises(DomainError):
            invert_delays_pair(float("nan"))
        with pytest.raises(DomainError):
            invert_delays_pair(np.array([[0.0, 1.0], [np.inf, 2.0]]))

    @pytest.mark.parametrize("m, E", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                      (1.0, math.inf), (-1.0, 1.0), (1.0, 0.0)])
    def test_rejects_non_finite_mass_and_energy(self, m, E):
        with pytest.raises(DomainError):
            invert_delays_pair(1.0, m=m, E=E)

    @pytest.mark.parametrize("masses, distances, energy, delays", [
        ([1.0, 1.0], [1.0, 1.0], math.nan, [0.5]),
        ([1.0, 1.0], [1.0, 1.0], math.inf, [0.5]),
        ([1.0, math.nan], [1.0, 1.0], 1.0, [0.5]),
        ([1.0, 1.0], [math.inf, 1.0], 1.0, [0.5]),
        ([1.0, 1.0], [1.0, 1.0], 1.0, [math.nan]),
        ([1.0, 1.0], [1.0, 1.0], 1.0, [math.inf]),
        ([1.0, 1.0], [1.0, 1.0], 1.0, [-math.inf]),
        ([0.0, 1.0], [1.0, 1.0], 1.0, [0.5]),
        ([1.0, -1.0], [1.0, 1.0], 1.0, [0.5]),
        ([1.0, 1.0], [0.0, 1.0], 1.0, [0.5]),
        ([1.0, 1.0], [1.0, -2.0], 1.0, [0.5]),
    ])
    def test_observation_rejects_non_finite(self, masses, distances, energy, delays):
        with pytest.raises(DomainError):
            DelayObservation(masses, distances, energy, delays)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_array_matches_scalar_calls(self, shape):
        rng = np.random.default_rng(17)
        special = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e200]
        tau = np.concatenate([special, rng.normal(scale=3.0, size=15)])[: max(1, math.prod(shape))]
        tau = tau.reshape(shape)
        # a 0-d array gives floats, like a scalar
        p1, p2 = (np.asarray(p) for p in invert_delays_pair(tau, 2.0, 0.7))
        assert p1.shape == p2.shape == shape
        for idx in np.ndindex(shape):
            a, b = invert_delays_pair(float(tau[idx]), 2.0, 0.7)
            assert type(a) is float and type(b) is float
            assert (a, b) == (p1[idx], p2[idx])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.floats(min_value=5e-324, max_value=1.7e308), st.sampled_from([1.0, -1.0]))
    @example(1e6, 1.0)
    @example(1e150, 1.0)
    @example(1.3e154, 1.0)
    @example(1.7e308, 1.0)
    @example(1.7e308, -1.0)
    @settings(max_examples=300, deadline=None)
    def test_stays_on_shell_at_any_delay(self, magnitude, sign):
        # 1 + 2 tau^2 once overflowed past 1.3e154, giving p1 = p2 off the
        # shell, and the smaller momentum lost digits to cancellation
        tau = sign * magnitude
        p1, p2 = invert_delays_pair(tau)
        assert p1 > 0 and p2 > 0
        assert abs(p1 * p1 + p2 * p2 - 2.0) / 2.0 <= 4 * EPS
        assert abs(_pair_residual(tau, p1, p2, 1.0, 1.0)) <= 1e-14


class TestNumericInversion:
    def test_matches_closed_form(self):
        m, r, E = 1.0, 1.0, 1.0
        t0 = characteristic_time(m, r, E)
        for tau in np.linspace(-5.0, 5.0, 41):
            obs = DelayObservation([m, m], [r, r], E, [tau * t0])
            p = invert_delays_numeric(obs)
            a, b = invert_delays_pair(tau, m, E)
            assert p[0] == pytest.approx(a, abs=1e-9)
            assert p[1] == pytest.approx(b, abs=1e-9)

    def test_three_fragment_symmetric(self):
        obs = DelayObservation([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.5, [0.0, 0.0])
        p = invert_delays_numeric(obs)
        assert np.allclose(p, 1.0, atol=1e-10)

    def test_unequal_masses(self):
        obs = DelayObservation([1.0, 2.0], [1.0, 1.5], 1.0, [0.3])
        p = invert_delays_numeric(obs)
        # solution satisfies both the delay equation and the energy shell
        assert 2.0 * 1.5 / p[1] - 1.0 / p[0] == pytest.approx(0.3, abs=1e-10)
        assert p[0] ** 2 / 2.0 + p[1] ** 2 / 4.0 == pytest.approx(1.0, abs=1e-10)

    def test_extreme_negative_delays(self):
        # a very early second arrival forces the first fragment to be slow;
        # a positive-orthant solution still exists and the solver finds it
        obs = DelayObservation([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.5, [0.0, -5.0])
        p = invert_delays_numeric(obs)
        assert np.all(p > 0)
        res = obs.masses[1:] * obs.distances[1:] / p[1:] \
            - obs.masses[0] * obs.distances[0] / p[0] - obs.delays
        assert np.max(np.abs(res)) < 1e-10
        assert np.sum(p ** 2 / (2 * obs.masses)) == pytest.approx(0.5, abs=1e-10)

    @given(st.floats(min_value=-20.0, max_value=20.0),
           st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_finite_delays_always_feasible(self, d2, d3):
        # for finite delays one fragment can always soak up the energy, so
        # the inversion never leaves the positive orthant
        obs = DelayObservation([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.5, [d2, d3])
        p = invert_delays_numeric(obs)
        assert np.all(p > 0)
        assert np.sum(p ** 2 / 2.0) == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.floats(min_value=-1.7e308, max_value=1.7e308))
    @example(-1e-310)
    @example(-5e-324)
    @example(1e-310)
    @example(-1.7e308)
    @example(1.7e308)
    @settings(max_examples=50, deadline=None)
    def test_no_numerical_warning(self, delay):
        # the momentum bound t1 / |delay| once overflowed for tiny delays,
        # and t1 / p1 at the subnormal lower bracket for huge negative ones
        obs = DelayObservation([1.0, 1.0], [1.0, 1.0], 1.0, [delay])
        try:
            p = invert_delays_numeric(obs)
        except InfeasibleError:
            return
        assert np.all(p > 0)
        assert np.sum(p ** 2 / 2.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("magnitude", [1e100, 1e200, 1e300, 1.7e308])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("energy", [1e-8, 1.0, 1e8])
    def test_huge_delays_typed(self, magnitude, sign, energy):
        # valid momenta or InfeasibleError, never an overflow warning
        for masses, distances, delays in [([1.0, 1.0], [1.0, 1.0], [sign * magnitude]),
                                          ([1.0, 2.0, 1.5], [1.0, 1.3, 0.7],
                                           [sign * magnitude, -sign * magnitude / 3])]:
            obs = DelayObservation(masses, distances, energy, delays)
            try:
                p = invert_delays_numeric(obs)
            except InfeasibleError:
                continue
            assert np.all(p > 0)
            assert np.sum(p ** 2 / (2.0 * obs.masses)) == pytest.approx(energy, rel=1e-9)

    @pytest.mark.parametrize("delay, expected", [
        (-5.0, [0.15842649052667418, 1.981592993170999, 0.1315996873507076]),
        (-4.0, [0.1880677584802007, 1.9738352756544404, 0.15788130277828322]),
        (-3.0, [0.2311297432811352, 1.9599354981041157, 0.19712482114062058]),
        (-2.0, [0.2988454218588703, 1.9313457938996605, 0.2616575797498671]),
        (-1.0, [0.4168945000704341, 1.8588843705196703, 0.38433076443969727]),
        (0.0, [0.6253053994807224, 1.6257940386498781, 0.6565706694547584]),
        (1.0, [0.7659273066685602, 1.1276857149318755, 1.0799429325677847]),
        (2.0, [0.6948182274853141, 0.7559841948778864, 1.3591200715729188]),
        (3.0, [0.588305732036967, 0.5532154472646138, 1.5004362866045098]),
        (4.0, [0.5001125092817327, 0.43336583113964966, 1.5760636914130006]),
        (5.0, [0.4320202777509777, 0.35544831762347817, 1.6202716098055703]),
    ])
    def test_pinned_three_fragment_values(self, delay, expected):
        # values of the unscaled delay equations, before they were multiplied
        # through by p1 at small p1
        obs = DelayObservation([1.0, 2.0, 1.5], [1.0, 1.3, 0.7], 1.0, [delay, -delay / 3])
        np.testing.assert_allclose(invert_delays_numeric(obs), expected, rtol=1e-14, atol=0)

    def test_matches_numpy_energy_equation(self):
        rng = np.random.default_rng(6)
        for tau in np.linspace(-5.0, 5.0, 1001):
            obs = DelayObservation([1.0, 1.0], [1.0, 1.0], 1.0, [tau])
            np.testing.assert_allclose(invert_delays_numeric(obs),
                                       numeric_inversion_reference(obs), rtol=1e-14, atol=0)
        masses = np.array([1.0, 1.5, 2.0])
        distances = np.array([1.0, 1.2, 0.8])
        u = np.abs(rng.normal(size=(800, 3)))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        p = np.sqrt(2.0 * masses) * u[np.all(u > 0.2, axis=1)][:200]
        t = masses * distances / p
        assert len(p) == 200
        for delays in t[:, 1:] - t[:, :1]:
            obs = DelayObservation(masses, distances, 1.0, delays)
            np.testing.assert_allclose(invert_delays_numeric(obs),
                                       numeric_inversion_reference(obs), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("masses, distances, delays, expected", [
        # the Brent bracket search gave up on both ("did not converge"); the
        # values are mpmath's, rounded to floats
        ([1.0, 0.1], [1.0, 0.1], [-1000.0], [9.999776398146242e-4, 0.4472134837015449]),
        ([1.0, 0.1, 2.0], [1.0, 0.1, 1.0], [-1000.0, 5.0],
         [9.999776398035558e-4, 0.4472132623238968, 1.9900054747180877e-3]),
    ])
    def test_known_momenta(self, masses, distances, delays, expected):
        obs = DelayObservation(masses, distances, 1.0, delays)
        np.testing.assert_allclose(invert_delays_numeric(obs), expected, rtol=4 * EPS, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_momentum_typed(self):
        # p1 = 1.4e-400 underflows; the Brent solver divided by zero here
        with pytest.raises(InfeasibleError):
            invert_delays_numeric(DelayObservation([1e-200, 1.0], [1e-200, 1.0], 1.0, [0.0]))

    @pytest.mark.filterwarnings("error")
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x), min_size=n, max_size=n),
        st.lists(st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x), min_size=n, max_size=n),
        st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x),
        st.lists(st.floats(-1.7e308, 1.7e308)
                 | st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-320.0, 308.0))
                 .map(lambda t: t[0] * 10.0 ** t[1]), min_size=n - 1, max_size=n - 1))))
    @settings(max_examples=300, deadline=None)
    def test_momenta_or_typed_error_over_float_range(self, case):
        # every accepted observation gives finite positive momenta on the
        # energy shell, or InfeasibleError when they cannot be represented
        masses, distances, energy, delays = case
        obs = DelayObservation(masses, distances, energy, delays)
        try:
            p = invert_delays_numeric(obs).tolist()
        except InfeasibleError:
            return
        assert all(0.0 < pn < math.inf for pn in p)
        shell = sum((pn / math.sqrt(2.0 * mn) / math.sqrt(energy)) ** 2
                    for pn, mn in zip(p, masses))
        assert abs(shell - 1.0) <= NEWTON_TOL + 8 * EPS

    def test_matches_mpmath_over_seeded_sweep(self):
        # 2-4 fragments, masses and distances in e^+-3, energies in e^+-8 and
        # delays from subnormal to 1e8; the Brent solver refused 817 of these
        # and was off by up to 7e-10 on the rest.  The bound is backward
        # stability: no worse than moving every input by two ulps
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2024)
        with mp.workdps(40):
            for i in range(4000):
                n = int(rng.integers(2, 5))
                obs = DelayObservation(np.exp(rng.uniform(-3.0, 3.0, n)),
                                       np.exp(rng.uniform(-3.0, 3.0, n)),
                                       float(np.exp(rng.uniform(-8.0, 8.0))),
                                       rng.standard_normal(n - 1) * [1e-320, 1e-8, 1.0, 1e3, 1e8][i % 5])
                p = invert_delays_numeric(obs).tolist()
                exact = mpmath_inversion(mp, obs)
                kappa = inversion_condition(obs, [float(x) for x in exact])
                for pn, xn, kn in zip(p, exact, kappa):
                    assert abs(pn - xn) / xn <= 2.0 * EPS * kn, (i, p)

    def test_observation_validation(self):
        with pytest.raises(DomainError):
            DelayObservation([1.0, 1.0], [1.0, 1.0], 1.0, [0.1, 0.2])
        with pytest.raises(DomainError):
            DelayObservation([1.0, -1.0], [1.0, 1.0], 1.0, [0.1])
        # more than one dimension, which the solver could not read
        with pytest.raises(DomainError):
            DelayObservation([[1.0, 1.0]], [[1.0, 1.0]], 1.0, [])
        with pytest.raises(DomainError):
            DelayObservation([[1.0], [1.0]], [[1.0], [1.0]], 1.0, [[0.5]])


class TestPairModel:
    @pytest.mark.parametrize("build", [
        lambda x: PairGeometry(x, 1.0),
        lambda x: PairGeometry(1.0, x),
        lambda x: PairModelParams(x, 10.0),
        lambda x: PairModelParams(1.0, x),
        lambda x: characteristic_time(x, 1.0, 1.0),
        lambda x: characteristic_time(1.0, x, 1.0),
        lambda x: characteristic_time(1.0, 1.0, x),
    ])
    @pytest.mark.parametrize("x", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite(self, build, x):
        with pytest.raises(DomainError):
            build(x)

    def test_exchange_symmetry(self):
        params = PairModelParams(1.0, 10.0)
        p1 = np.array([0.3, -0.2, 1.1])
        p2 = np.array([-0.4, 0.0, -0.9])
        assert pair_model_momentum_density(p1, p2, params) == pytest.approx(
            pair_model_momentum_density(p2, p1, params), rel=1e-14
        )

    def test_normalization_peak(self):
        params = PairModelParams(1.0, 2.0)
        z = np.zeros(3)
        expected = (2 * math.pi) ** -3.0 / (1.0 ** 3 * 2.0 ** 3)
        assert pair_model_momentum_density(z, z, params) == pytest.approx(expected, rel=1e-12)

    def test_does_not_factorize(self):
        # rel/total structure correlates the two single-particle momenta
        params = PairModelParams(0.5, 5.0)
        z = np.zeros(3)
        a = np.array([1.0, 0.0, 0.0])
        joint = pair_model_momentum_density(a, a, params)
        f1 = pair_model_momentum_density(a, z, params)
        f2 = pair_model_momentum_density(z, a, params)
        f0 = pair_model_momentum_density(z, z, params)
        assert not np.isclose(joint * f0, f1 * f2, rtol=1e-3)

    @pytest.mark.parametrize("shape", [(4,), (2, 5)])
    def test_stacked_matches_single(self, shape):
        rng = np.random.default_rng(3)
        p1 = rng.normal(size=shape + (3,))
        p2 = rng.normal(size=shape + (3,))
        params = PairModelParams(0.7, 2.5)
        dens = pair_model_momentum_density(p1, p2, params)
        assert dens.shape == shape
        for idx in np.ndindex(shape):
            single = pair_model_momentum_density(p1[idx], p2[idx], params)
            assert type(single) is float
            assert single == dens[idx]


class TestCurve:
    def test_symmetric_and_peaked_at_zero(self):
        t0 = characteristic_time(CM_SCALE_GEOMETRY.mass, CM_SCALE_GEOMETRY.distance, CM_SCALE_ENERGY)
        dt = np.linspace(-4 * t0, 4 * t0, 81)
        _, p1, p2, prob = coincidence_curve(CM_SCALE_GEOMETRY, MODEL_PARAMS, CM_SCALE_ENERGY, dt)
        assert np.max(np.abs(prob - prob[::-1])) < 1e-10 * prob.max()
        assert int(np.argmax(prob)) == 40
        assert prob[40] == pytest.approx(1.0)

    def test_momenta_columns_consistent(self):
        t0 = characteristic_time(1.0, 1.0, 8.0)
        dt = np.array([-t0, 0.0, t0])
        _, p1, p2, _ = coincidence_curve(PairGeometry(1.0, 1.0), MODEL_PARAMS, 8.0, dt)
        a, b = invert_delays_pair(1.0, 1.0, 8.0)
        assert p1[2] == pytest.approx(a)
        assert p2[2] == pytest.approx(b)
        assert p1[0] == pytest.approx(b)
        assert p2[0] == pytest.approx(a)

    def test_wide_sigma_approaches_phase_space_factor(self):
        # constant momentum density leaves only the (p1 p2)^3 trajectory
        # factor, so the normalized curve tends to that pure shape
        g = PairGeometry(1.0, 1.0)
        t0 = characteristic_time(1.0, 1.0, 8.0)
        dt = np.linspace(-2 * t0, 2 * t0, 41)
        _, p1, p2, wide = coincidence_curve(g, PairModelParams(500.0, 100.0), 8.0, dt)
        _, _, _, narrow = coincidence_curve(g, PairModelParams(0.5, 10.0), 8.0, dt)
        ps = (p1 * p2) ** 3
        ps = ps / ps.max()
        assert np.max(np.abs(wide - ps)) < 5e-3
        assert np.max(np.abs(narrow - ps)) > 0.1


    @pytest.mark.parametrize("geometry, params, E", [
        (PairGeometry(1.0, 1.0), PairModelParams(1.0, 10.0), 8.0),
        (CM_SCALE_GEOMETRY, MODEL_PARAMS, CM_SCALE_ENERGY),
        (PairGeometry(2.0, 0.5), PairModelParams(0.4, 3.0), 1.5),
    ])
    def test_matches_per_point_loop(self, geometry, params, E):
        t0 = characteristic_time(geometry.mass, geometry.distance, E)
        dt = np.linspace(-6 * t0, 6 * t0, 121)
        _, p1, p2, prob = coincidence_curve(geometry, params, E, dt, normalize=False)
        ref = curve_loop_reference(geometry, params, E, dt)
        np.testing.assert_allclose(np.array([p1, p2, prob]), ref, rtol=1e-14, atol=0)


class TestFit:
    @pytest.mark.parametrize("kappa, log_scale", [(-0.24, 0.0), (0.5, 3.0), (-3.0, -1.0)])
    def test_reduced_curve_matches_per_point_loop(self, kappa, log_scale):
        ds = synthesize_dataset(PairGeometry(1.3, 0.8), MODEL_PARAMS, 5.0, 5000, seed=4)
        t0 = characteristic_time(1.3, 0.8, 5.0)
        p1, p2 = invert_delays_pair(ds.delta_t / t0, 1.3, 5.0)
        np.testing.assert_allclose(_reduced_curve(p1, p2, 0.8, kappa, log_scale),
                                   reduced_curve_loop_reference(ds, kappa, log_scale),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("x", [(-0.38, 0.0), (-0.23, 0.9), (-0.1, 4.0)])
    def test_jacobian_matches_central_differences(self, x):
        ds = synthesize_dataset(PairGeometry(1.0, 1.0), MODEL_PARAMS, 8.0, 7371.527, seed=5)
        t0 = characteristic_time(1.0, 1.0, 8.0)
        p1, p2 = invert_delays_pair(ds.delta_t / t0, 1.0, 8.0)
        w = 1.0 / np.sqrt(np.maximum(ds.counts, 1.0))
        resid, jac = _weighted_residuals(p1, p2, 1.0, ds.counts, w)
        x = np.array(x)
        central = np.empty((len(ds.counts), 2))
        for j in range(2):
            step = np.zeros(2)
            step[j] = 1e-6 * max(1.0, abs(x[j]))
            central[:, j] = (resid(x + step) - resid(x - step)) / (2.0 * step[j])
        np.testing.assert_allclose(jac(x), central, rtol=1e-7, atol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_difference_fit(self, seed):
        """The exact-Jacobian fit lands where a finite-difference fit of the
        same residual does, and fits no worse."""
        from scipy.optimize import least_squares

        g, E, initial = PairGeometry(1.0, 1.0), 8.0, PairModelParams(0.8, 12.0)
        ds = synthesize_dataset(g, MODEL_PARAMS, E, 7371.527, seed=seed)
        params, _, report = fit_pair_model(ds, initial)

        t0 = characteristic_time(g.mass, g.distance, E)
        p1, p2 = invert_delays_pair(ds.delta_t / t0, g.mass, E)
        w = 1.0 / np.sqrt(np.maximum(ds.counts, 1.0))
        resid, _ = _weighted_residuals(p1, p2, g.distance, ds.counts, w)
        kappa0 = _kappa(initial)
        scale0 = math.log(ds.counts.max() / _reduced_curve(p1, p2, g.distance, kappa0, 0.0).max())
        ref = least_squares(resid, x0=[kappa0, scale0], jac="2-point", method="lm",
                            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        kappa_ref = ref.x[0]
        sigma_ref = 0.5 / math.sqrt(1.0 / initial.Sigma ** 2 - kappa_ref)
        assert report["kappa"] == pytest.approx(kappa_ref, rel=1e-7, abs=0)
        assert params.sigma == pytest.approx(sigma_ref, rel=1e-7, abs=0)
        assert report["chi2"] <= float(np.sum(ref.fun ** 2)) * (1.0 + 1e-12)

    def test_noiseless_recovery(self):
        g = PairGeometry(1.0, 1.0)
        E = 8.0
        t0 = characteristic_time(1.0, 1.0, E)
        dt = np.linspace(-6 * t0, 6 * t0, 121)
        _, _, _, prob = coincidence_curve(g, PairModelParams(1.0, 10.0), E, dt,
                                          normalize=False)
        counts = 200.0 * prob / prob.max()
        ds = CoincidenceDataset(dt, counts, g, E)
        params, scale, report = fit_pair_model(ds, PairModelParams(0.8, 10.0))
        assert params.sigma == pytest.approx(1.0, abs=1e-6)
        assert params.Sigma == pytest.approx(10.0, abs=1e-6)
        assert scale > 0

    def test_poisson_recovery(self):
        g = PairGeometry(1.0, 1.0)
        E = 8.0
        ds = synthesize_dataset(g, PairModelParams(1.0, 10.0), E,
                                n_events=20000, seed=42)
        params, _, report = fit_pair_model(ds, PairModelParams(0.8, 10.0))
        assert params.sigma == pytest.approx(1.0, rel=0.10)
        assert report["chi2_per_dof"] < 2.0

    def test_chi2_near_unity_large_counts(self):
        g = PairGeometry(1.0, 1.0)
        E = 8.0
        ds = synthesize_dataset(g, PairModelParams(1.0, 10.0), E,
                                n_events=2_000_000, seed=7)
        _, _, report = fit_pair_model(ds, PairModelParams(0.9, 10.0))
        assert report["chi2_per_dof"] == pytest.approx(1.0, abs=0.25)

    def test_covariance_flags_flat_direction(self):
        g = PairGeometry(1.0, 1.0)
        ds = synthesize_dataset(g, PairModelParams(1.0, 10.0), 8.0,
                                n_events=20000, seed=3)
        params, _, report = fit_pair_model(ds, PairModelParams(0.8, 10.0))
        cov = np.array(report["covariance"])
        assert cov.shape == (3, 3)
        # the center-of-mass width is unconstrained by back-to-back data
        assert cov[1, 1] > cov[0, 0]

    def test_inverts_delays_once(self, monkeypatch):
        ds = synthesize_dataset(PairGeometry(1.0, 1.0), MODEL_PARAMS, 8.0,
                                n_events=20000, seed=3)
        taus = []

        def counting(tau, *args):
            taus.append(tau)
            return invert_delays_pair(tau, *args)

        monkeypatch.setattr(coincidence, "invert_delays_pair", counting)
        fit_pair_model(ds, PairModelParams(0.8, 10.0))
        assert len(taus) == 1 and taus[0].shape == ds.delta_t.shape

    def test_too_few_rows(self):
        g = PairGeometry(1.0, 1.0)
        ds = CoincidenceDataset([0.0, 0.1, 0.2], [1.0, 2.0, 1.0], g, 8.0)
        with pytest.raises(FitError):
            fit_pair_model(ds, PairModelParams(1.0, 10.0))

    def test_empty_counts(self):
        g = PairGeometry(1.0, 1.0)
        ds = CoincidenceDataset(np.linspace(0, 1, 11), np.zeros(11), g, 8.0)
        with pytest.raises(FitError):
            fit_pair_model(ds, PairModelParams(1.0, 10.0))


class TestSynthesis:
    def test_deterministic_for_seed(self):
        g = PairGeometry(1.0, 1.0)
        a = synthesize_dataset(g, MODEL_PARAMS, 8.0, 5000, seed=11)
        b = synthesize_dataset(g, MODEL_PARAMS, 8.0, 5000, seed=11)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.delta_t, b.delta_t)

    def test_seed_changes_counts(self):
        g = PairGeometry(1.0, 1.0)
        a = synthesize_dataset(g, MODEL_PARAMS, 8.0, 5000, seed=11)
        b = synthesize_dataset(g, MODEL_PARAMS, 8.0, 5000, seed=12)
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("n_events", [1e30, math.nan, 0.0])
    def test_rejects_events_outside_sampler_range(self, n_events):
        with pytest.raises(DomainError):
            synthesize_dataset(PairGeometry(1.0, 1.0), MODEL_PARAMS, 8.0, n_events, seed=1)

    def test_largest_event_count_samples(self):
        ds = synthesize_dataset(PairGeometry(1.0, 1.0), MODEL_PARAMS, 8.0, MAX_EVENTS, seed=1)
        assert ds.counts.sum() == pytest.approx(MAX_EVENTS, rel=1e-6)

    def test_total_counts_near_target(self):
        g = PairGeometry(1.0, 1.0)
        ds = synthesize_dataset(g, MODEL_PARAMS, 8.0, 50000, seed=5)
        assert ds.counts.sum() == pytest.approx(50000, rel=0.02)

    def test_default_grid(self):
        g = PairGeometry(1.0, 1.0)
        ds = synthesize_dataset(g, MODEL_PARAMS, 8.0, 1000, seed=0)
        t0 = characteristic_time(1.0, 1.0, 8.0)
        assert len(ds.delta_t) == 121
        assert ds.delta_t[0] == pytest.approx(-6 * t0)
        assert ds.delta_t[-1] == pytest.approx(6 * t0)


class TestSerialization:
    def test_dataset_round_trip(self, tmp_path):
        g = PairGeometry(1.0, 1.0)
        ds = synthesize_dataset(g, MODEL_PARAMS, 8.0, 5000, seed=1)
        path = tmp_path / "ds.csv"
        dataset_to_csv(ds, path, comment="seed 1")
        back = dataset_from_csv(path, g, 8.0)
        assert np.allclose(back.delta_t, ds.delta_t)
        assert np.array_equal(back.counts, ds.counts)
        text = path.read_text()
        assert text.startswith("# seed 1\ndelta_t_au,count\n")

    def test_dataset_bytes_deterministic(self, tmp_path):
        g = PairGeometry(1.0, 1.0)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        dataset_to_csv(synthesize_dataset(g, MODEL_PARAMS, 8.0, 5000, seed=9), p1)
        dataset_to_csv(synthesize_dataset(g, MODEL_PARAMS, 8.0, 5000, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_curve_csv(self, tmp_path):
        dt = np.array([-1.0, 0.0, 1.0])
        _, p1, p2, prob = coincidence_curve(PairGeometry(1.0, 1.0), MODEL_PARAMS, 8.0, dt)
        path = tmp_path / "curve.csv"
        curve_to_csv(dt, p1, p2, prob, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "delta_t_au,p1_au,p2_au,probability"
        assert len(lines) == 4
        row = lines[2].split(",")
        assert float(row[0]) == 0.0
        assert float(row[3]) == pytest.approx(1.0)

    def test_fit_report_json(self, tmp_path):
        g = PairGeometry(1.0, 1.0)
        ds = synthesize_dataset(g, MODEL_PARAMS, 8.0, 20000, seed=2)
        _, _, report = fit_pair_model(ds, PairModelParams(0.8, 10.0))
        path = tmp_path / "fit.json"
        fit_report_to_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["sigma"] == pytest.approx(report["sigma"])
        assert loaded["n_rows"] == 121

    @pytest.mark.parametrize("row", ["0.5,1,2", "0.5,abc", "0.5", "nan,3", "0.5,inf"])
    def test_malformed_row_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"delta_t_au,count\n0.0,4\n{row}\n")
        with pytest.raises(DomainError, match=r"bad\.csv:3:"):
            dataset_from_csv(path, PairGeometry(1.0, 1.0), 8.0)

    def test_dataset_validation(self):
        g = PairGeometry(1.0, 1.0)
        with pytest.raises(DomainError):
            CoincidenceDataset([0.0, 0.0], [1.0, 1.0], g, 8.0)
        with pytest.raises(DomainError):
            CoincidenceDataset([0.0, 1.0], [1.0, -1.0], g, 8.0)

    @pytest.mark.parametrize("delta_t, counts", [
        (np.linspace(-1.0, 1.0, 6), [1.0, 2.0, math.nan, 2.0, 1.0, 0.0]),
        (np.linspace(-1.0, 1.0, 6), [1.0, 2.0, math.inf, 2.0, 1.0, 0.0]),
        (np.linspace(-1.0, 1.0, 6), [1.0, 2.0, 3.0, 2.0, 1.0]),
        (np.linspace(-1.0, 1.0, 5), [1.0, 2.0, 3.0, 2.0, 1.0, 0.0]),
        ([-1.0, -0.5, math.nan, 0.5, 1.0], [1.0, 2.0, 3.0, 2.0, 1.0]),
        ([-1.0, -0.5, 0.0, 0.5, math.inf], [1.0, 2.0, 3.0, 2.0, 1.0]),
        ([[-1.0, -0.5, 0.0, 0.5, 1.0]], [[1.0, 2.0, 3.0, 2.0, 1.0]]),
        ([-1.0, -0.5, 0.0, 0.5, 1.0], [[1.0, 2.0, 3.0, 2.0, 1.0]]),
    ])
    def test_dataset_rejects_bad_arrays(self, delta_t, counts):
        with pytest.raises(DomainError):
            CoincidenceDataset(delta_t, counts, PairGeometry(1.0, 1.0), 8.0)
