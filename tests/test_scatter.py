import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itkit.classical import characteristic_action_W_free, density_D_free, time_of_flight_free, van_vleck_time
from itkit.errors import CausticError, CoverageError, DegenerateInputError, DomainError, SingularityError
from itkit.scatter import (
    amplitude_from_momentum_wfn,
    born_amplitude,
    characteristic_time_N,
    cross_section,
    density_D_N,
    detection_probability_ti,
    green_free,
    green_hyper_asymptotic,
    green_hyper_hankel,
    green_scan_to_csv,
    green_semiclassical,
    hyper_action,
    hyper_config,
    n_particle_amplitude,
    ti_it_density,
    vv_hyper,
)

BORN_GAUSSIAN_Q0 = -0.01 * math.pi ** 0.5 / 2.0  # -(m V0 a^3 sqrt(pi) / 2) at V0=0.01, a=1


def gaussian_potential(x, y, z):
    return 0.01 * np.exp(-(x ** 2 + y ** 2 + z ** 2))


def born_dense_reference(potential, p_in, p_out, m=1.0, extent=14.0, n=64):
    """The n^3 phase-and-weight sum that the separable quadrature replaced."""
    q = np.asarray(p_in, dtype=float) - np.asarray(p_out, dtype=float)
    ax = np.linspace(-extent / 2.0, extent / 2.0, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    phase = np.exp(1j * (q[0] * x + q[1] * y + q[2] * z))
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    weight = w[:, None, None] * w[None, :, None] * w[None, None, :]
    integral = np.sum(potential(x, y, z) * phase * weight) * (ax[1] - ax[0]) ** 3
    return -(m / (2.0 * math.pi)) * integral


class TestGreenFree:
    def test_magnitude(self):
        g = green_free([1.0, 0, 0], [0, 0, 0], 0.5, 1.0)
        assert abs(g) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)

    def test_phase_advance(self):
        E, dR = 0.5, 0.3
        g1 = green_free([1.0, 0, 0], [0, 0, 0], E)
        g2 = green_free([1.3, 0, 0], [0, 0, 0], E)
        p = math.sqrt(2 * E)
        dphase = np.angle(g2 * 1.3) - np.angle(g1 * 1.0)
        assert dphase % (2 * math.pi) == pytest.approx(p * dR, abs=1e-10)

    def test_satisfies_helmholtz(self):
        # (laplacian + p^2) G = 0 away from the source, by 5-point stencil
        E, m = 0.5, 1.0
        p2 = 2 * m * E
        h = 1e-3

        def g(x, y, z):
            return green_free([x, y, z], [0, 0, 0], E, m)

        x0, y0, z0 = 1.1, 0.4, -0.3
        lap = (
            g(x0 + h, y0, z0) + g(x0 - h, y0, z0)
            + g(x0, y0 + h, z0) + g(x0, y0 - h, z0)
            + g(x0, y0, z0 + h) + g(x0, y0, z0 - h)
            - 6 * g(x0, y0, z0)
        ) / h ** 2
        residual = lap + p2 * g(x0, y0, z0)
        assert abs(residual) / abs(g(x0, y0, z0)) < 1e-4

    def test_coincident_points_rejected(self):
        # one typed error for R = 0 across the free closed forms
        for closed_form in (green_free, density_D_free, time_of_flight_free):
            with pytest.raises(SingularityError, match="coincident"):
                closed_form([0, 0, 0], [0, 0, 0], 0.5)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(DomainError):
            green_free([1, 0, 0], [0, 0, 0], 0.0)


class TestGreenSemiclassical:
    def test_reproduces_exact_free(self):
        for R in (0.5, 1.0, 3.7):
            for E in (0.2, 0.5, 2.0):
                w = characteristic_action_W_free([R, 0, 0], [0, 0, 0], E)
                d = density_D_free([R, 0, 0], [0, 0, 0], E)
                g = green_semiclassical(w, d)
                g0 = green_free([R, 0, 0], [0, 0, 0], E)
                assert g == pytest.approx(g0, abs=1e-12 * abs(g0))

    def test_example_value(self):
        g = green_semiclassical(1.0, 1.0)
        assert g == pytest.approx(-(1 / (2 * math.pi)) * np.exp(1j), abs=1e-14)

    def test_sqrt_density_law(self):
        g1 = green_semiclassical(1.0, 1.0)
        g4 = green_semiclassical(1.0, 4.0)
        assert abs(g4) == pytest.approx(2 * abs(g1), rel=1e-12)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(CausticError):
            green_semiclassical(1.0, 0.0)


class TestTiItDensity:
    def test_value(self):
        assert ti_it_density(0.5, 1.0, 1e3) == pytest.approx(5e-10, rel=1e-12)

    def test_radial_scaling(self):
        assert ti_it_density(0.5, 1.0, 20.0) == pytest.approx(
            ti_it_density(0.5, 1.0, 10.0) / 8.0, rel=1e-12)

    def test_matches_amplitude_route(self):
        # 1/r^2 |f|^2 equals the fixed-energy imaging density when
        # |f|^2 = m^2 |dT/dE|^-1 |Phi|^2 on the same trajectory bundle
        R, E, m, phi2 = 500.0, 0.8, 1.0, 0.37
        p = math.sqrt(2 * m * E)
        _, dT_dE = time_of_flight_free(R, 0.0, E, m)
        f2 = amplitude_from_momentum_wfn(phi2, m, dT_dE)
        assert f2 / R ** 2 == pytest.approx(ti_it_density(phi2, p, R), rel=1e-10)


class TestAmplitude:
    def test_zero_density(self):
        assert amplitude_from_momentum_wfn(0.0, 1.0, -0.5) == 0.0

    def test_zero_derivative_rejected(self):
        with pytest.raises(DegenerateInputError):
            amplitude_from_momentum_wfn(1.0, 1.0, 0.0)

    def test_cd_identity(self):
        # C(T) |Phi|^2 = D(E) |f|^2 / m^2 with all four factors independent
        R, E, m, phi2 = 200.0, 0.5, 1.0, 0.11
        T, dT_dE = time_of_flight_free(R, 0.0, E, m)
        c = van_vleck_time(m, T, 3)
        d = density_D_N(hyper_config([m], m, E), R)
        f2 = amplitude_from_momentum_wfn(phi2, m, dT_dE)
        assert c * phi2 == pytest.approx(d * f2 / m ** 2, rel=1e-8)


class TestBorn:
    def test_forward_gaussian_oracle(self):
        p = np.array([0.0, 0.0, 1.0])
        f = born_amplitude(gaussian_potential, p, p, 1.0)
        assert f.imag == pytest.approx(0.0, abs=1e-12)
        assert f.real == pytest.approx(BORN_GAUSSIAN_Q0, rel=1e-6)
        assert f.real == pytest.approx(-0.0088623, abs=5e-8)

    def test_zero_potential(self):
        f = born_amplitude(lambda x, y, z: 0.0 * x * y * z, [0, 0, 1.0], [0, 0, 1.0])
        assert f == 0.0

    def test_forward_maximal(self):
        p = 1.0
        f0 = born_amplitude(gaussian_potential, [0, 0, p], [0, 0, p])
        f90 = born_amplitude(gaussian_potential, [0, 0, p], [p, 0, 0])
        assert abs(f0) > abs(f90)
        # analytic transform: |f(q)| = |f(0)| exp(-q^2/4) for a = 1
        q2 = 2 * p ** 2
        assert abs(f90) == pytest.approx(abs(f0) * math.exp(-q2 / 4), rel=1e-4)

    def test_inelastic_rejected(self):
        with pytest.raises(DomainError):
            born_amplitude(gaussian_potential, [0, 0, 1.0], [0, 0, 2.0])

    def test_matches_dense_sum(self):
        # criterion 6's 19 angles, off-centre so that no component vanishes
        def potential(x, y, z):
            return 0.01 * np.exp(-((x - 0.3) ** 2 + (y + 0.2) ** 2 + (z - 0.1) ** 2))

        p_in = np.array([0.0, 0.0, 1.0])
        for th in np.linspace(0.0, math.pi, 19):
            p_out = np.array([math.sin(th), 0.0, math.cos(th)])
            ref = born_dense_reference(potential, p_in, p_out)
            assert abs(born_amplitude(potential, p_in, p_out) - ref) <= 1e-13 * abs(ref)

    def test_stacked_matches_single_calls(self):
        calls = []

        def potential(x, y, z):
            calls.append(1)
            return 0.01 * np.exp(-((x - 0.3) ** 2 + (y + 0.2) ** 2 + (z - 0.1) ** 2))

        th = np.linspace(0.0, math.pi, 37)
        p_out = np.stack([np.sin(th), np.zeros_like(th), np.cos(th)], axis=-1)
        stacked = born_amplitude(potential, [0.0, 0.0, 1.0], p_out)
        assert stacked.shape == (37,) and len(calls) == 1
        single = [born_amplitude(potential, [0.0, 0.0, 1.0], q) for q in p_out]
        assert all(isinstance(f, complex) for f in single)
        np.testing.assert_allclose(stacked, single, rtol=1e-13, atol=0)
        for k in (0, 18, 36):
            ref = born_dense_reference(potential, [0.0, 0.0, 1.0], p_out[k])
            assert abs(stacked[k] - ref) <= 1e-13 * abs(ref)
        np.testing.assert_array_equal(cross_section(stacked), np.abs(stacked) ** 2)

    def test_stacked_inelastic_row_rejected(self):
        p_out = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        with pytest.raises(DomainError):
            born_amplitude(gaussian_potential, [0, 0, 1.0], p_out)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [-6.5, 6.5])
    def test_bump_at_each_face_rejected(self, axis, side):
        centre = np.zeros(3)
        centre[axis] = side

        def bump(x, y, z):
            return 0.01 * np.exp(-((x - centre[0]) ** 2 + (y - centre[1]) ** 2
                                   + (z - centre[2]) ** 2))

        with pytest.raises(CoverageError):
            born_amplitude(bump, [0, 0, 1.0], [1.0, 0, 0])

    @pytest.mark.parametrize("potential", [
        lambda x, y, z: 0.01 + 0.0 * x,  # constant, broadcast shape (n, 1, 1)
        lambda x, y, z: 0.01,  # scalar
        lambda x, y, z: 0.01 * np.exp(-x * x),  # decays along x only
    ])
    def test_broadcast_potential_checked(self, potential):
        with pytest.raises(CoverageError):
            born_amplitude(potential, [0, 0, 1.0], [1.0, 0, 0])


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@st.composite
def _born_scans(draw):
    """(potential, p_in, p_out) across the geometries the factorised sum tells apart: a
    scan in each coordinate plane (one distinct component on its normal axis), random
    directions, components repeated on any axis, and a single p_out; V off-centre and
    anisotropic, of either sign."""
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    p = draw(floats(0.2, 2.0))
    n = draw(st.integers(1, 8))
    p_in = p * _unit(np.array(draw(st.tuples(*[floats(-1.0, 1.0)] * 3).filter(
        lambda v: np.linalg.norm(v) > 0.1))))
    axis = draw(st.integers(0, 2))
    others = [i for i in range(3) if i != axis]
    kind = draw(st.sampled_from(["plane", "random", "repeated", "single"]))
    angles = np.array(draw(st.lists(floats(0.0, 2.0 * math.pi), min_size=n, max_size=n)))
    p_out = np.zeros((n, 3))
    if kind == "plane":
        p_out[:, others[0]], p_out[:, others[1]] = p * np.sin(angles), p * np.cos(angles)
    elif kind == "repeated":
        shared = draw(st.lists(floats(-0.9, 0.9), min_size=1, max_size=3))
        c = p * np.array([shared[i % len(shared)] for i in range(n)])
        rho = np.sqrt(p * p - c * c)
        p_out[:, axis], p_out[:, others[0]], p_out[:, others[1]] = (
            c, rho * np.sin(angles), rho * np.cos(angles))
    else:
        rows = draw(st.lists(st.tuples(*[floats(-1.0, 1.0)] * 3).filter(
            lambda v: np.linalg.norm(v) > 0.1), min_size=n, max_size=n))
        p_out = p * _unit(np.array(rows))
        if kind == "single":
            p_out = p_out[0]
    v0 = draw(floats(0.01, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    centre = draw(st.tuples(*[floats(-1.0, 1.0)] * 3))
    width = draw(st.tuples(*[floats(0.5, 1.2)] * 3))

    def potential(x, y, z):
        return v0 * np.exp(-sum(((u - c) / w) ** 2 for u, c, w in zip((x, y, z), centre, width)))

    return potential, p_in, p_out


class TestBornFactorised:
    @given(_born_scans())
    @settings(deadline=None)
    def test_matches_dense_sum(self, scan):
        # the factorised sum against the n^3 phase-and-weight sum, one momentum at a time
        potential, p_in, p_out = scan
        f = np.atleast_1d(born_amplitude(potential, p_in, p_out))
        ref = np.array([born_dense_reference(potential, p_in, q) for q in np.atleast_2d(p_out)])
        assert f.shape == ref.shape
        assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_planar_scan_memory(self):
        # 4,096 angles in the xz plane: the summed-over-z (64, 64, k) blocks peaked near
        # 150 MB; one slab per distinct y component and k x 64 partial sums stay far below
        th = np.linspace(0.0, math.pi, 4096)
        p_out = np.stack([np.sin(th), np.zeros_like(th), np.cos(th)], axis=-1)
        tracemalloc.start()
        try:
            f = born_amplitude(gaussian_potential, [0.0, 0.0, 1.0], p_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.shape == (4096,)
        assert peak < 40e6


class TestCrossSection:
    def test_square_and_phase_invariance(self):
        f = -0.0088623
        assert cross_section(f) == pytest.approx(7.854e-5, rel=1e-3)
        assert cross_section(f * np.exp(0.7j)) == pytest.approx(cross_section(f), rel=1e-12)
        assert cross_section(0.0) == 0.0

    def test_detection_probability(self):
        dp = detection_probability_ti(-0.0088623, 2.48e-4, 1.0, 1.0, 1.0, 1e-3)
        assert dp == pytest.approx(2.48e-4 * 7.854e-5 * 1e-3, rel=1e-3)
        assert detection_probability_ti(1.0, 0.0, 1.0, 1.0, 1.0, 1.0) == 0.0


class TestHyperConfig:
    def test_example(self):
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)
        assert cfg.hyper_radius([[1, 0, 0], [0, 1, 0]]) == pytest.approx(math.sqrt(2))
        assert cfg.eta == pytest.approx(1.0)
        assert cfg.alpha == pytest.approx(2.0)
        assert cfg.hyper_momentum == pytest.approx(1.0)

    def test_single_particle_reduction(self):
        cfg = hyper_config([1.3], 1.3, 0.5)
        assert cfg.alpha == pytest.approx(0.5)
        assert cfg.hyper_radius([[2, 0, 0]]) == pytest.approx(2.0)

    def test_mass_weighted_separation(self):
        cfg = hyper_config([1.0, 2.0], 0.7, 1.0)
        r = [[1, 0, 0], [0, 1, 0]]
        rp = [[0, 0, 0], [0, 0, 0]]
        lhs = 1.0 * 1.0 + 2.0 * 1.0
        assert 0.7 * cfg.hyper_separation(r, rp) ** 2 == pytest.approx(lhs)

    def test_norms_scale_before_they_square(self):
        # squaring 1e200 first overflowed, though the norm is representable
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)
        assert cfg.hyper_radius([[1e200, 0, 0], [0, 0, 0]]) == 1e200
        assert cfg.hyper_separation([[3e200, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, -4e200, 0]]) \
            == pytest.approx(5e200, rel=1e-15)
        assert characteristic_time_N([1.0, 2.0], [1e200, 1.0], 0.5) == 1e200
        # a weight over the divisor beyond the float range, with a representable result
        assert hyper_config([1e300, 1.0], 1e-10, 0.5).hyper_radius([[0, 0, 0], [1, 0, 0]]) \
            == pytest.approx(1e5, rel=1e-15)
        assert characteristic_time_N([1e10], [1.0], 1e-300) == \
            pytest.approx(math.sqrt(5e9) * 1e150, rel=1e-15)
        # beyond the float range: a DomainError that names the quantity
        with pytest.raises(DomainError, match="mass-weighted distance"):
            cfg.hyper_radius([[1.5e308, 0, 0], [0, 1.5e308, 0]])
        with pytest.raises(DomainError, match="mass-weighted distance"):
            cfg.hyper_separation([[1e308, 0, 0], [0, 0, 0]], [[-1e308, 0, 0], [0, 0, 0]])
        with pytest.raises(DomainError, match="characteristic time"):
            characteristic_time_N([1.0], [1e300], 1e-300)

    @pytest.mark.parametrize("masses, mu, E", [
        ([1.0, math.nan], 1.0, 0.5), ([1.0, math.inf], 1.0, 0.5), ([1.0, 0.0], 1.0, 0.5),
        ([1.0, 1.0], math.nan, 0.5), ([1.0, 1.0], math.inf, 0.5), ([1.0, 1.0], -1.0, 0.5),
        ([1.0, 1.0], 1.0, math.nan), ([1.0, 1.0], 1.0, math.inf), ([1.0, 1.0], 1.0, 0.0),
    ])
    def test_rejects_non_positive_or_non_finite(self, masses, mu, E):
        with pytest.raises(DomainError):
            hyper_config(masses, mu, E)


class TestHyperQuantities:
    def test_characteristic_time(self):
        assert characteristic_time_N([1.0, 1.0], [1.0, 1.0], 1.0) == pytest.approx(1.0)
        # N = 1 reduction to m R / p'
        R, E, m = 2.0, 0.5, 1.0
        T, _ = time_of_flight_free(R, 0.0, E, m)
        assert characteristic_time_N([m], [R], E) == pytest.approx(T)

    def test_time_is_action_derivative(self):
        cfg_hi = hyper_config([1.0, 1.0], 1.0, 1.0 + 1e-6)
        cfg_lo = hyper_config([1.0, 1.0], 1.0, 1.0 - 1e-6)
        # fixed lab displacements => separation changes with mu only, not E
        sep = 3.0
        dW = (hyper_action(cfg_hi, sep) - hyper_action(cfg_lo, sep)) / 2e-6
        # sum m R^2 = mu sep^2
        T = characteristic_time_N([1.0], [sep], 1.0)
        assert dW == pytest.approx(T, rel=1e-6)

    def test_hyper_action_value(self):
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)
        assert hyper_action(cfg, 3.0) == pytest.approx(3.0)

    def test_vv_hyper(self):
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)  # P' = 1
        assert vv_hyper(cfg, 2.0) == pytest.approx(2.0 ** -6)
        # equal product form with common flight time T = mu dR / P'
        T = 1.0 * 2.0 / 1.0
        assert vv_hyper(cfg, 2.0) == pytest.approx(van_vleck_time([1.0, 1.0], [T, T], 3))

    def test_density_values(self):
        cfg1 = hyper_config([1.0], 1.0, 0.5)
        assert density_D_N(cfg1, 2.0) == pytest.approx(0.25)
        cfg2 = hyper_config([1.0, 1.0], 1.0, 0.5)
        assert density_D_N(cfg2, 10.0) == pytest.approx(1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_density_where_eta_leaves_the_float_range(self):
        # eta = 10^900 and (P / dR)^897 = 10^-897 each leave the float range, and
        # eta alone once made D NaN and a DomainError; D = 10^900 / 100 * 10^-897
        cfg = hyper_config([10.0] * 300, 1.0, 0.5)
        assert density_D_N(cfg, 10.0) == pytest.approx(10.0, rel=1e-14)

    def test_density_matches_fd_derivative(self):
        # D = -(dT/dE) vv_hyper with T(E) at fixed lab geometry
        masses = [1.0, 2.0]
        disp = [1.5, 0.7]
        E = 0.8
        h = 1e-6
        dT_dE = (characteristic_time_N(masses, disp, E + h)
                 - characteristic_time_N(masses, disp, E - h)) / (2 * h)
        mu = 1.0
        cfg = hyper_config(masses, mu, E)
        sep = math.sqrt(sum(m * d ** 2 for m, d in zip(masses, disp)) / mu)
        assert -dT_dE * vv_hyper(cfg, sep) == pytest.approx(density_D_N(cfg, sep), rel=1e-8)


class TestHyperGreens:
    def test_n1_reductions(self):
        E, m, R = 0.5, 1.0, 1.0
        g0 = green_free([R, 0, 0], [0, 0, 0], E, m)
        cfg = hyper_config([m], m, E)
        assert green_hyper_asymptotic(cfg, R) == pytest.approx(g0, abs=1e-12 * abs(g0))
        assert green_hyper_hankel(cfg, R) == pytest.approx(g0, abs=1e-10 * abs(g0))

    def test_radial_falloff(self):
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)
        g1 = green_hyper_asymptotic(cfg, 100.0)
        g2 = green_hyper_asymptotic(cfg, 200.0)
        assert abs(g1) / abs(g2) == pytest.approx(2 ** 2.5, rel=1e-10)

    def test_hankel_approaches_asymptotic(self):
        # the stationary-phase form is the leading Hankel asymptotic; its
        # first correction is a pure phase, so compare magnitudes
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)  # P' = 1
        zs = [100.0, 300.0, 1000.0, 3000.0, 10000.0]
        errs = []
        for z in zs:
            gh = green_hyper_hankel(cfg, z)
            ga = green_hyper_asymptotic(cfg, z)
            errs.append(abs(abs(gh) - abs(ga)) / abs(gh))
        assert errs[0] < 0.01
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_coincident_rejected(self):
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)
        with pytest.raises(SingularityError):
            green_hyper_hankel(cfg, 0.0)
        with pytest.raises(SingularityError):
            green_hyper_asymptotic(cfg, 0.0)

    @pytest.mark.parametrize("separation", [math.nan, math.inf])
    @pytest.mark.parametrize("green", [green_hyper_hankel, green_hyper_asymptotic])
    def test_non_finite_separation_rejected(self, green, separation):
        with pytest.raises(DomainError):
            green(hyper_config([1.0, 1.0], 1.0, 0.5), separation)


class TestMuIndependence:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_green_magnitudes(self, mu):
        masses = [1.0, 1.0]
        E = 0.5
        positions = np.array([[30.0, 0, 0], [0, 40.0, 0]])
        origin = np.zeros((2, 3))
        ref_cfg = hyper_config(masses, 1.0, E)
        ref_sep = ref_cfg.hyper_separation(positions, origin)
        cfg = hyper_config(masses, mu, E)
        sep = cfg.hyper_separation(positions, origin)
        for fn in (green_hyper_hankel, green_hyper_asymptotic):
            assert abs(fn(cfg, sep)) == pytest.approx(abs(fn(ref_cfg, ref_sep)), rel=1e-10)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_lab_density(self, mu):
        # dp'/dr in lab variables is vv_hyper and must not depend on mu
        masses = [1.0, 2.0]
        E = 0.7
        positions = np.array([[10.0, 0, 0], [0, 5.0, 0]])
        origin = np.zeros((2, 3))
        cfg = hyper_config(masses, mu, E)
        ref = hyper_config(masses, 1.0, E)
        sep = cfg.hyper_separation(positions, origin)
        ref_sep = ref.hyper_separation(positions, origin)
        assert vv_hyper(cfg, sep) == pytest.approx(vv_hyper(ref, ref_sep), rel=1e-10)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_amplitude_observable(self, mu):
        # the detector-plane density |f|^2 / R^(3N-1) is the mu-invariant
        # combination carried by the N-particle amplitude
        masses = [1.0, 1.0]
        E = 0.5
        positions = np.array([[50.0, 0, 0], [0, 50.0, 0]])
        origin = np.zeros((2, 3))
        m_lab = 0.013 + 0.002j  # fixed lab-frame matrix element

        def observable(mu_val):
            cfg = hyper_config(masses, mu_val, E)
            sep = cfg.hyper_separation(positions, origin)
            f = n_particle_amplitude(math.sqrt(cfg.eta) * m_lab, cfg)
            return abs(f) ** 2 / sep ** (3 * cfg.n_particles - 1)

        assert observable(mu) == pytest.approx(observable(1.0), rel=1e-10)


class TestNParticleAmplitude:
    def test_n1_prefactor(self):
        cfg = hyper_config([1.0], 1.0, 0.5)
        f = n_particle_amplitude(1.0, cfg)
        assert f == pytest.approx(-math.sqrt(2 * math.pi), rel=1e-12)

    def test_zero_matrix_element(self):
        cfg = hyper_config([1.0, 1.0], 1.0, 0.5)
        assert n_particle_amplitude(0.0, cfg) == 0.0


def test_green_scan_csv(tmp_path):
    rows = [(1.0, 0.5, green_free([1, 0, 0], [0, 0, 0], 0.5), "exact-free")]
    path = tmp_path / "greens.csv"
    green_scan_to_csv(rows, path, comment="scan")
    lines = path.read_text().splitlines()
    assert lines[1] == "r_au,energy_au,re,im,form"
    assert lines[2].endswith("exact-free")
