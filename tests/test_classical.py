import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itkit.classical import (
    Trajectory,
    action_S_tilde_uniform,
    action_S_uniform,
    characteristic_action_W_free,
    density_D_free,
    enumerate_trajectories_uniform_1d,
    stationary_momentum,
    time_of_flight_free,
    trajectories_to_csv,
    van_vleck_numeric,
    van_vleck_time,
)
from itkit.core import UniformField
from itkit.errors import CausticError, DomainError, ShapeError

finite = st.floats(-5.0, 5.0, allow_nan=False)
positive = st.floats(0.1, 10.0, allow_nan=False)


class TestActions:
    def test_free_values(self):
        assert action_S_uniform(2.0, 0.0, 1.0, 1.0) == pytest.approx(2.0)
        assert action_S_uniform(1.5, 1.5, 3.0, 2.0) == 0.0
        assert action_S_uniform(1.0, 0.0, 2.0, 2.0) == pytest.approx(0.5)

    def test_free_requires_positive_time(self):
        with pytest.raises(DomainError):
            action_S_uniform(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("F", [None, [0.5]])
    def test_requires_positive_finite_time(self, T, F):
        with pytest.raises(DomainError):
            action_S_uniform(1.0, 0.0, T, 1.0, F)
        with pytest.raises(DomainError):
            stationary_momentum(1.0, 0.0, T, 1.0, F)
        if T != 0.0:  # S~ is defined at T = 0
            with pytest.raises(DomainError):
                action_S_tilde_uniform(1.0, 1.0, T, 1.0, F)

    def test_tilde_free_values(self):
        assert action_S_tilde_uniform(0.0, 1.0, 2.0, 1.0) == pytest.approx(-1.0)
        assert action_S_tilde_uniform(3.0, 1.0, 0.0, 1.0) == pytest.approx(3.0)

    def test_uniform_reduces_to_free(self):
        s0 = action_S_uniform(1.3, -0.2, 2.1, 1.4)
        assert action_S_uniform(1.3, -0.2, 2.1, 1.4, 0.0) == pytest.approx(s0)

    def test_uniform_value(self):
        assert action_S_uniform(1.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5 + 0.5 - 1 / 24)

    @given(r=finite, rp=finite, T=positive, m=positive, F=finite)
    @settings(max_examples=50, deadline=None)
    def test_legendre_relation(self, r, rp, T, m, F):
        # S~(p', r) - p' r' = S(r, r') at the stationary momentum
        p = stationary_momentum(r, rp, T, m, [F])[0]
        lhs = action_S_tilde_uniform(r, p, T, m, F) - p * rp
        rhs = action_S_uniform(r, rp, T, m, F)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    @given(r=finite, rp=finite, T=positive, m=positive, F=finite)
    @settings(max_examples=50, deadline=None)
    def test_launch_point_is_tilde_gradient(self, r, rp, T, m, F):
        p = stationary_momentum(r, rp, T, m, [F])[0]
        h = 1e-6 * max(1.0, abs(p))
        ds_dp = (action_S_tilde_uniform(r, p + h, T, m, F)
                 - action_S_tilde_uniform(r, p - h, T, m, F)) / (2 * h)
        assert ds_dp == pytest.approx(rp, abs=2e-5 * max(1.0, abs(rp)))

    def test_launch_momentum_is_action_gradient(self):
        r, rp, T, m, F = 1.7, -0.4, 2.3, 1.2, 0.8
        p = stationary_momentum(r, rp, T, m, [F])[0]
        h = 1e-6
        dS_drp = (action_S_uniform(r, rp + h, T, m, F)
                  - action_S_uniform(r, rp - h, T, m, F)) / (2 * h)
        assert -dS_drp == pytest.approx(p, rel=1e-6)


class TestStationaryMomentum:
    def test_free(self):
        assert stationary_momentum(5.0, 0.0, 2.0, 1.0)[0] == pytest.approx(2.5)

    def test_uniform(self):
        assert stationary_momentum(1.0, 0.0, 1.0, 1.0, [1.0])[0] == pytest.approx(0.5)

    def test_feeds_valid_trajectory(self):
        r, rp, T, m, F = 3.0, -1.0, 2.0, 1.5, 0.3
        p = stationary_momentum(r, rp, T, m, [F])
        tr = Trajectory(
            r_start=[rp], p_start=p, t_start=0.0,
            r_end=[r], p_end=p + F * T, t_end=T,
            mass=m, field=UniformField([F]),
        )
        assert tr.duration == T


class TestVanVleck:
    def test_values(self):
        assert van_vleck_time(1.0, 2.0, 3) == pytest.approx(0.125)
        assert van_vleck_time(1.0, 2.0, 1) == pytest.approx(0.5)
        assert van_vleck_time([1.0, 1.0], [2.0, 4.0], 3) == pytest.approx(0.125 / 64)

    @pytest.mark.parametrize("m, T", [(1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
                                      (math.nan, 1.0), (-1.0, 1.0), ([1.0, math.nan], [1.0, 2.0])])
    def test_rejects_non_positive_or_non_finite(self, m, T):
        with pytest.raises(DomainError):
            van_vleck_time(m, T)

    def test_numeric_free(self):
        c = van_vleck_numeric(lambda r: stationary_momentum(r, [0.0], 2.0, 1.0), [1.0])
        assert c == pytest.approx(0.5, rel=1e-6)

    def test_numeric_field_independent(self):
        c = van_vleck_numeric(
            lambda r: stationary_momentum(r, [0.0], 2.0, 1.0, [1.0]), [1.0]
        )
        assert c == pytest.approx(0.5, rel=1e-6)

    def test_degenerate_bundle(self):
        with pytest.raises(CausticError):
            van_vleck_numeric(lambda r: np.array([1.0]), [1.0])


class TestEnergyDomain:
    def test_characteristic_action(self):
        assert characteristic_action_W_free(3.0, 0.0, 0.5, 1.0) == pytest.approx(3.0)

    def test_action_gradients_are_momenta(self):
        r = np.array([2.0, 1.0, -0.5])
        rp = np.array([0.1, -0.3, 0.2])
        E, m = 0.8, 1.3
        p = math.sqrt(2 * m * E)
        rhat = (r - rp) / np.linalg.norm(r - rp)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            dW_dr = (characteristic_action_W_free(r + e, rp, E, m)
                     - characteristic_action_W_free(r - e, rp, E, m)) / (2 * h)
            assert dW_dr == pytest.approx(p * rhat[i], rel=1e-5, abs=1e-8)
            dW_drp = (characteristic_action_W_free(r, rp + e, E, m)
                      - characteristic_action_W_free(r, rp - e, E, m)) / (2 * h)
            assert -dW_drp == pytest.approx(p * rhat[i], rel=1e-5, abs=1e-8)

    def test_time_of_flight(self):
        T, dT = time_of_flight_free(3.0, 0.0, 0.5, 1.0)
        assert T == pytest.approx(3.0)
        assert dT == pytest.approx(-3.0)
        T, dT = time_of_flight_free(1.0, 0.0, 2.0, 1.0)
        assert T == pytest.approx(0.5)
        assert dT == pytest.approx(-0.125)

    def test_flight_time_is_energy_derivative_of_action(self):
        R, E, m = 2.7, 0.9, 1.1
        T, _ = time_of_flight_free(R, 0.0, E, m)
        h = 1e-6
        dW_dE = (characteristic_action_W_free(R, 0.0, E + h, m)
                 - characteristic_action_W_free(R, 0.0, E - h, m)) / (2 * h)
        assert dW_dE == pytest.approx(T, rel=1e-6)

    def test_density_value_and_identity(self):
        assert density_D_free(2.0, 0.0, 1.0, 1.0) == pytest.approx(0.25)
        # D = -(dT/dE) * C with C at the flight time equals m^2/R^2
        R, E, m = 3.2, 0.7, 1.4
        T, dT_dE = time_of_flight_free(R, 0.0, E, m)
        d = -dT_dE * van_vleck_time(m, T, 3)
        assert d == pytest.approx(density_D_free(R, 0.0, E, m), rel=1e-8)

    def test_energy_plus_action_legendre(self):
        # S + E T = W on the energy-E free trajectory
        R, E, m = 2.0, 0.6, 1.0
        T, _ = time_of_flight_free(R, 0.0, E, m)
        s = action_S_uniform(R, 0.0, T, m)
        w = characteristic_action_W_free(R, 0.0, E, m)
        assert s + E * T == pytest.approx(w, rel=1e-10)


class TestEnumerate:
    def test_free_single_branch(self):
        trs = enumerate_trajectories_uniform_1d(0.0, 1.0, 0.5, 1.0, 0.0)
        assert len(trs) == 1
        assert trs[0].p_start[0] == pytest.approx(1.0)

    def test_two_branches_with_field(self):
        trs = enumerate_trajectories_uniform_1d(0.0, 1.0, 0.5, 1.0, 0.5)
        assert len(trs) == 2
        durations = sorted(t.duration for t in trs)
        assert durations[0] < durations[1]
        for tr in trs:
            e = tr.p_end[0] ** 2 / 2 - 0.5 * tr.r_end[0]
            assert e == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("F", [1e-12, -1e-12, 1e-10, 1e-8, -1e-9])
    def test_weak_field(self, F):
        # the short path is the free one to within F; the long one turns
        # around and returns after T ~ 2 m |p'| / |F|
        trs = enumerate_trajectories_uniform_1d(0.0, 1.0, 0.5, 1.0, F)
        assert len(trs) == 2
        short, long_ = trs
        exact = 2.0 / (1.0 + math.sqrt(1.0 + 2.0 * F))
        assert short.duration == pytest.approx(exact, rel=1e-14)
        assert short.p_start[0] == 1.0
        assert long_.duration == pytest.approx(2.0 / abs(F), rel=1e-6)
        assert long_.p_start[0] == -math.copysign(1.0, F)
        for tr in trs:
            e = tr.p_end[0] ** 2 / 2 - F * tr.r_end[0]
            assert e == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("F, durations", [
        (0.0, [1.0]),
        (1e-3, [0.99950049937587369, 2000.9995004993759]),
        (0.5, [0.82842712474619010, 4.8284271247461902]),
    ])
    def test_durations_pinned(self, F, durations):
        trs = enumerate_trajectories_uniform_1d(0.0, 1.0, 0.5, 1.0, F)
        assert [t.duration for t in trs] == pytest.approx(durations, rel=1e-13)

    def test_forbidden_geometry_empty(self):
        # detector against the force beyond the turning point
        trs = enumerate_trajectories_uniform_1d(0.0, -10.0, 0.5, 1.0, 0.5)
        assert trs == []

    def test_csv_export(self, tmp_path):
        trs = enumerate_trajectories_uniform_1d(0.0, 1.0, 0.5, 1.0, 0.5)
        path = tmp_path / "trajectories.csv"
        trajectories_to_csv(trs, path, comment="run")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2 + len(trs)


class TestTrajectoryInvariant:
    def test_inconsistent_endpoints_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(r_start=[0.0], p_start=[1.0], t_start=0.0,
                       r_end=[5.0], p_end=[1.0], t_end=1.0)

    def test_mismatched_lengths_rejected(self):
        # not broadcast into a 2-D path from a 1-D start
        with pytest.raises(ShapeError):
            Trajectory(r_start=[0.0], p_start=[1.0, 1.0], t_start=0.0,
                       r_end=[1.0], p_end=[1.0, 1.0], t_end=1.0)

    @pytest.mark.parametrize("force", [[0.0, 0.0, 0.0], [0.0]])
    def test_field_dimension_mismatch_rejected(self, force):
        # a 1-D path in a 3-D field, and a 3-D path in a 1-D field
        d = 1 if len(force) == 3 else 3
        with pytest.raises(ShapeError):
            Trajectory([0.0] * d, [1.0] * d, 0.0, [1.0] * d, [1.0] * d, 1.0,
                       field=UniformField(force))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(r_start=[0.0], p_start=[1.0], t_start=1.0,
                       r_end=[1.0], p_end=[1.0], t_end=1.0)
