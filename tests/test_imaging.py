import math

import numpy as np
import pytest

from itkit.core import (
    MOMENTUM,
    POSITION,
    ComplexField,
    GaussianPacketSpec,
    Grid,
    centered_grid_1d,
    sample_gaussian,
    to_momentum,
    to_position,
)
from itkit.errors import (
    CoverageError,
    DegenerateInputError,
    DomainError,
    RepresentationError,
    ShapeError,
)
from itkit.imaging import (
    DetectorPatch,
    apply_it_free,
    chained_density,
    density_to_csv,
    detection_probability,
    incident_amplitude,
    incident_density,
    it_density,
    it_point,
    many_particle_it,
    momentum_density_from_hits,
)
from itkit.propagate import evolve_free_exact, it_field_uniform


def momentum_packet(p0=1.0, sigma_p=0.25, n=4096):
    pgrid = centered_grid_1d(16 * sigma_p, n, p0)
    return sample_gaussian(GaussianPacketSpec([p0], [sigma_p]), pgrid, MOMENTUM)


class TestApplyItFree:
    def test_matches_exact_evolution(self):
        sigma_p, p0, m, t = 0.25, 1.0, 1.0, 1000.0
        phi = momentum_packet(p0, sigma_p)
        sigma_x = 1.0 / (2 * sigma_p)
        width = sigma_x * math.sqrt(1 + (t / (2 * m * sigma_x ** 2)) ** 2)
        assert width == pytest.approx(250.008, abs=1e-3)

        rgrid = phi.grid.conjugate()
        approx = apply_it_free(phi, m, t, rgrid)
        exact = to_position(evolve_free_exact(phi, m, t), rgrid)
        d_a = approx.density()
        d_e = exact.density()
        peak = d_e.max()
        idx = int(np.argmax(d_e))
        assert abs(d_a[idx] - peak) / peak < 1e-4
        assert abs(d_a[idx] - peak) / peak == pytest.approx(3.2e-5, rel=0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_field_is_degenerate(self):
        # the width estimate divided 0 by 0: a bare RuntimeWarning
        phi = momentum_packet()
        with pytest.raises(DegenerateInputError):
            apply_it_free(phi.with_values(np.zeros(phi.grid.n)), 1.0, 1000.0, phi.grid.conjugate())

    def test_output_normalized(self):
        phi = momentum_packet()
        t = 2000.0
        rgrid = centered_grid_1d(16 * 0.25 * t, 65536, t)
        out = apply_it_free(phi, 1.0, t, rgrid)
        assert out.norm() == pytest.approx(1.0, abs=1e-6)

    def test_maps_momentum_node_to_position_node(self):
        # an odd superposition has Phi(p0) = 0; the image must vanish at
        # r = p0 t / m
        sigma_p, p0, t = 0.25, 1.0, 2000.0
        pgrid = centered_grid_1d(8.0, 8192, p0)
        p = pgrid.axis(0)
        amp = (p - p0) * np.exp(-((p - p0) ** 2) / (4 * sigma_p ** 2))
        phi = ComplexField(pgrid, MOMENTUM, amp.astype(complex))
        from itkit.core import normalize
        phi = normalize(phi)
        rgrid = centered_grid_1d(8000.0, 8192, p0 * t)
        out = apply_it_free(phi, 1.0, t, rgrid)
        dens = out.density()
        node = dens[int(np.argmin(np.abs(rgrid.axis(0) - p0 * t)))]
        assert node < dens.max() * 1e-6

    def test_warns_when_not_far_field(self):
        phi = momentum_packet(sigma_p=0.25)
        rgrid = centered_grid_1d(100.0, 1024, 1.0)
        with pytest.warns(UserWarning):
            apply_it_free(phi, 1.0, 1.0, rgrid)

    def test_rejects_position_field(self):
        grid = centered_grid_1d(100.0, 1024, 0.0)
        psi = sample_gaussian(GaussianPacketSpec([1.0], [0.25]), grid, POSITION)
        with pytest.raises(RepresentationError):
            apply_it_free(psi, 1.0, 1000.0, grid)

    def test_is_uniform_field_map_at_zero_force(self):
        phi = momentum_packet()
        rgrid = centered_grid_1d(2000.0, 2048, 1000.0)
        free = apply_it_free(phi, 1.0, 1000.0, rgrid)
        field = it_field_uniform(phi, rgrid, 1000.0, 0.0, 1.0, [0.0])
        np.testing.assert_array_equal(free.values, field.values)
        assert free.time_label == field.time_label == 1000.0

    @pytest.mark.parametrize("t", [0.0, -5.0, math.nan])
    def test_rejects_nonpositive_time(self, t):
        with pytest.raises(DomainError):
            apply_it_free(momentum_packet(), 1.0, t, centered_grid_1d(100.0, 256, 0.0))


# each imaging map at (m, t), on a 1-D packet; one particle for many_particle_it
IMAGING_MAPS = {
    "apply_it_free": lambda phi, m, t: apply_it_free(phi, m, t, centered_grid_1d(100.0, 64, 0.0)),
    "it_field_uniform": lambda phi, m, t: it_field_uniform(
        phi, centered_grid_1d(100.0, 64, 0.0), t, 0.0, m),
    "it_point": lambda phi, m, t: it_point(phi, m, t, [1000.0]),
    "many_particle_it": lambda phi, m, t: many_particle_it(phi, [m], [t], [[1000.0]]),
    "incident_amplitude": lambda phi, m, t: incident_amplitude(phi, m, t, [-1000.0]),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("which", ["m", "t"])
@pytest.mark.parametrize("name", sorted(IMAGING_MAPS))
def test_maps_reject_mass_or_time_not_positive_and_finite(name, which, bad):
    # refused up front, not a RuntimeWarning or a NaN result downstream
    phi = momentum_packet(n=256)
    IMAGING_MAPS[name](phi, m=1.0, t=1000.0)  # the valid call runs
    with pytest.raises(DomainError):
        IMAGING_MAPS[name](phi, **{"m": 1.0, "t": 1000.0, which: bad})


class TestItDensity:
    def test_product_value(self):
        assert it_density(0.3, 0.125) == pytest.approx(0.0375)

    def test_array_input(self):
        out = it_density([0.1, 0.2], 2.0)
        assert np.allclose(out, [0.2, 0.4])

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(DomainError):
            it_density(0.3, 0.0)

    def test_point_form(self):
        phi = momentum_packet(p0=1.0, sigma_p=0.25)
        m, t = 1.0, 2000.0
        res = it_point(phi, m, t, [1.0 * t])
        assert res.momentum_point[0] == pytest.approx(1.0)
        assert res.vv_factor == pytest.approx((m / t) ** 1)
        peak_phi = np.abs(phi.values).max() ** 2
        assert res.position_density == pytest.approx((m / t) * peak_phi, rel=1e-5)
        assert res.phase == pytest.approx(m * t ** 2 / (2 * t))

    def test_point_form_rejects_mismatched_dimension(self):
        phi = TestIncidentChannel().packet_3d()
        with pytest.raises(ShapeError):
            it_point(phi, 1.0, 100.0, [100.0])


class TestDetectionProbability:
    def make_field(self, value=1e-6 + 0j):
        grid = centered_grid_1d(400.0, 64, 2000.0)
        vals = np.full(64, value, dtype=complex)
        return ComplexField(grid, POSITION, vals, 100.0)

    def test_uniform_density_times_volume(self):
        field = self.make_field()
        patch = DetectorPatch([2000.0], 1e-4, 0.5)
        expected = abs(1e-6) ** 2 * 2000.0 ** 2 * 1e-4 * 0.5
        assert detection_probability(field, patch) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_node(self):
        field = self.make_field(0.0 + 0j)
        patch = DetectorPatch([2000.0], 1e-4, 0.5)
        assert detection_probability(field, patch) == 0.0

    def test_patch_outside_grid(self):
        field = self.make_field()
        patch = DetectorPatch([5000.0], 1e-4, 0.5)
        with pytest.raises(CoverageError):
            detection_probability(field, patch)

    @pytest.mark.parametrize("position", [[2000.0, 9000.0], [-9000.0, 2000.0]])
    def test_2d_patch_outside_grid(self, position):
        # off the grid along either axis; the field's only support rule decides
        grid = Grid((16, 16), (500.0, 500.0), (-4000.0, -4000.0))
        field = ComplexField(grid, POSITION, np.ones((16, 16), dtype=complex), 100.0)
        with pytest.raises(CoverageError):
            detection_probability(field, DetectorPatch(position, 1e-4, 0.5))

    def test_patch_with_more_coordinates_than_field_refused(self):
        # not answered from x = 2000 alone with the 3-D patch volume
        field = self.make_field()
        patch = DetectorPatch([2000.0, 5000.0, -7000.0], 0.01, 1.0)
        with pytest.raises(ShapeError):
            detection_probability(field, patch)

    def test_patch_with_fewer_coordinates_than_field_refused(self):
        grid = Grid((16, 16, 16), (500.0,) * 3, (-4000.0,) * 3)
        field = ComplexField(grid, POSITION, np.ones((16,) * 3, dtype=complex), 100.0)
        patch = DetectorPatch([2000.0], 1e-4, 0.5)
        with pytest.raises(ShapeError):
            detection_probability(field, patch)

    def test_patch_must_be_macroscopic(self):
        with pytest.raises(DomainError):
            DetectorPatch([500.0], 1e-4, 0.5)

    @pytest.mark.parametrize("args", [
        ([math.nan, 0.0, 0.0], 1.0, 1.0),
        ([2000.0], math.nan, 0.5),
        ([2000.0], 1e-4, math.nan),
        ([1e200, 1e200, 0.0], 1e-4, 0.5),
    ])
    def test_rejects_nan_patch(self, args):
        # each would build with a NaN or infinite volume
        with pytest.raises(DomainError):
            DetectorPatch(*args)

    def test_patch_volume(self):
        patch = DetectorPatch([2000.0], 1e-4, 0.5)
        assert patch.volume == pytest.approx(2000.0 ** 2 * 1e-4 * 0.5)

    @pytest.mark.parametrize("position", [[1e200, 0.0, 0.0], [0.0, -6e199, 8e199]])
    def test_distance_beyond_the_square_root_of_the_float_range(self, position):
        # |r| = 1e200 squares past the float range; r^2 dOmega dr = 1e147 does not
        patch = DetectorPatch(position, 1e-3, 1e-250)
        assert patch.volume == pytest.approx(1e147, rel=1e-14)
        # with dOmega dr = 1e-3 the volume itself, 1e397, leaves the range
        with pytest.raises(DomainError, match="volume"):
            DetectorPatch(position, 1e-3, 1.0)

    def test_volume_up_to_the_float_range(self):
        assert DetectorPatch([1e154, 0.0, 0.0], 1e-3, 1.0).volume == pytest.approx(1e305)
        with pytest.raises(DomainError, match="volume"):
            DetectorPatch([1e160, 0.0, 0.0], 1e-3, 1.0)


class TestInversion:
    def test_arithmetic_example(self):
        assert momentum_density_from_hits(1e-9, 2000.0, 1000.0, 1.0) == pytest.approx(
            1e-9 * 1e9
        )

    def test_round_trip(self):
        phi = momentum_packet(p0=1.0, sigma_p=0.25)
        m, t = 1.0, 2000.0
        rgrid = centered_grid_1d(16 * 0.25 * t, 16384, t)
        psi = apply_it_free(phi, m, t, rgrid)
        r = rgrid.axis(0)
        mask = np.abs(r) > 1.0
        recovered = momentum_density_from_hits(
            psi.density()[mask], np.abs(r[mask]), t, m, dimension=1
        )
        p_pts = (m / t) * r[mask]
        from itkit.propagate import interpolate_field
        phi_at = interpolate_field(phi, p_pts.reshape(-1, 1), fill=0.0)
        target = np.abs(phi_at) ** 2
        assert np.max(np.abs(recovered - target)) < 1e-6 * target.max()

    def test_scaling_invariance(self):
        # scaling r and t together keeps p' = m r / t fixed, and the hit
        # density falls as (m/t)^d, so the recovered momentum density is
        # unchanged
        base = momentum_density_from_hits(1e-9, 2000.0, 1000.0, 1.0)
        scaled = momentum_density_from_hits(1e-9 / 8.0, 4000.0, 2000.0, 1.0)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            momentum_density_from_hits(1e-9, -1.0, 1000.0, 1.0)
        with pytest.raises(DomainError):
            momentum_density_from_hits(1e-9, 2000.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            momentum_density_from_hits([1.0], [1.0], math.nan, 1.0)
        with pytest.raises(DomainError):
            momentum_density_from_hits([1.0], [math.nan], 1.0, 1.0)


class TestManyParticle:
    def joint_field(self, corr=False):
        # two particles, 1-D each, on a joint 2-axis momentum grid
        from itkit.core import Grid
        n = 128
        dp = 0.05
        grid = Grid(n=(n, n), spacing=(dp, dp), origin=(-n // 2 * dp + 1.0, -n // 2 * dp + 1.0))
        p1, p2 = np.meshgrid(grid.axis(0), grid.axis(1), indexing="ij")
        if corr:
            amp = np.exp(-((p1 - p2) ** 2) / 0.08 - ((p1 + p2 - 2.0) ** 2) / 2.0)
        else:
            amp = np.exp(-((p1 - 1.0) ** 2) / 0.25 - ((p2 - 1.0) ** 2) / 0.25)
        vals = amp.astype(complex)
        vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * dp * dp)
        return ComplexField(grid, MOMENTUM, vals)

    def test_factorized_product(self):
        field = self.joint_field()
        m, t = 1.0, 1000.0
        dens = many_particle_it(field, [m, m], [t, t], [[1.1 * t], [0.9 * t]])
        # separable Phi: joint density is the prefactor times |Phi|^2 at the
        # grid point (the evaluation points are chosen on grid nodes)
        p1_idx = int(np.argmin(np.abs(field.grid.axis(0) - 1.1)))
        p2_idx = int(np.argmin(np.abs(field.grid.axis(1) - 0.9)))
        expected = (m / t) ** 2 * abs(field.values[p1_idx, p2_idx]) ** 2
        assert dens == pytest.approx(expected, rel=1e-3)

    def test_entangled_correlation(self):
        field = self.joint_field(corr=True)
        m, t = 1.0, 1000.0
        same = many_particle_it(field, [m, m], [t, t], [[1.0 * t], [1.0 * t]])
        opposite = many_particle_it(field, [m, m], [t, t], [[1.3 * t], [0.7 * t]])
        assert same > 10 * opposite

    def test_same_momentum_point_property(self):
        # different (m, t, r) triples hitting the same p' read the same Phi
        field = self.joint_field()
        d1 = many_particle_it(field, [1.0, 1.0], [1000.0, 1000.0], [[1000.0], [1000.0]])
        d2 = many_particle_it(field, [2.0, 1.0], [500.0, 2000.0], [[250.0], [2000.0]])
        vv1 = (1.0 / 1000.0) ** 2
        vv2 = (2.0 / 500.0) * (1.0 / 2000.0)
        assert d1 / vv1 == pytest.approx(d2 / vv2, rel=1e-9)

    def test_shape_errors(self):
        field = self.joint_field()
        with pytest.raises(ShapeError):
            many_particle_it(field, [1.0], [1000.0], [[1000.0]])
        with pytest.raises(ShapeError):
            many_particle_it(field, [1.0, 1.0, 1.0], [1000.0, 1000.0], [[1.0], [1.0]])
        with pytest.raises(DomainError):
            many_particle_it(field, [1.0, 1.0], [1000.0, -1.0], [[1.0], [1.0]])


class TestIncidentChannel:
    def packet_3d(self):
        from itkit.core import Grid
        n, dp = 32, 0.05
        grid = Grid(n=(n, n, n), spacing=(dp, dp, dp),
                    origin=(-n // 2 * dp - 1.0, -n // 2 * dp, -n // 2 * dp))
        p = grid.meshgrid()
        amp = np.exp(-((p[0] + 1.0) ** 2 + p[1] ** 2 + p[2] ** 2) / (4 * 0.1 ** 2))
        vals = amp.astype(complex)
        vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * dp ** 3)
        return ComplexField(grid, MOMENTUM, vals)

    def test_amplitude_value(self):
        # packet centred at p = (-1, 0, 0); source at r_i = (t, 0, 0) so that
        # p_i = -m r_i / t_i hits the centre
        phi = self.packet_3d()
        m, t_i = 1.0, 100.0
        a = incident_amplitude(phi, m, t_i, [t_i, 0.0, 0.0])
        peak = abs(phi.values).max()
        expected_mod = (2 * np.pi) ** 1.5 * (m / t_i) ** 1.5 * peak
        assert abs(a) == pytest.approx(expected_mod, rel=1e-4)

    def test_density_value_at_unit_wavefunction(self):
        # with |Phi(p_i)| = 1, m = 1, t_i = 100 the incident density is
        # (2 pi)^3 / 100^3 = 2.48050e-4
        from itkit.core import Grid
        n, dp = 16, 0.1
        grid = Grid(n=(n, n, n), spacing=(dp, dp, dp),
                    origin=(-n // 2 * dp - 1.0, -n // 2 * dp, -n // 2 * dp))
        vals = np.ones((n, n, n), dtype=complex)
        phi = ComplexField(grid, MOMENTUM, vals)
        d = incident_density(phi, 1.0, 100.0, [100.0, 0.0, 0.0])
        assert d == pytest.approx(2.48050e-4, rel=1e-5)

    def test_amplitude_phase(self):
        phi = self.packet_3d()
        a = incident_amplitude(phi, 1.0, 100.0, [100.0, 0.0, 0.0])
        assert np.angle(a) == pytest.approx(-3 * np.pi / 4, abs=1e-9)

    def test_zero_outside_support(self):
        phi = self.packet_3d()
        a = incident_amplitude(phi, 1.0, 100.0, [-100.0, 0.0, 0.0])
        assert a == 0.0

    def test_density_matches_amplitude(self):
        phi = self.packet_3d()
        a = incident_amplitude(phi, 1.0, 100.0, [100.0, 0.0, 0.0])
        d = incident_density(phi, 1.0, 100.0, [100.0, 0.0, 0.0])
        assert d == pytest.approx(abs(a) ** 2, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        phi = self.packet_3d()
        with pytest.raises(DomainError):
            incident_amplitude(phi, 1.0, 0.0, [100.0, 0.0, 0.0])

    def test_rejects_mismatched_dimension(self):
        with pytest.raises(ShapeError):
            incident_amplitude(self.packet_3d(), 1.0, 100.0, [100.0])

    def test_separable_amplitude_is_product_of_1d(self):
        # Phi = Phi_x Phi_y Phi_z gives A_3 = A_x A_y A_z, each A in its own
        # dimension; p_i sits on a grid node, where the 3-D spline and the
        # 1-D splines all return the node value to rounding (a d = 3
        # prefactor on each 1-D amplitude would be off by orders of magnitude)
        from itkit.core import Grid
        n, dp, m, t_i = 16, 0.1, 1.0, 100.0
        origin = (-0.8, -0.7, -0.9)
        grid = Grid(n=(n, n, n), spacing=(dp, dp, dp), origin=origin)
        axes = grid.axes()
        factors = [np.exp(-(a - c) ** 2 / 0.1 + 1j * k * a)
                   for a, c, k in zip(axes, (0.1, -0.2, 0.0), (0.3, -1.0, 2.0))]
        joint = ComplexField(grid, MOMENTUM, np.einsum("i,j,k->ijk", *factors))
        p_i = np.array([axes[0][9], axes[1][5], axes[2][8]])
        r_i = -p_i * t_i / m
        a3 = incident_amplitude(joint, m, t_i, r_i)
        a1 = [incident_amplitude(ComplexField(Grid((n,), (dp,), (o,)), MOMENTUM, f),
                                 m, t_i, [r]) for o, f, r in zip(origin, factors, r_i)]
        assert abs(a3) > 0
        assert a3 == pytest.approx(a1[0] * a1[1] * a1[2], rel=1e-12)


class TestSplineKeptPerField:
    """Point-at-a-time maps read one field's spline, built on the first call."""

    def test_many_particle_scan(self, axis_solves):
        # two particles in 2-D: a 12^4 joint momentum grid, one solve per axis
        grid = Grid((12,) * 4, (0.2,) * 4, (-0.1,) * 4)
        p = grid.meshgrid()
        phi = ComplexField(grid, MOMENTUM, np.exp(-sum((a - 1.0) ** 2 for a in p)
                                                  + 0.3j * p[0] * p[3]))
        t = 1000.0
        r = np.random.default_rng(0).uniform(0.5, 1.5, (10, 2, 2)) * t
        dens = [many_particle_it(phi, [1.0, 1.0], [t, t], ri) for ri in r]
        assert len(axis_solves) == 4
        assert min(dens) > 0

    @pytest.mark.parametrize("name", ["it_point", "incident_amplitude", "detection_probability"])
    def test_point_maps(self, axis_solves, name):
        phi = momentum_packet(n=512)
        position = ComplexField(centered_grid_1d(400.0, 64, 2000.0), POSITION,
                                np.full(64, 1e-6 + 0j), 100.0)
        calls = {
            "it_point": lambda x: it_point(phi, 1.0, 1000.0, [1000.0 * x]),
            "incident_amplitude": lambda x: incident_amplitude(phi, 1.0, 1000.0, [-1000.0 * x]),
            "detection_probability": lambda x: detection_probability(
                position, DetectorPatch([2000.0 * x], 1e-4, 0.5)),
        }
        for x in np.linspace(0.95, 1.05, 8):
            calls[name](x)
        assert len(axis_solves) == 1


class TestChained:
    def test_product_example(self):
        assert chained_density(0.0375, 2.48050e-4) == pytest.approx(9.3019e-6, rel=1e-4)

    def test_array(self):
        out = chained_density([0.1, 0.2], 0.5)
        assert np.allclose(out, [0.05, 0.1])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            chained_density(0.1, -1.0)
        with pytest.raises(DomainError):
            chained_density([-0.1], 1.0)
        with pytest.raises(DomainError):
            chained_density([1.0], math.nan)
        with pytest.raises(DomainError):
            chained_density([math.nan], 1.0)


class TestCsv:
    def test_density_export(self, tmp_path):
        grid = centered_grid_1d(10.0, 16, 0.0)
        dens = np.linspace(0.0, 1.0, 16)
        path = tmp_path / "d.csv"
        density_to_csv(grid, dens, path, comment="test run")
        lines = path.read_text().splitlines()
        assert lines[0] == "# test run"
        assert lines[1] == "x0,density"
        assert len(lines) == 18
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0)
