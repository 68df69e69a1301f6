import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itkit.classical import action_S_tilde_uniform, stationary_momentum
from itkit.core import (
    MOMENTUM,
    POSITION,
    ComplexField,
    GaussianPacketSpec,
    Grid,
    UniformField,
    centered_grid_1d,
    sample_gaussian,
    to_momentum,
    to_position,
)
from itkit.errors import (
    AliasingError,
    CausticError,
    DegenerateInputError,
    DomainError,
    RepresentationError,
    ShapeError,
    StabilityError,
    SupportError,
)
from itkit.propagate import (
    EvolutionSpec,
    evolve_free_exact,
    evolve_split_operator,
    interpolate_field,
    it_field_uniform,
    kernel_mixed_semiclassical,
    kernel_position_semiclassical,
    spa_integrate,
)


def packet(n=4096, extent=600.0, center=0.0, p0=1.0, sigma_p=0.25):
    grid = centered_grid_1d(extent, n, center)
    spec = GaussianPacketSpec(p0=[p0], sigma_p=[sigma_p], r0=[0.0])
    return grid, sample_gaussian(spec, grid, POSITION)


def stark_closed_form(psi0, grid, m, force, t):
    """Exact evolution under p^2/2m - F.r (Avron & Herbst), one numpy FFT pair."""
    axes = grid.meshgrid()
    k = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, dx) for n, dx in zip(grid.n, grid.spacing)],
                    indexing="ij", sparse=True)
    k2 = sum(a * a for a in k)
    kf = sum(f * a for f, a in zip(force, k))
    moved = np.fft.ifftn(np.fft.fftn(psi0) * np.exp(-1j * (k2 * t + kf * t * t) / (2.0 * m)))
    fr = sum(f * a for f, a in zip(force, axes))
    return np.exp(1j * (fr * t - np.dot(force, force) * t ** 3 / (6.0 * m))) * moved


def moments(grid, density):
    x = grid.axis(0)
    w = density / density.sum()
    mean = float(np.sum(w * x))
    var = float(np.sum(w * (x - mean) ** 2))
    return mean, var


class TestFreeExact:
    def test_identity_at_zero_time(self):
        grid, psi = packet()
        out = evolve_free_exact(psi, 1.0, 0.0)
        assert np.max(np.abs(out.values - psi.values)) < 1e-12

    def test_gaussian_spreading(self):
        grid, psi = packet()
        out = evolve_free_exact(psi, 1.0, 10.0)
        mean, var = moments(grid, out.density())
        assert mean == pytest.approx(10.0, abs=1e-8)
        assert var == pytest.approx(4.0 + 6.25, rel=1e-8)

    def test_momentum_density_conserved(self):
        _, psi = packet()
        phi0 = to_momentum(psi)
        phit = evolve_free_exact(phi0, 1.0, 37.0)
        assert np.max(np.abs(phit.density() - phi0.density())) < 1e-14

    def test_unitary(self):
        _, psi = packet()
        out = evolve_free_exact(psi, 1.0, 25.0)
        assert out.norm() == pytest.approx(psi.norm(), abs=1e-12)

    def test_negative_time_rejected(self):
        _, psi = packet()
        with pytest.raises(DomainError):
            evolve_free_exact(psi, 1.0, -1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m, T", [(1.0, math.nan), (1.0, math.inf),
                                      (-1.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0)])
    def test_bad_mass_or_time_rejected(self, m, T):
        _, psi = packet()
        with pytest.raises(DomainError):
            evolve_free_exact(psi, m, T)


@pytest.mark.parametrize("evolve", [
    to_momentum,
    lambda psi: evolve_free_exact(psi, 1.0, 1.0),
    lambda psi: evolve_split_operator(psi, EvolutionSpec(1.0, 0.0, 1.0, 10)),
], ids=["to_momentum", "evolve_free_exact", "evolve_split_operator"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_field_is_refused_not_aliased(evolve, bad):
    # NaN and inf both slipped past the boundary-density ratio and came back all-NaN
    _, psi = packet(n=512, extent=60.0, sigma_p=1.0)
    values = psi.values.copy()
    values[256] = bad
    with pytest.raises(DomainError, match="field density must be finite") as caught:
        evolve(psi.with_values(values))
    assert not isinstance(caught.value, AliasingError)


class TestSplitOperator:
    @pytest.mark.parametrize("n_steps", [1.5, 2.0, math.nan, "10"])
    def test_spec_rejects_non_integer_steps(self, n_steps):
        # 1.5 used to construct and fail later in range() with a TypeError
        with pytest.raises(DomainError, match="n_steps must be an integer"):
            EvolutionSpec(1.0, 0.0, 1.0, n_steps)

    def test_spec_accepts_numpy_integer_steps(self):
        assert EvolutionSpec(1.0, 0.0, 1.0, np.int64(3)).dt == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("mass, t_start, t_end", [
        (1.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (0.0, 0.0, 1.0), (math.inf, 0.0, 1.0),
        (1.0, 0.0, math.nan), (1.0, 0.0, math.inf), (1.0, math.nan, 1.0), (1.0, -math.inf, 1.0),
    ])
    def test_spec_rejects_bad_mass_or_times(self, mass, t_start, t_end):
        with pytest.raises(DomainError):
            EvolutionSpec(mass=mass, t_start=t_start, t_end=t_end, n_steps=10)

    def test_zero_potential_matches_exact(self):
        grid, psi = packet()
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=20.0, n_steps=50)
        out = evolve_split_operator(psi, spec)
        ref = to_position(evolve_free_exact(to_momentum(psi), 1.0, 20.0), grid)
        assert np.max(np.abs(out.values - ref.values)) < 1e-10

    def test_ehrenfest_in_linear_potential(self):
        grid, psi = packet(n=8192, extent=1200.0, center=110.0)
        F = 1e-3
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=200.0, n_steps=2000,
                             field=UniformField([F]))
        out = evolve_split_operator(psi, spec)
        mean, _ = moments(grid, out.density())
        assert mean == pytest.approx(200.0 + F * 200.0 ** 2 / 2.0, abs=1e-6)

    def test_richardson_order(self):
        # halving dt reduces the error against a fine reference about 4x
        grid, psi = packet(n=2048, extent=200.0, p0=0.5, sigma_p=0.5)
        x = grid.axis(0)
        v = 0.02 * np.exp(-x ** 2 / 25.0)

        def run(n_steps):
            spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=10.0,
                                 n_steps=n_steps, potential=v)
            return evolve_split_operator(psi, spec).values

        ref = run(4096)
        e1 = np.max(np.abs(run(64) - ref))
        e2 = np.max(np.abs(run(128) - ref))
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_norm_preserved(self):
        grid, psi = packet(n=2048, extent=200.0, p0=0.0, sigma_p=0.5)
        x = grid.axis(0)
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=5.0, n_steps=200,
                             potential=0.03 * np.exp(-x ** 2))
        out = evolve_split_operator(psi, spec)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    def test_field_alone_matches_stark_closed_form(self):
        grid, psi = packet(n=4096, extent=600.0, p0=1.0, sigma_p=0.25)
        F, t = 0.01, 20.0
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=t, n_steps=37,
                             field=UniformField([F]))
        out = evolve_split_operator(psi, spec).values
        ref = stark_closed_form(psi.values, grid, 1.0, [F], t)
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))
        # the field drift is exact, so the step count does not matter
        one = EvolutionSpec(mass=1.0, t_start=0.0, t_end=t, n_steps=1,
                            field=UniformField([F]))
        assert np.array_equal(evolve_split_operator(psi, one).values, out)

    def test_field_alone_2d_diagonal_force(self):
        grid = Grid((128, 128), (0.5, 0.5), (-32.0, -32.0))
        spec0 = GaussianPacketSpec(p0=[0.5, -0.3], sigma_p=[0.5, 0.5], r0=[0.0, 0.0])
        psi = sample_gaussian(spec0, grid, POSITION)
        force, t = [0.02, 0.02], 4.0
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=t, n_steps=10,
                             field=UniformField(force))
        out = evolve_split_operator(psi, spec).values
        ref = stark_closed_form(psi.values, grid, 1.0, force, t)
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_strong_field_weak_potential_few_steps(self):
        # the guard measures the sampled potential alone: |F.x| reaches 5
        # here, a phase of 2.5 per step that the exact field drift never kicks
        grid, psi = packet(n=2048, extent=200.0, p0=0.0, sigma_p=0.5)
        x = grid.axis(0)
        F, t = 0.05, 10.0
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=t, n_steps=20,
                             field=UniformField([F]), potential=0.01 * np.exp(-x ** 2))
        out = evolve_split_operator(psi, spec)
        assert out.norm() == pytest.approx(1.0, abs=1e-9)
        mean, _ = moments(grid, out.density())
        assert mean == pytest.approx(F * t ** 2 / 2.0, abs=0.05)

    def test_field_and_barrier_time_reversal(self):
        grid = centered_grid_1d(240.0, 4096, 0.0)
        x = grid.axis(0)
        psi0 = sample_gaussian(GaussianPacketSpec(p0=[2.0], sigma_p=[0.5], r0=[-20.0]),
                               grid, POSITION)
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=20.0, n_steps=400,
                             field=UniformField([4e-3]), potential=1.5 * np.exp(-(x - 5.0) ** 2))
        forward = evolve_split_operator(psi0, spec)
        back = evolve_split_operator(forward.with_values(np.conj(forward.values)), spec)
        dev = np.max(np.abs(np.conj(back.values) - psi0.values))
        assert dev < 1e-10 * np.max(np.abs(psi0.values))
        assert np.max(np.abs(forward.values - psi0.values)) > 0.5 * np.max(np.abs(psi0.values))

    def test_step_size_guard(self):
        grid, psi = packet(n=2048, extent=200.0, p0=0.0, sigma_p=0.5)
        x = grid.axis(0)
        spec = EvolutionSpec(mass=1.0, t_start=0.0, t_end=10.0, n_steps=2,
                             potential=1.0 * np.exp(-x ** 2 / 100.0))
        with pytest.raises(StabilityError):
            evolve_split_operator(psi, spec)


class TestKernels:
    def test_mixed_free_value(self):
        k = kernel_mixed_semiclassical([0.0], [1.0], 2.0, 0.0, 1.0)
        assert k == pytest.approx((2 * math.pi) ** -0.5 * np.exp(-1j), abs=1e-14)

    def test_mixed_unit_modulus_with_field(self):
        k = kernel_mixed_semiclassical([3.0], [0.7], 5.0, 0.0, 1.0, [0.02])
        assert abs(k) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)

    def test_mixed_short_time_plane_wave(self):
        k = kernel_mixed_semiclassical([2.0], [1.5], 1e-12, 0.0, 1.0)
        expected = (2 * math.pi) ** -0.5 * np.exp(1j * 1.5 * 2.0)
        assert k == pytest.approx(expected, abs=1e-10)

    def test_mixed_determinant_is_unity(self):
        # finite-difference d^2 S~/dr dp for the uniform-field action
        from itkit.classical import action_S_tilde_uniform
        h = 1e-5
        d2 = (action_S_tilde_uniform(1.0 + h, 0.5 + h, 2.0, 1.0, 0.3)
              - action_S_tilde_uniform(1.0 + h, 0.5 - h, 2.0, 1.0, 0.3)
              - action_S_tilde_uniform(1.0 - h, 0.5 + h, 2.0, 1.0, 0.3)
              + action_S_tilde_uniform(1.0 - h, 0.5 - h, 2.0, 1.0, 0.3)) / (4 * h * h)
        assert d2 == pytest.approx(1.0, rel=1e-6)

    def test_position_free_value(self):
        k = kernel_position_semiclassical([0.0], [0.0], 1.0, 0.0, 1.0)
        assert k == pytest.approx((2 * math.pi * 1j) ** -0.5, abs=1e-14)

    def test_position_modulus_uniform(self):
        k = kernel_position_semiclassical([2.0], [-1.0], 2.0, 0.0, 1.0, [0.1])
        assert abs(k) ** 2 == pytest.approx(1.0 / (2 * math.pi * 2.0), rel=1e-12)

    def test_position_requires_ordering(self):
        with pytest.raises(DomainError):
            kernel_position_semiclassical([0.0], [0.0], 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_position_requires_finite_time(self, t):
        with pytest.raises(DomainError):
            kernel_position_semiclassical([0.0], [0.0], t, 0.0, 1.0)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_mixed_requires_ordering(self, t):
        with pytest.raises(DomainError):
            kernel_mixed_semiclassical([0.0], [1.0], t, 0.0, 1.0)

    def test_quadrature_convolution_matches_exact(self):
        # convolving the initial packet with the position kernel reproduces
        # the exactly evolved field
        grid, psi = packet(n=1024, extent=120.0, p0=0.5, sigma_p=0.5)
        T = 8.0
        out = to_position(evolve_free_exact(to_momentum(psi), 1.0, T), grid)
        x = grid.axis(0)
        dx = grid.spacing[0]
        mid = np.argmin(np.abs(x - 4.0))
        kern = np.array([kernel_position_semiclassical([x[mid]], [xp], T, 0.0, 1.0)
                         for xp in x])
        val = np.sum(kern * psi.values) * dx
        assert val == pytest.approx(complex(out.values[mid]), abs=1e-6)

    def test_chapman_kolmogorov(self):
        # kernel for T1+T2 equals the composition of T1 and T2 kernels
        T1, T2 = 3.0, 5.0
        xs = np.linspace(-60.0, 60.0, 4096)
        dx = xs[1] - xs[0]
        r, rp = 1.0, -2.0
        k_direct = kernel_position_semiclassical([r], [rp], T1 + T2, 0.0, 1.0)
        k1 = np.array([kernel_position_semiclassical([r], [xm], T2, 0.0, 1.0) for xm in xs])
        k2 = np.array([kernel_position_semiclassical([xm], [rp], T1, 0.0, 1.0) for xm in xs])
        composed = np.sum(k1 * k2) * dx
        # the oscillatory tails need a soft window to converge on a finite grid
        window = np.exp(-(xs / 50.0) ** 8)
        composed_windowed = np.sum(k1 * k2 * window) * dx
        assert composed_windowed == pytest.approx(k_direct, abs=2e-3 * abs(k_direct))
        _ = composed


class TestSpa:
    def test_matches_exact_free_at_large_time(self):
        sigma_p, p0, m, t = 0.25, 1.0, 1.0, 2000.0
        pgrid = centered_grid_1d(10 * sigma_p * 4, 2048, p0)
        phi = sample_gaussian(GaussianPacketSpec([p0], [sigma_p]), pgrid, MOMENTUM)

        def s_tilde(p, r, T):
            return float(p[0] * r[0] - p[0] ** 2 * T / 2.0)

        r = p0 * t / m + 100.0
        val = spa_integrate(phi, s_tilde, [r], t, 0.0)
        # closed-form Gaussian integral with quadratic phase as the oracle
        amp = (2 * math.pi * sigma_p ** 2) ** -0.25
        a = 1.0 / (4 * sigma_p ** 2) + 1j * t / (2 * m)
        b = p0 / (2 * sigma_p ** 2) + 1j * r
        c = -p0 ** 2 / (4 * sigma_p ** 2)
        exact = amp * np.sqrt(np.pi / a) * np.exp(b ** 2 / (4 * a) + c) / math.sqrt(2 * math.pi)
        rel = abs(val - exact) / abs(exact)
        assert rel < 5e-3

    def test_stationary_point_outside_support(self):
        pgrid = centered_grid_1d(2.0, 256, 1.0)
        phi = sample_gaussian(GaussianPacketSpec([1.0], [0.1]), pgrid, MOMENTUM)

        def s_tilde(p, r, T):
            return float(p[0] * r[0] - p[0] ** 2 * T / 2.0)

        with pytest.raises(SupportError):
            spa_integrate(phi, s_tilde, [1000.0], 10.0, 0.0)

    def test_degenerate_hessian(self):
        pgrid = centered_grid_1d(4.0, 256, 0.0)
        phi = sample_gaussian(GaussianPacketSpec([0.0], [0.3]), pgrid, MOMENTUM)
        with pytest.raises(CausticError):
            spa_integrate(phi, lambda p, r, T: 0.0, [0.0], 10.0, 0.0)

    def test_rejects_position_field(self):
        _, psi = packet()
        with pytest.raises(RepresentationError):
            spa_integrate(psi, lambda p, r, T: 0.0, [0.0], 10.0, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_field_is_degenerate(self):
        # the density weights were 0/0, a RuntimeWarning and NaN
        phi = ComplexField(centered_grid_1d(4.0, 256, 0.0), MOMENTUM, np.zeros(256))
        with pytest.raises(DegenerateInputError):
            spa_integrate(phi, lambda p, r, T: float(p[0] * r[0]), [1.0], 10.0, 0.0)


class TestUniformFieldMap:
    def test_matches_split_operator(self):
        m, F, t = 1.0, 1e-3, 200.0
        sigma_p = 0.5
        spec = GaussianPacketSpec(p0=[0.0], sigma_p=[sigma_p], r0=[0.0])
        pg = centered_grid_1d(16 * sigma_p, 4096, 0.0)
        phi = sample_gaussian(spec, pg, MOMENTUM)
        rg = centered_grid_1d(300.0, 512, F * t ** 2 / 2.0)
        approx = it_field_uniform(phi, rg, t, 0.0, m, [F])

        xg = centered_grid_1d(1600.0, 16384, F * t ** 2 / 4.0)
        psi0 = sample_gaussian(spec, xg, POSITION)
        evo = EvolutionSpec(mass=m, t_start=0.0, t_end=t, n_steps=2000,
                            field=UniformField([F]))
        ref = evolve_split_operator(psi0, evo)
        from itkit.propagate import interpolate_field
        ref_vals = interpolate_field(ref, rg.axis(0)[:, None])
        d_approx = np.abs(approx.values) ** 2
        d_ref = np.abs(ref_vals) ** 2
        mask = d_ref > d_ref.max() * 1e-4
        rel = np.max(np.abs(d_approx[mask] - d_ref[mask]) / d_ref.max())
        assert rel < 1e-4

    def test_agrees_with_spa_pointwise(self):
        sigma_p, p0, m, t = 0.25, 1.0, 1.0, 500.0
        pg = centered_grid_1d(10 * sigma_p * 4, 2048, p0)
        phi = sample_gaussian(GaussianPacketSpec([p0], [sigma_p]), pg, MOMENTUM)
        rg = centered_grid_1d(40.0, 32, p0 * t / m)
        field = it_field_uniform(phi, rg, t, 0.0, m)

        def s_tilde(p, r, T):
            return action_S_tilde_uniform(np.asarray(r), np.asarray(p), T, m)

        r = float(rg.axis(0)[16])
        val = spa_integrate(phi, s_tilde, [r], t, 0.0)
        assert complex(field.values[16]) == pytest.approx(val, rel=1e-5)

    @pytest.mark.parametrize("p_dim, r_dim", [(1, 2), (2, 1)])
    def test_mismatched_dimensions_rejected(self, p_dim, r_dim):
        # a 1-D field on a 2-D grid must not be mapped through the first
        # coordinate of each point alone
        spec = GaussianPacketSpec(p0=[0.3] * p_dim, sigma_p=[0.5] * p_dim, r0=[0.0] * p_dim)
        phi = sample_gaussian(spec, Grid((64,) * p_dim, (0.125,) * p_dim, (-3.7,) * p_dim),
                              MOMENTUM)
        rg = Grid((16,) * r_dim, (10.0,) * r_dim, (-50.0,) * r_dim)
        with pytest.raises(ShapeError):
            it_field_uniform(phi, rg, 100.0, 0.0, 1.0)


def scipy_spline(field):
    """The oracle: scipy's not-a-knot cubic tensor spline of ``field``, on (k, d) points."""
    from scipy.interpolate import NdBSpline, make_interp_spline

    coeffs, knots = field.values, []
    for ax, nodes in enumerate(field.grid.axes()):
        spline = make_interp_spline(nodes, coeffs, k=3, axis=ax)
        coeffs = np.moveaxis(spline.c, 0, ax)
        knots.append(spline.t)
    if field.grid.dimension == 1:
        return lambda pts: spline(pts[:, 0])
    return NdBSpline(tuple(knots), coeffs, 3)


@st.composite
def spline_cases(draw):
    """Grid shape, spacing, origin and a value seed: d = 1..3, 8..600 nodes per
    axis and at most 20,000 in all."""
    d = draw(st.integers(1, 3))
    n = []
    for ax in range(d):
        room = 20_000 // (math.prod(n) * 8 ** (d - 1 - ax))
        n.append(draw(st.integers(8, min(600, room))))
    spacing = [draw(st.floats(1e-3, 1e2)) for _ in range(d)]
    origin = [h * draw(st.floats(-64.0, 64.0)) for h in spacing]
    return tuple(n), tuple(spacing), tuple(origin), draw(st.integers(0, 2 ** 32 - 1))


class TestInterpolateField:
    def test_1d_refuses_extra_columns(self):
        # the 1-D spline must not answer from the first column alone
        field = ComplexField(centered_grid_1d(400.0, 64, 2000.0), POSITION,
                             np.full(64, 1e-3 + 0j), 100.0)
        with pytest.raises(ShapeError):
            interpolate_field(field, [[2000.0, 1e9]])

    def test_1d_without_fill_returns_complex_array(self):
        phi = sample_gaussian(GaussianPacketSpec([1.0], [0.25]), centered_grid_1d(4.0, 256, 1.0),
                              MOMENTUM)
        out = interpolate_field(phi, phi.grid.axis(0)[100:110, None])
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, phi.values[100:110], rtol=1e-12)

    @pytest.mark.parametrize("grid_dim, point_dim", [(2, 3), (2, 1), (3, 2)])
    def test_nd_width_mismatch_is_shape_error(self, grid_dim, point_dim):
        # an in-range point of the wrong width is a shape error, not a support error
        grid = Grid((16,) * grid_dim, (0.5,) * grid_dim, (-4.0,) * grid_dim)
        field = ComplexField(grid, POSITION, np.ones((16,) * grid_dim, dtype=complex))
        with pytest.raises(ShapeError):
            interpolate_field(field, np.zeros((1, point_dim)))

    @staticmethod
    def correlated_field(n, spacing, origin):
        # a non-separable packet with a position-dependent phase, so the tensor
        # spline cannot be exact by factorizing
        grid = Grid(n, spacing, origin)
        mesh = grid.meshgrid()
        centre = [o + 0.45 * h * (k - 1) for o, h, k in zip(origin, spacing, n)]
        u = [(a - c) / (0.3 * h * k) for a, c, h, k in zip(mesh, centre, spacing, n)]
        quad = sum(a * a for a in u) + sum(0.4 * a * b for a, b in zip(u, u[1:]))
        phase = sum((1.5 + j) * a for j, a in enumerate(u))
        return ComplexField(grid, MOMENTUM, np.exp(-quad + 1j * phase))

    @pytest.mark.parametrize("n, spacing, origin", [
        ((24, 31), (0.1, 0.07), (-1.2, -0.9)),
        # anisotropic: a different size and spacing on every axis
        ((20, 28, 36), (0.13, 0.05, 0.021), (-1.1, 0.3, -0.4)),
        # the joint momentum grid of two particles in 2-D
        ((12, 12, 12, 12), (0.2, 0.2, 0.25, 0.25), (-1.1, -1.2, -1.3, -1.4)),
    ])
    def test_exact_at_the_nodes(self, n, spacing, origin):
        field = self.correlated_field(n, spacing, origin)
        nodes = np.stack([a.ravel() for a in np.meshgrid(*field.grid.axes(), indexing="ij")],
                         axis=-1)
        out = interpolate_field(field, nodes)
        err = np.max(np.abs(out - field.values.ravel())) / np.max(np.abs(field.values))
        assert err < 1e-13

    def test_1d_is_the_bspline(self):
        phi = sample_gaussian(GaussianPacketSpec([1.0], [0.25]), centered_grid_1d(4.0, 256, 1.0),
                              MOMENTUM)
        pts = np.linspace(-0.9, 2.9, 301)[:, None]
        err = np.abs(interpolate_field(phi, pts) - scipy_spline(phi)(pts))
        assert np.max(err) <= 1e-13 * np.max(np.abs(phi.values))

    @settings(deadline=None)
    @given(spline_cases())
    def test_matches_scipy_oracle(self, case):
        # random complex values, scaled to max |value| = 1; the origin lies within
        # 64 spacings of 0, because scipy's spline sits on the rounded float64
        # nodes and itkit's on the uniform grid: for values that change by O(1)
        # from node to node the two differ by about ulp(|x|)/spacing
        n, spacing, origin, seed = case
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        field = ComplexField(Grid(n, spacing, origin), POSITION, values / np.abs(values).max())
        nodes = np.stack(field.grid.coordinate_columns(), axis=-1)
        assert np.max(np.abs(interpolate_field(field, nodes) - field.values.ravel())) <= 1e-13
        pts = np.stack([rng.uniform(*field.grid.bounds(ax), 200) for ax in range(len(n))], -1)
        assert np.max(np.abs(interpolate_field(field, pts) - scipy_spline(field)(pts))) <= 1e-13

    def test_long_axis_far_from_zero(self):
        # 32,768 nodes from x = 1e4: t = (x - origin)/h - i, not taken from the
        # bracketing nodes, differs by up to 1e-11 here and misses the oracle by 2.3e-13
        grid = Grid((32768,), (0.3,), (1e4,))
        x = grid.axis(0)
        field = ComplexField(grid, POSITION,
                             np.exp(-((x - x[10922]) / 1500.0) ** 2 + 0.2j * (x - x[10922])))
        assert np.max(np.abs(interpolate_field(field, x[:, None]) - field.values)) <= 1e-13
        pts = np.linspace(x[0], x[-1], 100003)[:, None]
        assert np.max(np.abs(interpolate_field(field, pts) - scipy_spline(field)(pts))) <= 1e-13

    def test_unresolved_spacing_is_refused(self):
        # 1e4 + 1e-13 i rounds several nodes to one float64: no interval to place t in
        field = ComplexField(Grid((16,), (1e-13,), (1e4,)), POSITION, np.ones(16))
        with pytest.raises(DomainError):
            interpolate_field(field, [[1e4]])

    @pytest.mark.parametrize("n", [(256,), (12, 13, 14)])
    def test_spline_built_once_per_field(self, axis_solves, n):
        field = self.correlated_field(n, (0.1,) * len(n), (-0.5,) * len(n))
        pts = np.random.default_rng(0).uniform(-0.4, 0.6, (5, 7, len(n)))
        kept = [interpolate_field(field, p) for p in pts]
        assert len(axis_solves) == len(n)
        # the kept spline answers as a fresh field's does
        fresh = self.correlated_field(n, (0.1,) * len(n), (-0.5,) * len(n))
        assert np.array_equal(kept, interpolate_field(fresh, pts))
        assert len(axis_solves) == 2 * len(n)

    def test_with_values_field_has_its_own_spline(self, axis_solves):
        field = self.correlated_field((20, 24), (0.1, 0.1), (-1.0, -1.2))
        nodes = np.stack([a.ravel() for a in np.meshgrid(*field.grid.axes(), indexing="ij")],
                         axis=-1)
        interpolate_field(field, nodes)
        doubled = field.with_values(2.0 * field.values)
        out = interpolate_field(doubled, nodes)
        assert len(axis_solves) == 4
        np.testing.assert_allclose(out, doubled.values.ravel(), rtol=0, atol=1e-13)
        # the original keeps answering with its own values
        np.testing.assert_allclose(interpolate_field(field, nodes), field.values.ravel(),
                                   rtol=0, atol=1e-13)
        assert len(axis_solves) == 4

    @pytest.mark.parametrize("ax", [0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_one_support_rule_on_every_face(self, ax, side):
        field = self.correlated_field((8, 9, 10), (0.1, 0.2, 0.3), (0.0, -1.0, 2.0))
        lo, hi = field.grid.bounds(ax)
        point = np.array([0.3, -0.2, 3.1])
        point[ax] = hi + 1e-9 if side > 0 else lo - 1e-9
        with pytest.raises(SupportError):
            interpolate_field(field, point[None, :])
        inside = point.copy()
        inside[ax] = hi if side > 0 else lo
        out = interpolate_field(field, np.stack([point, inside]), fill=0.5)
        assert out[0] == 0.5
        assert out[1] == interpolate_field(field, inside[None, :])[0]


def it_field_uniform_loop(momentum_field, r_grid, t, tau, m, F=None):
    """Per-point reference for it_field_uniform: one classical call per point."""
    T = t - tau
    d = r_grid.dimension
    f = np.zeros(d) if F is None else np.atleast_1d(np.asarray(F, dtype=float))
    axes = np.meshgrid(*r_grid.axes(), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=-1)
    zero = np.zeros(d)
    p_star = np.stack([stationary_momentum(pt, zero, T, m, f) for pt in pts])
    phi = interpolate_field(momentum_field, p_star, fill=0.0)
    s = np.array([action_S_tilde_uniform(pts[k], p_star[k], T, m, f) for k in range(len(pts))])
    amp = (m / T) ** (d / 2.0) * np.exp(-1j * np.pi * d / 4.0)
    return (amp * np.exp(1j * s) * phi).reshape(tuple(r_grid.n))


class TestUniformFieldMapVectorized:
    # vecdot dots each point as np.dot does, so the arithmetic is unchanged
    # and the values must agree exactly
    @pytest.mark.parametrize("F", [None, [2e-3]])
    def test_matches_loop_1d(self, F):
        sigma_p, m, t = 0.5, 1.0, 100.0
        spec = GaussianPacketSpec(p0=[0.3], sigma_p=[sigma_p], r0=[0.0])
        phi = sample_gaussian(spec, centered_grid_1d(16 * sigma_p, 1024, 0.3), MOMENTUM)
        rg = centered_grid_1d(300.0, 256, 30.0)
        fast = it_field_uniform(phi, rg, t, 0.0, m, F).values
        np.testing.assert_array_equal(fast, it_field_uniform_loop(phi, rg, t, 0.0, m, F))

    @pytest.mark.parametrize("F", [None, [2e-3, -1e-3]])
    def test_matches_loop_2d(self, F):
        sigma_p, m, t = 0.5, 1.0, 100.0
        spec = GaussianPacketSpec(p0=[0.3, -0.2], sigma_p=[sigma_p, sigma_p], r0=[0.0, 0.0])
        pg = Grid((64, 64), (16 * sigma_p / 64,) * 2, (0.3 - 8 * sigma_p, -0.2 - 8 * sigma_p))
        phi = sample_gaussian(spec, pg, MOMENTUM)
        rg = Grid((24, 20), (12.0, 12.0), (-110.0, -130.0))
        fast = it_field_uniform(phi, rg, t, 0.0, m, F).values
        np.testing.assert_array_equal(fast, it_field_uniform_loop(phi, rg, t, 0.0, m, F))

    def test_actions_accept_stacked_points(self):
        r = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 4.0]])
        f = [0.1, -0.2]
        p = stationary_momentum(r, [0.5, 0.5], 3.0, 2.0, f)
        assert p.shape == (3, 2)
        s = action_S_tilde_uniform(r, p, 3.0, 2.0, f)
        assert s.shape == (3,)
        for k in range(3):
            assert np.array_equal(p[k], stationary_momentum(r[k], [0.5, 0.5], 3.0, 2.0, f))
            one = action_S_tilde_uniform(r[k], p[k], 3.0, 2.0, f)
            assert isinstance(one, float) and one == s[k]


class TestGalilean:
    def test_shifted_grid_consistency(self):
        # evolving then reading on a shifted grid equals evolving a packet
        # prepared on the shifted grid with the same physical content
        spec = GaussianPacketSpec(p0=[0.8], sigma_p=[0.4], r0=[5.0])
        g1 = centered_grid_1d(300.0, 2048, 5.0)
        g2 = centered_grid_1d(300.0, 2048, 5.0 + g1.spacing[0] * 7)
        psi1 = sample_gaussian(spec, g1, POSITION)
        psi2 = sample_gaussian(spec, g2, POSITION)
        out1 = to_position(evolve_free_exact(to_momentum(psi1), 1.0, 12.0), g1)
        out2 = to_position(evolve_free_exact(to_momentum(psi2), 1.0, 12.0), g2)
        # overlap region: g2 is g1 shifted 7 cells
        a = out1.values[7:]
        b = out2.values[:-7]
        assert np.max(np.abs(a - b)) < 1e-9
