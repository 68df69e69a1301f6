import numpy as np
import pytest

from itkit.core import (
    MOMENTUM,
    POSITION,
    ComplexField,
    GaussianPacketSpec,
    Grid,
    UniformField,
    centered_grid_1d,
    field_to_csv,
    normalize,
    sample_gaussian,
    to_momentum,
    to_position,
)
from itkit.errors import (
    AliasingError,
    CoverageError,
    DegenerateInputError,
    DomainError,
    RepresentationError,
    ShapeError,
)


def gauss_1d(n=512, extent=40.0, p0=0.0, sigma_p=0.5, r0=0.0):
    grid = centered_grid_1d(extent, n)
    spec = GaussianPacketSpec(p0=[p0], sigma_p=[sigma_p], r0=[r0])
    return grid, sample_gaussian(spec, grid, POSITION)


class TestGrid:
    def test_conjugate_relation_exact(self):
        grid = centered_grid_1d(37.0, 256)
        pgrid = grid.conjugate()
        assert grid.spacing[0] * pgrid.spacing[0] * 256 == pytest.approx(2 * np.pi, abs=0)

    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError):
            Grid((4,), (0.1,), (0.0,))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Grid((64,), (0.0,), (0.0,))

    @pytest.mark.parametrize("make", [
        lambda: Grid((4,), (0.1,), (0.0,)),
        lambda: Grid((64,), (float("nan"),), (0.0,)),
        lambda: Grid((64, 64), (0.1,), (0.0,)),
        lambda: GaussianPacketSpec(p0=[1.0], sigma_p=[-1.0]),
        lambda: GaussianPacketSpec(p0=[1.0], sigma_p=[float("nan")]),
        lambda: UniformField([float("inf")]),
        # refused before its spacing divides by zero
        lambda: centered_grid_1d(10.0, 0),
        lambda: Grid((8,), (float("inf"),), (0.0,)),
        lambda: Grid((8,), (1.0,), (float("nan"),)),
        # finite spacing and origin, but the last coordinate overflows to inf
        lambda: Grid((8,), (1e308,), (0.0,)),
        lambda: centered_grid_1d(float("inf"), 16),
    ])
    def test_validators_raise_domain_error(self, make):
        # a DomainError is an ItkitError, which the CLI maps to an exit code
        with pytest.raises(DomainError):
            make()

    def test_axis_origin(self):
        grid = Grid((64,), (0.5,), (-16.0,))
        assert grid.axis(0)[0] == -16.0
        assert grid.axis(0)[1] == -15.5

    def test_bounds_are_axis_ends(self):
        grid = Grid((64, 9), (0.1, 3.0), (-3.3, 7.0))
        for ax in range(2):
            assert grid.bounds(ax) == (grid.axis(ax)[0], grid.axis(ax)[-1])
        assert grid.bounds(1) == (7.0, 31.0)


class TestTransforms:
    def test_parseval(self):
        _, psi = gauss_1d(p0=1.3, sigma_p=0.4)
        phi = to_momentum(psi)
        assert phi.norm() == pytest.approx(psi.norm(), abs=1e-12)

    def test_round_trip_pointwise(self):
        grid, psi = gauss_1d(p0=2.0, sigma_p=0.5)
        back = to_position(to_momentum(psi), grid)
        assert np.max(np.abs(back.values - psi.values)) < 1e-12

    def test_self_conjugate_gaussian(self):
        # sigma_p = 0.5 packet has sigma_x = 1; momentum width should be 0.5
        _, psi = gauss_1d(p0=0.0, sigma_p=0.5)
        phi = to_momentum(psi)
        p = phi.grid.axis(0)
        d = phi.density()
        var = np.sum(p ** 2 * d) / np.sum(d)
        assert np.sqrt(var) == pytest.approx(0.5, rel=1e-6)

    def test_shift_theorem_peak(self):
        _, psi = gauss_1d(p0=2.0, sigma_p=0.5)
        phi = to_momentum(psi)
        p = phi.grid.axis(0)
        assert p[np.argmax(phi.density())] == pytest.approx(2.0, abs=phi.grid.spacing[0])

    def test_wrong_representation_rejected(self):
        _, psi = gauss_1d()
        phi = to_momentum(psi)
        with pytest.raises(RepresentationError):
            to_momentum(phi)
        with pytest.raises(RepresentationError):
            to_position(psi)

    def test_aliasing_guard(self):
        grid = centered_grid_1d(4.0, 64)  # much too small for sigma_x = 1
        vals = np.exp(-grid.axis(0) ** 2 / 8.0)
        psi = ComplexField(grid, POSITION, vals)
        with pytest.raises(AliasingError):
            to_momentum(psi)

    def test_2d_round_trip(self):
        grid = Grid((64, 64), (0.5, 0.5), (-16.0, -16.0))
        x, y = grid.meshgrid()
        vals = np.exp(-(x ** 2 + y ** 2) / 2.0 + 1j * x)
        psi = normalize(ComplexField(grid, POSITION, vals))
        back = to_position(to_momentum(psi), grid)
        assert np.max(np.abs(back.values - psi.values)) < 1e-12


class TestNormalize:
    def test_scales_to_unit(self):
        grid = centered_grid_1d(40.0, 256)
        vals = 4.0 * np.exp(-grid.axis(0) ** 2)
        out = normalize(ComplexField(grid, POSITION, vals))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        _, psi = gauss_1d()
        again = normalize(psi)
        assert np.max(np.abs(again.values - psi.values)) < 1e-15

    def test_zero_field_rejected(self):
        grid = centered_grid_1d(40.0, 64)
        with pytest.raises(DegenerateInputError):
            normalize(ComplexField(grid, POSITION, np.zeros(64)))


class TestSampleGaussian:
    def test_momentum_rep_density(self):
        grid = centered_grid_1d(8.0, 256)
        spec = GaussianPacketSpec(p0=[0.0], sigma_p=[0.5])
        phi = sample_gaussian(spec, grid, MOMENTUM)
        p = grid.axis(0)
        expected = np.exp(-p ** 2 / (2 * 0.25))
        expected /= np.sum(expected) * grid.spacing[0]
        assert np.max(np.abs(phi.density() - expected)) < 1e-10

    def test_position_width(self):
        grid, psi = gauss_1d(p0=1.0, sigma_p=0.25, extent=60.0)
        x = grid.axis(0)
        d = psi.density()
        var = np.sum(x ** 2 * d) / np.sum(d)
        assert np.sqrt(var) == pytest.approx(2.0, rel=1e-6)

    def test_mean_momentum(self):
        grid, psi = gauss_1d(p0=1.2, sigma_p=0.5)
        phi = to_momentum(psi)
        p = phi.grid.axis(0)
        d = phi.density()
        assert np.sum(p * d) / np.sum(d) == pytest.approx(1.2, abs=1e-8)

    def test_too_small_grid_rejected(self):
        grid = centered_grid_1d(4.0, 64)
        spec = GaussianPacketSpec(p0=[0.0], sigma_p=[0.25])  # sigma_x = 2
        with pytest.raises(CoverageError):
            sample_gaussian(spec, grid, POSITION)

    def test_dimension_mismatch_is_shape_error(self):
        spec = GaussianPacketSpec(p0=[0.0, 0.0], sigma_p=[0.25, 0.25])
        with pytest.raises(ShapeError):
            sample_gaussian(spec, centered_grid_1d(40.0, 64), POSITION)


class TestComplexField:
    def test_values_shape_mismatch_is_shape_error(self):
        with pytest.raises(ShapeError):
            ComplexField(centered_grid_1d(10.0, 16), POSITION, np.zeros(17))


class TestSerialization:
    def test_csv_columns(self, tmp_path):
        _, psi = gauss_1d(n=64)
        path = tmp_path / "field.csv"
        field_to_csv(psi, path, comment="test run")
        lines = path.read_text().splitlines()
        assert lines[0] == "# test run"
        assert lines[1] == "x0,re,im"
        assert len(lines) == 2 + 64

