"""Byte identity of every CSV writer with the per-row formatter it replaced.

The reference writers below are the row-at-a-time implementations the
block-formatted writer replaced; each case requires the same bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itkit import core, imaging
from itkit.classical import enumerate_trajectories_uniform_1d, trajectories_to_csv
from itkit.cli import main
from itkit.coincidence import (
    CoincidenceDataset,
    PairGeometry,
    curve_to_csv,
    dataset_to_csv,
)
from itkit.core import ComplexField, Grid, centered_grid_1d, field_to_csv
from itkit.errors import ShapeError
from itkit.imaging import density_to_csv
from itkit.scatter import green_scan_to_csv

EDGE = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1]
BLOCK_SIZES = [4095, 4096, 4097]


def _ref_rows(path, header, rows, comment):
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def ref_field_to_csv(field, path, comment=None):
    axes = np.meshgrid(*field.grid.axes(), indexing="ij")
    cols = [a.ravel() for a in axes] + [field.values.real.ravel(), field.values.imag.ravel()]
    header = ",".join(f"x{i}" for i in range(field.grid.dimension)) + ",re,im"
    _ref_rows(path, header, zip(*cols), comment)


def ref_density_to_csv(grid, density, path, comment=None):
    axes = np.meshgrid(*grid.axes(), indexing="ij")
    cols = [a.ravel() for a in axes] + [np.asarray(density).ravel()]
    header = ",".join(f"x{i}" for i in range(grid.dimension)) + ",density"
    _ref_rows(path, header, zip(*cols), comment)


def ref_trajectories_to_csv(trajectories, path, comment=None):
    d = len(trajectories[0].r_start) if trajectories else 1
    cols = []
    for i in range(d):
        cols += [f"r_start_{i}_au", f"p_start_{i}_au"]
    cols += ["t_start_au"]
    for i in range(d):
        cols += [f"r_end_{i}_au", f"p_end_{i}_au"]
    cols += ["t_end_au", "action_S_au", "action_W_au", "duration_au"]
    rows = []
    for tr in trajectories:
        row = []
        for i in range(d):
            row += [tr.r_start[i], tr.p_start[i]]
        row += [tr.t_start]
        for i in range(d):
            row += [tr.r_end[i], tr.p_end[i]]
        w = tr.action + tr.energy * tr.duration
        rows.append(row + [tr.t_end, tr.action, w, tr.duration])
    _ref_rows(path, ",".join(cols), rows, comment)


def ref_dataset_to_csv(dataset, path, comment=None):
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("delta_t_au,count\n")
        for dt, c in zip(dataset.delta_t, dataset.counts):
            fh.write(f"{dt:.17g},{int(round(c))}\n")


def ref_curve_to_csv(delta_t, p1, p2, prob, path, comment=None):
    _ref_rows(path, "delta_t_au,p1_au,p2_au,probability", zip(delta_t, p1, p2, prob), comment)


def ref_green_scan_to_csv(rows, path, comment=None):
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("r_au,energy_au,re,im,form\n")
        for R, E, val, form in rows:
            fh.write(f"{R:.17g},{E:.17g},{val.real:.17g},{val.imag:.17g},{form}\n")


def assert_same_bytes(tmp_path, writer, reference, *args, comment="run"):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    writer(*args, new, comment)
    reference(*args, ref, comment)
    assert new.read_bytes() == ref.read_bytes()


def edge_column(n, shift=0):
    return np.resize(np.roll(EDGE, shift), n)


class TestFieldAndDensity:
    def test_field_edge_values(self, tmp_path):
        grid = centered_grid_1d(10.0, 14)
        values = np.empty(14, dtype=complex)
        values.real, values.imag = edge_column(14), edge_column(14, 3)
        field = ComplexField(grid, core.POSITION, values)
        assert_same_bytes(tmp_path, field_to_csv, ref_field_to_csv, field)

    def test_field_2d(self, tmp_path):
        grid = Grid((8, 9), (0.3, 0.7), (-1.2, 4.1))
        rng = np.random.default_rng(1)
        field = ComplexField(grid, core.POSITION, rng.normal(size=(8, 9)) + 1j * rng.normal(size=(8, 9)))
        assert_same_bytes(tmp_path, field_to_csv, ref_field_to_csv, field, comment=None)

    def test_density_edge_values(self, tmp_path):
        grid = centered_grid_1d(10.0, 21, 0.1)
        assert_same_bytes(tmp_path, density_to_csv, ref_density_to_csv, grid, edge_column(21))

    def test_density_2d(self, tmp_path):
        grid = Grid((8, 12), (0.25, 1.0 / 3.0), (-1.0, 0.1))
        dens = np.random.default_rng(2).random((8, 12)) * 1e-300
        assert_same_bytes(tmp_path, density_to_csv, ref_density_to_csv, grid, dens)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_density_around_block_size(self, tmp_path, n):
        grid = centered_grid_1d(123.4, n, 1.0)
        dens = np.exp(-grid.axis(0) ** 2 / 200.0)
        assert_same_bytes(tmp_path, density_to_csv, ref_density_to_csv, grid, dens)


class TestDensityCoordinateMemo:
    """density_to_csv keeps the last grid's formatted coordinates; every write
    must still give the reference bytes, whichever grid came before."""

    @staticmethod
    def assert_writes(tmp_path, writes):
        for grid, dens in writes:
            assert_same_bytes(tmp_path, density_to_csv, ref_density_to_csv, grid, dens)

    @staticmethod
    def density(grid, seed):
        return np.random.default_rng(seed).random(grid.n)

    def test_consecutive_writes_on_one_grid(self, tmp_path):
        grid = centered_grid_1d(50.0, 300, 2.0)
        self.assert_writes(tmp_path, [(grid, self.density(grid, k)) for k in range(3)])

    @pytest.mark.parametrize("other", [
        Grid((64,), (0.5,), (-16.25,)),
        Grid((64,), (0.5000000000000001,), (-16.0,)),
    ], ids=["origin", "spacing"])
    def test_alternating_grids_of_equal_size(self, tmp_path, other):
        grid = Grid((64,), (0.5,), (-16.0,))
        self.assert_writes(tmp_path, [(g, self.density(g, k))
                                      for k, g in enumerate([grid, other, grid, other])])

    def test_signed_zero_origin(self, tmp_path):
        # equal grids: -0.0 + 0.0 * dx is 0.0, so both write the same coordinates
        plus, minus = Grid((9,), (0.25,), (0.0,)), Grid((9,), (0.25,), (-0.0,))
        assert plus == minus
        self.assert_writes(tmp_path, [(plus, self.density(plus, 0)),
                                      (minus, self.density(minus, 1)),
                                      (plus, edge_column(9))])

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_around_block_size(self, tmp_path, n):
        grid = centered_grid_1d(123.4, n, 1.0)
        self.assert_writes(tmp_path, [(grid, self.density(grid, 0)), (grid, edge_column(n)),
                                      (centered_grid_1d(123.4, n, 1.5), self.density(grid, 1))])

    def test_2d_grid(self, tmp_path):
        grid = Grid((8, 12), (0.25, 1.0 / 3.0), (-1.0, 0.1))
        flat = Grid((96,), (0.25,), (-1.0,))
        self.assert_writes(tmp_path, [(grid, self.density(grid, 0)), (grid, self.density(grid, 1)),
                                      (flat, self.density(flat, 2)), (grid, edge_column(96))])

    def test_density_size_must_match_grid(self, tmp_path):
        grid = centered_grid_1d(10.0, 16)
        for n in (15, 17):
            with pytest.raises(ShapeError):
                density_to_csv(grid, np.ones(n), tmp_path / "d.csv")


class TestTrajectories:
    @pytest.mark.parametrize("r", [-10.0, 1.0])
    def test_trajectories(self, tmp_path, r):
        # r = -10 lies beyond the turning point: no trajectory, header only
        trs = enumerate_trajectories_uniform_1d(0.0, r, 0.5, 1.0, 0.5)
        assert_same_bytes(tmp_path, trajectories_to_csv, ref_trajectories_to_csv, trs)


class TestCoincidence:
    @pytest.mark.parametrize("n", [0, 1, 7] + BLOCK_SIZES)
    def test_curve_rows(self, tmp_path, n):
        cols = [edge_column(n, k) for k in range(4)]
        assert_same_bytes(tmp_path, curve_to_csv, ref_curve_to_csv, *cols)

    def test_dataset_counts(self, tmp_path):
        # half-integer counts round half to even; -0.0 prints as 0.  A dataset
        # holds finite delays only, so the extremes are the largest floats.
        dt = [-1.7976931348623157e308, -1e300, -0.1, -0.0, 5e-324, 0.1, 1.0, 1e300,
              1.7976931348623157e308]
        counts = [0.5, 1.5, 2.5, -0.0, 3.4999999999999996, 1e20, 2.0 ** 53 + 2, 7.0, 0.0]
        ds = CoincidenceDataset(dt, counts, PairGeometry(1.0, 1.0), 8.0)
        assert_same_bytes(tmp_path, dataset_to_csv, ref_dataset_to_csv, ds)

    @pytest.mark.parametrize("n", [1] + BLOCK_SIZES)
    def test_dataset_rows(self, tmp_path, n):
        rng = np.random.default_rng(n)
        ds = CoincidenceDataset(np.linspace(-3.0, 3.0, n), rng.poisson(40.0, n) + 0.5,
                                PairGeometry(1.0, 1.0), 8.0)
        assert_same_bytes(tmp_path, dataset_to_csv, ref_dataset_to_csv, ds)


class TestGreenScan:
    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_rows_and_form(self, tmp_path, n):
        forms = ["exact-free", "semiclassical", "hyper-hankel"]
        rows = [(EDGE[k % 7], 0.5, complex(EDGE[(k + 2) % 7], EDGE[(k + 5) % 7]), forms[k % 3])
                for k in range(n)]
        assert_same_bytes(tmp_path, green_scan_to_csv, ref_green_scan_to_csv, rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n),
                       min_size=4, max_size=4)))
def test_property_float_columns(tmp_path_factory, cols):
    # a block of 2 rows puts every table across several blocks
    tmp_path = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CSV_BLOCK_ROWS", 2)
        assert_same_bytes(tmp_path, curve_to_csv, ref_curve_to_csv, *map(np.array, cols))


class TestCliFiles:
    """The two files cli writes itself: every value in canonical %.17g form."""

    @staticmethod
    def assert_canonical(path, header):
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0].startswith("# config: ")
        assert lines[1] == header + "\n"
        for line in lines[2:]:
            values = [float(s) for s in line.rstrip("\n").split(",")]
            assert line == ",".join(f"{v:.17g}" for v in values) + "\n"
        return len(lines) - 2

    def test_error_vs_time(self, tmp_path):
        cfg = tmp_path / "it.txt"
        cfg.write_text("times = 500, 1000\nn_points = 16384\n")
        assert main(["it-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert self.assert_canonical(tmp_path / "error_vs_time.csv",
                                     "time_au,max_relative_error") == 2

    def test_it_check_densities(self, tmp_path, monkeypatch):
        # every density file is the reference writer applied to its own grid
        # and its parsed density column: exact and imaged files share a grid,
        # so the second of each pair writes memoized coordinates
        grids, write = {}, imaging.density_to_csv

        def recording(grid, density, path, comment=None):
            grids[path.name] = grid
            write(grid, density, path, comment)

        monkeypatch.setattr(imaging, "density_to_csv", recording)
        cfg = tmp_path / "it.txt"
        cfg.write_text("times = 500, 1000\nn_points = 16384\n")
        out = tmp_path / "out"
        assert main(["it-check", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(grids) == sorted(f"{kind}_density_t{t}.csv"
                                       for kind in ("exact", "it") for t in (500, 1000))
        for name, grid in grids.items():
            path = out / name
            comment = path.read_text().splitlines()[0][2:]
            density = np.loadtxt(path, delimiter=",", skiprows=2)[:, 1]
            ref_density_to_csv(grid, density, tmp_path / "ref.csv", comment)
            assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("v0", [0.0, 0.01])
    def test_xsec(self, tmp_path, v0):
        cfg = tmp_path / "xsec.txt"
        cfg.write_text(f"v0 = {v0}\nenergy = 0.5\nn_angles = 7\n")
        assert main(["xsec", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert self.assert_canonical(tmp_path / "xsec.csv",
                                     "angle_deg,f_re,f_im,dsigma_domega_au") == 7
