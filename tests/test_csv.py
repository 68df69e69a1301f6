"""Byte identity of every CSV writer with the per-row formatter it replaced.

The reference writers below are the row-at-a-time implementations the
block-formatted writer replaced; each case requires the same bytes.  Large
all-float blocks go through the vectorised ``%.17g`` kernel,
``core._format_g17``; the tests at the end call it directly, on raw bit
patterns and on a fixed set of edge values, against ``'%.17g' % v``.
"""

import decimal
import math
from fractions import Fraction

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


class TestDensityWritesInTurn:
    """Density files written in turn, on one grid or on grids that differ in
    one coordinate: every write gives the reference bytes, whichever grid
    came before."""

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


@pytest.mark.parametrize("lengths", [(3, 7, 7, 7), (4096, 5000, 5000, 5000), (5000, 4096, 5000, 5000)])
def test_unequal_columns_are_refused(tmp_path, lengths):
    # a first column of one block used to write one block of every column
    # and drop the rest; other lengths failed untyped after the header
    with pytest.raises(ShapeError):
        curve_to_csv(*map(np.ones, lengths), tmp_path / "c.csv")
    assert not (tmp_path / "c.csv").exists()


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
        # and its parsed density column
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


def g17_rows(values, n_cols):
    """The reference: ``n_cols`` values per row, each as ``'%.17g' % v``."""
    values = [float(v) for v in values]
    return "".join(",".join("%.17g" % v for v in values[i:i + n_cols]) + "\n"
                   for i in range(0, len(values), n_cols))


def assert_g17(values, n_cols=1):
    values = np.asarray(values, dtype=np.float64)
    assert core._format_g17(values, n_cols) == g17_rows(values, n_cols)


# the kernel's property test: every float64, NaN and inf included, as a bit
# pattern.  Its example count comes from the Hypothesis profile ("ci": 2,000).
@settings(deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 2 ** 64 - 1), max_size=256))
def test_g17_kernel_bit_patterns(n_cols, bits):
    bits = np.array(bits[:len(bits) - len(bits) % n_cols], dtype=np.uint64)
    assert_g17(bits.view(np.float64), n_cols)


def _ulps(x, n=1):
    """``x`` and its n neighbours either side, one unit in the last place apart."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _ties():
    """Exact ties at 17 digits: d + 1 integer digits and 17 - d binary fraction
    digits give 18 significant digits, the last a 5 (d <= 15 keeps 53 bits)."""
    out = []
    for d in range(16):
        step = 2.0 ** (d - 17)
        start = math.ceil(10.0 ** d / step) | 1
        out += [(start + 2 * i) * step for i in range(3)]
    return out


G17_EDGES = {
    "powers of two": [math.ldexp(1.0, k) for k in range(-1074, 1024)],
    "powers of ten": [v for k in range(-323, 309) for v in _ulps(float(f"1e{k}"))],
    "notation switches": [v for x in (1e-5, 1e-4, 1e16, 1e17, 1.25e16, 9.9999999999999995e-5,
                                      99999999999999999.0) for v in _ulps(x, 3)],
    "zeros and extremes": [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308,
                           math.inf, -math.inf, math.nan],
    "ties": [v for x in _ties() for v in _ulps(x)],
}


@pytest.mark.parametrize("name", sorted(G17_EDGES))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_g17_kernel_edges(name, sign):
    assert_g17([sign * v for v in G17_EDGES[name]])


def test_g17_ties_are_exact():
    # the edge set's ties are genuine: 18 significant digits, the last a 5
    for x in _ties():
        digits = decimal.Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x


def test_g17_scale_table_is_exact():
    # per frexp exponent: the threshold is the least float >= 10**(k+1), the
    # decade bounds the octave, and hi + lo is 10**(16-X) * 2**e to 2**-105
    thr, X, hi, lo, hh, hl = core._g17_scales()
    assert np.array_equal(hh + hl, hi)
    for i, e in enumerate(range(core._E_MIN, 1025)):
        k = int(X[2 * i])
        assert Fraction(10) ** k <= Fraction(2) ** (e - 1) < Fraction(2) ** e < Fraction(10) ** (k + 2)
        assert Fraction(math.nextafter(thr[i], 0)) < Fraction(10) ** (k + 1) <= Fraction(thr[i])
        for r in (2 * i, 2 * i + 1):
            exact = Fraction(10) ** (16 - int(X[r])) * Fraction(2) ** e
            assert abs(Fraction(hi[r]) + Fraction(lo[r]) - exact) < exact / 2 ** 105


def test_blocks_on_both_sides_of_the_crossover(tmp_path, monkeypatch):
    # one full block through the kernel, then a last block of 127 rows of 4
    # (508 values) below the crossover, through one %
    sizes, kernel = [], core._format_g17

    def counting(values, n_cols):
        sizes.append(values.size)
        return kernel(values, n_cols)

    monkeypatch.setattr(core, "_format_g17", counting)
    n = core._CSV_BLOCK_ROWS + 127
    rng = np.random.default_rng(3)
    cols = [rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, n) for _ in range(3)]
    cols.append(edge_column(n))
    assert_same_bytes(tmp_path, curve_to_csv, ref_curve_to_csv, *cols)
    assert sizes == [4 * core._CSV_BLOCK_ROWS]
    assert 4 * 127 < core._G17_MIN_VALUES <= 4 * core._CSV_BLOCK_ROWS


class TestColumnTypes:
    """A column's type picks its format: ``%s`` for an object column, ``%.17g`` otherwise."""

    def test_counts_print_as_whole_numbers(self, tmp_path):
        # the counts as the parent's ``%d`` of np.rint printed them, past 2^53 and at -0.0
        counts = [1e17, 1e17 + 16, 2.0 ** 60, 9.2e18, 1e20, 1e300, -0.0, 2.5, 3.5]
        ds = CoincidenceDataset(np.arange(len(counts), dtype=float), counts,
                                PairGeometry(1.0, 1.0), 8.0)
        dataset_to_csv(ds, tmp_path / "d.csv")
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["%d" % v for v in np.rint(counts)]

    @pytest.mark.parametrize("n", [3, core._G17_MIN_VALUES])
    def test_int_and_float32_columns(self, tmp_path, n):
        # alone and beside a float64 column, on both sides of the kernel's crossover
        ints = np.arange(n, dtype=np.int64) * 7919 - 2 ** 62
        singles = (np.arange(n, dtype=np.float32) + np.float32(0.1)) * np.float32(1e-3)
        doubles = np.linspace(-1.0, 1.0, n)
        for cols in ([ints], [singles], [ints, doubles], [singles, doubles, ints]):
            core._write_csv(tmp_path / "c.csv", "h", cols)
            rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
            assert rows == [",".join("%.17g" % v for v in row) for row in zip(*cols)]

    def test_text_column(self, tmp_path):
        text = np.array(["a", "b c", "1.0"], dtype=object)
        core._write_csv(tmp_path / "t.csv", "x,label", [np.array([0.5, -0.0, 1e10]), text])
        assert (tmp_path / "t.csv").read_text() == "x,label\n0.5,a\n-0,b c\n10000000000,1.0\n"
