"""Grids, complex fields and the position <-> momentum transform.

Everything is expressed in Hartree atomic units (hbar = m_e = 1).  The
Fourier convention is symmetric, with a (2*pi*hbar)**(-d/2) factor on each
side, so that a plane wave exp(i p.r/hbar) carries the standard
(2*pi*hbar)**(-d/2) normalization and free evolution is a plain phase
multiplication in the momentum representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    AliasingError,
    CoverageError,
    DegenerateInputError,
    DomainError,
    RepresentationError,
    ShapeError,
    finite,
    positive,
)

HBAR = 1.0
EV_TO_HARTREE = 1.0 / 27.211386245988
CM_TO_BOHR = 1.0 / 5.29177210903e-9

POSITION = "position"
MOMENTUM = "momentum"

# Fraction of the peak density tolerated on the outermost grid shell
# before an evolving operation refuses to trust the grid.
BOUNDARY_DENSITY_TOLERANCE = 1e-12


def _freeze(obj, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``obj``, each array made read-only first."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class UniformField:
    """Constant force F with potential V_F(r) = -F.r."""

    force: np.ndarray

    def __post_init__(self):
        f = np.array(self.force, dtype=float, ndmin=1)
        finite(force=f)
        _freeze(self, force=f)


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid.

    ``n``, ``spacing`` and ``origin`` are per-axis tuples; ``origin`` is the
    coordinate of index 0 on each axis.
    """

    n: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        n = np.atleast_1d(self.n).tolist()
        spacing = [float(v) for v in np.atleast_1d(self.spacing)]
        origin = [float(v) for v in np.atleast_1d(self.origin)]
        if not (len(n) == len(spacing) == len(origin)):
            raise DomainError("n, spacing and origin must have equal length")
        positive(n=n, spacing=spacing)
        n = [int(v) for v in n]
        if any(v < 8 for v in n):
            raise DomainError("need at least 8 points per axis")
        # Python floats: an overflowing last coordinate becomes inf without a warning
        finite(origin=origin,
               last_coordinate=[o + s * (k - 1) for o, s, k in zip(origin, spacing, n)])
        _freeze(self, n=tuple(n), spacing=tuple(spacing), origin=tuple(origin))

    @property
    def dimension(self) -> int:
        return len(self.n)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, i: int) -> np.ndarray:
        return self.origin[i] + self.spacing[i] * np.arange(self.n[i])

    def bounds(self, i: int) -> tuple[float, float]:
        """Coordinates of the first and last point on axis ``i``."""
        return self.origin[i], self.origin[i] + self.spacing[i] * (self.n[i] - 1)

    def axes(self) -> list[np.ndarray]:
        return [self.axis(i) for i in range(self.dimension)]

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij", sparse=True)

    def conjugate(self) -> "Grid":
        """Momentum grid of the discrete transform: dx dp N = 2 pi hbar."""
        n, dp, p0 = [], [], []
        for ni, dx in zip(self.n, self.spacing):
            dpi = 2.0 * np.pi * HBAR / (ni * dx)
            n.append(ni)
            dp.append(dpi)
            p0.append(-dpi * (ni // 2))
        return Grid(tuple(n), tuple(dp), tuple(p0))


def centered_grid_1d(extent: float, n: int, center: float = 0.0) -> Grid:
    """Convenience: 1-D grid of total length ``extent`` centred on ``center``."""
    positive(extent=extent, n=n)
    dx = extent / n
    return Grid((n,), (dx,), (center - dx * (n // 2),))


@dataclass(frozen=True)
class ComplexField:
    """Complex amplitudes on a grid, in position or momentum representation."""

    grid: Grid
    representation: str
    values: np.ndarray
    time_label: float = 0.0

    def __post_init__(self):
        if self.representation not in (POSITION, MOMENTUM):
            raise RepresentationError(f"unknown representation {self.representation!r}")
        finite(time_label=self.time_label)
        v = np.array(self.values, dtype=complex)
        if v.shape != tuple(self.grid.n):
            raise ShapeError(f"values shape {v.shape} does not match grid {self.grid.n}")
        _freeze(self, values=v)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @cached_property
    def _spline(self):
        """Not-a-knot cubic tensor spline of ``values``, built on first use.

        The field keeps it: ``values`` are read-only, and :meth:`with_values`
        and ``dataclasses.replace`` make a new field with no spline.  In 1-D
        it is the axis spline, called on the one coordinate; otherwise an
        ``NdBSpline`` called on (..., d) points.
        """
        # imported here, not at module level: scipy.interpolate is ~0.5 s of start-up
        from scipy.interpolate import NdBSpline, make_interp_spline

        # one 1-D solve per axis; BSpline puts its axis first, so move it back
        coeffs, knots = self.values, []
        for ax, nodes in enumerate(self.grid.axes()):
            spline = make_interp_spline(nodes, coeffs, k=3, axis=ax)
            coeffs = np.moveaxis(spline.c, 0, ax)
            knots.append(spline.t)
        # in 1-D the one axis spline is the interpolant; NdBSpline would look its
        # knots up linearly, ~100x slower on a 32,768-point axis
        return spline if self.grid.dimension == 1 else NdBSpline(tuple(knots), coeffs, 3)

    def with_values(self, values: np.ndarray, time_label: float | None = None) -> "ComplexField":
        t = self.time_label if time_label is None else time_label
        return replace(self, values=values, time_label=t)

    def boundary_density_ratio(self) -> float:
        """Max boundary density over max density (0 for an empty shell)."""
        dens = self.density()
        peak = dens.max()
        # NaN or inf anywhere in the field makes the peak NaN or inf
        finite(**{"field density": peak})
        if peak == 0.0:
            return 0.0
        edge = 0.0
        for ax in range(dens.ndim):
            sl = [slice(None)] * dens.ndim
            for idx in (0, -1):
                sl[ax] = idx
                edge = max(edge, float(dens[tuple(sl)].max()))
        return edge / peak


def check_boundary(field: ComplexField, what: str) -> None:
    ratio = field.boundary_density_ratio()
    if ratio > BOUNDARY_DENSITY_TOLERANCE:
        raise AliasingError(
            f"{what}: boundary density ratio {ratio:.3e} exceeds "
            f"{BOUNDARY_DENSITY_TOLERANCE:.0e}; enlarge the grid"
        )


def normalize(field: ComplexField) -> ComplexField:
    """Scale to unit discrete norm."""
    n = field.norm()
    if n == 0.0 or not np.isfinite(n):
        raise DegenerateInputError("cannot normalize a zero (or non-finite) field")
    return field.with_values(field.values / n)


def to_momentum(field: ComplexField) -> ComplexField:
    """Symmetric discrete Fourier transform, position -> momentum.

    Phi(p) = (2 pi hbar)**(-d/2) * integral psi(r) exp(-i p.r/hbar) dr,
    discretized with the grid's cell volume.  Norm preserving (discrete
    Parseval holds exactly).
    """
    if field.representation != POSITION:
        raise RepresentationError("to_momentum expects a position-representation field")
    check_boundary(field, "to_momentum")
    pgrid = field.grid.conjugate()
    out = np.fft.fftshift(np.fft.fftn(field.values))
    for ax in range(field.grid.dimension):
        p = pgrid.axis(ax)
        phase = (field.grid.spacing[ax] / np.sqrt(2.0 * np.pi * HBAR)) * np.exp(
            -1j * p * field.grid.origin[ax] / HBAR
        )
        shape = [1] * field.grid.dimension
        shape[ax] = -1
        out = out * phase.reshape(shape)
    return ComplexField(pgrid, MOMENTUM, out, field.time_label)


def to_position(field: ComplexField, position_grid: Grid) -> ComplexField:
    """Inverse of :func:`to_momentum`.

    The position grid cannot be recovered from the momentum grid alone, so
    the caller passes it, usually the original one.
    """
    if field.representation != MOMENTUM:
        raise RepresentationError("to_position expects a momentum-representation field")
    vals = field.values
    for ax in range(field.grid.dimension):
        p = field.grid.axis(ax)
        phase = np.exp(1j * p * position_grid.origin[ax] / HBAR)
        shape = [1] * field.grid.dimension
        shape[ax] = -1
        vals = vals * phase.reshape(shape)
    out = np.fft.ifftn(np.fft.ifftshift(vals))
    scale = 1.0
    for ax in range(field.grid.dimension):
        scale *= field.grid.spacing[ax] * field.grid.n[ax] / np.sqrt(2.0 * np.pi * HBAR)
    return ComplexField(position_grid, POSITION, out * scale, field.time_label)


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Minimum-uncertainty Gaussian packet: sigma_x = hbar/(2 sigma_p)."""

    p0: np.ndarray
    sigma_p: np.ndarray
    r0: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        p0 = np.array(self.p0, dtype=float, ndmin=1)
        sp = np.broadcast_to(np.asarray(self.sigma_p, dtype=float), p0.shape).copy()
        r0 = np.broadcast_to(np.asarray(self.r0, dtype=float), p0.shape).copy()
        positive(sigma_p=sp)
        finite(p0=p0, r0=r0)
        _freeze(self, p0=p0, sigma_p=sp, r0=r0)

    @property
    def sigma_x(self) -> np.ndarray:
        return HBAR / (2.0 * self.sigma_p)


def sample_gaussian(spec: GaussianPacketSpec, grid: Grid, representation: str = POSITION) -> ComplexField:
    """Sample and normalize a minimum-uncertainty packet on ``grid``.

    The grid must cover at least 6 sigma from the packet centre in each
    axis (in the requested representation).
    """
    d = grid.dimension
    if len(spec.p0) != d:
        raise ShapeError(f"spec dimension {len(spec.p0)} != grid dimension {d}")
    if representation == POSITION:
        centers, widths = spec.r0, spec.sigma_x
    elif representation == MOMENTUM:
        centers, widths = spec.p0, spec.sigma_p
    else:
        raise RepresentationError(f"unknown representation {representation!r}")
    for ax in range(d):
        lo, hi = grid.bounds(ax)
        if centers[ax] - 6 * widths[ax] < lo or centers[ax] + 6 * widths[ax] > hi:
            raise CoverageError(
                f"grid axis {ax} covers [{lo:g}, {hi:g}], needs 6 sigma around {centers[ax]:g}"
            )
    axes = grid.meshgrid()
    amp = np.ones(tuple(grid.n), dtype=complex)
    for ax in range(d):
        u = axes[ax]
        if representation == POSITION:
            amp = amp * np.exp(
                -((u - spec.r0[ax]) ** 2) / (4.0 * spec.sigma_x[ax] ** 2)
                + 1j * spec.p0[ax] * u / HBAR
            )
        else:
            amp = amp * np.exp(
                -((u - spec.p0[ax]) ** 2) / (4.0 * spec.sigma_p[ax] ** 2)
                - 1j * (u - spec.p0[ax]) * spec.r0[ax] / HBAR
            )
    return normalize(ComplexField(grid, representation, amp))


# ---------------------------------------------------------------------------
# serialization

# rows per ``%`` operation: bounds the text a writer holds in memory at once
_CSV_BLOCK_ROWS = 4096


def _row_patterns(line: str, n_rows: int) -> list[str]:
    """One ``%`` pattern per block of rows: ``line`` repeated once per row."""
    full, rest = divmod(n_rows, _CSV_BLOCK_ROWS)
    return [line * _CSV_BLOCK_ROWS] * full + ([line * rest] if rest else [])


def _fill_rows(patterns: list[str], columns):
    """Yield each block's pattern filled with that block's rows of ``columns``.

    Each block is formatted by one ``%``.  A ``%%.17g`` slot in a pattern
    takes no value and comes out as ``%.17g``, a slot left open for a later
    fill with another column.
    """
    for pattern, start in zip(patterns, range(0, len(columns[0]), _CSV_BLOCK_ROWS)):
        block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
        yield pattern % tuple(block.ravel().tolist())


def _write_rows(path, header: str, blocks, comment: str | None = None) -> None:
    """Write the text ``blocks`` under the header and an optional ``# comment`` line."""
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        fh.writelines(blocks)


def _write_csv(path, header: str, columns, comment: str | None = None,
               formats: list[str] | None = None) -> None:
    """Write equal-length ``columns`` as CSV under an optional ``# comment`` line.

    Values are written as ``%.17g``, which round-trips every float64 exactly,
    unless ``formats`` gives a column its own conversion; a ``%s`` column must
    be an object array.
    """
    columns = [np.asarray(c) for c in columns]
    line = ",".join(formats or ["%.17g"] * len(columns)) + "\n"
    _write_rows(path, header, _fill_rows(_row_patterns(line, len(columns[0])), columns), comment)


def field_to_csv(field: ComplexField, path, comment: str | None = None) -> None:
    """Columns: one coordinate per axis, then re, im."""
    axes = np.meshgrid(*field.grid.axes(), indexing="ij")
    cols = [a.ravel() for a in axes] + [field.values.real.ravel(), field.values.imag.ravel()]
    header = ",".join(f"x{i}" for i in range(field.grid.dimension)) + ",re,im"
    _write_csv(path, header, cols, comment)

