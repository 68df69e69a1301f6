"""Grids, complex fields and the position <-> momentum transform.

Everything is expressed in Hartree atomic units (hbar = m_e = 1).  The
Fourier convention is symmetric, with a (2*pi*hbar)**(-d/2) factor on each
side, so that a plane wave exp(i p.r/hbar) carries the standard
(2*pi*hbar)**(-d/2) normalization and free evolution is a plain phase
multiplication in the momentum representation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AliasingError,
    CoverageError,
    DegenerateInputError,
    DomainError,
    RepresentationError,
)

HBAR = 1.0
ELECTRON_MASS = 1.0
EV_TO_HARTREE = 1.0 / 27.211386245988
CM_TO_BOHR = 1.0 / 5.29177210903e-9

POSITION = "position"
MOMENTUM = "momentum"

# Fraction of the peak density tolerated on the outermost grid shell
# before an evolving operation refuses to trust the grid.
BOUNDARY_DENSITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class UnitSystem:
    """Hartree atomic units plus the two conversion factors used at the CLI."""

    hbar: float = HBAR
    electron_mass: float = ELECTRON_MASS
    ev_to_hartree: float = EV_TO_HARTREE
    cm_to_bohr: float = CM_TO_BOHR

    def __post_init__(self):
        if self.ev_to_hartree <= 0 or self.cm_to_bohr <= 0:
            raise ValueError("conversion factors must be positive")


ATOMIC_UNITS = UnitSystem()


@dataclass(frozen=True)
class UniformField:
    """Constant force F with potential V_F(r) = -F.r."""

    force: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.force, dtype=float))
        if not np.all(np.isfinite(f)):
            raise DomainError("force must be finite")
        f.setflags(write=False)
        object.__setattr__(self, "force", f)

    def potential(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return -np.tensordot(r, self.force, axes=([-1], [0])) if r.ndim > 1 else -float(np.dot(np.atleast_1d(r), self.force))


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
        n = tuple(int(v) for v in np.atleast_1d(self.n))
        spacing = tuple(float(v) for v in np.atleast_1d(self.spacing))
        origin = tuple(float(v) for v in np.atleast_1d(self.origin))
        if not (len(n) == len(spacing) == len(origin)):
            raise DomainError("n, spacing and origin must have equal length")
        if any(v < 8 for v in n):
            raise DomainError("need at least 8 points per axis")
        if not all(v > 0 for v in spacing):
            raise DomainError("spacing must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def dimension(self) -> int:
        return len(self.n)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, i: int) -> np.ndarray:
        return self.origin[i] + self.spacing[i] * np.arange(self.n[i])

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
        v = np.asarray(self.values, dtype=complex)
        if v.shape != tuple(self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.n}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def with_values(self, values: np.ndarray, time_label: float | None = None) -> "ComplexField":
        t = self.time_label if time_label is None else time_label
        return replace(self, values=values, time_label=t)

    def boundary_density_ratio(self) -> float:
        """Max boundary density over max density (0 for an empty shell)."""
        dens = self.density()
        peak = dens.max()
        if peak == 0.0:
            return 0.0
        edge = 0.0
        for ax in range(dens.ndim):
            sl = [slice(None)] * dens.ndim
            for idx in (0, -1):
                sl[ax] = idx
                edge = max(edge, float(dens[tuple(sl)].max()))
        return edge / peak


def check_boundary(field: ComplexField, what: str = "field") -> None:
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


def to_position(field: ComplexField, position_grid: Grid | None = None) -> ComplexField:
    """Inverse of :func:`to_momentum`.

    If ``position_grid`` is omitted, a grid centred like the conjugate
    relation demands (origin at -dx*(n//2) scaled) cannot be recovered
    uniquely, so the caller usually passes the original grid; without it the
    transform assumes an origin of -L/2 per axis.
    """
    if field.representation != MOMENTUM:
        raise RepresentationError("to_position expects a momentum-representation field")
    if position_grid is None:
        position_grid = field.grid.conjugate()
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
        p0 = np.atleast_1d(np.asarray(self.p0, dtype=float))
        sp = np.broadcast_to(np.asarray(self.sigma_p, dtype=float), p0.shape).copy()
        r0 = np.broadcast_to(np.asarray(self.r0, dtype=float), p0.shape).copy()
        if not np.all(sp > 0):
            raise DomainError("sigma_p must be positive")
        for a in (p0, sp, r0):
            a.setflags(write=False)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "sigma_p", sp)
        object.__setattr__(self, "r0", r0)

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
        raise ValueError(f"spec dimension {len(spec.p0)} != grid dimension {d}")
    if representation == POSITION:
        centers, widths = spec.r0, spec.sigma_x
    elif representation == MOMENTUM:
        centers, widths = spec.p0, spec.sigma_p
    else:
        raise RepresentationError(f"unknown representation {representation!r}")
    for ax in range(d):
        lo = grid.origin[ax]
        hi = grid.origin[ax] + grid.spacing[ax] * (grid.n[ax] - 1)
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

# rows per ``%`` operation: bounds the text held in memory at once
_CSV_BLOCK_ROWS = 4096


def _write_csv(path, header: str, columns, comment: str | None = None,
               formats: list[str] | None = None) -> None:
    """Write equal-length ``columns`` as CSV under an optional ``# comment`` line.

    Values are written as ``%.17g``, which round-trips every float64 exactly,
    unless ``formats`` gives a column its own conversion; a ``%s`` column must
    be an object array.  Each block of rows is formatted by one ``%``.
    """
    columns = [np.asarray(c) for c in columns]
    line = ",".join(formats or ["%.17g"] * len(columns)) + "\n"
    n_rows = len(columns[0])
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def field_to_csv(field: ComplexField, path, comment: str | None = None) -> None:
    """Columns: one coordinate per axis, then re, im."""
    axes = np.meshgrid(*field.grid.axes(), indexing="ij")
    cols = [a.ravel() for a in axes] + [field.values.real.ravel(), field.values.imag.ravel()]
    header = ",".join(f"x{i}" for i in range(field.grid.dimension)) + ",re,im"
    _write_csv(path, header, cols, comment)


_MAGIC = b"ITKF"


def field_to_binary(field: ComplexField, path) -> None:
    """Little-endian dump.

    Header: magic, dimension, per-axis n (int64), per-axis spacing and
    origin (float64), representation flag (0 position / 1 momentum), time
    label.  Payload: interleaved re/im float64.
    """
    d = field.grid.dimension
    rep = 0 if field.representation == POSITION else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<i", d))
        fh.write(struct.pack(f"<{d}q", *field.grid.n))
        fh.write(struct.pack(f"<{d}d", *field.grid.spacing))
        fh.write(struct.pack(f"<{d}d", *field.grid.origin))
        fh.write(struct.pack("<id", rep, field.time_label))
        inter = np.empty(field.values.size * 2, dtype="<f8")
        inter[0::2] = field.values.real.ravel()
        inter[1::2] = field.values.imag.ravel()
        fh.write(inter.tobytes())


def field_from_binary(path) -> ComplexField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not an itkit field dump")
        (d,) = struct.unpack("<i", fh.read(4))
        n = struct.unpack(f"<{d}q", fh.read(8 * d))
        spacing = struct.unpack(f"<{d}d", fh.read(8 * d))
        origin = struct.unpack(f"<{d}d", fh.read(8 * d))
        rep, t = struct.unpack("<id", fh.read(12))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    vals = (raw[0::2] + 1j * raw[1::2]).reshape(n)
    grid = Grid(n, spacing, origin)
    return ComplexField(grid, POSITION if rep == 0 else MOMENTUM, vals, t)
