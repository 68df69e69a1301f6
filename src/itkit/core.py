"""Grids, complex fields and the position <-> momentum transform.

Everything is expressed in Hartree atomic units (hbar = m_e = 1).  The
Fourier convention is symmetric, with a (2*pi*hbar)**(-d/2) factor on each
side, so that a plane wave exp(i p.r/hbar) carries the standard
(2*pi*hbar)**(-d/2) normalization and free evolution is a plain phase
multiplication in the momentum representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

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

    def coordinate_columns(self) -> list[np.ndarray]:
        """One column per axis: that coordinate of every grid point, in C order."""
        return [a.ravel() for a in np.meshgrid(*self.axes(), indexing="ij")]

    def conjugate(self) -> "Grid":
        """Momentum grid of the discrete transform: dx dp N = 2 pi hbar."""
        dp = [2.0 * np.pi * HBAR / (ni * dx) for ni, dx in zip(self.n, self.spacing)]
        return Grid(self.n, tuple(dp), tuple(-d * (ni // 2) for d, ni in zip(dp, self.n)))


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
    def _spline(self) -> np.ndarray:
        """B-spline coefficients of the not-a-knot cubic tensor spline of ``values``.

        Built on first use, by one :func:`_not_a_knot_axis` solve per axis, each
        adding a coefficient at both ends of its axis.  The field keeps it:
        ``values`` are read-only, and :meth:`with_values` and
        ``dataclasses.replace`` make a new field with no spline.
        """
        c = self.values
        for ax, nodes in enumerate(self.grid.axes()):
            if not np.all(nodes[1:] > nodes[:-1]):
                raise DomainError(f"grid axis {ax}: spacing {self.grid.spacing[ax]:g} does not "
                                  f"separate its float64 coordinates near {nodes[0]:g}")
            c = np.moveaxis(_not_a_knot_axis(np.moveaxis(c, ax, 0)), 0, ax)
        c.setflags(write=False)
        return c

    def _spline_at(self, points: np.ndarray) -> np.ndarray:
        """The spline at ``points`` of shape (..., d), each inside the grid.

        Per axis a point x in [x_i, x_(i+1)] reads the four coefficients
        c_(i-1)..c_(i+2) with the uniform cubic B-spline weights of
        t = (x - x_i)/(x_(i+1) - x_i); the tensor spline sums the 4**d products.
        """
        index, weights = [], []
        for nodes, x in zip(self.grid.axes(), np.moveaxis(points, -1, 0)):
            i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
            # t from the bracketing nodes: (x - origin)/h - i would lose the digits
            # that a large origin takes, 1e-11 of t on a 32,768-point axis near 1e4
            t = (x - nodes[i]) / (nodes[i + 1] - nodes[i])
            s = 1.0 - t
            index.append(i)
            weights.append((s * s * s, (3.0 * t - 6.0) * t * t + 4.0,
                            (3.0 * s - 6.0) * s * s + 4.0, t * t * t))
        out = 0.0
        for corner in itertools.product(range(4), repeat=len(index)):
            w = np.prod([wa[k] for wa, k in zip(weights, corner)], axis=0)
            out = out + w * self._spline[tuple(i + k for i, k in zip(index, corner))]
        return np.asarray(out * 6.0 ** -len(index))  # a 0-d array for one point

    def with_values(self, values: np.ndarray, time_label: float | None = None) -> "ComplexField":
        t = self.time_label if time_label is None else time_label
        return replace(self, values=values, time_label=t)

    def boundary_density_ratio(self) -> float:
        """Max boundary density over max density (0 for an empty shell)."""
        return _edge_ratio("field density", self.density())


# pole of the uniform cubic B-spline interpolation filter [1, 4, 1]/6 (Unser, IEEE
# Signal Process. Mag. 16(6), 22 (1999)); [1, 4, 1]**-1 has taps z**|k|/(2 sqrt 3),
# kept while |z|**k >= 1e-19
_Z = math.sqrt(3.0) - 2.0
_POWERS = _Z ** np.arange(math.ceil(19.0 / -math.log10(-_Z)))
_POWERS.setflags(write=False)


def _not_a_knot_axis(f: np.ndarray) -> np.ndarray:
    """Coefficients c_(-1)..c_n, along axis 0, of the not-a-knot cubic spline of ``f``.

    On n uniform nodes the spline is sum_j c_j B(x/h - j), B the cubic B-spline,
    and interpolation reads c_(i-1) + 4 c_i + c_(i+1) = 6 f_i.  Not-a-knot, one
    cubic across x_1 and one across x_(n-2), fixes c_1 = (8 f_1 - f_0 - f_2)/6 and
    c_(n-2) likewise.  Rows 2..n-3 between them are the Toeplitz system [1, 4, 1]:
    its truncated inverse gives one solution, and the two homogeneous solutions
    z**j and z**(n-3-j) make it meet c_1 and c_(n-2).  Rows 0, 1, n-2 and n-1 then
    give the four outer coefficients.
    """
    n = len(f)
    c = np.zeros((n + 2,) + f.shape[1:], dtype=complex)
    u = c[2:n]  # c_1 .. c_(n-2)
    m = n - 2
    b = math.sqrt(3.0) * f[2:n - 2]  # rows 2..n-3, 6 f over the taps' 2 sqrt 3
    reach = min(len(_POWERS) - 1, m - 2)
    for k in range(-reach, reach + 1):
        lo, hi = max(0, k + 1), min(m, m - 1 + k)
        u[lo:hi] += _POWERS[abs(k)] * b[lo - k - 1:hi - k - 1]
    q = _Z ** (m - 1)
    r0 = (8.0 * f[1] - f[0] - f[2]) / 6.0 - u[0]
    r1 = (8.0 * f[n - 2] - f[n - 1] - f[n - 3]) / 6.0 - u[m - 1]
    w = _POWERS[:min(m, len(_POWERS))].reshape((-1,) + (1,) * (f.ndim - 1))
    u[:len(w)] += w * ((r0 - q * r1) / (1.0 - q * q))
    u[m - len(w):] += w[::-1] * ((r1 - q * r0) / (1.0 - q * q))
    c[1] = 6.0 * f[1] - 4.0 * c[2] - c[3]
    c[0] = 6.0 * f[0] - 4.0 * c[1] - c[2]
    c[n] = 6.0 * f[n - 2] - 4.0 * c[n - 1] - c[n - 2]
    c[n + 1] = 6.0 * f[n - 1] - 4.0 * c[n] - c[n - 1]
    return c


def _edge_ratio(name: str, a: np.ndarray) -> float:
    """Largest element of nonnegative ``a`` on its outermost shell, the first and last
    slice of each axis, over its largest element (0 if that is 0)."""
    peak = a.max()
    # NaN or inf anywhere in ``a`` makes the peak NaN or inf
    finite(**{name: peak})
    edge = max(float(np.take(a, i, axis=ax).max()) for ax in range(a.ndim) for i in (0, -1))
    return 0.0 if peak == 0.0 else edge / peak


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


def _transform_factor(momentum_grid: Grid, position_grid: Grid) -> np.ndarray:
    """The transform's factor prod (dx / sqrt(2 pi hbar)) e^{-i p x0 / hbar} over the axes,
    broadcast on the momentum grid: cell volume, normalization and position origin."""
    return math.prod((dx / np.sqrt(2.0 * np.pi * HBAR)) * np.exp(-1j * p * x0 / HBAR) for p, dx, x0
                     in zip(momentum_grid.meshgrid(), position_grid.spacing, position_grid.origin))


def to_momentum(field: ComplexField) -> ComplexField:
    """Symmetric discrete Fourier transform, position -> momentum.

    Phi(p) = (2 pi hbar)**(-d/2) * integral psi(r) exp(-i p.r/hbar) dr,
    discretized with the grid's cell volume: the shifted FFT times
    :func:`_transform_factor`.  Norm preserving (discrete Parseval holds exactly).
    """
    if field.representation != POSITION:
        raise RepresentationError("to_momentum expects a position-representation field")
    check_boundary(field, "to_momentum")
    pgrid = field.grid.conjugate()
    out = np.fft.fftshift(np.fft.fftn(field.values)) * _transform_factor(pgrid, field.grid)
    return ComplexField(pgrid, MOMENTUM, out, field.time_label)


def to_position(field: ComplexField, position_grid: Grid) -> ComplexField:
    """Inverse of :func:`to_momentum`: the inverse FFT of Phi over :func:`_transform_factor`.

    The position grid cannot be recovered from the momentum grid alone, so
    the caller passes it, usually the original one.
    """
    if field.representation != MOMENTUM:
        raise RepresentationError("to_position expects a momentum-representation field")
    out = np.fft.ifftn(np.fft.ifftshift(field.values / _transform_factor(field.grid, position_grid)))
    return ComplexField(position_grid, POSITION, out, field.time_label)


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
    # the packet is exp(-(u - center)^2 / (4 width^2) + i k (u - shift) / hbar) per axis
    if representation == POSITION:
        centers, widths, k, shift = spec.r0, spec.sigma_x, spec.p0, np.zeros(d)
    elif representation == MOMENTUM:
        centers, widths, k, shift = spec.p0, spec.sigma_p, -spec.r0, spec.p0
    else:
        raise RepresentationError(f"unknown representation {representation!r}")
    for ax in range(d):
        lo, hi = grid.bounds(ax)
        if centers[ax] - 6 * widths[ax] < lo or centers[ax] + 6 * widths[ax] > hi:
            raise CoverageError(
                f"grid axis {ax} covers [{lo:g}, {hi:g}], needs 6 sigma around {centers[ax]:g}"
            )
    amp = np.ones(tuple(grid.n), dtype=complex)
    for u, c, w, ka, s in zip(grid.meshgrid(), centers, widths, k, shift):
        amp = amp * np.exp(-((u - c) ** 2) / (4.0 * w ** 2) + 1j * ka * (u - s) / HBAR)
    return normalize(ComplexField(grid, representation, amp))


# ---------------------------------------------------------------------------
# serialization

# rows per block: bounds the text, and the kernel's temporaries, a writer holds at once
_CSV_BLOCK_ROWS = 4096
# least values in a block written by _format_g17.  The kernel already beats ``%``
# from about 250 values (1.8x at 121 rows x 4); 512 keeps the coincidence (484
# values) and scattering files on the ``%`` path they were benchmarked on, so
# lowering it is a change to measure on those workloads
_G17_MIN_VALUES = 512

_E_MIN = -1073  # frexp exponent of the least subnormal, 2**-1074
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for float64


def _pow10(K: int, power: int) -> tuple[float, float, int]:
    """10**K as (hi + lo) * 2**b, hi + lo in [0.5, 1] and exact to 2**-105.

    ``power`` is 10**|K|.
    """
    if K >= 0:
        b = power.bit_length()
        t = power << (112 - b) if b <= 112 else (power + (1 << (b - 113))) >> (b - 112)
    else:
        b = 1 - power.bit_length()
        t = ((1 << (113 - b)) + power) // (2 * power)
    # t = round(10**K * 2**(112 - b)): 112 bits, split into two float64
    hi = float(t)
    return math.ldexp(hi, -112), math.ldexp(float(t - int(hi)), -112), b


@cache
def _g17_scales():
    """Scales that bring any finite nonzero float64 to 17 integer digits.

    For frexp exponent e, 2**(e-1) <= |x| < 2**e lies in [10**k, 10**(k+2)),
    k = floor((e - 1) log10 2), and |x| >= 10**(k+1) exactly when |x| >=
    ``thr[e - E_MIN]``, the least float64 >= 10**(k+1).  Row 2(e - E_MIN) + s,
    s in {0, 1}, of the other arrays holds the decimal exponent X = k + s and
    10**(16-X) * 2**e as hi + lo, hi = hh + hl split by Veltkamp, so that the
    frexp mantissa times hi + lo is |x| * 10**(16-X), in [10**16, 10**17).
    """
    e = np.arange(_E_MIN, 1025)
    k = ((e - 1) * 78913) >> 18  # floor((e - 1) log10 2) over this range of e
    tens = [1]
    for _ in range(340):
        tens.append(10 * tens[-1])
    thr = []
    for K in range(int(k[0]) + 1, int(k[-1]) + 2):
        power = tens[abs(K)]
        t = float(power) if K >= 0 else 1 / power  # both correctly rounded
        n, d = t.as_integer_ratio()
        thr.append(math.nextafter(t, math.inf) if (n < power if K >= 0 else n * power < d) else t)
    X = np.stack([k, k + 1], axis=1).ravel()
    K0 = 15 - int(X[-1])
    hi, lo, b = map(np.array, zip(*(_pow10(K, tens[abs(K)]) for K in range(K0, 17 - int(X[0])))))
    row = 16 - X - K0
    b = b[row] + np.repeat(e, 2)
    hi, lo = np.ldexp(hi[row], b), np.ldexp(lo[row], b)  # exact: both stay normal
    c = _SPLIT * hi
    hh = c - (c - hi)
    return _read_only(np.array(thr)[k - k[0]], X.astype(np.int32), hi, lo, hh, hi - hh)


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """``tables``, made read-only: the cached tables are shared by every call."""
    for t in tables:
        t.setflags(write=False)
    return tables


def _words(texts) -> np.ndarray:
    """Each of ``texts`` (at most 8 bytes), NUL-padded, as a little-endian 64-bit word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


@cache
def _g17_text():
    """Lookup tables of the 32 bytes (four little-endian words) of one value.

    Bytes 0-5 hold the sign and a lead "0.000", byte 6 is a pad, bytes 7-23
    the digits d0..d16, bytes 24-31 the exponent and the separator.  The
    masks are indexed by 18 (p + 1) + c for the point after digit p (p = -1:
    the point is in the lead) and the last byte kept, 6 + c: bytes 6..6+p
    take the digit to their right (the pad makes room), byte 7 + p takes the
    point, bytes from 8 + p keep their digit, bytes after 6 + c are cleared.
    """
    i = np.arange(10000)
    quads = np.zeros(10000, "<u8")  # "%04d" % i, first digit in the lowest byte
    for byte, place in enumerate((1000, 100, 10, 1)):
        quads |= (48 + i // place % 10).astype("<u8") << np.uint64(8 * byte)
    trailing = sum(i % (10 * place) == 0 for place in (1, 10, 100, 1000))  # 4 for 0000
    first = _words(b"\0" * 7 + b"%d" % d for d in range(10))
    sign_lead = _words(s + b"0.000"[:n] for s in (b"", b"-") for n in range(6))
    exponents = [b""] + [b"e%+03d" % x for x in range(-324, 309)]
    exp_sep = _words(x + s for s in (b",", b"\n") for x in exponents)
    byte = np.arange(24)
    p = np.arange(-1, 17)[:, None, None]
    kept = byte <= 6 + np.arange(18)[:, None]
    low = (6 <= byte) & (byte <= 6 + p)  # d0..dp, one byte to the left
    point = (p >= 0) & (byte == 7 + p)
    high = byte >= np.where(p >= 0, 8 + p, 7)  # the digits after the point, in place

    def words(mask, fill):  # (18, 18, 24) bytes as (3, 18 * 18) little-endian words
        return np.where(mask & kept, fill, 0).astype(np.uint8).view("<u8").reshape(-1, 3).T.copy()

    shift, dot, keep = words(low, 0xFF), words(point, 0x2E), words(high, 0xFF)
    return _read_only(quads, trailing, first, sign_lead, exp_sep, shift, keep, dot)


def _format_g17(values: np.ndarray, n_cols: int) -> str:
    """Rows of ``n_cols`` float64 ``values``, each value exactly as ``'%.17g' % v``.

    Each |x| = m * 2**e is scaled by the double-double 10**(16-X) * 2**e
    (:func:`_g17_scales`) with Dekker's exact two-product, which gives
    y = |x| * 10**(16-X) in [10**16, 10**17) as p + q to within 1e-14 (the
    table is exact to 2**-105; 2e-15 is the largest error seen).  The 17
    digits are y rounded to an integer; the text is laid out in a fixed
    32-byte slot per value from lookup tables (:func:`_g17_text`), and the
    unused bytes, NUL, are deleted.  A value goes back to ``'%.17g' %`` when it
    is not finite, or when the fraction of y is within 1e-9 of 1/2, which
    the error bound cannot round safely (an exact tie is rounded half to even).
    """
    thr, exponent, hi, lo, hh, hl = _g17_scales()
    quads, trailing, first, sign_lead, exp_sep, shift, keep, dot = _g17_text()
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    finite = np.isfinite(a)
    zero = a == 0.0
    odd = zero | ~finite
    any_odd = odd.any()
    if any_odd:
        a[odd] = 1.0
    m, e = np.frexp(a)
    j = e - _E_MIN
    j = j + j + (a >= np.take(thr, j))
    X = np.take(exponent, j)
    # Dekker: p + q = m * (hi + lo), p = fl(m * hi)
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    p = m * np.take(hi, j)
    bh, bl = np.take(hh, j), np.take(hl, j)
    q = ((mh * bh - p) + mh * bl + ml * bh) + ml * bl + m * np.take(lo, j)
    floor_q = np.floor(q)
    half = (q - floor_q) - 0.5
    D = p.astype(np.int64) + floor_q.astype(np.int64) + (half > 0)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X += carry
    fallback = np.abs(half) < 1e-9
    if any_odd:
        D[zero] = 0
        X[zero] = 0
        fallback |= ~finite

    # digits d0 | d1-d4 d5-d8 | d9-d12 d13-d16, in words 0-2 of each slot
    H, L = np.divmod(D, 10 ** 8)
    d0, H = np.divmod(H.astype(np.int32), 10 ** 8)
    c1, c2 = np.divmod(H, 10 ** 4)
    c3, c4 = np.divmod(L.astype(np.int32), 10 ** 4)
    w0 = np.take(first, d0)
    w1 = np.take(quads, c1) | (np.take(quads, c2) << np.uint64(32))
    w2 = np.take(quads, c3) | (np.take(quads, c4) << np.uint64(32))
    last = 16 - np.take(trailing, c4)  # the last nonzero digit
    z = np.flatnonzero(c4 == 0)
    if z.size:
        last[z] = np.select([c3[z] != 0, c2[z] != 0, c1[z] != 0],
                            [12 - trailing[c3[z]], 8 - trailing[c2[z]], 4 - trailing[c1[z]]], 0)
    if any_odd:
        last[zero] = -1
    fixed = (X >= -4) & (X < 17)
    lead = np.where(fixed & (X < 0), 1 - X, 0)  # length of "0.000"
    point = np.where(fixed, X, 0)
    point[lead > 0] = -1
    mask = 18 * (point + 1) + np.where(last > point, last + 1, point)

    out = np.empty((v.size, 4), "<u8")
    s8, s56 = np.uint64(8), np.uint64(56)
    out[:, 0] = (((w0 >> s8) | (w1 << s56)) & np.take(shift[0], mask)
                 | w0 & np.take(keep[0], mask) | np.take(dot[0], mask)
                 | np.take(sign_lead, 6 * np.signbit(v) + lead))
    out[:, 1] = (((w1 >> s8) | (w2 << s56)) & np.take(shift[1], mask)
                 | w1 & np.take(keep[1], mask) | np.take(dot[1], mask))
    out[:, 2] = ((w2 >> s8) & np.take(shift[2], mask)
                 | w2 & np.take(keep[2], mask) | np.take(dot[2], mask))
    tail = np.where(fixed, 0, X + 325)
    tail.reshape(-1, n_cols)[:, -1] += len(exp_sep) // 2  # the newline half
    out[:, 3] = np.take(exp_sep, tail)
    out = out.view(np.uint8)
    for i in np.flatnonzero(fallback).tolist():
        text = b"%.17g" % v[i] + (b"\n" if i % n_cols == n_cols - 1 else b",")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _write_csv(path, header: str, columns, comment: str | None = None) -> None:
    """Write equal-length ``columns`` as CSV under an optional ``# comment`` line.

    A column's type picks its format: an object column (text, or Python ints
    such as counts) is written as ``%s``, any other as ``%.17g``, which
    round-trips every float64 exactly.  Each block of rows is formatted by one
    ``%``, or, if it is all float64 and holds at least ``_G17_MIN_VALUES``
    values, by :func:`_format_g17`.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ShapeError(f"columns of unequal length {[len(c) for c in columns]}")
    line = ",".join("%s" if c.dtype == object else "%.17g" for c in columns) + "\n"
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            if block.dtype == np.float64 and block.size >= _G17_MIN_VALUES:
                fh.write(_format_g17(block.ravel(), len(columns)))
            else:
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


def field_to_csv(field: ComplexField, path, comment: str | None = None) -> None:
    """Columns: one coordinate per axis, then re, im."""
    cols = [*field.grid.coordinate_columns(), field.values.real.ravel(), field.values.imag.ravel()]
    header = ",".join(f"x{i}" for i in range(field.grid.dimension)) + ",re,im"
    _write_csv(path, header, cols, comment)

