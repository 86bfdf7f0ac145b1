"""Discretization of the torus-times-velocity phase space and its transforms.

The state of one time slice is kept in the mixed representation
``fhat(n, v)``: Fourier coefficients in position, physical velocity.
All transforms here are exact discrete maps (round-trips hold to
rounding); see :mod:`kflab.conventions` for the normalization sheet.

A grid stores n_modes x-modes on every axis, or fewer on some: an axis
with mode count 1 holds the n_a = 0 slab alone, which is all that data
exactly invariant along x_a carry.  The grid's mode counts are the only
statement of x-support.  ``restrict_modes`` moves a field or trajectory
onto such a grid, by default onto its data's own support
(``_mode_support``; a nonzero dropped mode is a ValueError), and
``embed_modes`` moves it back, with zeros in the modes it left out.
The x-transform pair works on the grid's x-grid, an axis of count 1
having one x-node; a padded size applies to every other axis.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "GridSpec",
    "PhaseField",
    "make_grid",
    "x_synthesize",
    "x_analyze",
    "v_to_xi",
    "xi_to_v",
    "xi_phase_matrix",
    "restrict_modes",
    "embed_modes",
    "conjugate_symmetry_defect",
    "save_field",
    "load_field",
    "random_field",
]

SNAPSHOT_MAGIC = b"KFL1"


def _fft_modes(n: int) -> np.ndarray:
    """Integer mode labels in FFT storage order, with the Nyquist slot
    labelled +n/2 (mode set {-n/2+1, ..., n/2})."""
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    k[n // 2] = n // 2
    return k


def _tensor_points(axes_1d) -> np.ndarray:
    """All tuples of the per-axis 1D nodes, shape (prod lengths, d), flat
    C order."""
    grids = np.meshgrid(*axes_1d, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters plus precomputed coordinate arrays.

    Attributes:
        d: spatial dimension (2 or 3)
        n_modes: x-Fourier modes of a full axis (even)
        v_extent: velocity half-width V; the grid covers [-V, V)
        v_points: velocity points per dimension (even)
        mode_counts: x-modes stored per axis, each n_modes or 1; None
            (the default) is n_modes on every axis.  A count of 1 keeps
            the n_a = 0 slab alone.  A full grid's repr does not show it.
    """

    d: int
    n_modes: int
    v_extent: float
    v_points: int
    mode_counts: tuple | None = None
    modes_1d: np.ndarray = field(init=False, repr=False, compare=False)
    x_1d: np.ndarray = field(init=False, repr=False, compare=False)
    v_1d: np.ndarray = field(init=False, repr=False, compare=False)
    xi_1d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"d must be 2 or 3, got {self.d}")
        if self.n_modes < 2 or self.n_modes % 2:
            raise ValueError(f"n_modes must be even and >= 2, got {self.n_modes}")
        if self.v_points < 2 or self.v_points % 2:
            raise ValueError(f"v_points must be even and >= 2, got {self.v_points}")
        if self.v_extent <= 0:
            raise ValueError(f"v_extent must be positive, got {self.v_extent}")
        n, p = self.n_modes, self.v_points
        counts = (n,) * self.d if self.mode_counts is None else tuple(
            int(c) for c in self.mode_counts
        )
        if len(counts) != self.d or any(c not in (1, n) for c in counts):
            raise ValueError(
                f"mode_counts {counts} need d={self.d} entries, each {n} or 1"
            )
        object.__setattr__(self, "mode_counts", counts)
        object.__setattr__(self, "modes_1d", _fft_modes(n))
        object.__setattr__(self, "x_1d", 2.0 * np.pi * np.arange(n) / n)
        object.__setattr__(self, "v_1d", -self.v_extent + self.dv * np.arange(p))
        object.__setattr__(self, "xi_1d", self.dxi * _fft_modes(p).astype(float))

    def __repr__(self) -> str:
        counts = "" if self.is_full else f", mode_counts={self.mode_counts!r}"
        return (
            f"GridSpec(d={self.d!r}, n_modes={self.n_modes!r}, "
            f"v_extent={self.v_extent!r}, v_points={self.v_points!r}{counts})"
        )

    @property
    def is_full(self) -> bool:
        return self.mode_counts == (self.n_modes,) * self.d

    @property
    def axis_modes(self) -> tuple:
        """Per-axis mode labels in FFT storage order: modes_1d on a full
        axis, [0] on an axis of count 1."""
        return tuple(self.modes_1d[:c] for c in self.mode_counts)

    @property
    def dv(self) -> float:
        return 2.0 * self.v_extent / self.v_points

    @property
    def dxi(self) -> float:
        return np.pi / self.v_extent

    @property
    def dx(self) -> float:
        """Node spacing of a full x-axis."""
        return 2.0 * np.pi / self.n_modes

    @property
    def shape(self) -> tuple:
        return self.mode_counts + (self.v_points,) * self.d

    @property
    def n_axes(self) -> tuple:
        return tuple(range(self.d))

    @property
    def v_axes(self) -> tuple:
        return tuple(range(self.d, 2 * self.d))

    def mode_vectors(self) -> np.ndarray:
        """All stored mode tuples, shape (prod mode_counts, d), flat C order."""
        return _tensor_points(self.axis_modes)

    def v_vectors(self) -> np.ndarray:
        """All velocity nodes, shape (v_points^d, d), flat C order."""
        return _tensor_points([self.v_1d] * self.d)

    def xi_vectors(self) -> np.ndarray:
        """All xi nodes (FFT order per axis), shape (v_points^d, d)."""
        return _tensor_points([self.xi_1d] * self.d)


@dataclass
class PhaseField:
    """One time slice in mixed representation: x-Fourier modes, physical v.

    ``data[n1, ..., nd, v1, ..., vd]`` holds ``fhat(n, v)`` with the
    n-axes in FFT storage order (Nyquist slot labelled +n_modes/2).
    """

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match grid {self.grid.shape}"
            )
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    def copy(self) -> "PhaseField":
        return PhaseField(self.grid, self.data.copy())

    def l2_norm(self) -> float:
        """The discrete l2_n L2_v norm (constants sheet)."""
        # |data|^2 squared in place: the bits of np.abs(data) ** 2 with
        # one real temporary
        mag2 = np.abs(self.data)
        np.square(mag2, out=mag2)
        return float(np.sqrt(self.grid.dv**self.grid.d * np.sum(mag2)))

    def __add__(self, other: "PhaseField") -> "PhaseField":
        _check_same_grid(self, other)
        return PhaseField(self.grid, self.data + other.data)

    def __sub__(self, other: "PhaseField") -> "PhaseField":
        _check_same_grid(self, other)
        return PhaseField(self.grid, self.data - other.data)

    def __mul__(self, scalar) -> "PhaseField":
        return PhaseField(self.grid, self.data * scalar)

    __rmul__ = __mul__


def _check_same_grid(a: PhaseField, b: PhaseField) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def make_grid(d: int, n_modes: int, v_extent: float, v_points: int) -> GridSpec:
    """Validate parameters and build a GridSpec with precomputed coordinates."""
    return GridSpec(d=d, n_modes=n_modes, v_extent=float(v_extent), v_points=v_points)


def _x_sizes(grid: GridSpec, m) -> tuple:
    """Per-axis x-grid sizes from ``m``: None (the grid's mode counts) or
    one int >= n_modes, the size of every axis of count > 1; an axis of
    count 1 keeps size 1."""
    if m is None:
        return grid.mode_counts
    if np.ndim(m) != 0 or int(m) < grid.n_modes:
        raise ValueError(f"x-grid size {m!r} must be one int >= n_modes = {grid.n_modes}")
    return tuple(int(m) if c > 1 else 1 for c in grid.mode_counts)


def _slots(grid: GridSpec, sizes: tuple) -> list:
    """Per axis, the FFT-order index of each stored mode on the x-grid of
    ``sizes``: the Nyquist slot (labelled +n_modes/2) goes to
    +n_modes/2, and a count-1 axis keeps its n_a = 0 slot."""
    return [grid.modes_1d[:c] % size for c, size in zip(grid.mode_counts, sizes)]


def _onto_x_grid(grid: GridSpec, data: np.ndarray, sizes: tuple) -> np.ndarray:
    """The coefficients ``data`` (trailing axes grid.shape, any leading
    axes) at their slots on the x-grid of ``sizes``, zeros elsewhere."""
    if sizes == grid.mode_counts:
        return data
    lead = data.ndim - 2 * grid.d
    big = np.zeros(data.shape[:lead] + sizes + (grid.v_points,) * grid.d, dtype=np.complex128)
    big[(slice(None),) * lead + np.ix_(*_slots(grid, sizes))] = data
    return big


def _from_x_grid(grid: GridSpec, coeffs: np.ndarray, sizes: tuple) -> np.ndarray:
    """Inverse of _onto_x_grid: the stored modes of x-grid coefficients
    ``coeffs`` (any leading axes), every other coefficient truncated."""
    if sizes == grid.mode_counts:
        return coeffs
    lead = coeffs.ndim - 2 * grid.d
    return coeffs[(slice(None),) * lead + np.ix_(*_slots(grid, sizes))]


def _x_values(grid: GridSpec, data: np.ndarray, sizes: tuple) -> np.ndarray:
    """The synthesis of x_synthesize for coefficients ``data`` with
    trailing axes grid.shape and any leading axes (one transform per
    leading index), on the x-grid of validated ``sizes``."""
    big = _onto_x_grid(grid, data, sizes)
    # each axis transforms into one output array: the embedding itself when
    # it is a fresh copy, never the caller's data
    out = np.empty(big.shape, dtype=np.complex128) if big is data else big
    lead = big.ndim - 2 * grid.d
    values = np.fft.ifftn(big, axes=range(lead, lead + grid.d), out=out)
    values *= math.prod(sizes)
    return values


def _x_coeffs(grid: GridSpec, values: np.ndarray, sizes: tuple) -> np.ndarray:
    """The analysis of x_analyze for ``values`` with trailing axes the
    x-grid of ``sizes`` and the v-grid, any leading axes: the stored
    modes, every other coefficient truncated."""
    coeffs = np.empty(values.shape, dtype=np.complex128)
    lead = values.ndim - 2 * grid.d
    np.fft.fftn(values, axes=range(lead, lead + grid.d), out=coeffs)
    coeffs /= math.prod(sizes)
    return _from_x_grid(grid, coeffs, sizes)


def x_synthesize(fld: PhaseField, m=None) -> np.ndarray:
    """Values f(x, v) on the x-grid of size ``m`` (the mode counts by
    default; an int >= n_modes zero-pads every axis of count > 1 for
    dealiased products), shape sizes + (P,)*d: the stored modes are
    embedded at their labels with zeros elsewhere, then inverse x-DFT per
    fixed v.  An axis of count 1 has one x-node: the values are constant
    along it."""
    return _x_values(fld.grid, fld.data, _x_sizes(fld.grid, m))


def x_analyze(grid: GridSpec, values: np.ndarray, m=None) -> PhaseField:
    """Inverse of x_synthesize on the x-grid of size ``m``, followed by
    truncation to the stored modes."""
    sizes = _x_sizes(grid, m)
    if values.shape != sizes + (grid.v_points,) * grid.d:
        raise ValueError(f"values shape {values.shape} does not match grid")
    return PhaseField(grid, _x_coeffs(grid, values, sizes))


def _mode_support(grid: GridSpec, data: np.ndarray) -> tuple:
    """Per-axis mode counts of the x-support of ``data`` (trailing axes
    grid.shape, any leading axes): n_modes on an axis where some
    coefficient with n_a != 0 is nonzero, 1 on an axis along which the
    data are exactly invariant.  The test is exact: a nonzero coefficient
    of any size keeps its axis.  Q is local in x and the free flow is
    diagonal in n, so data invariant along x_a stay so under the
    equation, and one x_a-mode carries them."""
    lead = data.ndim - 2 * grid.d
    support = np.any(data, axis=tuple(range(lead)) + tuple(lead + a for a in grid.v_axes))
    return tuple(
        grid.n_modes if np.delete(support, 0, axis=a).any() else 1 for a in range(grid.d)
    )


def restrict_modes(obj, mode_counts=None):
    """``obj`` (a PhaseField or Trajectory) on its grid with the given
    per-axis mode counts, each n_modes or 1; None takes the data's own
    x-support (_mode_support).  An axis of count 1 keeps the n_a = 0 slab
    alone; a nonzero coefficient there with n_a != 0 is a ValueError, so
    restriction never loses data."""
    grid, data = obj.grid, obj.data
    counts = _mode_support(grid, data) if mode_counts is None else mode_counts
    sub = replace(grid, mode_counts=counts)
    lead = data.ndim - 2 * grid.d
    for a, c in enumerate(sub.mode_counts):
        if data[(slice(None),) * (lead + a) + (slice(c, None),)].any():
            raise ValueError(f"mode counts {sub.mode_counts} would drop nonzero modes")
    kept = (slice(None),) * lead + tuple(slice(c) for c in sub.mode_counts)
    return replace(obj, grid=sub, data=np.ascontiguousarray(data[kept]))


def embed_modes(obj):
    """``obj`` (a PhaseField or Trajectory) on the full grid, every mode
    that its grid leaves out an exact zero: the inverse of
    restrict_modes."""
    full = replace(obj.grid, mode_counts=None)
    data = obj.data
    if not obj.grid.is_full:
        lead = data.ndim - 2 * full.d
        data = np.zeros(data.shape[:lead] + full.shape, dtype=np.complex128)
        data[(slice(None),) * lead + tuple(slice(c) for c in obj.grid.mode_counts)] = obj.data
    return replace(obj, grid=full, data=data)


def _v_to_xi_axis_phases(grid: GridSpec) -> np.ndarray:
    # ftil_k = dv * exp(-i k dxi V) * P * ifft(fhat)_k, per axis
    k = _fft_modes(grid.v_points).astype(float)
    return np.exp(-1j * k * grid.dxi * grid.v_extent)


def v_to_xi(fld: PhaseField) -> np.ndarray:
    """ftil(n, xi) on the xi-grid: ftil = dv^d sum_v fhat exp(+i xi.v).

    Exact (trigonometric) on the grid; Plancherel against the (n, v)
    representation carries the factor (2pi)^(d/2) per the constants sheet.
    """
    g = fld.grid
    out = np.fft.ifftn(fld.data, axes=g.v_axes) * (g.v_points * g.dv) ** g.d
    ph = _v_to_xi_axis_phases(g)
    for ax in g.v_axes:
        shape = [1] * (2 * g.d)
        shape[ax] = g.v_points
        out = out * ph.reshape(shape)
    return out


def xi_to_v(grid: GridSpec, ftil: np.ndarray) -> PhaseField:
    """Exact inverse of v_to_xi."""
    if ftil.shape != grid.shape:
        raise ValueError(f"ftil shape {ftil.shape} does not match grid")
    out = np.array(ftil, dtype=np.complex128)
    return PhaseField(grid, _xi_to_v_inplace(grid, out, grid.v_axes))


def _xi_to_v_inplace(grid: GridSpec, arr: np.ndarray, axes) -> np.ndarray:
    """The xi_to_v transform over ``axes`` of a complex128 array, reusing
    its buffer: the per-axis phase multiplies, the FFT and the scaling
    all write into ``arr``, which is returned."""
    ph = np.conj(_v_to_xi_axis_phases(grid))
    for ax in axes:
        shape = [1] * arr.ndim
        shape[ax] = grid.v_points
        arr *= ph.reshape(shape)
    np.fft.fftn(arr, axes=axes, out=arr)
    arr /= (grid.v_points * grid.dv) ** grid.d
    return arr


def xi_phase_matrix(grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """The (npts, v_points^d) matrix dv^d exp(i xi.v) of exact off-grid
    evaluation at ``points`` (npts, d), v in flat C order: the one
    off-grid xi evaluator, ``xi_phase_matrix(g, pts) @ coeffs`` with one
    column of v-coefficients per x-node or mode.

    The phase separates over the tensor v-grid, exp(i xi.v) =
    prod_a exp(i xi_a v_a), so the matrix is a row-wise product of d
    (npts, v_points) exponential tables: one complex exp per point and
    axis node, then one broadcast multiply per axis.
    """
    points = np.asarray(points, dtype=float)
    npts = len(points)
    out = np.exp(1j * np.outer(points[:, 0], grid.v_1d)) * grid.dv**grid.d
    for a in range(1, grid.d):
        table = np.exp(1j * np.outer(points[:, a], grid.v_1d))
        out = (out[:, :, None] * table[:, None, :]).reshape(npts, -1)
    return out


def _reflect_n(grid: GridSpec, data: np.ndarray) -> np.ndarray:
    """data at -n: the mode reflection n -> -n on every n-axis."""
    for ax, c in zip(grid.n_axes, grid.mode_counts):
        data = np.take(data, (-np.arange(c)) % c, axis=ax)
    return data


def conjugate_symmetry_defect(fld: PhaseField) -> float:
    """Max deviation from fhat(-n, v) == conj(fhat(n, v)) (reality of f)."""
    flipped = _reflect_n(fld.grid, fld.data)
    return float(np.max(np.abs(flipped - np.conj(fld.data))))


def save_field(fld: PhaseField, path) -> None:
    """Binary snapshot: magic 'KFL1', <u4 d, <u4 n_modes, <u4 v_points,
    <f8 V, then complex128 (interleaved re/im) row-major, n-axes first.
    The header has one mode count, so a grid whose per-axis counts differ
    is a ValueError (embed_modes first)."""
    g = fld.grid
    if not g.is_full:
        raise ValueError(f"a snapshot needs n_modes on every axis, not {g.mode_counts}")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", g.d, g.n_modes, g.v_points))
        fh.write(struct.pack("<d", g.v_extent))
        fh.write(np.ascontiguousarray(fld.data).astype("<c16").tobytes())


def load_field(path) -> PhaseField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        d, n_modes, v_points = struct.unpack("<III", fh.read(12))
        (v_extent,) = struct.unpack("<d", fh.read(8))
        grid = make_grid(d, n_modes, v_extent, v_points)
        count = n_modes**d * v_points**d
        data = np.frombuffer(fh.read(16 * count), dtype="<c16").reshape(grid.shape)
    return PhaseField(grid, data.astype(np.complex128))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """complex128 array of shape ``shape``, bit for bit
    ``rng.standard_normal(shape) + 1j * rng.standard_normal(shape)``: the
    real parts are drawn first, then the imaginary parts, through one
    float64 buffer, so the draw peaks at 1.5x the result's bytes, not 3x."""
    out = np.empty(shape, dtype=np.complex128)
    buf = rng.standard_normal(shape)
    out.real = buf
    rng.standard_normal(out=buf)
    out.imag = buf
    return out


def random_field(grid: GridSpec, seed, real: bool = False) -> PhaseField:
    """Unit-normalized complex Gaussian field (one _complex_normal draw,
    normalized in place); with real=True the coefficients are symmetrized
    so the physical f is real-valued."""
    rng = np.random.default_rng(seed)
    data = _complex_normal(rng, grid.shape)
    if real:
        data = 0.5 * (data + np.conj(_reflect_n(grid, data)))
    fld = PhaseField(grid, data)
    nrm = fld.l2_norm()
    if nrm > 0:
        fld.data /= nrm
    return fld
