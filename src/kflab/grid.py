"""Discretization of the torus-times-velocity phase space and its transforms.

The state of one time slice is kept in the mixed representation
``fhat(n, v)``: Fourier coefficients in position, physical velocity.
All transforms here are exact discrete maps (round-trips hold to
rounding); see :mod:`kflab.conventions` for the normalization sheet.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "PhaseField",
    "make_grid",
    "x_synthesize",
    "x_analyze",
    "v_to_xi",
    "xi_to_v",
    "eval_xi_offgrid",
    "xi_phase_matrix",
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


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters plus precomputed coordinate arrays.

    Attributes:
        d: spatial dimension (2 or 3)
        n_modes: x-Fourier modes per dimension (even)
        v_extent: velocity half-width V; the grid covers [-V, V)
        v_points: velocity points per dimension (even)
    """

    d: int
    n_modes: int
    v_extent: float
    v_points: int
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
        object.__setattr__(self, "modes_1d", _fft_modes(n))
        object.__setattr__(self, "x_1d", 2.0 * np.pi * np.arange(n) / n)
        object.__setattr__(self, "v_1d", -self.v_extent + self.dv * np.arange(p))
        object.__setattr__(self, "xi_1d", self.dxi * _fft_modes(p).astype(float))

    @property
    def dv(self) -> float:
        return 2.0 * self.v_extent / self.v_points

    @property
    def dxi(self) -> float:
        return np.pi / self.v_extent

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n_modes

    @property
    def shape(self) -> tuple:
        return (self.n_modes,) * self.d + (self.v_points,) * self.d

    @property
    def n_axes(self) -> tuple:
        return tuple(range(self.d))

    @property
    def v_axes(self) -> tuple:
        return tuple(range(self.d, 2 * self.d))

    def mode_vectors(self) -> np.ndarray:
        """All mode tuples, shape (n_modes^d, d), flat C order."""
        grids = np.meshgrid(*([self.modes_1d] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def v_vectors(self) -> np.ndarray:
        """All velocity nodes, shape (v_points^d, d), flat C order."""
        grids = np.meshgrid(*([self.v_1d] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def xi_vectors(self) -> np.ndarray:
        """All xi nodes (FFT order per axis), shape (v_points^d, d)."""
        grids = np.meshgrid(*([self.xi_1d] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def nv_dot(self) -> np.ndarray:
        """The tensor n.v over the full (n, v) index set, shape == grid shape."""
        out = np.zeros(self.shape)
        for i in range(self.d):
            n_shape = [1] * (2 * self.d)
            n_shape[i] = self.n_modes
            v_shape = [1] * (2 * self.d)
            v_shape[self.d + i] = self.v_points
            out = out + self.modes_1d.reshape(n_shape) * self.v_1d.reshape(v_shape)
        return out


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
        return float(
            np.sqrt(self.grid.dv**self.grid.d * np.sum(np.abs(self.data) ** 2))
        )

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


def x_synthesize(fld: PhaseField) -> np.ndarray:
    """Values f(x, v) on the x-grid: inverse x-DFT per fixed v."""
    g = fld.grid
    return np.fft.ifftn(fld.data, axes=g.n_axes) * g.n_modes**g.d


def x_analyze(grid: GridSpec, values: np.ndarray) -> PhaseField:
    """Inverse of x_synthesize: x-Fourier coefficients from grid values."""
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid")
    data = np.fft.fftn(values, axes=grid.n_axes) / grid.n_modes**grid.d
    return PhaseField(grid, data)


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
    evaluation at ``points`` (npts, d), v in flat C order.

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


def eval_xi_offgrid(fld: PhaseField, n_index: tuple, xi_star) -> complex:
    """Exact trigonometric evaluation of ftil(n, xi*) at arbitrary xi*.

    ``n_index`` is the mode tuple (integer labels, not storage indices).
    Agrees with v_to_xi at on-grid points to rounding.
    """
    g = fld.grid
    xi_star = np.atleast_1d(np.asarray(xi_star, dtype=float))
    if xi_star.shape != (g.d,):
        raise ValueError(f"xi* must have {g.d} components")
    idx = tuple(int(np.where(g.modes_1d == m)[0][0]) for m in n_index)
    coeffs = fld.data[idx].reshape(-1, 1)
    return complex(eval_xi_points(g, coeffs, xi_star[None, :])[0, 0])


def eval_xi_points(grid: GridSpec, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorized off-grid evaluation for a batch of xi points.

    ``coeffs``: shape (v_points^d, ncols) of v-coefficients (e.g. one
    column per x-node); ``points``: shape (npts, d).  Returns
    (npts, ncols).  This is the exact sum dv^d sum_v c(v) exp(i xi.v),
    one product with :func:`xi_phase_matrix`.
    """
    return xi_phase_matrix(grid, points) @ coeffs


def conjugate_symmetry_defect(fld: PhaseField) -> float:
    """Max deviation from fhat(-n, v) == conj(fhat(n, v)) (reality of f)."""
    g = fld.grid
    flipped = fld.data
    for ax in g.n_axes:
        idx = (-np.arange(g.n_modes)) % g.n_modes
        flipped = np.take(flipped, idx, axis=ax)
    return float(np.max(np.abs(flipped - np.conj(fld.data))))


def save_field(fld: PhaseField, path) -> None:
    """Binary snapshot: magic 'KFL1', <u4 d, <u4 n_modes, <u4 v_points,
    <f8 V, then complex128 (interleaved re/im) row-major, n-axes first."""
    g = fld.grid
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


def random_field(grid: GridSpec, seed, real: bool = False) -> PhaseField:
    """Unit-normalized complex Gaussian field; with real=True the
    coefficients are symmetrized so the physical f is real-valued."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if real:
        flipped = data
        for ax in grid.n_axes:
            idx = (-np.arange(grid.n_modes)) % grid.n_modes
            flipped = np.take(flipped, idx, axis=ax)
        data = 0.5 * (data + np.conj(flipped))
    fld = PhaseField(grid, data)
    nrm = fld.l2_norm()
    if nrm > 0:
        fld.data /= nrm
    return fld
