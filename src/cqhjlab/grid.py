"""Spatial grid, complex scalar fields and the 1-D differential/integral
operators that every field equation in this package is evaluated on.

The grid's boundary picks the derivative operator: FFT (spectral) on
periodic grids, 4th-order finite differences with one-sided edge rows on
box grids. The wavenumbers and the multipliers (i k)^order are read-only
arrays built once per grid; each spectral transform works in one array of
its own and only reads its input. Public operators wrap raw cores, and a
Field is built only by its constructor, which freezes a copy.

Internal units use hbar = m = 1 throughout; physical units enter only in
the diagnostics layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import GridMismatch, NonFiniteField, PeriodicityViolation, SchemeMismatch, ZeroState


class Boundary(Enum):
    PERIODIC = "periodic"
    BOX = "box"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)  # always copy; never freeze a caller-owned buffer
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _fd_weights(offsets: tuple[int, ...], order: int) -> np.ndarray:
    """Finite-difference weights (in units of dx**-order) for the given
    integer stencil offsets, solved from the moment conditions
    sum_j w_j s_j**m = order! [m == order] in exact rational arithmetic, so
    a central stencil's weights are exactly symmetric or antisymmetric.

    Gauss-Jordan needs no pivoting here: each leading minor of the system
    is the Vandermonde determinant of distinct offsets.
    """
    n = len(offsets)
    rows = [
        [Fraction(s) ** m for s in offsets] + [Fraction(math.factorial(order) * (m == order))]
        for m in range(n)
    ]
    for i in range(n):
        rows[i] = [a / rows[i][i] for a in rows[i]]
        for r in range(n):
            if r != i:
                rows[r] = [a - rows[r][i] * b for a, b in zip(rows[r], rows[i])]
    return _readonly(np.array([float(row[-1]) for row in rows]))


# 4th-order stencils: central interior, one-sided rows at box edges
# (first and second row; the last two rows mirror them), per derivative order.
_C4 = (-2, -1, 0, 1, 2)
_EDGES = {1: ((0, 1, 2, 3, 4), (-1, 0, 1, 2, 3)), 2: ((0, 1, 2, 3, 4, 5), (-1, 0, 1, 2, 3, 4))}

# relative |integral of f| above which cumulative_integral calls a periodic
# field multi-valued
PERIODIC_INTEGRAL_TOLERANCE = 1e-8
# the max|f| between which norm's plain weighted sum of |f|^2 neither
# overflows nor loses digits to underflow, about 1e-146 and 2e146
_F = np.finfo(np.float64)
_NORM_RANGE = (np.sqrt(_F.tiny / _F.eps), np.sqrt(_F.max * _F.eps))


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid with a boundary kind.

    Periodic grids sample [x_min, x_max) with dx = L/n; box grids sample
    [x_min, x_max] inclusive with dx = L/(n-1) and implicit hard walls.
    dx is computed once, at construction, and is left out of eq and repr.
    """

    x_min: float
    x_max: float
    n_points: int
    boundary: Boundary
    dx: float = dc_field(init=False, repr=False, compare=False)
    _x: np.ndarray = dc_field(init=False, repr=False, compare=False)
    _weights: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"x_min and x_max must be finite, got {self.x_min}, {self.x_max}")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max ({self.x_max}) must exceed x_min ({self.x_min})")
        if self.n_points < 16:
            raise ValueError(f"n_points must be >= 16, got {self.n_points}")
        span = self.x_max - self.x_min
        periodic = self.boundary is Boundary.PERIODIC
        object.__setattr__(self, "dx", span / (self.n_points if periodic else self.n_points - 1))
        if periodic:
            x = self.x_min + self.dx * np.arange(self.n_points)
            w = np.full(self.n_points, self.dx)
        else:
            x = np.linspace(self.x_min, self.x_max, self.n_points)
            w = np.full(self.n_points, self.dx)
            w[0] = w[-1] = 0.5 * self.dx
        object.__setattr__(self, "_x", _readonly(x))
        object.__setattr__(self, "_weights", _readonly(w))

    def __reduce__(self):
        # rebuild through the constructor (dx and the read-only arrays)
        return Grid, (self.x_min, self.x_max, self.n_points, self.boundary)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def quadrature_weights(self) -> np.ndarray:
        return self._weights

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered angular wavenumbers (periodic grids), read-only and
        built once per grid."""
        if self.boundary is not Boundary.PERIODIC:
            raise SchemeMismatch("wavenumbers are defined for periodic grids only")
        return _wavenumbers(self.n_points, self.dx)


@lru_cache(maxsize=32)
def _wavenumbers(n: int, dx: float) -> np.ndarray:
    return _readonly(2.0 * np.pi * np.fft.fftfreq(n, d=dx))


def require_same_grid(a: "Field | Grid", b: "Field | Grid") -> Grid:
    ga = a if isinstance(a, Grid) else a.grid
    gb = b if isinstance(b, Grid) else b.grid
    if ga != gb:
        raise GridMismatch(f"grids differ: {ga} vs {gb}")
    return ga


@dataclass(frozen=True)
class Field:
    """Complex scalar field sampled on a grid. Immutable value object: two
    fields are equal when they share the grid and their values are bitwise
    equal, and equal fields hash alike."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"field length {v.shape} does not match grid ({self.grid.n_points},)"
            )
        object.__setattr__(self, "values", _readonly(v))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.grid == other.grid and self.values.tobytes() == other.values.tobytes()

    def __hash__(self):
        # the values are read-only, so their bytes are a sound hash
        return hash((self.grid, self.values.tobytes()))

    def check_finite(self) -> "Field":
        _check_finite(self.values)
        return self


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteField("field contains NaN or Inf entries")


def make_field(grid: Grid, values) -> Field:
    return Field(grid, values).check_finite()


@lru_cache(maxsize=32)
def _spectral_multiplier(grid: Grid, order: int) -> np.ndarray:
    """(i k)^order of a periodic grid, read-only and cached per (grid, order)."""
    mult = (1j * grid.wavenumbers) ** order
    if order % 2 == 1 and grid.n_points % 2 == 0:
        # the unpaired Nyquist mode has no well-defined odd derivative
        mult[grid.n_points // 2] = 0.0
    return _readonly(mult)


@lru_cache(maxsize=32)
def _fd_matrix(n: int, order: int, periodic: bool):
    """4th-order finite-difference operator of the given derivative order on
    n points, in units of dx**-order: central rows, wrapped on periodic
    grids; on box grids the first two rows are one-sided and the last two
    mirror them.

    The CSR arrays are assembled directly and never sorted, so each row
    keeps its entries in stencil order and a matvec sums the terms in that
    order.
    """
    import scipy.sparse as sp

    wc = _fd_weights(_C4, order)
    offsets = np.asarray(_C4)[wc != 0.0]
    wc = wc[wc != 0.0]
    rows = np.arange(n) if periodic else np.arange(2, n - 2)
    central = rows[:, None] + offsets
    blocks = [(central % n if periodic else central, np.broadcast_to(wc, central.shape))]
    if not periodic:
        edges = np.asarray(_EDGES[order])
        we = np.stack([_fd_weights(e, order) for e in _EDGES[order]])
        blocks.insert(0, (np.arange(2)[:, None] + edges, we))
        blocks.append((np.arange(n - 2, n)[:, None] - edges[::-1], (-1.0) ** order * we[::-1]))
    cols = np.concatenate([c.ravel() for c, _ in blocks])
    data = np.concatenate([w.ravel() for _, w in blocks])
    row_len = np.concatenate([np.full(len(c), c.shape[1]) for c, _ in blocks])
    indptr = np.concatenate([[0], np.cumsum(row_len)])
    return sp.csr_array((data, cols, indptr), shape=(n, n))


@lru_cache(maxsize=32)
def _derivative_op(g: Grid, order: int):
    """The derivative of the given order on g's raw finite values, built once
    per (grid, order): spectral on periodic grids, the box _fd_matrix over
    dx**order otherwise. v is only read; the result is one fresh array."""
    if g.boundary is Boundary.PERIODIC:
        mult = _spectral_multiplier(g, order)

        def derivative(v: np.ndarray) -> np.ndarray:
            vhat = np.fft.fft(v)
            np.multiply(mult, vhat, out=vhat)
            return np.fft.ifft(vhat, out=vhat)
    else:
        D, scale = _fd_matrix(g.n_points, order, False), g.dx**order

        def derivative(v: np.ndarray) -> np.ndarray:
            out = D @ v
            return np.divide(out, scale, out=out)
    return derivative


def _derivative(f: Field, order: int) -> Field:
    f.check_finite()
    return Field(f.grid, _derivative_op(f.grid, order)(f.values))


def gradient(f: Field) -> Field:
    """First spatial derivative of a complex field."""
    return _derivative(f, 1)


def laplacian(f: Field) -> Field:
    """Second spatial derivative of a complex field."""
    return _derivative(f, 2)


def integrate(f: Field) -> complex:
    """Quadrature of f over the domain: rectangle rule on periodic grids,
    trapezoid on box grids."""
    f.check_finite()
    return complex(np.dot(f.grid.quadrature_weights, f.values))


def _sq_norm(g: Grid, amp: np.ndarray) -> float:
    """Squared grid norm of a field with the magnitudes amp."""
    return float(np.dot(g.quadrature_weights, amp**2).real)


def _rescaled(peak):
    """Whether a state of max|f| = peak is divided by peak before its
    squares are taken: peak is finite and nonzero but outside _NORM_RANGE.
    Elementwise on an array of peaks."""
    lo, hi = _NORM_RANGE
    return ((0.0 < peak) & (peak < lo)) | ((hi < peak) & (peak < np.inf))


def norm(f: Field) -> float:
    """Grid norm sqrt(sum w |f|^2); the Field wrapper of _norm."""
    return _norm(f.grid, f.values)


def _norm(g: Grid, values: np.ndarray) -> float:
    """Grid norm of raw values on g, the one rule that squares amplitudes
    for a norm: the plain weighted sum while max|f| lies in _NORM_RANGE (or
    is 0, Inf or NaN), else max|f| norm(f / max|f|), so no square overflows
    or underflows (Blue's scaled norm, as LAPACK's dnrm2)."""
    amp = np.abs(values)
    peak = amp.max()
    if not _rescaled(peak):
        return float(np.sqrt(_sq_norm(g, amp)))
    return float(peak) * float(np.sqrt(_sq_norm(g, amp / peak)))


def _scaled_rows(g: Grid, values: np.ndarray):
    """(values, amp, sq_norms, norms) of a 2-D stack of complex states on g,
    one per row, under norm's rule, the one scale rule of every observable:
    each row that norm rescales is divided, with its magnitudes amp, by its
    max|f| (in a copy; the other rows are taken as they are), sq_norms are
    the squared norms of the rows so divided, one weighted sum per row, and
    norms are norm of each row, bitwise, so no square taken of the values
    overflows or underflows. A row is divided one real part at a time, as
    numpy's complex-by-real division overflows the reciprocal of a
    subnormal peak."""
    amp = np.abs(values)
    peak = amp.max(axis=-1)
    rows = np.flatnonzero(_rescaled(peak))
    scale = np.ones(peak.shape)
    if rows.size:
        scale[rows] = peak[rows]
        values = values.copy()
        values.view(np.float64)[rows] /= scale[rows, None]
        amp[rows] /= scale[rows, None]
    sq = np.array([_sq_norm(g, a) for a in amp])
    return values, amp, sq, scale * np.sqrt(sq)


def _normalized(g: Grid, values: np.ndarray) -> tuple[np.ndarray, float]:
    """(values / norm, norm) of raw complex values of any nonzero finite
    scale on g, divided under _scaled_rows' rule; NonFiniteField for a NaN
    or Inf entry, ZeroState only when every entry is zero."""
    _check_finite(values)
    vals, _, sq, norms = _scaled_rows(g, values[None])
    if not sq[0]:
        raise ZeroState("every entry of the state is zero")
    return vals[0] / math.sqrt(sq[0]), float(norms[0])


def cumulative_integral(f: Field) -> Field:
    """Antiderivative F(x) anchored at the left edge, F(x_min) = 0.

    Periodic grids use the exact spectral antiderivative, with the unpaired
    Nyquist mode of an even grid dropped as in the odd derivatives, and
    demand a (numerically) zero mean, otherwise the result would be
    multi-valued.
    Box grids use trapezoid summation with an endpoint-derivative
    correction, giving 4th-order global accuracy so that the discrete
    gradient inverts this operation to discretization tolerance.
    """
    return Field(f.grid, _antiderivative_op(f.grid)(f.values))


@lru_cache(maxsize=32)
def _antiderivative_op(g: Grid):
    """cumulative_integral on g's raw values, built once per grid; it raises
    NonFiniteField and PeriodicityViolation as that does. v is only read;
    the result is one fresh array."""
    if g.boundary is Boundary.PERIODIC:
        n, weights, length = g.n_points, g.quadrature_weights, g.length
        mult, ramp = _spectral_multiplier(g, 1), g.x - g.x_min
        nonzero = mult != 0.0

        def antiderivative(v: np.ndarray) -> np.ndarray:
            _check_finite(v)
            total = abs(complex(np.dot(weights, v)))
            # relative criterion with an absolute floor: near-zero fields have
            # a harmless (tiny) multivaluedness that must not trip the check
            scale = max(length * float(np.max(np.abs(v))), 1.0)
            if total > PERIODIC_INTEGRAL_TOLERANCE * scale:
                raise PeriodicityViolation(
                    f"cumulative integral on periodic grid is multi-valued: |integral| = "
                    f"{total:.3e} exceeds {PERIODIC_INTEGRAL_TOLERANCE:.1e} * max(L max|f|, 1)"
                )
            F = np.fft.fft(v)
            mean = F[0] / n
            np.divide(F, mult, out=F, where=nonzero)
            # k = 0 carries the mean, added back below as a linear term; the
            # unpaired Nyquist mode of an even grid has no antiderivative
            F[0] = 0.0
            if n % 2 == 0:
                F[n // 2] = 0.0
            np.fft.ifft(F, out=F)
            F += mean * ramp
            F -= F[0]
            return F
    else:
        dx, derivative = g.dx, _derivative_op(g, 1)
        correction = dx**2 / 12.0

        def antiderivative(v: np.ndarray) -> np.ndarray:
            _check_finite(v)
            fp = derivative(v)
            F = np.zeros(v.shape, v.dtype)
            pairs = v[1:] + v[:-1]
            np.multiply(dx, pairs, out=pairs)
            np.divide(pairs, 2.0, out=pairs)
            np.cumsum(pairs, out=F[1:])
            np.subtract(fp, fp[0], out=fp)
            np.multiply(correction, fp, out=fp)
            return np.subtract(F, fp, out=F)
    return antiderivative
