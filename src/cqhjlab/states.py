"""Reference wave functions and potentials: Gaussian packets, harmonic
oscillator eigenstates from the stable Hermite-function recurrence, the
linear Hamiltonian of each grid and method, its eigensolver, superpositions.

These are the oracles the dynamical solvers are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainOverflow,
    UnresolvedState,
    ZeroState,
)
from .grid import (
    Boundary,
    Field,
    Grid,
    _derivative_op,
    _fd_matrix,
    _normalized,
    _readonly,
    _scaled_rows,
    _spectral_multiplier,
    laplacian,
    make_field,
    norm,
    require_same_grid,
)

# largest Hamiltonian residual ho_eigenstate accepts before calling the
# state unresolved on the grid
EIGENSTATE_RESIDUAL_TOL = 1e-6
# the highest oscillator state ho_eigenstate's recurrence builds, and the
# grid points per state solve_eigenstates needs, which scenario also reads
HO_TOP_INDEX, POINTS_PER_STATE = 20, 8


@dataclass(frozen=True)
class Potential:
    """Real potential sampled on a grid. Immutable value object: two
    potentials are equal when they share the grid and their samples are
    bitwise equal, and equal potentials hash alike."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.grid.n_points,):
            raise ValueError("potential samples do not match the grid")
        if not np.all(np.isfinite(s)):
            raise ValueError("potential samples must be finite")
        object.__setattr__(self, "samples", _readonly(s))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.grid == other.grid and self.samples.tobytes() == other.samples.tobytes()

    def __hash__(self):
        # the samples are read-only, so their bytes are a sound hash
        return hash((self.grid, self.samples.tobytes()))


def free_potential(grid: Grid) -> Potential:
    return Potential(grid, np.zeros(grid.n_points))


def harmonic_potential(grid: Grid, omega: float) -> Potential:
    if omega <= 0:
        raise ValueError("omega must be positive")
    return Potential(grid, 0.5 * omega**2 * grid.x**2)


def box_potential(grid: Grid) -> Potential:
    """Particle in a box: zero potential, hard walls from the Box boundary."""
    if grid.boundary is not Boundary.BOX:
        raise ValueError("box potential requires a Box grid")
    return Potential(grid, np.zeros(grid.n_points))


def double_well_potential(grid: Grid, a: float, b: float) -> Potential:
    """Quartic double well V(x) = a (x^2 - b^2)^2 with minima at +-b."""
    if a <= 0 or b <= 0:
        raise ValueError("double-well shape parameters must be positive")
    return Potential(grid, a * (grid.x**2 - b**2) ** 2)


def custom_potential(grid: Grid, samples) -> Potential:
    return Potential(grid, samples)


class Method(Enum):
    SPLIT_STEP = "split_step"
    CRANK_NICOLSON = "crank_nicolson"
    RK4 = "rk4"


class Hamiltonian:
    """H0 = -1/2 d^2/dx^2 + V as the method steps with it on V's grid; build
    it with hamiltonian(V, method). The kinetic operator is exactly symmetric:
    on box grids, for every method, D2 - dx^2/12 D2^2 with D2 the three-point
    stencil clipped at the walls, where psi = 0; on periodic grids the wrapped
    5-point stencil for Crank-Nicolson and the spectral -k^2 for split-step
    and RK4. `matrix` is H0 on the unknowns `inner` (a box grid's interior,
    every point of a periodic one), sparse for the stencils and dense for the
    spectral operator; its eigenstates are stationary under the method. The
    sparse matrix is kept; the dense n x n one is built anew on each access,
    so that a cached Hamiltonian holds no dense array."""

    def __init__(self, V: Potential, method: Method):
        grid = self.grid = V.grid
        self.V, self.method = V, method
        self.inner = slice(1, -1) if grid.boundary is Boundary.BOX else slice(None)
        self._L = None  # the kinetic stencil; None for the spectral operator
        if grid.boundary is Boundary.PERIODIC and method is not Method.CRANK_NICOLSON:
            return
        import scipy.sparse as sp

        if grid.boundary is Boundary.BOX:
            n, inv = grid.n_points - 2, 1.0 / grid.dx**2
            diagonals = [np.full(n, -2.0 * inv), np.full(n - 1, inv), np.full(n - 1, inv)]
            D2 = sp.diags_array(diagonals, offsets=[0, 1, -1], format="csr")
            self._L = (D2 - (grid.dx**2 / 12.0) * (D2 @ D2)).tocsr()
        else:
            self._L = (1.0 / grid.dx**2) * _fd_matrix(grid.n_points, 2, True)
        self._sparse = (-0.5 * self._L + sp.diags_array(V.samples[self.inner])).tocsc()

    @property
    def matrix(self):
        if self._L is not None:
            return self._sparse
        from scipy.linalg import circulant

        M = circulant(np.fft.ifft(_spectral_multiplier(self.grid, 2)).real)
        M *= -0.5
        M[np.diag_indices_from(M)] += self.V.samples
        return M

    def apply(self, values: np.ndarray) -> np.ndarray:
        """H0 values on the full grid, in a fresh array; V values at box walls.
        A stack of states is taken along its last axis in one FFT or sparse
        product, each row bitwise its own apply."""
        if self._L is None:
            return -0.5 * _derivative_op(self.grid, 2)(values) + self.V.samples * values
        out = self.V.samples * values
        out[..., self.inner] += -0.5 * (self._L @ values[..., self.inner].T).T
        return out


@lru_cache(maxsize=32)
def hamiltonian(V: Potential, method: Method) -> Hamiltonian:
    """The Hamiltonian of V and the method, built once per equal V and method."""
    return Hamiltonian(V, method)


@dataclass(frozen=True)
class EigenPair:
    """Normalized bound state with its energy (internal units)."""

    energy: float
    state: Field


def hamiltonian_residual(pair: EigenPair, V: Potential) -> float:
    """Relative residual |H0 psi - E psi| / |psi| of a candidate eigenpair,
    with the grid's derivative operator (one-sided rows at box edges)."""
    psi = pair.state
    require_same_grid(psi, V.grid)
    hp = -0.5 * laplacian(psi).values + V.samples * psi.values
    return norm(Field(psi.grid, hp - pair.energy * psi.values)) / norm(psi)


def gaussian_packet(grid: Grid, x0: float, k0: float, sigma: float) -> Field:
    """Normalized Gaussian packet exp(-(x-x0)^2/(2 sigma^2) + i k0 x);
    DomainOverflow unless x0 lies strictly inside the grid and the envelope
    stays below 1e-10 of its peak at both edges."""
    if sigma < 4.0 * grid.dx:
        raise UnresolvedState(
            f"sigma = {sigma} is below 4 dx = {4*grid.dx:.3g}; the packet is unresolved"
        )
    if not grid.x_min < x0 < grid.x_max:
        raise DomainOverflow(
            f"packet centre x0 = {x0} is not inside the grid ({grid.x_min}, {grid.x_max})"
        )
    envelope_edges = np.exp(
        -((np.array([grid.x_min, grid.x_max]) - x0) ** 2) / (2.0 * sigma**2)
    )
    if np.max(envelope_edges) >= 1e-10:
        raise DomainOverflow("packet support reaches the domain edge above 1e-10 of peak")
    v = np.exp(-((grid.x - x0) ** 2) / (2.0 * sigma**2) + 1j * k0 * grid.x)
    return make_field(grid, _normalized(grid, v)[0])


def ho_eigenstate(n: int, omega: float, grid: Grid) -> EigenPair:
    """Harmonic-oscillator eigenstate via the normalized Hermite-function
    three-term recurrence; energy (n + 1/2) omega."""
    if not 0 <= n <= HO_TOP_INDEX:
        raise ValueError(f"eigenstate index must be in 0..{HO_TOP_INDEX}")
    if omega <= 0:
        raise ValueError("omega must be positive")
    xi = np.sqrt(omega) * grid.x
    phi_prev = np.zeros(grid.n_points)
    phi = (omega / np.pi) ** 0.25 * np.exp(-0.5 * xi**2)
    for m in range(1, n + 1):
        phi, phi_prev = (
            np.sqrt(2.0 / m) * xi * phi - np.sqrt((m - 1) / m) * phi_prev,
            phi,
        )
    state = make_field(grid, _normalized(grid, phi.astype(np.complex128))[0])
    pair = EigenPair(energy=(n + 0.5) * omega, state=state)
    V = harmonic_potential(grid, omega)
    res = hamiltonian_residual(pair, V)
    if res > EIGENSTATE_RESIDUAL_TOL:
        raise UnresolvedState(
            f"oscillator state n={n} is not resolved: "
            f"residual {res:.3e} > {EIGENSTATE_RESIDUAL_TOL:.1e}"
        )
    return pair


def solve_eigenstates(H: Hamiltonian, count: int) -> list[EigenPair]:
    """Lowest `count` bound states by direct diagonalization of H.matrix, so
    they are stationary under the method H was built for.

    Box grids clamp the wave function to zero at the walls and solve the
    sparse pentadiagonal interior by shift-invert Lanczos below the
    spectrum (the kinetic term is positive, so H > min V - 1); periodic
    grids solve densely. Returned states are grid-normalized, mutually
    orthogonal and sign-fixed for reproducibility.
    """
    from scipy.linalg import eigh
    from scipy.sparse import issparse
    from scipy.sparse.linalg import ArpackError, eigsh

    grid, limit = H.grid, H.grid.n_points // POINTS_PER_STATE
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > limit:
        raise ValueError(f"count must be <= n_points/{POINTS_PER_STATE} = {limit}")
    try:
        if grid.boundary is Boundary.BOX:
            # a fixed start vector makes the iteration repeat exactly
            m = grid.n_points - 2
            energies, vecs = eigsh(
                H.matrix, k=count, sigma=float(H.V.samples.min()) - 1.0, v0=np.ones(m)
            )
            order = np.argsort(energies)
            energies = energies[order]
            full = np.zeros((grid.n_points, count))
            full[1:-1, :] = vecs[:, order]
        else:
            M = H.matrix  # dense for the spectral operator, built on this access
            M = M.toarray() if issparse(M) else M
            energies, full = eigh(M, subset_by_index=(0, count - 1))
    except (np.linalg.LinAlgError, ArpackError) as exc:  # pragma: no cover
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    pairs = []
    for j in range(count):
        v = full[:, j]
        peak = np.argmax(np.abs(v))
        if v[peak] < 0:
            v = -v
        state = make_field(grid, _normalized(grid, v.astype(np.complex128))[0])
        pairs.append(EigenPair(energy=float(energies[j]), state=state))
    return pairs


def superpose(coefficients, states) -> Field:
    """Normalized linear combination of wave functions on a common grid.
    The coefficients are divided by the power of two at or above their
    largest real or imaginary part, exactly, so no product overflows and
    every nonzero finite scale gives one state. ZeroState when the sum is
    zero or cancels below 1e-12 of that part."""
    states = list(states)
    coefficients = [complex(c) for c in coefficients]
    if len(coefficients) != len(states) or not states:
        raise ValueError("need equally many coefficients and states, at least one")
    largest = max(max(abs(c.real), abs(c.imag)) for c in coefficients)
    exponent = math.frexp(largest)[1]
    g = states[0].grid
    acc = np.zeros(g.n_points, dtype=np.complex128)
    for c, s in zip(coefficients, states):
        require_same_grid(states[0], s)
        acc += complex(math.ldexp(c.real, -exponent), math.ldexp(c.imag, -exponent)) * s.values
    values, scale = _normalized(g, acc)
    if scale < 1e-12 * math.ldexp(largest, -exponent):
        raise ZeroState("superposition cancels to roundoff of its largest coefficient")
    return make_field(g, values)


def _position_mean(psi: Field):
    """(<x>, dens, w) of psi: dens is |psi|^2 of psi scaled by the norm rule,
    so no square overflows or underflows, and w the quadrature weights."""
    dens = _scaled_rows(psi.grid, psi.values[None])[1][0] ** 2
    w = psi.grid.quadrature_weights
    return float(np.dot(w, psi.grid.x * dens) / np.dot(w, dens)), dens, w


def position_expectation(psi: Field) -> float:
    """<x> of psi, of any nonzero finite scale."""
    return _position_mean(psi)[0]


def position_variance(psi: Field) -> float:
    """<x^2> - <x>^2 of psi, of any nonzero finite scale; the mean and the
    spread come from one scaled density."""
    mean, dens, w = _position_mean(psi)
    return float(np.dot(w, (psi.grid.x - mean) ** 2 * dens) / np.dot(w, dens))

