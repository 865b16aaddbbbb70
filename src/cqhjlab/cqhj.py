"""The complex momentum-field representation: the map psi -> p, its inverse
up to a scale factor, the quantum-Hamiltonian field, the closed momentum
evolution right-hand side, and numerical residuals of the identity chain
that eliminates the wave function from the dynamics.

Internal units hbar = m = 1. The momentum field p = -i (grad psi)/psi has
real part equal to the classical momentum (phase gradient) and imaginary
part equal to minus the log-magnitude gradient (osmotic component). Points
where |psi| falls below a threshold fraction of its peak are masked: p is
not defined at nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AllMasked, NodePresent
from .grid import (
    Boundary,
    Field,
    Grid,
    _adopt,
    _check_finite,
    _derivative_op,
    _fd_matrix,
    _readonly,
    cumulative_integral,
    gradient,
    laplacian,
    make_field,
    norm,
    require_same_grid,
)
from .states import Potential

DEFAULT_NODE_THRESHOLD = 1e-6
# grid points masked_stats drops on each side of a masked point
STATS_STENCIL_WIDTH = 3


@dataclass(frozen=True)
class MomentumField:
    """Complex momentum field on a grid with a node mask.

    Masked entries hold 0 and mean "p is not defined here"; every unmasked
    entry is finite. The field is degree zero in the source wave function.
    """

    field: Field
    node_mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.node_mask, dtype=bool)
        if m.shape != (self.field.grid.n_points,):
            raise ValueError("node mask does not match the grid")
        object.__setattr__(self, "node_mask", _readonly(m))

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def classical(self) -> np.ndarray:
        """Real part: the classical momentum, the phase gradient."""
        return self.field.values.real

    @property
    def osmotic(self) -> np.ndarray:
        """Imaginary part: minus the log-magnitude gradient."""
        return self.field.values.imag

    def require_nodeless(self) -> "MomentumField":
        if self.node_mask.any():
            raise NodePresent(
                f"{int(self.node_mask.sum())} masked node points present"
            )
        return self


def _node_mask(amp: np.ndarray, node_threshold: float) -> np.ndarray:
    """Points where the magnitude amp = |psi| falls below node_threshold
    times its peak.

    A non-finite entry is never masked, so the derivative taken next
    reports it as NonFiniteField.
    """
    peak = amp.max()
    if peak <= 0.0:
        raise AllMasked("wave function vanishes identically")
    mask = amp < node_threshold * peak
    if mask.all():
        raise AllMasked("wave function vanishes everywhere at the node threshold")
    return mask


def psi_to_p(psi: Field, node_threshold: float = DEFAULT_NODE_THRESHOLD) -> MomentumField:
    """Momentum field p = -i (grad psi)/psi, masked near nodes of psi; the
    Field wrapper of _psi_to_p."""
    vals, mask = _psi_to_p(psi.values, _derivative_op(psi.grid, 1), node_threshold)
    return _adopt(MomentumField, field=_adopt(Field, grid=psi.grid, values=vals), node_mask=mask)


def _psi_to_p(values: np.ndarray, derivative, node_threshold: float):
    """(p, node mask) of raw psi values, with derivative the grid's
    _derivative_op(grid, 1); AllMasked, then NonFiniteField. values is only
    read; p is a fresh array."""
    mask = _node_mask(np.abs(values), node_threshold)
    _check_finite(values)
    dpsi = derivative(values)
    np.multiply(-1j, dpsi, out=dpsi)
    p = np.zeros(values.shape, values.dtype)
    np.divide(dpsi, values, out=p, where=~mask)
    return p, mask


def p_to_psi(p: MomentumField) -> tuple[Field, float]:
    """Reconstruct the wave function from a nodeless momentum field:
    psi = exp(i * integral of p from the left edge), then normalized.

    Returns the normalized state and the log of the real scale factor that
    was applied: psi = raw * exp(log_scale). On periodic grids the
    cumulative integral demands single-valuedness.
    """
    p.require_nodeless()
    action = cumulative_integral(p.field)  # complex action/hbar, anchored left
    raw = np.exp(1j * action.values)
    raw_field = make_field(p.grid, raw)
    scale = norm(raw_field)
    psi = Field(p.grid, raw / scale)
    return psi, -float(np.log(scale))


def dilated_mask(mask: np.ndarray, grid: Grid, width: int = 3) -> np.ndarray:
    """Node mask grown by `width` grid points on each side, so derivative
    stencils evaluated outside it never touch a masked point. The growth
    wraps around a periodic grid and stops at the walls of a box grid."""
    periodic = grid.boundary is Boundary.PERIODIC
    out = mask.copy()
    for s in range(1, width + 1):
        out[s:] |= mask[:-s]
        out[:-s] |= mask[s:]
        if periodic:
            out[:s] |= mask[-s:]
            out[-s:] |= mask[:s]
    return out


def _nearest_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace masked entries by the nearest unmasked value (no jumps at the
    mask boundary, so global derivatives of the filled field stay tame)."""
    if not mask.any():
        return values
    idx = np.arange(len(values))
    ok = np.flatnonzero(~mask)
    nearest = ok[np.clip(np.searchsorted(ok, idx), 0, len(ok) - 1)]
    left = ok[np.clip(np.searchsorted(ok, idx) - 1, 0, len(ok) - 1)]
    pick = np.where(np.abs(nearest - idx) <= np.abs(idx - left), nearest, left)
    out = values.copy()
    out[mask] = values[pick[mask]]
    return out


def _segments(mask: np.ndarray):
    """Contiguous unmasked index runs as (start, stop) pairs, stop exclusive."""
    ok = np.flatnonzero(~mask)
    if ok.size == 0:
        raise AllMasked("every grid point is masked")
    breaks = np.flatnonzero(np.diff(ok) > 1)
    starts = np.r_[ok[0], ok[breaks + 1]]
    stops = np.r_[ok[breaks] + 1, ok[-1] + 1]
    return list(zip(starts, stops))


def _masked_gradient(
    values: np.ndarray, mask: np.ndarray, grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of a field that is only defined off-mask.

    With an empty mask this is the plain grid gradient. Otherwise each
    contiguous unmasked run is differentiated independently with 4th-order
    stencils (one-sided at run ends); runs too short for the stencil are
    masked in the output. Never differentiates across a masked zone.
    """
    if not mask.any():
        return gradient(Field(grid, values)).values, mask
    out = np.zeros_like(values)
    out_mask = mask.copy()
    for start, stop in _segments(mask):
        if stop - start < 6:
            out_mask[start:stop] = True
            continue
        out[start:stop] = (_fd_matrix(stop - start, 1, False) @ values[start:stop]) / grid.dx
    return out, out_mask


def quantum_hamiltonian_field(p: MomentumField, V: Potential) -> Field:
    """The quantum-Hamiltonian field H = V + p^2/2 - (i/2) grad p.

    On energy eigenstates H is spatially constant and equals the energy.
    Masked fields are differentiated segment-wise so node zones never
    contaminate the off-mask values, which are the only meaningful ones.
    """
    require_same_grid(p.field, V.grid)
    if p.node_mask.all():
        raise NodePresent("momentum field is masked everywhere")
    dp, _ = _masked_gradient(p.values, p.node_mask, p.grid)
    vals = V.samples + 0.5 * p.values**2 - 0.5j * dp
    return Field(p.grid, vals)


class RhsForm(Enum):
    EXPANDED = "expanded"  # -grad V - 1/2 grad(p^2) + (i/2) grad(grad p)
    CANONICAL = "canonical"  # -grad H


def cqhj_rhs(
    p: MomentumField,
    V: Potential,
    form: RhsForm = RhsForm.EXPANDED,
) -> Field:
    """Right-hand side of the closed momentum evolution equation,
    p_t = -grad V - 1/2 grad(p^2) + (i/2) grad(grad p).

    Both forms build the second-derivative term as grad(grad p), so the
    expanded form and the canonical -grad H form agree to roundoff. Fields
    with masked nodes are differentiated segment-wise; the returned values
    are meaningful off-mask only.
    """
    require_same_grid(p.field, V.grid)
    mask = p.node_mask
    if mask.all():
        raise NodePresent("momentum field is masked everywhere")
    if form is RhsForm.CANONICAL:
        H = quantum_hamiltonian_field(p, V)
        dH, _ = _masked_gradient(H.values, mask, p.grid)
        return Field(p.grid, -dH)
    gV, _ = _masked_gradient(V.samples.astype(np.complex128), mask, p.grid)
    gp2, _ = _masked_gradient(p.values**2, mask, p.grid)
    dp, dmask = _masked_gradient(p.values, mask, p.grid)
    ggp, _ = _masked_gradient(dp, dmask, p.grid)
    return Field(p.grid, -gV - 0.5 * gp2 + 0.5j * ggp)


def hamiltonian_field_from_state(
    psi: Field,
    V: Potential,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> tuple[Field, np.ndarray]:
    """Quantum-Hamiltonian field evaluated directly from the wave function,
    H = V - (1/2) (lap psi)/psi.

    Algebraically identical to the momentum-field form, but numerically
    robust near nodes because psi itself stays smooth there. Returns the
    field together with the node mask (entries under the threshold hold V).
    """
    require_same_grid(psi, V.grid)
    mask = _node_mask(np.abs(psi.values), node_threshold)
    vals = _hamiltonian_field(V, psi.check_finite().values, mask)
    return _adopt(Field, grid=psi.grid, values=vals), mask


def _hamiltonian_field(V: Potential, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """hamiltonian_field_from_state's values from finite psi values and the
    node mask, in a fresh array."""
    lp = _derivative_op(V.grid, 2)(values)
    vals = np.array(V.samples, dtype=np.complex128)
    ok = ~mask
    vals[ok] -= 0.5 * lp[ok] / values[ok]
    return vals


def cqhj_rhs_from_state(
    psi: Field,
    V: Potential,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> tuple[Field, np.ndarray]:
    """Canonical-form right-hand side -grad H with H evaluated from psi.
    Returns the field and the node mask of the evaluation.

    Masked entries of H take the nearest off-mask value before the global
    derivative: the fill keeps the field jump-free so the derivative stays
    clean off the mask.
    """
    H, mask = hamiltonian_field_from_state(psi, V, node_threshold)
    filled = Field(psi.grid, _nearest_fill(H.values, mask))
    return Field(psi.grid, -gradient(filled).values), mask


def masked_stats(field: Field, mask: np.ndarray) -> tuple[complex, float]:
    """(mean, std) of a field over the complement of the dilated mask."""
    keep = ~dilated_mask(mask, field.grid, STATS_STENCIL_WIDTH)
    vals = field.values[keep]
    if vals.size == 0:
        raise NodePresent("mask covers the entire grid")
    mean = vals.mean()
    std = float(np.sqrt(np.mean(np.abs(vals - mean) ** 2)))
    return complex(mean), std


@dataclass(frozen=True)
class DerivationResiduals:
    """Max-abs residuals of the identity chain that closes the momentum
    evolution equation, all evaluated with the wave-function rate taken
    from the linear Schroedinger equation:

    - laplacian_identity: lap psi expressed through p and grad psi
    - weighted_rate: elimination of the psi-rate from the p-weighted term
    - gradient_rate: elimination of the psi-rate from the gradient term
    - closed_form: momentum rate from the psi side minus the closed RHS
    """

    laplacian_identity: float
    weighted_rate: float
    gradient_rate: float
    closed_form: float

    def max(self) -> float:
        return max(
            self.laplacian_identity,
            self.weighted_rate,
            self.gradient_rate,
            self.closed_form,
        )


def derivation_residuals(
    psi: Field,
    V: Potential,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> DerivationResiduals:
    """Numerically verify the elimination chain on a nodeless state."""
    require_same_grid(psi, V.grid)
    p = psi_to_p(psi, node_threshold).require_nodeless()
    pv = p.values
    g = psi.grid

    lap_psi = laplacian(psi).values
    grad_psi = gradient(psi).values
    grad_p = gradient(p.field).values

    # psi_t from the linear Schroedinger equation
    psi_t = -1j * (-0.5 * lap_psi + V.samples * psi.values)
    psi_t_field = Field(g, psi_t)
    ratio = psi_t / psi.values

    r_lap = np.max(np.abs(lap_psi - 1j * (psi.values * grad_p + pv * grad_psi)))

    rhs_weighted = 0.5 * pv * grad_p + 0.5j * pv**3 + 1j * pv * V.samples
    r_weighted = np.max(np.abs(-pv * ratio - rhs_weighted))

    grad_psi_t = gradient(psi_t_field).values
    gV = gradient(Field(g, V.samples.astype(np.complex128))).values
    gp2 = gradient(Field(g, pv**2)).values
    ggp = gradient(Field(g, grad_p)).values
    rhs_gradient = (
        0.5j * ggp - 0.5 * pv * grad_p - 0.5 * gp2 - 0.5j * pv**3 - gV - 1j * pv * V.samples
    )
    r_gradient = np.max(np.abs(-1j * grad_psi_t / psi.values - rhs_gradient))

    p_t = -1j * gradient(Field(g, ratio)).values
    closed = cqhj_rhs(p, V).values
    r_closed = np.max(np.abs(p_t - closed))

    return DerivationResiduals(
        laplacian_identity=float(r_lap),
        weighted_rate=float(r_weighted),
        gradient_rate=float(r_gradient),
        closed_form=float(r_closed),
    )


def unwrapped_phase(psi: Field) -> np.ndarray:
    """Continuous phase profile, unwrapped left to right from the left edge."""
    return np.unwrap(np.angle(psi.values))


def random_nodeless_state(
    grid: Grid,
    rng: np.random.Generator,
    modes: int = 6,
    amplitude: float = 0.35,
) -> Field:
    """Random nodeless periodic state exp(g) with g a band-limited complex
    field: nodelessness is structural (exponentials never vanish)."""
    L = grid.length
    g = np.zeros(grid.n_points, dtype=np.complex128)
    for j in range(1, modes + 1):
        k = 2.0 * np.pi * j / L
        c_plus = (rng.normal() + 1j * rng.normal()) / j
        c_minus = (rng.normal() + 1j * rng.normal()) / j
        g += c_plus * np.exp(1j * k * grid.x) + c_minus * np.exp(-1j * k * grid.x)
    scale = np.max(np.abs(g))
    if scale > 0:
        g *= amplitude / scale
    vals = np.exp(g)
    n = norm(Field(grid, vals))
    return make_field(grid, vals / n)
