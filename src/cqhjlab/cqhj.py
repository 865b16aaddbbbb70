"""The complex momentum-field representation: the map psi -> p, its inverse
up to a scale factor, the quantum-Hamiltonian field, the closed momentum
evolution right-hand side, and numerical residuals of the identity chain
that eliminates the wave function from the dynamics.

Internal units hbar = m = 1. The momentum field p = -i (grad psi)/psi has
real part equal to the classical momentum (phase gradient) and imaginary
part equal to minus the log-magnitude gradient (osmotic component). p is
not defined at nodes: every reader of a state masks the points near them
by one rule, _node_mask, which is also its finite check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import AllMasked, NodePresent, NonFiniteField
from .grid import (
    Boundary,
    Field,
    Grid,
    _check_finite,
    _derivative_op,
    _fd_matrix,
    _normalized,
    _readonly,
    _scaled_rows,
    cumulative_integral,
    gradient,
    laplacian,
    make_field,
    require_same_grid,
)
from .states import Hamiltonian, Potential

DEFAULT_NODE_THRESHOLD = 1e-6
# grid points masked_stats drops on each side of a masked point
STATS_STENCIL_WIDTH = 3


@dataclass(frozen=True)
class MomentumField:
    """Complex momentum field on a grid with a node mask.

    Masked entries hold 0 and mean "p is not defined here"; every unmasked
    entry is finite. node_threshold is the threshold of the mask rule
    (_node_mask) that made the mask, at which evaluate (forces) also masks
    a pinning target. The field is degree zero in the source wave function.
    Two momentum fields are equal when their fields are (Field) and their
    node masks and node thresholds are the same.
    """

    field: Field
    node_mask: np.ndarray
    node_threshold: float = DEFAULT_NODE_THRESHOLD

    def __post_init__(self):
        _check_node_threshold(self.node_threshold)
        m = np.asarray(self.node_mask, dtype=bool)
        if m.shape != (self.field.grid.n_points,):
            raise ValueError("node mask does not match the grid")
        object.__setattr__(self, "node_mask", _readonly(m))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return self.field, self.node_mask.tobytes(), self.node_threshold

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    def require_nodeless(self) -> "MomentumField":
        if self.node_mask.any():
            raise NodePresent(
                f"{int(self.node_mask.sum())} masked node points present"
            )
        return self


def _check_node_threshold(node_threshold: float) -> None:
    """ValueError unless 0 < node_threshold < 1 (_node_mask)."""
    if not 0.0 < node_threshold < 1.0:
        raise ValueError(f"node_threshold must lie in (0, 1), got {node_threshold}")


def _node_mask(amp: np.ndarray, node_threshold: float) -> np.ndarray:
    """The node-mask rule, also the finite check of every caller: the points
    where the magnitude amp = |psi| falls below node_threshold times its
    peak, of one state or of a stack with one state per row along the last
    axis. ValueError unless 0 < node_threshold < 1, then AllMasked for a
    zero amp, then NonFiniteField for a NaN or Inf entry (or a magnitude
    past the float range), which makes the peak non-finite; a stack raises
    one of them when a row would."""
    _check_node_threshold(node_threshold)
    peak = amp.max(axis=-1, keepdims=amp.ndim > 1)
    if (peak.min() if amp.ndim > 1 else peak) <= 0.0:
        raise AllMasked("wave function vanishes identically")
    if not (peak.max() if amp.ndim > 1 else peak) < np.inf:
        raise NonFiniteField("field contains NaN or Inf entries")
    return amp < node_threshold * peak


def psi_to_p(psi: Field, node_threshold: float = DEFAULT_NODE_THRESHOLD) -> MomentumField:
    """Momentum field p = -i (grad psi)/psi, masked near nodes of psi;
    AllMasked, then NonFiniteField."""
    values = psi.values
    mask = _node_mask(np.abs(values), node_threshold)
    dpsi = -1j * _derivative_op(psi.grid, 1)(values)
    p = np.divide(dpsi, values, out=np.zeros_like(values), where=~mask)
    return MomentumField(Field(psi.grid, p), mask, node_threshold)


def _action_increments(values: np.ndarray, node_threshold: float, periodic: bool):
    """(inc, pair mask) of raw psi values: inc[j] is the increment of the
    complex action S = -i log psi over the pair of points (j, j + 1), the
    integral of p over it, plus the wrap pair (N - 1, 0) on periodic grids:
    1/2 angle((psi[j+1] conj psi[j])^2) - i (log|psi[j+1]| - log|psi[j]|).
    The angle is folded into (-pi/2, pi/2], so a real sign change carries
    no momentum, as in Re p. A pair is masked where either point is
    node-masked, and its increment is finite but meaningless. AllMasked,
    then NonFiniteField, as psi_to_p; values is only read."""
    amp = np.abs(values)
    mask = _node_mask(amp, node_threshold)
    log_amp = np.zeros(amp.shape)
    np.log(amp, out=log_amp, where=~mask)
    if periodic:
        values, log_amp, mask = (np.append(a, a[:1]) for a in (values, log_amp, mask))
    r = values[1:] * values[:-1].conj()
    np.multiply(r, r, out=r)
    inc = np.empty(r.shape, np.complex128)
    np.arctan2(r.imag, r.real, out=inc.real)
    np.multiply(0.5, inc.real, out=inc.real)
    np.subtract(log_amp[:-1], log_amp[1:], out=inc.imag)
    return inc, mask[1:] | mask[:-1]


def p_to_psi(p: MomentumField) -> tuple[Field, float]:
    """Reconstruct the wave function from a nodeless momentum field:
    psi = exp(i * integral of p from the left edge), then normalized.

    Returns the normalized state and the log of the real scale factor that
    was applied: psi = raw * exp(log_scale). On periodic grids the
    cumulative integral demands single-valuedness.
    """
    p.require_nodeless()
    action = cumulative_integral(p.field)  # complex action/hbar, anchored left
    values, scale = _normalized(p.grid, np.exp(1j * action.values))
    return Field(p.grid, values), -float(np.log(scale))


def dilated_mask(mask: np.ndarray, grid: Grid, width: int = 3) -> np.ndarray:
    """Node mask grown by `width` grid points on each side, so derivative
    stencils evaluated outside it never touch a masked point; a stack of
    masks grows along its last axis, row by row. The growth wraps around a
    periodic grid and stops at the walls of a box grid."""
    # pad[j + width] is mask[j], wrapped or False past the ends, and point j
    # is the OR of the 2 width + 1 points pad[j : j + 2 width + 1]
    n = mask.shape[-1]
    if grid.boundary is Boundary.PERIODIC:
        pad = mask[..., np.arange(-width, n + width) % n]
    else:
        pad = np.zeros(mask.shape[:-1] + (n + 2 * width,), bool)
        pad[..., width : width + n] = mask
    out = pad[..., :n].copy()
    for s in range(1, 2 * width + 1):
        out |= pad[..., s : s + n]
    return out


def _masked_gradient(values: np.ndarray, mask: np.ndarray, grid: Grid) -> np.ndarray:
    """Gradient of a field that is only defined off-mask.

    With an empty mask this is the plain grid gradient, finite check
    included. Otherwise each contiguous unmasked run is differentiated
    independently with 4th-order stencils (one-sided at run ends); runs too
    short for the stencil hold 0. Never differentiates across a masked zone.
    A mask that covers the whole grid raises NodePresent.
    """
    if not mask.any():
        _check_finite(values)
        return _derivative_op(grid, 1)(values)
    if mask.all():
        raise NodePresent("momentum field is masked everywhere")
    out = np.zeros_like(values)
    # the unmasked runs [start, stop) begin and end where the padded mask flips
    edges = np.flatnonzero(np.diff(np.r_[True, mask, True]))
    for start, stop in zip(edges[::2], edges[1::2]):
        if stop - start >= 6:
            out[start:stop] = (_fd_matrix(stop - start, 1, False) @ values[start:stop]) / grid.dx
    return out


def quantum_hamiltonian_field(p: MomentumField, V: Potential) -> Field:
    """The quantum-Hamiltonian field H = V + p^2/2 - (i/2) grad p.

    On energy eigenstates H is spatially constant and equals the energy.
    Masked fields are differentiated segment-wise so node zones never
    contaminate the off-mask values, which are the only meaningful ones.
    """
    require_same_grid(p.field, V.grid)
    dp = _masked_gradient(p.values, p.node_mask, p.grid)
    vals = V.samples + 0.5 * p.values**2 - 0.5j * dp
    return Field(p.grid, vals)


class RhsForm(Enum):
    EXPANDED = "expanded"  # -grad V - 1/2 grad(p^2) + (i/2) grad(grad p)
    CANONICAL = "canonical"  # -grad H


def _expanded_rhs(p: np.ndarray, gV: np.ndarray, d) -> np.ndarray:
    """-gV - 1/2 d(p^2) + (i/2) d(d p) on raw arrays: the expanded
    right-hand side, with d the derivative and gV = d(V). A fresh array."""
    return -gV - 0.5 * d(p**2) + 0.5j * d(d(p))


def cqhj_rhs(
    p: MomentumField,
    V: Potential,
    form: RhsForm = RhsForm.EXPANDED,
) -> Field:
    """Right-hand side of the closed momentum evolution equation,
    p_t = -grad V - 1/2 grad(p^2) + (i/2) grad(grad p).

    Both forms build the second-derivative term as grad(grad p), so the
    expanded form and the canonical -grad H form agree to roundoff. Fields
    with masked nodes are differentiated segment-wise (_masked_gradient);
    the returned values are meaningful off-mask only.
    """
    require_same_grid(p.field, V.grid)
    d = partial(_masked_gradient, mask=p.node_mask, grid=p.grid)
    if form is RhsForm.CANONICAL:
        return Field(p.grid, -d(quantum_hamiltonian_field(p, V).values))
    return Field(p.grid, _expanded_rhs(p.values, d(V.samples.astype(np.complex128)), d))


def hamiltonian_field_from_state(
    psi: Field,
    H: Hamiltonian,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> tuple[Field, np.ndarray]:
    """Quantum-Hamiltonian field evaluated directly from the wave function,
    H = (H0 psi)/psi with H0 the linear Hamiltonian (states.Hamiltonian).

    Algebraically identical to the momentum-field form, but numerically
    robust near nodes because psi itself stays smooth there. Returns the
    field together with the node mask (entries under the threshold hold V).
    psi is scaled by grid._scaled_rows first, so its scale never matters.
    """
    g = require_same_grid(psi, H.grid)
    values, amp, _, _ = _scaled_rows(g, psi.values[None])
    mask = _node_mask(amp[0], node_threshold)
    return Field(g, _hamiltonian_field(H.V.samples, values[0], H.apply(values[0]), mask)), mask


def _hamiltonian_field(V: np.ndarray, values: np.ndarray, hvals: np.ndarray, mask: np.ndarray):
    """The H field (H0 psi)/psi off the node mask and V on it, of raw values
    and H0 values of one state or a stack along the last axis; fresh."""
    out = np.where(mask, V, 0j)
    np.divide(hvals, values, out=out, where=~mask)
    return out


def cqhj_rhs_from_state(
    psi: Field,
    H: Hamiltonian,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> tuple[Field, np.ndarray]:
    """Canonical-form right-hand side -grad H, the H field from psi and the
    linear Hamiltonian H (hamiltonian_field_from_state). Returns the field
    and the node mask of the evaluation.

    The field is differentiated segment-wise, as cqhj_rhs does: each
    unmasked run on its own, so no masked value enters the derivative; runs
    shorter than the stencil hold 0, as do masked points.
    """
    field, mask = hamiltonian_field_from_state(psi, H, node_threshold)
    return Field(psi.grid, -_masked_gradient(field.values, mask, psi.grid)), mask


def _masked_moments(values: np.ndarray, mask: np.ndarray, grid: Grid):
    """(mean, std) of each row of a stack of fields over the complement of
    its dilated mask row, as arrays: sums along the rows with the dropped
    points zeroed, so a row's moments do not depend on the rows stacked
    with it. NodePresent when the dilated mask covers a whole row."""
    keep = ~dilated_mask(mask, grid, STATS_STENCIL_WIDTH)
    count = keep.sum(axis=-1)
    if not count.all():
        raise NodePresent("mask covers the entire grid")
    mean = np.where(keep, values, 0.0).sum(axis=-1) / count
    dev = np.where(keep, np.abs(values - mean[..., None]) ** 2, 0.0)
    return mean, np.sqrt(dev.sum(axis=-1) / count)


def masked_stats(field: Field, mask: np.ndarray) -> tuple[complex, float]:
    """(mean, std) of a field over the complement of the dilated mask."""
    mean, std = _masked_moments(field.values[None], mask[None], field.grid)
    return complex(mean[0]), float(std[0])


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
    return make_field(grid, _normalized(grid, np.exp(g))[0])
