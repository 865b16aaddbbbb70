"""Pluggable non-potential collapse forces and their gauge-potential lift.

Every non-null force depends on the state only through the momentum field,
which makes it degree zero in the wave function (homogeneity is preserved)
and guarantees it is not the gradient of any function of position alone.
A position-only force would merely shift the potential and keep the
dynamics linear, so no such constructor exists here.

Two routes lift a force to Phi. The public evaluate and gauge_potential
take the p-route: the force field F(p) at the points, then its
antiderivative. The collapse step takes the pair route: every force is
linear in p, so the integral of F over a pair of neighbouring points is the
force of the pair's action increment (cqhj._action_increments), and Phi is
the cumulative sum of those pair forces (_pair_lift), with no derivative
and no antiderivative. The p-route stays as the reference, and its Fields
are built through the constructor. A pinning force holds its pointer
state's wave function, which the p-route reads as its momentum field and
the pair route as its action increments, both masked at the state's node
threshold: the run's node_threshold on the pair route, the momentum
field's (MomentumField.node_threshold) on the p-route.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cqhj import (
    DEFAULT_NODE_THRESHOLD,
    MomentumField,
    _action_increments,
    _node_mask,
    psi_to_p,
)
from .errors import GridMismatch, PeriodicityViolation
# the benchmark's tracer (perfbench/tracing.py) wraps cumulative_integral here
from .grid import (  # noqa: F401
    Boundary,
    Field,
    Grid,
    _antiderivative_op,
    cumulative_integral,
)
from .states import EigenPair

# |mean of F| * L, relative to max(max|F|, 1), up to which gauge_potential
# (and _pair_lift, on the ring sum of the pair forces) drops the mean of a
# force on a periodic grid instead of rejecting it
GAUGE_MEAN_TOLERANCE = 1e-4


class ForceKind(Enum):
    NULL = "null"
    PINNING = "pinning"
    KOSTIN_FRICTION = "kostin_friction"


@dataclass(frozen=True)
class CollapseForce:
    """Descriptor of a collapse force F(p) of the momentum field p.

    kind    which member of the family
    rate    kappa for pinning, gamma for Kostin friction, 0 for null
    target  wave function of the pointer state (PINNING only)

    The target is masked at its reader's node threshold (_force_law).
    """

    kind: ForceKind
    rate: float = 0.0
    target: Field | None = None


def null_force() -> CollapseForce:
    return CollapseForce(kind=ForceKind.NULL)


def pinning_force(target: EigenPair | Field, kappa: float) -> CollapseForce:
    """Force -kappa (p - p_target) pulling the momentum field onto that of
    the pointer state target, an EigenPair or its wave function, so the
    collapse step's Phi is zero at psi = target. A MomentumField raises
    TypeError: the pointer state of a momentum field p is p_to_psi(p)[0].
    A zero or non-finite target raises here, by the node-mask rule
    (cqhj._node_mask: AllMasked, then NonFiniteField)."""
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"pinning rate kappa must be positive and finite, got {kappa}")
    if isinstance(target, EigenPair):
        target = target.state
    if not isinstance(target, Field):
        raise TypeError(
            f"pinning target must be an EigenPair or a wave-function Field, not "
            f"{type(target).__name__}; for a momentum field p pass p_to_psi(p)[0]"
        )
    _node_mask(np.abs(target.values), DEFAULT_NODE_THRESHOLD)
    return CollapseForce(ForceKind.PINNING, kappa, target)


def kostin_friction(gamma: float) -> CollapseForce:
    """Force -gamma Re(p): damps the classical momentum (phase gradient),
    relaxing the state toward the potential's ground state."""
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"friction rate gamma must be positive and finite, got {gamma}")
    return CollapseForce(kind=ForceKind.KOSTIN_FRICTION, rate=gamma)


def evaluate(force: CollapseForce, p: MomentumField) -> Field:
    """Force field for the given momentum field; the Field wrapper of
    _evaluate, with a pinning target masked at p.node_threshold, the
    threshold that masked p. A pinning target on another grid raises
    GridMismatch.

    Masked points contribute zero force (documented regularization near
    nodes, where p itself is undefined).
    """
    if (law := _force_law(force, p.grid, p.node_threshold, pairs=False)) is None:
        return Field(p.grid, np.zeros(p.grid.n_points))
    return Field(p.grid, _evaluate(p.values, p.node_mask, law))


def _force_law(
    force: CollapseForce,
    grid: Grid,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
    pairs: bool = True,
) -> tuple | None:
    """(coef, target, target mask) of a force on grid: -rate, and for
    pinning the target's action increments and pair mask
    (cqhj._action_increments) at node_threshold, the law of the collapse
    step's pair force, or with pairs=False its momentum field and node
    mask, that of evaluate; (-rate, None, None) for Kostin friction and
    None for the null force. A pinning target on another grid raises
    GridMismatch."""
    if force.kind is ForceKind.NULL:
        return None
    if force.kind is ForceKind.KOSTIN_FRICTION:
        return -force.rate, None, None
    target = force.target
    if target.grid != grid:
        raise GridMismatch("pinning target lives on a different grid")
    if pairs:
        periodic = grid.boundary is Boundary.PERIODIC
        return -force.rate, *_action_increments(target.values, node_threshold, periodic)
    p = psi_to_p(target, node_threshold)
    return -force.rate, p.values, p.node_mask


def _evaluate(p: np.ndarray, mask: np.ndarray, law: tuple) -> np.ndarray:
    """The force of a law (coef, target, target mask) at raw values p with
    mask mask, zero on the masks, in a fresh array: coef (p - target) or
    coef Re(p). With momentum values and the target's p it is the force
    field; with action increments and a _force_law it is the pair force,
    zero on every pair that touches a node-masked point."""
    coef, target, target_mask = law
    if target is None:
        F = p.real.astype(np.complex128)
    else:
        F = p - target
        mask = mask | target_mask
    np.multiply(coef, F, out=F)
    F[mask] = 0.0
    return F


def gauge_potential(force_field: Field) -> Field:
    """Line-integral lift Phi with dPhi/dx = F, anchored at the left edge.

    The free additive constant is physically irrelevant: it is absorbed by
    the time-dependent scale factor of the homogeneous dynamics. On
    periodic grids a small mean of F, |mean| L <= GAUGE_MEAN_TOLERANCE *
    max(max|F|, 1), is near-node regularization residue with no
    single-valued lift: it is dropped rather than left to tilt Phi across
    the domain. A larger mean (a winding force) raises PeriodicityViolation.
    """
    g, F = force_field.grid, force_field.values
    if g.boundary is Boundary.PERIODIC:
        mean = np.dot(g.quadrature_weights, F) / g.length
        if abs(mean) * g.length > GAUGE_MEAN_TOLERANCE * max(float(np.max(np.abs(F))), 1.0):
            raise PeriodicityViolation(
                f"force on periodic grid winds: |mean| * L = {abs(mean) * g.length:.3e} "
                f"exceeds {GAUGE_MEAN_TOLERANCE:.1e} * max(max|F|, 1)"
            )
        F = F - mean
    return Field(g, _antiderivative_op(g)(F))


def _pair_lift(f: np.ndarray, g: Grid) -> np.ndarray:
    """Phi on g from the pair forces f of the collapse step (_evaluate of
    action increments): their cumulative sum, Phi = 0 at the left edge, so
    Phi is flat across a masked zone. On periodic grids the wrap pair closes
    the ring, and the ring sum keeps gauge_potential's rule: up to
    GAUGE_MEAN_TOLERANCE * max(max|f| / dx, 1) it is spread evenly over the
    pairs and dropped, above it PeriodicityViolation. f is only read."""
    phi = np.zeros(g.n_points, np.complex128)
    if g.boundary is Boundary.PERIODIC:
        ring = f.sum()
        if abs(ring) > GAUGE_MEAN_TOLERANCE * max(float(np.max(np.abs(f))) / g.dx, 1.0):
            raise PeriodicityViolation(
                f"force on periodic grid winds: ring sum of the pair forces "
                f"{abs(ring):.3e} exceeds {GAUGE_MEAN_TOLERANCE:.1e} * max(max|F|, 1)"
            )
        f = f[:-1] - ring / f.size
    np.cumsum(f, out=phi[1:])
    return phi
