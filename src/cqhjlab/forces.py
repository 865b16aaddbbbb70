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
the cumulative sum of those pair forces (_pair_lift), with no derivative and
no antiderivative. The p-route stays as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cqhj import MomentumField, _action_increments, psi_to_p
from .errors import GridMismatch, PeriodicityViolation
# the benchmark's tracer (perfbench/tracing.py) wraps cumulative_integral here
from .grid import (  # noqa: F401
    Boundary,
    Field,
    Grid,
    _adopt,
    _antiderivative_op,
    _readonly,
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
    kappa   pinning rate (PINNING only)
    gamma   friction rate (KOSTIN_FRICTION only)
    target  momentum field of the pointer state (PINNING only)

    A pinning force also holds the target's action increments and pair mask
    (cqhj._action_increments), taken once when it is built: pinning_force
    passes them exactly from a wave-function target; otherwise they are the
    differences of the antiderivative of target, which must be nodeless
    (_momentum_pairs).
    """

    kind: ForceKind
    kappa: float = 0.0
    gamma: float = 0.0
    target: MomentumField | None = None
    _target_pairs: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.target is not None and self._target_pairs is None:
            object.__setattr__(self, "_target_pairs", _momentum_pairs(self.target))


def null_force() -> CollapseForce:
    return CollapseForce(kind=ForceKind.NULL)


def pinning_force(
    target: MomentumField | EigenPair | Field,
    kappa: float,
    node_threshold: float = 1e-6,
) -> CollapseForce:
    """Force -kappa (p - p_target) pulling the momentum field onto that of
    the chosen pointer state. EigenPair / wave-function targets are
    converted with psi_to_p, and their action increments are taken exactly
    from the wave function (cqhj._action_increments, same node_threshold),
    so the collapse step's Phi is zero at psi = target; a MomentumField
    target's increments are the differences of its antiderivative, and one
    with masked points raises NodePresent."""
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"pinning rate kappa must be positive and finite, got {kappa}")
    if isinstance(target, EigenPair):
        target = target.state
    pairs = None
    if isinstance(target, Field):
        periodic = target.grid.boundary is Boundary.PERIODIC
        pairs = tuple(map(_readonly, _action_increments(target.values, node_threshold, periodic)))
        target = psi_to_p(target, node_threshold)
    return CollapseForce(kind=ForceKind.PINNING, kappa=kappa, target=target, _target_pairs=pairs)


def _momentum_pairs(target: MomentumField) -> tuple[np.ndarray, np.ndarray]:
    """(action increments, pair mask) of a target given only by its momentum
    field, as cqhj._action_increments: the differences of its antiderivative
    between neighbouring points. On a periodic grid the antiderivative is
    taken of p minus its mean, which each pair gets back as mean * dx, so a
    winding target is accepted; its wrap pair closes the ring. A target
    with masked points raises NodePresent: its masked zeros would make a
    jump in the antiderivative at each mask edge."""
    g, p = target.require_nodeless().grid, target.values
    if g.boundary is Boundary.PERIODIC:
        mean = np.dot(g.quadrature_weights, p) / g.length
        S = _antiderivative_op(g)(p - mean)
        inc = np.diff(S, append=S[:1]) + mean * g.dx
    else:
        inc = np.diff(_antiderivative_op(g)(p))
    return _readonly(inc), _readonly(np.zeros(inc.size, dtype=bool))


def kostin_friction(gamma: float) -> CollapseForce:
    """Force -gamma Re(p): damps the classical momentum (phase gradient),
    relaxing the state toward the potential's ground state."""
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"friction rate gamma must be positive and finite, got {gamma}")
    return CollapseForce(kind=ForceKind.KOSTIN_FRICTION, gamma=gamma)


def evaluate(force: CollapseForce, p: MomentumField) -> Field:
    """Force field for the given momentum field; the Field wrapper of
    _evaluate. A pinning target on another grid raises GridMismatch.

    Masked points contribute zero force (documented regularization near
    nodes, where p itself is undefined).
    """
    law = _force_law(force, p.grid)
    if law is None:
        vals = np.zeros(p.grid.n_points, dtype=np.complex128)
    else:
        if force.target is not None:
            law = (law[0], force.target.values, force.target.node_mask)
        vals = _evaluate(p.values, p.node_mask, law)
    return _adopt(Field, grid=p.grid, values=vals)


def _force_law(force: CollapseForce, grid: Grid) -> tuple | None:
    """(coef, target increments, target pair mask) of a force on grid, the
    law of the collapse step's pair force: -kappa and the pinning target's
    action increments and pair mask (CollapseForce), or (-gamma, None, None)
    for Kostin friction; None for the null force. A pinning target on
    another grid raises GridMismatch."""
    if force.kind is ForceKind.NULL:
        return None
    if force.kind is ForceKind.KOSTIN_FRICTION:
        return -force.gamma, None, None
    if force.target.grid != grid:
        raise GridMismatch("pinning target lives on a different grid")
    return -force.kappa, *force._target_pairs


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
    return _adopt(Field, grid=g, values=_antiderivative_op(g)(F))


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
