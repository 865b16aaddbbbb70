"""Pluggable non-potential collapse forces and their gauge-potential lift.

Every non-null force depends on the state only through the momentum field,
which makes it degree zero in the wave function (homogeneity is preserved)
and guarantees it is not the gradient of any function of position alone.
A position-only force would merely shift the potential and keep the
dynamics linear, so no such constructor exists here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cqhj import MomentumField, psi_to_p
from .errors import GridMismatch, PeriodicityViolation
from .grid import Boundary, Field, _adopt, cumulative_integral
from .states import EigenPair

# |mean of F| * L, relative to max(max|F|, 1), up to which gauge_potential
# drops the mean of a force on a periodic grid instead of rejecting it
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
    """

    kind: ForceKind
    kappa: float = 0.0
    gamma: float = 0.0
    target: MomentumField | None = None


def null_force() -> CollapseForce:
    return CollapseForce(kind=ForceKind.NULL)


def pinning_force(
    target: MomentumField | EigenPair | Field,
    kappa: float,
    node_threshold: float = 1e-6,
) -> CollapseForce:
    """Force -kappa (p - p_target) pulling the momentum field onto that of
    the chosen pointer state. EigenPair / wave-function targets are
    converted with psi_to_p."""
    if kappa <= 0:
        raise ValueError("pinning rate kappa must be positive")
    if isinstance(target, EigenPair):
        target = target.state
    if isinstance(target, Field):
        target = psi_to_p(target, node_threshold)
    return CollapseForce(kind=ForceKind.PINNING, kappa=kappa, target=target)


def kostin_friction(gamma: float) -> CollapseForce:
    """Force -gamma Re(p): damps the classical momentum (phase gradient),
    relaxing the state toward the potential's ground state."""
    if gamma <= 0:
        raise ValueError("friction rate gamma must be positive")
    return CollapseForce(kind=ForceKind.KOSTIN_FRICTION, gamma=gamma)


def evaluate(force: CollapseForce, p: MomentumField) -> Field:
    """Force field for the given momentum field.

    Masked points contribute zero force (documented regularization near
    nodes, where p itself is undefined).
    """
    if force.kind is ForceKind.NULL:
        vals = np.zeros(p.grid.n_points, dtype=np.complex128)
    elif force.kind is ForceKind.PINNING:
        tgt = force.target
        if tgt.grid != p.grid:
            raise GridMismatch("pinning target lives on a different grid")
        vals = -force.kappa * (p.values - tgt.values)
        vals[p.node_mask | tgt.node_mask] = 0.0
    else:
        vals = -force.gamma * p.classical.astype(np.complex128)
        vals[p.node_mask] = 0.0
    return _adopt(Field, grid=p.grid, values=vals)


def gauge_potential(force_field: Field) -> Field:
    """Line-integral lift Phi with dPhi/dx = F, anchored at the left edge.

    The free additive constant is physically irrelevant: it is absorbed by
    the time-dependent scale factor of the homogeneous dynamics. On
    periodic grids a small mean of F, |mean| L <= GAUGE_MEAN_TOLERANCE *
    max(max|F|, 1), is near-node regularization residue with no
    single-valued lift: it is dropped rather than left to tilt Phi across
    the domain. A larger mean (a winding force) raises PeriodicityViolation.
    """
    g = force_field.grid
    if g.boundary is Boundary.PERIODIC:
        v = force_field.values
        mean = np.dot(g.quadrature_weights, v) / g.length
        if abs(mean) * g.length > GAUGE_MEAN_TOLERANCE * max(float(np.max(np.abs(v))), 1.0):
            raise PeriodicityViolation(
                f"force on periodic grid winds: |mean| * L = {abs(mean) * g.length:.3e} "
                f"exceeds {GAUGE_MEAN_TOLERANCE:.1e} * max(max|F|, 1)"
            )
        force_field = _adopt(Field, grid=g, values=v - mean)
    return cumulative_integral(force_field)
