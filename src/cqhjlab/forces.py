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
# the benchmark's tracer (perfbench/tracing.py) wraps cumulative_integral here
from .grid import Boundary, Field, Grid, _adopt, _antiderivative_op, cumulative_integral  # noqa: F401
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
    """Force field for the given momentum field; the Field wrapper of
    _evaluate. A pinning target on another grid raises GridMismatch.

    Masked points contribute zero force (documented regularization near
    nodes, where p itself is undefined).
    """
    law = _force_law(force, p.grid)
    if law is None:
        vals = np.zeros(p.grid.n_points, dtype=np.complex128)
    else:
        vals = _evaluate(p.values, p.node_mask, law)
    return _adopt(Field, grid=p.grid, values=vals)


def _force_law(force: CollapseForce, grid: Grid) -> tuple | None:
    """(coef, target p, target node mask) of a force on grid: -kappa and the
    pinning target's, or (-gamma, None, None) for Kostin friction; None for
    the null force. A pinning target on another grid raises GridMismatch."""
    if force.kind is ForceKind.NULL:
        return None
    if force.kind is ForceKind.KOSTIN_FRICTION:
        return -force.gamma, None, None
    if force.target.grid != grid:
        raise GridMismatch("pinning target lives on a different grid")
    return -force.kappa, force.target.values, force.target.node_mask


def _evaluate(p: np.ndarray, mask: np.ndarray, law: tuple) -> np.ndarray:
    """The force of a _force_law at raw momentum values p with node mask
    mask, zero on the masks, in a fresh array: coef (p - target) or
    coef Re(p)."""
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
    """Line-integral lift Phi with dPhi/dx = F, anchored at the left edge;
    the Field wrapper of _gauge_potential.

    The free additive constant is physically irrelevant: it is absorbed by
    the time-dependent scale factor of the homogeneous dynamics. On
    periodic grids a small mean of F, |mean| L <= GAUGE_MEAN_TOLERANCE *
    max(max|F|, 1), is near-node regularization residue with no
    single-valued lift: it is dropped rather than left to tilt Phi across
    the domain. A larger mean (a winding force) raises PeriodicityViolation.
    """
    g = force_field.grid
    phi = _gauge_potential(force_field.values, g, _antiderivative_op(g))
    return _adopt(Field, grid=g, values=phi)


def _gauge_potential(F: np.ndarray, g: Grid, antiderivative) -> np.ndarray:
    """gauge_potential of raw force values on g, with antiderivative its
    _antiderivative_op(g); F is only read."""
    if g.boundary is Boundary.PERIODIC:
        mean = np.dot(g.quadrature_weights, F) / g.length
        if abs(mean) * g.length > GAUGE_MEAN_TOLERANCE * max(float(np.max(np.abs(F))), 1.0):
            raise PeriodicityViolation(
                f"force on periodic grid winds: |mean| * L = {abs(mean) * g.length:.3e} "
                f"exceeds {GAUGE_MEAN_TOLERANCE:.1e} * max(max|F|, 1)"
            )
        F = F - mean
    return antiderivative(F)
