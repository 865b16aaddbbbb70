"""Observables, collapse-time extraction, the dimensionless collapse
measure, and conversion between internal units (hbar = m = 1) and SI.

Every observable of a state is computed here, by energy, energy_spread,
fidelity and the recorder's block pass _observe, on states scaled by one
rule, grid._scaled_rows.

The dimensionless measure reported here is tau * DeltaE / hbar, the natural
time-energy-uncertainty scale of the initial state. It is an artifact-defined
stand-in chosen by this package, not a published definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cqhj import _hamiltonian_field, _masked_moments, _node_mask
from .errors import ImaginaryEnergy, ZeroSpread, ZeroState
from .grid import Field, Grid, _scaled_rows, _sq_norm, require_same_grid
from .states import Hamiltonian

HBAR_SI = 1.054571817e-34  # J s

# reported experimental window for the collapse time, in seconds
BRACKET_MIN_S = 1e-13
BRACKET_MAX_S = 1e-4

OBSERVABLE_NODE_THRESHOLD = 1e-5
# the observable series of a trajectory, one value per snapshot, in the
# column order of timeseries.csv
OBSERVABLES = (
    "norm", "energy", "fidelity_target", "H_mean_re", "H_std", "gauge_log_magnitude", "gauge_phase"
)


def _inners(grid: Grid, a: np.ndarray, b: np.ndarray) -> list[complex]:
    """Grid inner products <a|b> of the rows of two stacks of value arrays,
    or of each row of a with the one array b; one np.dot per row, so a row's
    product does not depend on the rows stacked with it."""
    w = grid.quadrature_weights
    return [complex(np.dot(w, row)) for row in np.conj(a) * b]


def _fidelity(inner: complex, na: float, nb: float) -> float:
    """fidelity from the inner product <a|b> and the norms na and nb of two
    states, each scaled by _scaled_rows; squared after the ratio where
    na^2 nb^2 would leave the normal range."""
    if na == 0.0 or nb == 0.0:
        raise ZeroState("fidelity of a zero state is undefined")
    den = na**2 * nb**2
    normal = np.finfo(float).tiny <= den < math.inf
    val = abs(inner) ** 2 / den if normal else (abs(inner) / (na * nb)) ** 2
    return float(min(val, 1.0))


def fidelity(a: Field, b: Field) -> float:
    """Squared normalized overlap |<a|b>|^2 / (<a|a><b|b>), in [0, 1]. A
    state that grid.norm rescales is divided by its max|psi| first, so that
    scale does not change the value."""
    g = require_same_grid(a, b)
    vals, _, sq, _ = _scaled_rows(g, np.stack((a.values, b.values)))
    return _fidelity(_inners(g, vals[:1], vals[1])[0], *np.sqrt(sq).tolist())


def _energy(inner: complex, sq_norm: float) -> float:
    """energy from the inner product <psi|H psi> and the squared norm of a
    finite state psi, scaled by _scaled_rows."""
    if sq_norm == 0.0:
        raise ZeroState("energy of a zero state is undefined")
    val = inner / sq_norm
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-10 * scale:
        raise ImaginaryEnergy(
            f"energy expectation has imaginary residual {val.imag:.3e}"
        )
    return float(val.real)


def energy(psi: Field, H: Hamiltonian) -> float:
    """Expectation of the linear Hamiltonian H (states.Hamiltonian), normalized,
    of any nonzero finite scale of psi.

    A NaN or Inf entry raises NonFiniteField. The imaginary residual must
    vanish (V real, symmetric operator); a residual above 1e-10 of the
    energy scale indicates a numerics bug and raises ImaginaryEnergy.
    """
    g = require_same_grid(psi, H.grid)
    v, _, sq, _ = _scaled_rows(g, psi.check_finite().values[None])
    return _energy(_inners(g, v, H.apply(v))[0], float(sq[0]))


def energy_spread(psi: Field, H: Hamiltonian) -> float:
    """Standard deviation of the linear Hamiltonian H in the given state, of
    any nonzero finite scale; a NaN or Inf entry raises NonFiniteField, a
    zero state ZeroState."""
    g = require_same_grid(psi, H.grid)
    v, _, (den,), _ = _scaled_rows(g, psi.check_finite().values[None])
    if den == 0.0:
        raise ZeroState("energy spread of a zero state is undefined")
    hvals = H.apply(v)
    e1 = _inners(g, v, hvals)[0] / den
    e2 = _sq_norm(g, np.abs(hvals[0])) / den
    var = e2 - abs(e1) ** 2
    return float(np.sqrt(max(var, 0.0)))


def _observe(H: Hamiltonian, target: Field | None, stack: np.ndarray) -> np.ndarray:
    """The first five OBSERVABLES, norm to H_std, of a stack of states, one
    column per state (fidelity_target NaN without a target),
    from one operator application, bitwise norm, energy, fidelity and the
    masked_stats of hamiltonian_field_from_state at OBSERVABLE_NODE_THRESHOLD.
    The weighted sums are one np.dot per row, so a column is bitwise that of
    the state alone. The node mask (cqhj._node_mask) raises AllMasked for a
    zero row and NonFiniteField for a NaN or Inf entry, then NodePresent,
    ImaginaryEnergy and ZeroState as the observables raise them."""
    grid = H.grid
    vals, amp, sq, norms = _scaled_rows(grid, stack)
    mask = _node_mask(amp, OBSERVABLE_NODE_THRESHOLD)
    hvals = H.apply(vals)
    mean, std = _masked_moments(_hamiltonian_field(H.V.samples, vals, hvals, mask), mask, grid)
    energies = list(map(_energy, _inners(grid, vals, hvals), sq.tolist()))
    if target is None:
        fids = [np.nan] * len(vals)
    else:
        tvals, _, tsq, _ = _scaled_rows(grid, target.values[None])
        inners = _inners(grid, vals, tvals[0])
        fids = [_fidelity(i, n, math.sqrt(tsq[0])) for i, n in zip(inners, np.sqrt(sq).tolist())]
    return np.array([norms, energies, fids, mean.real, std])


def collapse_time(traj, epsilon: float):
    """First time the fidelity to the target reaches 1 - epsilon.

    Uses the trajectory's recorded fidelity series, with linear
    interpolation between snapshots. Returns None when never attained, and
    the crossing snapshot's time when the fidelity of the snapshot before it
    is not finite (cqhj_evolve records NaN for winding fields).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    times = np.asarray(traj.times, dtype=float)
    series = traj.observables.get("fidelity_target")
    if series is None or np.size(series) != times.size:
        raise ValueError("trajectory carries no fidelity-to-target series")
    fids = np.asarray(series)
    threshold = 1.0 - epsilon
    above = fids >= threshold
    if not above.any():
        return None
    i = int(np.argmax(above))
    if i == 0:
        return 0.0
    f0, f1 = fids[i - 1], fids[i]
    t0, t1 = times[i - 1], times[i]
    if f1 == f0 or not np.isfinite(f0):
        return float(t1)
    return float(t0 + (threshold - f0) * (t1 - t0) / (f1 - f0))


def dimensionless_measure(tau: float, psi0: Field, H: Hamiltonian) -> float:
    """Collapse time in units of the initial state's energy-uncertainty
    time under H: xi = tau * DeltaE (hbar = 1). Artifact-defined stand-in."""
    dE = energy_spread(psi0, H)
    e0 = abs(energy(psi0, H))
    if dE <= 1e-6 * max(1.0, e0):
        raise ZeroSpread(
            f"energy spread {dE:.3e} is numerically zero; the measure is undefined"
        )
    return float(tau * dE)


@dataclass(frozen=True)
class UnitSystem:
    """Maps internal units (hbar = m = 1) to SI via a mass and a length scale."""

    mass_kg: float
    length_m: float

    def __post_init__(self):
        if not (0 < self.mass_kg < math.inf and 0 < self.length_m < math.inf):
            raise ValueError("unit scales must be positive and finite")

    @property
    def time_scale_s(self) -> float:
        return self.mass_kg * self.length_m**2 / HBAR_SI

    @property
    def energy_scale_j(self) -> float:
        return HBAR_SI / self.time_scale_s

    def to_si(self, tau_internal: float) -> float:
        return tau_internal * self.time_scale_s

    def from_si(self, tau_seconds: float) -> float:
        return tau_seconds / self.time_scale_s


@dataclass(frozen=True)
class CollapseReport:
    """Summary record for one collapse run."""

    tau_internal: float | None
    tau_si: float | None
    epsilon: float
    xi: float | None
    in_experimental_bracket: bool

    def as_dict(self) -> dict:
        return {
            "tau_internal": self.tau_internal,
            "tau_si": self.tau_si,
            "epsilon": self.epsilon,
            "xi": self.xi,
            "xi_definition": "tau * DeltaE / hbar (artifact-defined stand-in)",
            "in_experimental_bracket": self.in_experimental_bracket,
            "bracket_seconds": [BRACKET_MIN_S, BRACKET_MAX_S],
        }


def make_collapse_report(
    tau_internal: float | None,
    epsilon: float,
    psi0: Field | None = None,
    H: Hamiltonian | None = None,
    units: UnitSystem | None = None,
) -> CollapseReport:
    """Assemble the collapse report; absent pieces stay None/False. xi needs
    the initial state psi0 and the Hamiltonian H it evolves under."""
    tau_si = None
    xi = None
    bracket = False
    if tau_internal is not None:
        if units is not None:
            tau_si = units.to_si(tau_internal)
            bracket = bool(BRACKET_MIN_S <= tau_si <= BRACKET_MAX_S)
        if psi0 is not None and H is not None:
            try:
                xi = dimensionless_measure(tau_internal, psi0, H)
            except ZeroSpread:
                xi = None
    return CollapseReport(
        tau_internal=tau_internal,
        tau_si=tau_si,
        epsilon=epsilon,
        xi=xi,
        in_experimental_bracket=bracket,
    )
