"""Time evolution engines.

Three integrators:

- split-step Fourier (Strang splitting, periodic grids): unitary up to
  roundoff, used for high-accuracy spectral runs;
- Crank-Nicolson with a symmetric stencil: exactly norm-preserving Cayley
  stepping, works with hard walls;
- classical RK4 on the momentum-field equation for direct evolution in
  the momentum representation.

The linear Hamiltonian H0 is states.hamiltonian(V, method): the
Crank-Nicolson kernel steps with its matrix and the recorded energy is its
expectation, so its solve_eigenstates states are stationary and record
their eigenvalue.

The nonlinear (collapsible) evolution integrates the wave-function form
i psi_t = H0 psi - Phi psi with grad Phi = F(p): a Strang step whose
nonlinear gauge sub-step psi_t = i Phi[psi] psi is solved exactly. Every
force is linear in p = -i d/dx log psi, so with the node mask held at the
sub-step's start state the sub-flow is u_t = -rate M u, for u = log psi
minus that of the pinning target (or the unwrapped phase under Kostin
friction), with rate = kappa (gamma) and M = lift o derivative o mask a
projector. Then exp(-rate dt M) = I - (1 - exp(-rate dt)) M, which is
psi exp(i tau Phi[psi]) with tau = -expm1(-rate dt) / rate: one force
evaluation per step and no iteration. The state is renormalized every step,
and the running sum of the log scale factors is recorded at every snapshot
(gauge_log_magnitude), which keeps the homogeneous dynamics auditable.

Between snapshots the collapsible step fuses the trailing linear half step
of one step with the leading half step of the next: the two Cayley half
steps A^-1 B A^-1 B are one solve (A^2)^-1 B^2, since A and B commute, and
the two split-step potential factors that meet merge into one. A snapshot
step ends with its own half step, so every recorded state is the full
Strang state, and a null-force step is always one double half step. The
linear propagator likewise takes the steps between snapshots in pairs, each
pair one double step. One sparse LU of A^2 serves the single and the double
step, and kernels are cached per Hamiltonian and dt, so
repeated runs on one setup (sweeps, the benchmark) factor once. A cached
kernel holds no buffer: each split-step call takes its own output and FFT
scratch and transforms into them, with the operand order of every product
fixed, so a step is bitwise the allocating expression it replaces.

All three propagators run on one stepping loop, `_drive`. Each supplies
only a step function advance(vals, step, settle) and a snapshot function
record(vals, obs, cum_log), both on raw ndarrays; the loop owns the step
count, the snapshot cadence (t = 0, every snapshot_stride-th step and the
last step, where settle is true), the per-step renormalization and its
running log scale, the assembly of the Trajectory, and attaching the
partial trajectory to any CqhjError a step or a snapshot raises. The
renormalization of a pending (step-owing) state has the norm of the
settled state to roundoff, because both kernels are unitary in the grid
inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .cqhj import (
    MomentumField,
    cqhj_rhs,
    hamiltonian_field_from_state,
    masked_stats,
    psi_to_p,
    p_to_psi,
)
from .diagnostics import energy, fidelity
from .errors import (
    AllMasked,
    CqhjError,
    NodeApproach,
    NodeBlowup,
    PeriodicityViolation,
    SchemeMismatch,
    StabilityViolation,
)
from .forces import CollapseForce, ForceKind, evaluate as evaluate_force, gauge_potential
from .grid import (
    Boundary,
    Field,
    Grid,
    _adopt,
    _readonly,
    cumulative_integral,
    gradient,
    make_field,
    norm,
    require_same_grid,
)
from .states import Hamiltonian, Method, Potential, hamiltonian

OBSERVABLE_NODE_THRESHOLD = 1e-5
# the observable series of a trajectory, one value per snapshot, in the
# column order of timeseries.csv
OBSERVABLES = (
    "norm",
    "energy",
    "fidelity_target",
    "H_mean_re",
    "H_std",
    "gauge_log_magnitude",
    "gauge_phase",
)


@dataclass(frozen=True)
class IntegratorSpec:
    method: Method
    dt: float
    renormalize_each_step: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class Trajectory:
    """Recorded time series of an evolution run."""

    times: np.ndarray
    snapshots: list
    observables: dict[str, np.ndarray] = dc_field(default_factory=dict)

    @property
    def final_state(self):
        return self.snapshots[-1]


# --------------------------------------------------------------------------
# linear kernels


class _SplitStepKernel:
    """One Strang step exp(-iV dt/2) exp(-iK dt) exp(-iV dt/2) via FFT. The
    kernel holds read-only factors and no buffer (module docstring); numpy's
    complex product is not bitwise commutative, so operand order is fixed."""

    def __init__(self, H: Hamiltonian, dt: float):
        self.half_v = _readonly(np.exp(-0.5j * dt * H.V.samples))
        self.full_v = _readonly(np.exp(-1j * dt * H.V.samples))
        self.kinetic = _readonly(np.exp(-0.5j * dt * H.grid.wavenumbers**2))

    def step(self, values: np.ndarray, n: int) -> np.ndarray:
        """n = 1 or 2 Strang steps; the potential factors that meet between
        two steps are merged into one."""
        v = values * self.half_v
        buf = np.empty_like(v)
        for i in range(n):
            if i:
                np.multiply(v, self.full_v, out=v)
            np.fft.fft(v, out=buf)
            np.multiply(self.kinetic, buf, out=buf)
            np.fft.ifft(buf, out=v)
        return np.multiply(v, self.half_v, out=v)


class _CrankNicolsonKernel:
    """Cayley step A^-1 B, A = 1 + i dt H / 2 and B = 1 - i dt H / 2, with H
    the Hamiltonian's sparse matrix on its unknowns (the interior points on
    box grids, whose walls stay at zero; every point on periodic grids). A
    and B commute, so n steps are (A^2)^-1 A^(2-n) B^n for n = 1, 2: one
    sparse LU of A^2, factored once on either boundary, serves both."""

    def __init__(self, H: Hamiltonian, dt: float):
        self.inner = H.inner
        eye = sp.identity(H.matrix.shape[0], dtype=np.complex128, format="csc")
        A = eye + 0.5j * dt * H.matrix
        B = eye - 0.5j * dt * H.matrix
        self._solve = splu((A @ A).tocsc()).solve
        self._rhs = {1: (A @ B).tocsr(), 2: (B @ B).tocsr()}

    def step(self, values: np.ndarray, n: int) -> np.ndarray:
        out = np.zeros(values.shape, values.dtype)
        out[self.inner] = self._solve(self._rhs[n] @ values[self.inner])
        return out


def _split_step_e_max(grid: Grid) -> float:
    """Kinetic cutoff max(k^2) / 2 of the split-step kernel; it counts the
    Nyquist mode, which exp(-i dt k^2 / 2) propagates on even grids."""
    return 0.5 * np.max(grid.wavenumbers**2)


def _make_kernel(H: Hamiltonian, dt: float, substeps: int = 1):
    """The cached kernel of H's method, step dt / substeps (collapsible_evolve
    steps in halves). Split-step needs each kernel step h to keep
    h * E_max <= 0.1 (_split_step_e_max), so dt * E_max <= 0.1 substeps."""
    grid = H.grid
    if H.method is Method.RK4:
        raise ValueError("RK4 integrates the momentum-field equation, not psi")
    if H.method is Method.SPLIT_STEP:
        if grid.boundary is not Boundary.PERIODIC:
            raise SchemeMismatch("split-step requires a periodic grid")
        e_max = _split_step_e_max(grid)
        bound = 0.1 * substeps
        if dt * e_max > bound:
            raise StabilityViolation(
                f"split-step needs dt <= {bound / e_max:.3g} on this grid "
                f"(dt * E_max <= {bound:.3g}, kinetic cutoff E_max = {e_max:.4g}); "
                f"got dt = {dt:.3g}"
            )
    return _cached_kernel(H, dt / substeps)


@lru_cache(maxsize=32)
def _cached_kernel(H: Hamiltonian, dt: float):
    kernel = _SplitStepKernel if H.method is Method.SPLIT_STEP else _CrankNicolsonKernel
    return kernel(H, dt)


# --------------------------------------------------------------------------
# observables


def _record_psi_observables(
    store: dict,
    psi: Field,
    H: Hamiltonian,
    target: Field | None,
    gauge_log_magnitude: float,
) -> Field:
    """Append the observables of psi to the store (no fidelity_target
    series without a target); returns psi."""
    field, mask = hamiltonian_field_from_state(psi, H.V, node_threshold=OBSERVABLE_NODE_THRESHOLD)
    mean, std = masked_stats(field, mask)
    row = (
        norm(psi),
        energy(psi, H),
        None if target is None else fidelity(psi, target),
        mean.real,
        std,
        gauge_log_magnitude,
        0.0,  # gauge_phase: the scale factors are real
    )
    for key, value in zip(OBSERVABLES, row, strict=True):
        if value is not None:
            store.setdefault(key, []).append(value)
    return psi


# --------------------------------------------------------------------------
# propagators


def _psi_recorder(H: Hamiltonian, target: Field | None):
    """Snapshot function of the wave-function propagators."""
    return lambda v, obs, log: _record_psi_observables(obs, make_field(H.grid, v), H, target, log)


def _drive(
    vals: np.ndarray,
    grid: Grid,
    spec: IntegratorSpec,
    t_final: float,
    snapshot_stride: int,
    advance,
    record,
    *,
    renormalize: bool,
    cum_log: float = 0.0,
) -> Trajectory:
    """The stepping loop of every propagator (see the module docstring).

    advance(vals, step, settle) returns the values after step `step`;
    settle is true on the steps that are recorded, and a propagator may
    return a pending state on the others (collapsible_evolve owes a half
    step there, schrodinger_evolve every other step). record(vals, obs,
    cum_log) appends a snapshot's observables to obs and returns the
    snapshot. cum_log starts at the given log scale and adds that of every
    renormalization.
    """
    n_steps = max(1, int(round(t_final / spec.dt)))
    obs: dict = {}
    snaps: list = []
    times: list[float] = []

    def trajectory() -> Trajectory:
        return Trajectory(
            times=np.asarray(times),
            snapshots=snaps,
            observables={k: np.asarray(v) for k, v in obs.items()},
        )

    try:
        snaps.append(record(vals, obs, cum_log))
        times.append(0.0)
        for step in range(1, n_steps + 1):
            settle = step % snapshot_stride == 0 or step == n_steps
            vals = advance(vals, step, settle)
            if renormalize:
                scale = norm(_adopt(Field, grid=grid, values=vals))
                vals = vals / scale
                cum_log -= float(np.log(scale))
            if settle:
                snaps.append(record(vals, obs, cum_log))
                times.append(step * spec.dt)
    except CqhjError as exc:
        exc.trajectory = trajectory()
        raise
    return trajectory()


def schrodinger_evolve(
    psi0: Field,
    V: Potential,
    spec: IntegratorSpec,
    t_final: float,
    *,
    snapshot_stride: int = 1,
    target: Field | None = None,
) -> Trajectory:
    """Linear Schroedinger evolution of a wave function to t_final.

    Split-step requires dt * E_max <= 0.1, with E_max = max(k^2) / 2 the
    kinetic cutoff, (pi / dx)^2 / 2 on an even grid (enforced,
    StabilityViolation otherwise). Crank-Nicolson is
    unconditionally stable; dt only controls accuracy, with phase errors
    O(dt^2 E^3) per unit time for energy-E components. Steps between
    snapshots are taken in pairs, each pair one double step. psi0 and V
    must share a grid (GridMismatch otherwise).
    """
    grid = require_same_grid(psi0, V.grid)
    H = hamiltonian(V, spec.method)
    kernel = _make_kernel(H, spec.dt)
    owed = False  # vals still owes the last step

    def advance(vals: np.ndarray, step: int, settle: bool) -> np.ndarray:
        nonlocal owed
        n = 2 if owed else 1
        owed = not (settle or owed)
        return vals if owed else kernel.step(vals, n)

    return _drive(
        psi0.values, grid, spec, t_final, snapshot_stride, advance,
        record=_psi_recorder(H, target),
        renormalize=spec.renormalize_each_step,
    )


def _rk4_stability_limit(grid: Grid) -> float:
    if grid.boundary is Boundary.PERIODIC:
        # max(k), not that of the Nyquist mode: the odd spectral derivatives
        # in the momentum equation zero that mode, so max(k) is their cutoff
        k2max = np.max(grid.wavenumbers) ** 2
    else:
        k2max = (16.0 / 3.0) / grid.dx**2
    return 2.8 / (0.5 * k2max)


def cqhj_evolve(
    p0: MomentumField,
    V: Potential,
    spec: IntegratorSpec,
    t_final: float,
    *,
    snapshot_stride: int = 1,
    node_threshold: float = 1e-6,
    target: Field | None = None,
) -> Trajectory:
    """Direct momentum-space evolution p_t = rhs(p) by classical RK4.

    The reconstructed magnitude is monitored on p0 and after each step;
    if it dips below the node threshold the run aborts with the partial
    trajectory attached to the NodeApproach error (only the t = 0 snapshot
    when p0 itself is below it; no step is taken then).

    On box grids every step ends with the re-projection p -> grad(int p),
    the discrete form of the exact identity p = -i grad(psi)/psi for
    psi = exp(i int p). The momentum equation is well posed only in the
    |psi|^2-weighted geometry, so in unweighted floating point spurious
    modes localized where |psi| is tiny grow exponentially; the projection
    annihilates them (it is the identity on resolvable physical fields).
    On periodic grids the projection is the identity and is skipped.
    """
    if spec.method is not Method.RK4:
        raise ValueError("momentum-space evolution uses the RK4 method")
    p0.require_nodeless()
    grid = p0.grid
    dt_max = _rk4_stability_limit(grid)
    if spec.dt > dt_max:
        raise StabilityViolation(
            f"RK4 needs dt <= {dt_max:.3e} for this grid, got {spec.dt:.3e}"
        )
    H = hamiltonian(V, spec.method)
    empty = np.zeros(grid.n_points, dtype=bool)
    project = grid.boundary is Boundary.BOX
    dt = spec.dt

    def monitor(vals: np.ndarray, t: float) -> np.ndarray:
        # magnitude ~ exp(-cumulative Im p)
        c = np.cumsum(vals.imag) * grid.dx
        rel = np.exp(-(c - c.min()))
        if rel.min() / rel.max() < node_threshold or not np.all(np.isfinite(vals)):
            raise NodeApproach(
                f"reconstructed magnitude fell below the node threshold at t = {t:.6g}"
            )
        return vals

    def rhs(vals: np.ndarray) -> np.ndarray:
        pf = MomentumField(Field(grid, vals), empty)
        return cqhj_rhs(pf, V).values

    def advance(vals: np.ndarray, step: int, settle: bool) -> np.ndarray:
        if step == 1:
            monitor(vals, 0.0)
        k1 = rhs(vals)
        k2 = rhs(vals + 0.5 * dt * k1)
        k3 = rhs(vals + 0.5 * dt * k2)
        k4 = rhs(vals + dt * k3)
        vals = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project:
            vals = gradient(cumulative_integral(Field(grid, vals))).values
        return monitor(vals, step * dt)

    def record(vals: np.ndarray, obs: dict, cum_log: float) -> MomentumField:
        pf = MomentumField(Field(grid, vals), empty)
        try:
            psi, log_scale = p_to_psi(pf)
            _record_psi_observables(obs, psi, H, target, log_scale)
        except PeriodicityViolation:
            # winding fields have no single-valued reconstruction; keep the
            # observable series aligned with the snapshot series
            for key in OBSERVABLES:
                if target is not None or key != "fidelity_target":
                    obs.setdefault(key, []).append(np.nan)
        return pf

    return _drive(
        p0.values, grid, spec, t_final, snapshot_stride, advance, record,
        renormalize=False,
    )


def collapsible_evolve(
    psi0: Field,
    V: Potential,
    force: CollapseForce,
    spec: IntegratorSpec,
    t_final: float,
    *,
    snapshot_stride: int = 1,
    node_threshold: float = 1e-6,
    target: Field | None = None,
) -> Trajectory:
    """Nonlinear collapse evolution in the wave-function (gauge) form.

    Strang composition per step: linear half step, the exact nonlinear
    gauge sub-step psi exp(i tau Phi[psi]) with Phi the line-integral lift
    of the force at the half-stepped state and tau = -expm1(-rate dt) / rate
    (module docstring), linear half step. Between snapshots the trailing
    half step of one step and the leading one of the next are applied as
    one double half step, so every step makes one linear solve; the
    recorded states are the full Strang states. The node mask is that of
    the half-stepped state; a state with no unmasked point left raises
    NodeBlowup. Any nonzero input norm is accepted; the log scale of the
    entry normalization and of every per-step renormalization is summed into
    the gauge_log_magnitude series. Split-step checks each half step against
    schrodinger_evolve's bound, so it requires dt * E_max <= 0.2. psi0 and
    V must share a grid (GridMismatch otherwise).
    """
    grid = require_same_grid(psi0, V.grid)
    H = hamiltonian(V, spec.method)
    kernel = _make_kernel(H, spec.dt, substeps=2)
    dt = spec.dt

    scale = norm(Field(grid, psi0.values))
    if scale == 0.0:
        raise AllMasked("initial state has zero norm")
    cum_log = -float(np.log(scale))

    def phi_of(vals: np.ndarray) -> np.ndarray:
        """Gauge potential of the force at the state vals."""
        try:
            p = psi_to_p(_adopt(Field, grid=grid, values=vals), node_threshold)
        except AllMasked as exc:
            raise NodeBlowup(
                "force evaluation has no unmasked momentum values left"
            ) from exc
        return gauge_potential(evaluate_force(force, p)).values

    # the exact sub-step's time factor (module docstring); dt in the limit
    # rate -> 0, which also covers the null force
    rate = force.kappa if force.kind is ForceKind.PINNING else force.gamma
    tau = -np.expm1(-rate * dt) / rate if rate else dt

    owed = False  # vals still owes the trailing half step of the last step

    def advance(vals: np.ndarray, step: int, settle: bool) -> np.ndarray:
        nonlocal owed
        if force.kind is ForceKind.NULL:
            return kernel.step(vals, 2)
        a = kernel.step(vals, 2 if owed else 1)
        b = a * np.exp(1j * tau * phi_of(a))
        owed = not settle
        return b if owed else kernel.step(b, 1)

    return _drive(
        psi0.values / scale, grid, spec, t_final, snapshot_stride, advance,
        record=_psi_recorder(H, target),
        renormalize=spec.renormalize_each_step,
        cum_log=cum_log,
    )
