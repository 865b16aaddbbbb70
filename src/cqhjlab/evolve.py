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
evaluation per step and no iteration. With renormalization on, a nonlinear
run renormalizes the state every step; a linear one (schrodinger_evolve,
or the null force) once per snapshot interval, because its Cayley and FFT
steps are unitary in the grid inner product: the norm stays at 1 to
roundoff over an interval of any length. The running sum of the log scale
factors is recorded at every snapshot (gauge_log_magnitude), which keeps
the homogeneous dynamics auditable.

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
only an interval function advance(vals, m), which takes a recorded state
through the m steps to the next snapshot, and a snapshot function
record(vals, obs, log), both on raw ndarrays; the loop owns the snapshot
cadence (t = 0, every snapshot_stride-th step and the last step), the
renormalization of each interval's end state and its running log scale,
the assembly of the Trajectory, and attaching the partial trajectory to
any CqhjError a step or a snapshot raises. The recorder takes every
observable from one finite check and one weighted |psi|^2 sum, through
masked_stats and the private helpers behind energy, fidelity and
hamiltonian_field_from_state, so each formula has one copy.

The force layer of a nonlinear run is one kernel per run on raw ndarrays
(_gauge_kernel). It looks up the grid's derivative and antiderivative and
the force's law once, and each step calls this module's names psi_to_p,
evaluate_force and gauge_potential once each (the benchmark's tracer and
the tests wrap these names). They bind the raw cores behind the public
psi_to_p, evaluate and gauge_potential, which are thin Field wrappers, so
Phi is bitwise the public chain's and every check of the chain is kept.
Field and MomentumField are the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .cqhj import (
    MomentumField,
    _hamiltonian_field,
    _node_mask,
    _psi_to_p as psi_to_p,
    cqhj_rhs,
    masked_stats,
    p_to_psi,
)
from .diagnostics import _energy, _fidelity
from .errors import (
    AllMasked,
    CqhjError,
    NodeApproach,
    NodeBlowup,
    PeriodicityViolation,
    SchemeMismatch,
    StabilityViolation,
)
from .forces import CollapseForce, ForceKind, _force_law
from .forces import _evaluate as evaluate_force, _gauge_potential as gauge_potential
from .grid import (
    Boundary,
    Field,
    Grid,
    _adopt,
    _antiderivative_op,
    _derivative_op,
    _readonly,
    _sq_norm,
    cumulative_integral,
    gradient,
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
    """The integrator of a run and its time step dt.

    renormalize_each_step divides the state by its grid norm and sums the
    log scale factors into gauge_log_magnitude: every step of a nonlinear
    collapsible run, and once per snapshot interval of a linear one
    (schrodinger_evolve, or collapsible_evolve under the null force),
    whose unitary steps keep the norm at 1 to roundoff.
    """

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
    vals: np.ndarray,
    H: Hamiltonian,
    target: tuple[np.ndarray, float] | None,
    gauge_log_magnitude: float,
) -> Field:
    """Append the observables of the state vals to the store in one pass:
    one finite check and one weighted |psi|^2 sum for the norm, the energy
    and the fidelity. target is the fidelity target's (values, norm), or
    None for no fidelity_target series. Returns the snapshot, which takes
    vals without a copy."""
    grid = H.grid
    psi = _adopt(Field, grid=grid, values=vals).check_finite()
    amp = np.abs(vals)
    sq_norm = _sq_norm(grid, amp)
    mask = _node_mask(amp, OBSERVABLE_NODE_THRESHOLD)
    h_field = _adopt(Field, grid=grid, values=_hamiltonian_field(H.V, vals, mask))
    mean, std = masked_stats(h_field, mask)
    psi_norm = float(np.sqrt(sq_norm))
    row = (
        psi_norm,
        _energy(grid, vals, H.apply(vals), sq_norm),
        None if target is None else _fidelity(grid, vals, target[0], psi_norm, target[1]),
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
    """Snapshot function of the wave-function propagators; the target's
    norm is taken once per run."""
    if target is not None:
        require_same_grid(target, H.grid)
        target = (target.values, norm(target))
    return lambda v, obs, log: _record_psi_observables(obs, v, H, target, log)


class _Renormalizer:
    """Divides a state by its grid norm, when enabled, and sums the log
    scale factors into log."""

    def __init__(self, grid: Grid, enabled: bool, log: float = 0.0):
        self.grid, self.enabled, self.log = grid, enabled, log

    def __call__(self, vals: np.ndarray) -> np.ndarray:
        if not self.enabled:
            return vals
        scale = norm(_adopt(Field, grid=self.grid, values=vals))
        self.log -= float(np.log(scale))
        return vals / scale


def _drive(
    vals: np.ndarray,
    spec: IntegratorSpec,
    t_final: float,
    snapshot_stride: int,
    advance,
    record,
    renormalize: _Renormalizer,
) -> Trajectory:
    """The stepping loop of every propagator (see the module docstring).

    advance(vals, m) returns the values m steps on, from and to a recorded
    (full) state. Each interval's end state goes through renormalize, and
    record(vals, obs, log) appends its observables to obs and returns the
    snapshot, with log the running log scale renormalize.log.
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
        snaps.append(record(vals, obs, renormalize.log))
        times.append(0.0)
        step = 0
        for end in chain(range(snapshot_stride, n_steps, snapshot_stride), (n_steps,)):
            vals = renormalize(advance(vals, end - step))
            step = end
            snaps.append(record(vals, obs, renormalize.log))
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
    snapshots are taken in pairs, each pair one double step, and a
    renormalized run divides by the norm once per snapshot. psi0 and V
    must share a grid (GridMismatch otherwise).
    """
    grid = require_same_grid(psi0, V.grid)
    H = hamiltonian(V, spec.method)
    kernel = _make_kernel(H, spec.dt)

    def advance(vals: np.ndarray, m: int) -> np.ndarray:
        for _ in range(m // 2):
            vals = kernel.step(vals, 2)
        return kernel.step(vals, 1) if m % 2 else vals

    return _drive(
        psi0.values, spec, t_final, snapshot_stride, advance, _psi_recorder(H, target),
        _Renormalizer(grid, spec.renormalize_each_step),
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

    done = 0  # steps taken

    def advance(vals: np.ndarray, m: int) -> np.ndarray:
        nonlocal done
        if not done:
            monitor(vals, 0.0)
        for _ in range(m):
            k1 = rhs(vals)
            k2 = rhs(vals + 0.5 * dt * k1)
            k3 = rhs(vals + 0.5 * dt * k2)
            k4 = rhs(vals + dt * k3)
            vals = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if project:
                vals = gradient(cumulative_integral(Field(grid, vals))).values
            done += 1
            monitor(vals, done * dt)
        return vals

    record_psi = _psi_recorder(H, target)

    def record(vals: np.ndarray, obs: dict, log: float) -> MomentumField:
        pf = MomentumField(Field(grid, vals), empty)
        try:
            psi, log_scale = p_to_psi(pf)
            record_psi(psi.values, obs, log_scale)
        except PeriodicityViolation:
            # winding fields have no single-valued reconstruction; keep the
            # observable series aligned with the snapshot series
            for key in OBSERVABLES:
                if target is not None or key != "fidelity_target":
                    obs.setdefault(key, []).append(np.nan)
        return pf

    return _drive(
        p0.values, spec, t_final, snapshot_stride, advance, record, _Renormalizer(grid, False)
    )


def _gauge_kernel(force: CollapseForce, grid: Grid, node_threshold: float):
    """phi(vals), the gauge potential of a non-null force at the raw state
    vals, as one run's kernel (module docstring). A pinning target on
    another grid raises GridMismatch here, before the first step; a state
    with no unmasked point left raises NodeBlowup."""
    law = _force_law(force, grid)
    derivative, antiderivative = _derivative_op(grid, 1), _antiderivative_op(grid)

    def phi(vals: np.ndarray) -> np.ndarray:
        try:
            p, mask = psi_to_p(vals, derivative, node_threshold)
        except AllMasked as exc:
            raise NodeBlowup(
                "force evaluation has no unmasked momentum values left"
            ) from exc
        return gauge_potential(evaluate_force(p, mask, law), grid, antiderivative)

    return phi


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
    entry normalization and of every renormalization (IntegratorSpec) is
    summed into the gauge_log_magnitude series. Split-step checks each half
    step against schrodinger_evolve's bound, so it requires
    dt * E_max <= 0.2. psi0 and V must share a grid (GridMismatch otherwise).
    """
    grid = require_same_grid(psi0, V.grid)
    H = hamiltonian(V, spec.method)
    kernel = _make_kernel(H, spec.dt, substeps=2)
    dt = spec.dt

    scale = norm(Field(grid, psi0.values))
    if scale == 0.0:
        raise AllMasked("initial state has zero norm")

    # the exact sub-step's time factor (module docstring); dt in the limit
    # rate -> 0, which also covers the null force
    rate = force.kappa if force.kind is ForceKind.PINNING else force.gamma
    tau = -np.expm1(-rate * dt) / rate if rate else dt

    renormalize = _Renormalizer(grid, spec.renormalize_each_step, -float(np.log(scale)))

    phi = None if force.kind is ForceKind.NULL else _gauge_kernel(force, grid, node_threshold)
    itau = 1j * tau

    def gauge(a: np.ndarray) -> np.ndarray:
        """a exp(i tau Phi[a]), in place on the fresh Phi."""
        phase = phi(a)
        np.multiply(itau, phase, out=phase)
        np.exp(phase, out=phase)
        return np.multiply(a, phase, out=phase)

    def advance(vals: np.ndarray, m: int) -> np.ndarray:
        if phi is None:  # the null force
            for _ in range(m):
                vals = kernel.step(vals, 2)
            return vals
        b = gauge(kernel.step(vals, 1))
        for _ in range(m - 1):
            # b still owes its trailing half step, fused into the next one
            b = gauge(kernel.step(renormalize(b), 2))
        return kernel.step(b, 1)

    return _drive(
        psi0.values / scale, spec, t_final, snapshot_stride, advance, _psi_recorder(H, target),
        renormalize,
    )
