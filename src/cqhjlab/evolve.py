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
force is linear in p = -i d/dx log psi, so Phi is read off the increments
of the action S = -i log psi between neighbouring points (the pair rule):
inc[j] = 1/2 angle((psi[j+1] conj psi[j])^2) - i (log|psi[j+1]| -
log|psi[j]|), the angle folded into (-pi/2, pi/2] so that a real sign
change carries no momentum, as in Re p. The pair force is
-kappa (inc - the target's inc) under pinning and -gamma Re inc under
Kostin friction, zero on every pair that touches a node-masked point, and
Phi is its cumulative sum from Phi = 0 at the left edge, so Phi is flat
across a masked zone. On periodic grids the wrap pair closes the ring and
the ring sum is dropped or rejected as gauge_potential drops or rejects a
mean force. With the node mask held at the sub-step's start state the
sub-flow is u_t = -rate M u, for u = log psi minus that of the pinning
target (or the unwrapped phase under Kostin friction), with rate = kappa
(gamma) and M = cumulative sum o kept pairs o increments an exact
projector: M M = M to roundoff, since the increments of a cumulative sum
are the summands. Then exp(-rate dt M) = I - (1 - exp(-rate dt)) M, which
is psi exp(i tau Phi[psi]) with tau = -expm1(-rate dt) / rate: one force
evaluation per step and no iteration, and two sub-steps of dt1 and dt2 are
one of dt1 + dt2. Every force is of degree zero in psi
and the node mask is relative to the peak, so a scale factor never changes
the state's shape. With renormalization on, _drive alone divides the end
state of each advance by its norm and sums the log scale factors, recorded
at every snapshot (gauge_log_magnitude). A run of force rate r > 0
advances at most max(1, floor(1 / (r dt))) steps at a time, one e-folding
time of the force; a linear run advances whole snapshot intervals.

Between snapshots the collapsible step fuses the trailing linear half step
of one step with the leading half step of the next: the two Cayley half
steps A^-1 B A^-1 B are one solve (A^2)^-1 B^2, since A and B commute, and
the two split-step potential factors that meet merge into one. A snapshot
step ends with its own half step, so every recorded state is the full
Strang state, and a nonlinear step makes one solve.

A linear run (schrodinger_evolve, or collapsible_evolve under the null
force, whose m steps are 2m half steps) advances through one helper,
_linear_advance: each snapshot interval is one kernel.step call, or one
vector-matrix product with a dense power the run keeps. Before its first
step the run asks once for the dense powers (S^n)^T, S the N x N Strang
step matrix, of those of its interval lengths (the snapshot stride and the
remainder, in kernel steps) that pay. The powers come from one squaring
chain (_SplitStepKernel.powers): S is built by one batched step of the N
unit states, its squarings S^(2^k) serve every length, and the set bits of
each length are multiplied into its own matrix, so the chain makes
bit_length(n) - 1 squarings and popcount - 1 products per length, with at
most four N x N arrays alive (64 MB at N = 1024) and two kept. Whether a
length pays is a rule of (N, n), not a setting (_split_power_pays): n must
exceed bit_length(n) + 2 products at a committed, conservative cost per
product, or a shorter n must, so every n from the first that pays takes
the power; grids above 1024 points always step. Every other split-step
interval steps by FFT, one FFT pair per step, merging the potential
factors that meet. The bundled 256-point stationary run (12 intervals of
10,000 half steps and one of 5,664) makes 20 N x N products and builds S
once, in place of 168 products for powering each interval on its own
(BENCH_24). Crank-Nicolson and the nonlinear steps (n <= 2) never take a
power.

A Crank-Nicolson call of n steps takes them in solves of q steps, full
ones first and then the rest, and every solve follows one rule: m <= q
Cayley steps are one solve and one matvec, (A^m)^-1 B^m, with one sparse
LU of A^m and one CSR B^m per m, built on first use and kept in the
kernel. A single step is thus one Cayley solve A^-1 (B v), whose
condition number is that of A, sqrt(1 + theta^2), and the collapse
step's double half step is (A^2)^-1 B^2. q is a rule, not a setting
(_cayley_chunk): the largest even number <= 8 with (1 + theta^2)^(q/2)
<= 10, theta = h/2 ||H||_inf for the kernel step h, which bounds the
condition number of A^q and so the roundoff of the solve. A stiff kernel
(theta > 1.47, e.g. N = 1024 on [-8, 8] at h = 5e-4) falls back to q = 2,
the double step. Kernels are cached per Hamiltonian and dt, so repeated
runs on one setup (sweeps, the benchmark) factor once. A cached kernel
holds no buffer: each split-step call takes its own output and FFT scratch
and transforms into them, with the operand order of every product fixed,
so a step is bitwise the allocating expression it replaces.

All three propagators run on one stepping loop, `_drive`. Each supplies
only an interval function advance(vals, m), which takes a full Strang
state m steps on, and a recorder (record, series), both on raw ndarrays;
the loop owns the snapshot cadence (t = 0, every snapshot_stride-th step
and the last step), the step cap, the renormalization of each advance's
end state and its running log scale, the assembly of the Trajectory, and
attaching the partial trajectory to any CqhjError a step, a snapshot or
the observables raise. record is the per-snapshot finite check, which
keeps the state; series takes the observables of the kept states once per
run, in blocks (_psi_series), through the formulas behind norm, energy,
fidelity and masked_stats, so each formula has one copy, with the H field
(H psi) / psi of the Hamiltonian the run steps with. A row's values do
not depend on its block, and an observable error, earlier than any step
error, wins.

The force layer of a nonlinear run is one kernel per run on raw ndarrays
(_gauge_kernel). It looks up the force's law once (forces._force_law, with
the pinning target's increments taken from its wave function), and each
step calls this module's names psi_to_p, evaluate_force and
gauge_potential once each (the benchmark's tracer and the tests wrap these
names). They bind the pair cores: psi_to_p the action increments
(cqhj._action_increments, with psi_to_p's node mask and finite check),
evaluate_force the pair force (forces._evaluate) and gauge_potential its
cumulative sum (forces._pair_lift). No derivative, division or
antiderivative is taken per step. The public psi_to_p, evaluate and
gauge_potential stay the derivative route (p, then F(p), then its
antiderivative), the reference: on nodeless states the two lifts agree to
the box stencils' discretization error (verify's gauge-lift-agreement).
The momentum-space RK4 run likewise steps raw ndarrays (_momentum_kernel),
each stage bitwise cqhj_rhs of the unmasked field. Field and MomentumField
are the API boundary, built only for a snapshot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from itertools import chain
from operator import matmul

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .cqhj import (
    DEFAULT_NODE_THRESHOLD,
    MomentumField,
    _action_increments as psi_to_p,
    _check_node_threshold,
    _expanded_rhs,
    _masked_moments,
    p_to_psi,
)
from .diagnostics import _energy, _fidelity, _inners, _scaled
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
from .forces import _evaluate as evaluate_force, _pair_lift as gauge_potential
from .grid import (
    Boundary,
    Field,
    Grid,
    _adopt,
    _antiderivative_op,
    _check_finite,
    _derivative_op,
    _normalized,
    _readonly,
    _scaled_rows,
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

    renormalize_each_step divides the end state of each advance by its grid
    norm and sums the log scale factors into gauge_log_magnitude: once per
    snapshot interval, and at least once per e-folding time 1 / (rate dt)
    steps of a collapse force (module docstring). dt must be positive and
    finite.

    A linear run takes each snapshot interval as one kernel call (FFT
    steps, or Crank-Nicolson solves of at most q <= 8 Cayley steps, q a
    conditioning rule) or, on split-step, as one product with the dense
    power the run keeps for each interval length that pays (module
    docstring).
    """

    method: Method
    dt: float
    renormalize_each_step: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


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
    """n Strang steps exp(-iV dt/2) exp(-iK dt) exp(-iV dt/2) in one call, via
    FFT step by step. powers builds the dense powers of the step matrix a
    run keeps for its intervals that pay (_linear_advance), all from one
    squaring chain; the run, not the kernel, keeps them. The kernel holds
    read-only factors and no buffer; numpy's complex product is not bitwise
    commutative, so operand order is fixed."""

    def __init__(self, H: Hamiltonian, dt: float):
        self.half_v = _readonly(np.exp(-0.5j * dt * H.V.samples))
        self.full_v = _readonly(np.exp(-1j * dt * H.V.samples))
        self.kinetic = _readonly(np.exp(-0.5j * dt * H.grid.wavenumbers**2))

    def step(self, values: np.ndarray, n: int) -> np.ndarray:
        """n Strang steps of values, a fresh array."""
        return self._stepped(values * self.half_v, n)

    def _stepped(self, v: np.ndarray, n: int) -> np.ndarray:
        """n Strang steps, one FFT pair per step, of each state along the
        last axis of v, which carries the leading half potential factor
        already, in place; the potential factors that meet between two steps
        are merged into one."""
        buf = np.empty_like(v)
        for i in range(n):
            if i:
                np.multiply(v, self.full_v, out=v)
            np.fft.fft(v, out=buf)
            np.multiply(self.kinetic, buf, out=buf)
            np.fft.ifft(buf, out=v)
        return np.multiply(v, self.half_v, out=v)

    def powers(self, lengths) -> dict:
        """{n: (S^n)^T} for each n of lengths, by one binary powering of the
        dense step matrix S shared by every n: one batched step of the N unit
        states, which with their leading half potential factor are the rows
        of diag(half_v), gives the rows of S^T; then bit_length(max n) - 1
        squarings, and for each n its first set bit's power and one product
        per further set bit, so values @ powers([n])[n] is S^n values. The
        chain has two N x N arrays alive and each n adds one, so a run's two
        lengths have four."""
        out = dict.fromkeys(lengths)
        power = self._stepped(np.diag(self.half_v), 1)
        for k in range(max(out).bit_length()):
            if k:
                power = power @ power
            for n in out:  # by key: a loop name would keep a replaced power alive
                if n >> k & 1:
                    out[n] = power if out[n] is None else out[n] @ power
        return out


# the largest grid whose split-step intervals may be taken as a matrix
# power, and the cost of one N x N complex product in FFT steps of the same
# grid at N = 256, scaled by (N / 256)^2.5 and at least one step
# (_split_power_pays)
SPLIT_POWER_MAX_POINTS = 1024
SPLIT_MATMUL_STEPS_256 = 200.0


def _split_power_pays(n_points: int, n: int) -> bool:
    """Whether n split-step steps on n_points are taken as the matrix power
    S^n: when n exceeds the cost of bit_length(n) + 2 N x N products, which
    covers the build, the squarings and the vector product; the up to
    bit_length(n) - 1 products that accumulate a kept power are left to the
    rule's conservative cost per product. On a 2-core host one product cost
    62-131 FFT steps at N = 256, 579-633 at 512 and 1,931-5,137 at 1024, on
    one core or two (BENCH_18), under the rule's 200, 1,131 and 6,400, so
    the rule errs towards stepping: the power path was 1.2-3.8x faster than
    stepping at the rule's crossover. Grids above
    SPLIT_POWER_MAX_POINTS always step; their two N x N arrays would pass
    32 MB, and at N = 2048 a product costs 9,300-16,200 steps.

    Past a power of two n counts one product more than the n below it, so
    n also pays when 2^(k-1) - 1, k = bit_length(n), the largest n of one
    bit fewer, does: every n from the first that pays takes the power (on
    N = 68 that is 59, and n = 64 counts 9 products, n = 63 only 8)."""
    matmul = max(1.0, SPLIT_MATMUL_STEPS_256 * (n_points / 256) ** 2.5)
    k = n.bit_length()
    return n_points <= SPLIT_POWER_MAX_POINTS and (
        n > matmul * (k + 2) or (1 << k) // 2 - 1 > matmul * (k + 1)
    )


# the most Cayley steps one Crank-Nicolson call takes, and the bound on the
# condition number of the matrix power it solves with
CAYLEY_CHUNK_MAX = 8
CAYLEY_CONDITION_BOUND = 10.0


def _cayley_chunk(matrix, dt: float) -> int:
    """The chunk q of a Crank-Nicolson kernel of step dt (module docstring).
    Over the eigenvalues E of the Hermitian H, |E| <= ||H||_inf, A^q has the
    singular values (1 + (dt E / 2)^2)^(q/2) >= 1, so (1 + theta^2)^(q/2)
    bounds its condition number."""
    theta = 0.5 * dt * abs(matrix).sum(axis=1).max()
    q = CAYLEY_CHUNK_MAX
    while q > 2 and (1.0 + theta**2) ** (q // 2) > CAYLEY_CONDITION_BOUND:
        q -= 2
    return q


class _CrankNicolsonKernel:
    """Cayley step A^-1 B, A = 1 + i dt H / 2 and B = 1 - i dt H / 2, with H
    the Hamiltonian's sparse matrix on its unknowns (the interior points on
    box grids, whose walls stay at zero; every point on periodic grids). A
    and B commute, so m <= chunk steps are one solve and one matvec,
    (A^m)^-1 B^m, with one sparse LU of A^m and one CSR B^m per m, built on
    first use (module docstring)."""

    def __init__(self, H: Hamiltonian, dt: float):
        self.inner = H.inner
        eye = sp.identity(H.matrix.shape[0], dtype=np.complex128, format="csc")
        self._A = eye + 0.5j * dt * H.matrix
        self._B = eye - 0.5j * dt * H.matrix
        self.chunk = _cayley_chunk(H.matrix, dt)
        self._ops: dict = {}

    def step(self, values: np.ndarray, n: int) -> np.ndarray:
        """n >= 1 Cayley steps in solves of chunk steps, the rest last."""
        while n > self.chunk:
            values = self._solve(values, self.chunk)
            n -= self.chunk
        return self._solve(values, n)

    def _solve(self, values: np.ndarray, m: int) -> np.ndarray:
        """m <= chunk Cayley steps in one solve, a fresh array."""
        op = self._ops.get(m)
        if op is None:
            # products one factor at a time: built by squaring, A^8 put a
            # 6,284-half-step N = 512 run 6.2e-13 from a long-double reference,
            # against 2.0e-13 (and 1.7e-13 for double half steps)
            A, B = (reduce(matmul, [M] * m) for M in (self._A, self._B))
            op = self._ops[m] = (splu(A.tocsc()).solve, B.tocsr())
        out = np.zeros(values.shape, values.dtype)
        out[self.inner] = op[0](op[1] @ values[self.inner])
        return out


def _linear_advance(kernel, substeps: int, t_final: float, dt: float, snapshot_stride: int):
    """advance(vals, m) of a linear run to t_final, m steps being substeps *
    m kernel steps (module docstring). The run's interval lengths are the
    stride and the remainder; on split-step each that pays
    (_split_power_pays) is kept as (S^n)^T, all from one squaring chain, and
    taken as one vector-matrix product. Any other interval is one
    kernel.step call."""
    count, rest = divmod(_step_count(t_final, dt, snapshot_stride), snapshot_stride)
    lengths = [substeps * m for m in (snapshot_stride if count else 0, rest) if m]
    split = isinstance(kernel, _SplitStepKernel)
    paying = [n for n in lengths if split and _split_power_pays(kernel.half_v.size, n)]
    kept = kernel.powers(paying) if paying else {}

    def advance(vals: np.ndarray, m: int) -> np.ndarray:
        n = substeps * m
        return vals @ kept[n] if n in kept else kernel.step(vals, n)

    return advance


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


# the bytes of one complex temporary of the observable block pass, which
# sets its rows per block (_psi_series): 32 states at N = 512
OBSERVE_BLOCK_BYTES = 1 << 18


def _record_psi_observables(kept: list, vals: np.ndarray | None, grid: Grid, log: float):
    """The snapshot of the state vals, which takes vals without a copy,
    after its finite check; vals and its log scale are kept for the block
    pass (_psi_series). vals None (a winding field of cqhj_evolve) keeps a
    row of NaN."""
    psi = None if vals is None else _adopt(Field, grid=grid, values=vals).check_finite()
    kept.append((vals, log))
    return psi


def _observe(H: Hamiltonian, target: tuple[np.ndarray, float] | None, stack: np.ndarray):
    """The first five OBSERVABLES, norm to H_std, of a stack of finite
    states, one column per state (fidelity_target NaN without a target),
    from one operator application: the H field is (H psi) / psi off the
    node mask and V on it. The weighted sums are one np.dot per row, so a
    column is bitwise that of the state alone. AllMasked for a zero row,
    then NodePresent, ImaginaryEnergy and ZeroState as the observables
    raise them."""
    grid = H.grid
    vals, amp, sq, norms = _scaled_rows(grid, stack)
    peak = amp.max(axis=-1, keepdims=True)
    if not peak.all():
        raise AllMasked("wave function vanishes identically")
    # cqhj._node_mask's rule; a nonzero row keeps its peak point unmasked
    mask = amp < OBSERVABLE_NODE_THRESHOLD * peak
    hvals = H.apply(vals)
    h_field = np.empty_like(hvals)
    h_field[...] = H.V.samples
    np.divide(hvals, vals, out=h_field, where=~mask)
    mean, std = _masked_moments(h_field, mask, grid)
    energies = list(map(_energy, _inners(grid, vals, hvals), sq.tolist()))
    if target is None:
        fids = [np.nan] * len(vals)
    else:
        inners = _inners(grid, vals, target[0])
        fids = [_fidelity(i, n, target[1]) for i, n in zip(inners, np.sqrt(sq).tolist())]
    return np.array([norms, energies, fids, mean.real, std])


def _first_failure(H: Hamiltonian, target, stack: np.ndarray):
    """(_observe of the stack, None), or, when a row fails, _observe of the
    rows before the first failing one (None for none) and that row's error.
    A row's observables depend on the row alone, so a leading slice of the
    stack fails exactly when it holds that row, which bisection finds."""
    try:
        return _observe(H, target, stack), None
    except CqhjError as exc:
        error = exc
    good, bad, cols = 0, len(stack), None
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            cols, good = _observe(H, target, stack[:mid]), mid
        except CqhjError as exc:
            error, bad = exc, mid
    return cols, error


def _psi_series(kept: list, H: Hamiltonian, target: tuple[np.ndarray, float] | None):
    """(observables, error) of the kept snapshots (state, log scale) of a
    run, computed in blocks of OBSERVE_BLOCK_BYTES / (16 N) states: error is
    None and the series cover every snapshot, or error is the first failing
    snapshot's and the series stop before it. A state None records NaN
    throughout."""
    rows = [i for i, (v, _) in enumerate(kept) if v is not None]
    block = max(1, OBSERVE_BLOCK_BYTES // (16 * H.grid.n_points))
    parts, done, error = [], 0, None
    for start in range(0, len(rows), block):
        stack = np.stack([kept[i][0] for i in rows[start : start + block]])
        cols, error = _first_failure(H, target, stack)
        if cols is not None:
            parts.append(cols)
            done += cols.shape[1]
        if error is not None:
            break
    count = rows[done] if error is not None else len(kept)
    table = np.full((len(OBSERVABLES), count), np.nan)
    if parts:
        table[:5, rows[:done]] = np.concatenate(parts, axis=1)
    table[5] = [log for _, log in kept[:count]]
    table[6, rows[:done]] = 0.0  # gauge_phase: the scale factors are real
    obs = dict(zip(OBSERVABLES, table))
    if target is None:
        del obs["fidelity_target"]
    return obs, error


# --------------------------------------------------------------------------
# propagators


def _psi_recorder(H: Hamiltonian, target: Field | None):
    """(record, series) of the wave-function propagators, as _drive takes
    them: record(vals, log) is _record_psi_observables, series() the block
    pass over the states it keeps (_psi_series). The target is scaled once
    per run."""
    kept: list = []
    if target is not None:
        require_same_grid(target, H.grid)
        vals, sq_norm = _scaled(target)
        target = (vals[0], math.sqrt(sq_norm))
    return (
        lambda v, log: _record_psi_observables(kept, v, H.grid, log),
        lambda: _psi_series(kept, H, target),
    )


def _step_count(t_final: float, dt: float, snapshot_stride: int) -> int:
    """The steps of a run to t_final, at least one; ValueError unless
    t_final is positive and finite and snapshot_stride >= 1."""
    if not 0.0 < t_final < np.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    return max(1, int(round(t_final / dt)))


def _drive(
    vals: np.ndarray,
    spec: IntegratorSpec,
    t_final: float,
    snapshot_stride: int,
    advance,
    recorder,
    grid: Grid | None,
    log: float = 0.0,
    cap: int = sys.maxsize,
) -> Trajectory:
    """The stepping loop of every propagator (see the module docstring).

    advance(vals, m) takes a full state m <= cap steps on. With a grid,
    each advance's end state is divided by its grid norm and log, from the
    entry log scale, sums the log scale factors; None: no renormalization.
    recorder is (record, series): record(vals, log) keeps a snapshot and
    returns it, and series() gives the observables of the kept snapshots
    and the error of the first whose observables fail, or None; it runs
    once, after the last step or after a step's or a snapshot's CqhjError.
    Of two errors the earlier in time, the observables', is raised, with
    the trajectory before it attached. ValueError, before the first
    record, unless t_final is positive and finite and snapshot_stride >= 1.
    """
    n_steps = _step_count(t_final, spec.dt, snapshot_stride)
    record, series = recorder
    snaps: list = []
    times: list[float] = []
    error = None
    try:
        snaps.append(record(vals, log))
        times.append(0.0)
        step = 0
        for end in chain(range(snapshot_stride, n_steps, snapshot_stride), (n_steps,)):
            while step < end:
                m = min(cap, end - step)
                vals = advance(vals, m)
                step += m
                if grid is not None:
                    scale = norm(_adopt(Field, grid=grid, values=vals))
                    log -= float(np.log(scale))
                    vals = vals / scale
            snaps.append(record(vals, log))
            times.append(step * spec.dt)
    except CqhjError as exc:
        error = exc
    obs, failure = series()
    count = len(obs["norm"])
    traj = Trajectory(times=np.asarray(times[:count]), snapshots=snaps[:count], observables=obs)
    if failure is not None:
        error = failure
    if error is not None:
        error.trajectory = traj
        raise error
    return traj


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
    O(dt^2 E^3) per unit time for energy-E components. The steps between
    snapshots are one linear interval, and a renormalized run divides by
    the norm once per snapshot (IntegratorSpec). psi0 and V must share a
    grid (GridMismatch otherwise).
    """
    grid = require_same_grid(psi0, V.grid)
    H = hamiltonian(V, spec.method)
    advance = _linear_advance(_make_kernel(H, spec.dt), 1, t_final, spec.dt, snapshot_stride)
    return _drive(
        psi0.values, spec, t_final, snapshot_stride, advance, _psi_recorder(H, target),
        grid if spec.renormalize_each_step else None,
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
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
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

    p0 and V must share a grid (GridMismatch) and node_threshold lie in
    (0, 1) (ValueError), both before the t = 0 snapshot. Steps run on raw
    ndarrays (module docstring). The run never renormalizes, whatever
    renormalize_each_step says: p = -i grad log psi is of degree zero in
    psi, so it carries no scale to renormalize.
    """
    if spec.method is not Method.RK4:
        raise ValueError("momentum-space evolution uses the RK4 method")
    _check_node_threshold(node_threshold)
    grid = require_same_grid(p0.field, V.grid)
    p0.require_nodeless()
    dt_max = _rk4_stability_limit(grid)
    if spec.dt > dt_max:
        raise StabilityViolation(
            f"RK4 needs dt <= {dt_max:.3e} for this grid, got {spec.dt:.3e}"
        )
    H = hamiltonian(V, spec.method)
    empty = np.zeros(grid.n_points, dtype=bool)
    rhs, d = _momentum_kernel(V)
    antiderivative = _antiderivative_op(grid) if grid.boundary is Boundary.BOX else None
    dt = spec.dt

    def monitor(vals: np.ndarray, t: float) -> None:
        # magnitude ~ exp(-cumulative Im p)
        c = np.cumsum(vals.imag) * grid.dx
        rel = np.exp(-(c - c.min()))
        if rel.min() / rel.max() < node_threshold or not np.all(np.isfinite(vals)):
            raise NodeApproach(
                f"reconstructed magnitude fell below the node threshold at t = {t:.6g}"
            )

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
            if antiderivative is not None:
                vals = d(antiderivative(vals))
            done += 1
            monitor(vals, done * dt)
        return vals

    record_psi, series = _psi_recorder(H, target)

    def record(vals: np.ndarray, log: float) -> MomentumField:
        pf = MomentumField(Field(grid, vals), empty)
        try:
            psi, log_scale = p_to_psi(pf)
        except PeriodicityViolation:
            # winding fields have no single-valued reconstruction: a row of
            # NaN keeps the observable series aligned with the snapshots
            record_psi(None, np.nan)
        else:
            record_psi(psi.values, log_scale)
        return pf

    return _drive(p0.values, spec, t_final, snapshot_stride, advance, (record, series), None)


def _momentum_kernel(V: Potential):
    """(rhs, d) of one cqhj_evolve run on V's grid, on raw ndarrays: d is
    the grid's first derivative behind gradient's finite check, and rhs(p)
    the expanded right-hand side with d(V) taken once, bitwise cqhj_rhs of
    the unmasked field p."""
    derivative = _derivative_op(V.grid, 1)

    def d(v: np.ndarray) -> np.ndarray:
        _check_finite(v)
        return derivative(v)

    gV = d(V.samples.astype(np.complex128))
    return (lambda p: _expanded_rhs(p, gV, d)), d


def _gauge_kernel(force: CollapseForce, grid: Grid, node_threshold: float):
    """phi(vals), the gauge potential of a non-null force at the raw state
    vals, as one run's kernel on the pair route (module docstring). A
    pinning target on another grid raises GridMismatch here, before the
    first step; a state with no unmasked point left raises NodeBlowup."""
    law = _force_law(force, grid)
    periodic = grid.boundary is Boundary.PERIODIC

    def phi(vals: np.ndarray) -> np.ndarray:
        try:
            inc, mask = psi_to_p(vals, node_threshold, periodic)
        except AllMasked as exc:
            raise NodeBlowup(
                "force evaluation has no unmasked momentum values left"
            ) from exc
        return gauge_potential(evaluate_force(inc, mask, law), grid)

    return phi


def collapsible_evolve(
    psi0: Field,
    V: Potential,
    force: CollapseForce,
    spec: IntegratorSpec,
    t_final: float,
    *,
    snapshot_stride: int = 1,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
    target: Field | None = None,
) -> Trajectory:
    """Nonlinear collapse evolution in the wave-function (gauge) form.

    Strang composition per step: linear half step, the exact nonlinear
    gauge sub-step psi exp(i tau Phi[psi]) with Phi the cumulative sum of
    the pair forces of the half-stepped state's action increments and
    tau = -expm1(-rate dt) / rate (module docstring), linear half step.
    Phi is flat across masked zones, and a real sign change between grid
    points carries no momentum. Between snapshots the trailing
    half step of one step and the leading one of the next are applied as
    one double half step, so every step makes one linear solve; the
    recorded states are the full Strang states. Under the null force the
    steps between snapshots are one linear interval. The node mask is that
    of the half-stepped state; a state with no unmasked point left raises
    NodeBlowup. Every nonzero finite scale of psi0 is accepted (grid.norm),
    an all-zero psi0 raises ZeroState; the log scale of the entry
    normalization and of every renormalization (IntegratorSpec, at most
    1 / (rate dt) steps apart) is summed into gauge_log_magnitude.
    Split-step checks each half step against schrodinger_evolve's bound, so
    it requires dt * E_max <= 0.2. psi0 and V must share a grid
    (GridMismatch) and node_threshold lie in (0, 1) (ValueError).
    """
    _check_node_threshold(node_threshold)
    grid = require_same_grid(psi0, V.grid)
    H = hamiltonian(V, spec.method)
    kernel = _make_kernel(H, spec.dt, substeps=2)
    dt = spec.dt

    vals0, scale = _normalized(grid, psi0.values)

    # the exact sub-step's time factor (module docstring); dt in the limit
    # rate -> 0, which also covers the null force
    rate = force.rate
    tau = -np.expm1(-rate * dt) / rate if rate else dt
    # steps per advance: one e-folding time of the force (module docstring)
    cap = max(1, int(min(1 / (rate * dt), sys.maxsize))) if rate * dt else sys.maxsize

    if force.kind is ForceKind.NULL:  # m steps are 2m linear half steps
        advance = _linear_advance(kernel, 2, t_final, dt, snapshot_stride)
    else:
        phi = _gauge_kernel(force, grid, node_threshold)
        itau = 1j * tau

        def gauge(a: np.ndarray) -> np.ndarray:
            """a exp(i tau Phi[a]), in place on the fresh Phi."""
            phase = phi(a)
            np.multiply(itau, phase, out=phase)
            np.exp(phase, out=phase)
            return np.multiply(a, phase, out=phase)

        def advance(vals: np.ndarray, m: int) -> np.ndarray:
            b = gauge(kernel.step(vals, 1))
            for _ in range(m - 1):
                # b still owes its trailing half step, fused into the next one
                b = gauge(kernel.step(b, 2))
            return kernel.step(b, 1)

    return _drive(
        vals0, spec, t_final, snapshot_stride, advance, _psi_recorder(H, target),
        grid if spec.renormalize_each_step else None, -float(np.log(scale)), cap,
    )
