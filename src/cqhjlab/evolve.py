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
one of dt1 + dt2. Every force is of degree zero in psi and the node mask
(cqhj._node_mask) is scale-free, so a scale factor never changes the
state's shape. With renormalization on, _drive alone divides the end state
of each advance by its norm and sums the log scale factors, recorded at
every snapshot (gauge_log_magnitude). A run of force rate r > 0
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
vector-matrix product with a kept dense power. Before its first step the
run asks once (_kept_powers) for the dense powers (S^n)^T, S the N x N
Strang step matrix, of those of its interval lengths (the snapshot stride
and the remainder, in kernel steps) that pay. The powers come from one
squaring chain (_SplitStepKernel.powers): S is built by one batched step of
the N unit states, its squarings S^(2^k) serve every length, and the set
bits of each length are multiplied into its own matrix, so the chain makes
bit_length(n) - 1 squarings and popcount - 1 products per length, with at
most four N x N arrays alive (64 MB at N = 1024). One module-level slot
keeps the read-only powers of the last such run, keyed by its kernel and
its tuple of paying lengths, so the next run of the same kernel and lengths
(a sweep, a repeated run) takes them with no chain; any other run empties
the slot before its chain starts, so the peak stays four arrays. Between
runs the slot holds at most two N x N arrays, 2 MB at N = 256 and 32 MB at
N = 1024. The powers are a pure function of the kernel and the lengths, so
no output depends on the slot. Whether a length pays is a rule of (N, n),
not a setting (_split_power_pays): n must exceed bit_length(n) + 2
products at a committed, conservative cost per product, or a shorter n
must, so every n from the first that pays takes the power; grids above
1024 points always step. Every other split-step interval steps by FFT, one
FFT pair per step, merging the potential factors that meet. Crank-Nicolson
and the nonlinear steps (n <= 2) never take a power.

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
the double step; an A^m or B^m that overflows raises StabilityViolation.
Kernels are cached per Hamiltonian and dt, so repeated
runs on one setup (sweeps, the benchmark) factor once. A cached kernel
holds no buffer: each split-step call takes its own output and FFT scratch
and transforms into them, with the operand order of every product fixed,
so a step is bitwise the allocating expression it replaces.

All three propagators run on one stepping loop, `_drive`. Each supplies
only an interval function advance(vals, m), which takes a full Strang
state m steps on, and a recorder (record, series), both on raw ndarrays;
the loop owns the snapshot cadence (t = 0, every snapshot_stride-th step
and the last step), the step cap, the renormalization of each advance's
end state (norm, bound to the raw core grid._norm: no Field is built) and
its running log scale, and the Trajectory: one (S, N) array allocated
before the first step, snapshot i its row i, whose first rows are the
partial trajectory attached to any CqhjError a step, a snapshot or the
observables raise. record is the per-snapshot finite check, which writes
the state into its row and observes each full block (observe_block_rows)
of kept rows, a view, in one pass; series observes the rest at the run's
end or after an error.
The observables are one (len(OBSERVABLES), S) array, NaN until observed,
whose read-only rows are the series. The pass is diagnostics._observe,
which computes every observable by the formulas behind norm, energy,
fidelity, masked_stats and hamiltonian_field_from_state (with the run's
Hamiltonian), so each has one copy. A row's values do not depend on its
block, and an observable error, earlier than any step error, wins.

The force layer of a nonlinear run is one kernel per run on raw ndarrays
(_gauge_kernel). It looks up the force's law once (forces._force_law: the
pinning target's increments, masked at the run's node_threshold as the
state's are), and each step calls this module's names psi_to_p,
evaluate_force and gauge_potential once each (the benchmark's tracer and
the tests wrap these names). They bind the pair cores: psi_to_p the action
increments (cqhj._action_increments, whose node mask is also its finite
check), evaluate_force the pair force (forces._evaluate) and
gauge_potential its cumulative sum (forces._pair_lift). No derivative, division or
antiderivative is taken per step. The public psi_to_p, evaluate and
gauge_potential stay the derivative route (p, then F(p), then its
antiderivative), the reference, on which evaluate masks a pinning target
at the momentum field's node_threshold: on nodeless states the two lifts
agree to the box stencils' discretization error (verify's
gauge-lift-agreement).
The momentum-space RK4 run likewise steps raw ndarrays (_momentum_kernel),
each stage bitwise cqhj_rhs of the unmasked field. Field and MomentumField
are the API boundary, built only for a snapshot.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial, reduce
from operator import matmul

import numpy as np

from .cqhj import (
    DEFAULT_NODE_THRESHOLD,
    MomentumField,
    _action_increments as psi_to_p,
    _check_node_threshold,
    _expanded_rhs,
    _node_mask,
    p_to_psi,
)
from .diagnostics import OBSERVABLES, _observe
from .errors import (
    AllMasked,
    ConfigError,
    CqhjError,
    NodeApproach,
    NodeBlowup,
    PeriodicityViolation,
    SchemeMismatch,
    StabilityViolation,
    ZeroState,
)
from .forces import CollapseForce, ForceKind, _force_law
from .forces import _evaluate as evaluate_force, _pair_lift as gauge_potential
from .grid import (
    Boundary,
    Field,
    Grid,
    _antiderivative_op,
    _check_finite,
    _derivative_op,
    _norm as norm,
    _normalized,
    _readonly,
    require_same_grid,
)
from .states import Hamiltonian, Method, Potential, hamiltonian


@dataclass(frozen=True)
class IntegratorSpec:
    """The integrator of a run and its time step dt.

    renormalize_each_step divides the end state of each advance by its grid
    norm and sums the log scale factors into gauge_log_magnitude; a run's
    advances are its snapshot intervals, cut at a collapse force's e-folding
    cap (module docstring). dt must be positive and finite.
    """

    method: Method
    dt: float
    renormalize_each_step: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass
class Trajectory:
    """Recorded time series of a run: snapshot i is row i of snapshots, a
    read-only C-contiguous complex128 (len(times), N) array of psi (p for
    cqhj_evolve), final_state the last row as a Field (MomentumField), and
    each observable series a read-only row of one float64 array."""

    times: np.ndarray
    snapshots: np.ndarray
    observables: dict[str, np.ndarray] = dc_field(default_factory=dict)
    final_state: Field | MomentumField | None = None


# --------------------------------------------------------------------------
# linear kernels


class _SplitStepKernel:
    """n Strang steps exp(-iV dt/2) exp(-iK dt) exp(-iV dt/2) in one call, via
    FFT step by step. powers builds the dense powers of the step matrix
    for a run's intervals that pay (_linear_advance), all from one squaring
    chain, which the kernel does not keep (the kept slot: module docstring).
    The kernel holds read-only factors and no buffer; numpy's complex
    product is not bitwise commutative, so operand order is fixed."""

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
    bounds its condition number. theta is clipped at 2, past the 1.47 from
    which q is 2, in Python floats, so the rule cannot overflow."""
    theta = min(0.5 * dt * float(abs(matrix).sum(axis=1).max()), 2.0)
    q = CAYLEY_CHUNK_MAX
    while q > 2 and (1.0 + theta**2) ** (q // 2) > CAYLEY_CONDITION_BOUND:
        q -= 2
    return q


class _CrankNicolsonKernel:
    """Cayley step A^-1 B, A = 1 + i dt H / 2 and B = 1 - i dt H / 2, with H
    the Hamiltonian's sparse matrix on its unknowns (the interior points on
    box grids, whose walls stay at zero; every point on periodic grids),
    taken in solves of at most chunk steps (module docstring)."""

    def __init__(self, H: Hamiltonian, dt: float):
        import scipy.sparse as sp

        self.inner = H.inner
        eye = sp.identity(H.matrix.shape[0], dtype=np.complex128, format="csc")
        with np.errstate(over="ignore", invalid="ignore"):  # _solve checks the factors
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
            if not (np.isfinite(A.data).all() and np.isfinite(B.data).all()):
                raise StabilityViolation(f"the Cayley factors A^{m}, B^{m} of this step overflow")
            from scipy.sparse.linalg import splu

            op = self._ops[m] = (splu(A.tocsc()).solve, B.tocsr())
        out = np.zeros(values.shape, values.dtype)
        out[self.inner] = op[0](op[1] @ values[self.inner])
        return out


# the kept slot (module docstring): {(kernel, lengths): {n: (S^n)^T}}
_KEPT_POWERS: dict = {}


def _kept_powers(kernel: _SplitStepKernel, lengths: list) -> dict:
    """{n: (S^n)^T}, read-only, for the paying interval lengths of a linear
    split-step run on kernel, from the kept slot or from a new squaring
    chain (kernel.powers), by the module docstring's rule."""
    key = (kernel, tuple(lengths))
    powers = _KEPT_POWERS.get(key)
    if powers is None:
        _KEPT_POWERS.clear()
        powers = kernel.powers(lengths)
        for power in powers.values():
            power.flags.writeable = False  # the chain's own arrays, frozen in place
        _KEPT_POWERS[key] = powers
    return powers


def _linear_advance(kernel, substeps: int, t_final: float, dt: float, snapshot_stride: int):
    """advance(vals, m) of a linear run to t_final, m steps being substeps *
    m kernel steps (module docstring). The run's interval lengths are the
    stride and the remainder; on split-step each that pays
    (_split_power_pays) is taken as one vector-matrix product with (S^n)^T,
    all from one squaring chain or from the kept slot (_kept_powers). Any
    other interval is one kernel.step call."""
    count, rest = divmod(_step_count(t_final, dt, snapshot_stride), snapshot_stride)
    lengths = [substeps * m for m in (snapshot_stride if count else 0, rest) if m]
    split = isinstance(kernel, _SplitStepKernel)
    paying = [n for n in lengths if split and _split_power_pays(kernel.half_v.size, n)]
    kept = _kept_powers(kernel, paying) if paying else {}

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


# the bytes of one complex temporary of an observed block, which sets its
# rows (observe_block_rows): 32 states at N = 512
OBSERVE_BLOCK_BYTES = 1 << 18


def observe_block_rows(n_points: int) -> int:
    """The rows of one observed block of N = n_points states, at least one."""
    return max(1, OBSERVE_BLOCK_BYTES // (16 * n_points))


class _PsiObservations:
    """The block bookkeeping of one wave-function run's observables: the
    (S, N) array rows the kept states are written into, observed in blocks
    of observe_block_rows(N) rows into the columns of obs, a NaN-filled
    (len(OBSERVABLES), S) array, column i for snapshot i."""

    def __init__(self, H: Hamiltonian, target: Field | None, rows: np.ndarray):
        if target is not None:
            require_same_grid(target, H.grid)
        self.H, self.target, self.rows = H, target, rows
        self.block = observe_block_rows(H.grid.n_points)
        self.obs, self.kept, self.observed = np.full((len(OBSERVABLES), len(rows)), np.nan), 0, 0

    def observe(self):
        """Observe the kept rows not yet observed, a view, up to the first
        failing one, found by bisection (a row's observables depend on the
        row alone), which ends the kept rows; that row's error, or None."""
        start, stack = self.observed, self.rows[self.observed : self.kept]
        good, bad = 0, len(stack)
        mid, error = bad, None  # the whole stack first, then bisection
        while mid > good:
            try:
                self.obs[:5, start : start + mid] = _observe(self.H, self.target, stack[:mid])
                good = mid
            except CqhjError as exc:
                error, bad = exc, mid
            mid = (good + bad) // 2
        self.kept = self.observed = start + good
        return error

    def series(self):
        """(observables, error), the kept rows left observed now: the series
        are read-only rows of obs that cover every snapshot with error None,
        or stop before the first failing snapshot, whose error is error."""
        error = self.observe()
        self.obs.flags.writeable = False
        obs = dict(zip(OBSERVABLES, self.obs[:, : self.observed]))
        if self.target is None:
            del obs["fidelity_target"]
        return obs, error


def _record_psi_observables(run: _PsiObservations, i: int, vals: np.ndarray | None, log: float):
    """Snapshot i of the state vals: after its finite check vals is written
    into row i and (log, 0.0) into column i's scale and phase, and a full
    block of kept rows is observed, raising the first failing row's error.
    vals None (a winding field of cqhj_evolve) observes the rows before it
    and leaves column i NaN."""
    if vals is not None:
        _check_finite(vals)
        run.rows[i], run.kept = vals, i + 1
        run.obs[5:, i] = log, 0.0  # the scale factors are real
    error = run.observe() if vals is None or run.kept - run.observed == run.block else None
    if error is not None:
        raise error
    if vals is None:
        run.kept = run.observed = i + 1


# --------------------------------------------------------------------------
# propagators


def _psi_recorder(H: Hamiltonian, target: Field | None, rows: np.ndarray):
    """(record, series) of a wave-function run into the (S, N) array rows,
    as _drive takes them: _record_psi_observables, _PsiObservations.series."""
    run = _PsiObservations(H, target, rows)
    return lambda i, v, log: _record_psi_observables(run, i, v, log), run.series


def _step_count(t_final: float, dt: float, snapshot_stride: int) -> int:
    """The steps of a run to t_final, at least one; ValueError unless
    t_final is positive and finite, dt does not exceed it, t_final / dt is
    a finite count below 2**53 (the largest whose times step * dt stay
    distinct) and snapshot_stride >= 1."""
    if not 0.0 < t_final < np.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if dt > t_final:
        raise ValueError(f"dt = {dt} exceeds t_final = {t_final}")
    if not t_final / dt < 2.0**53:
        raise ValueError(f"t_final / dt = {t_final / dt:.3g} steps, not a count below 2**53")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    return int(round(t_final / dt))


def _drive(
    vals: np.ndarray,
    spec: IntegratorSpec,
    t_final: float,
    snapshot_stride: int,
    advance,
    recorder,
    state,
    grid: Grid | None,
    log: float = 0.0,
    cap: int = sys.maxsize,
) -> Trajectory:
    """The stepping loop of every propagator (see the module docstring).

    advance(vals, m) takes a full state m <= cap steps on. With a grid,
    each advance's end state is divided by its grid norm (a NaN, Inf or
    zero state raises NonFiniteField or ZeroState first) and log, from the
    entry log scale, sums the log scale factors; None: no renormalization.
    recorder(rows) is (record, series) for the run's (S, N) snapshot array:
    record(i, vals, log) writes snapshot i into row i, or raises a kept
    snapshot's observable error; series() gives the observables of the
    kept snapshots and the error of the first whose observables fail, or
    None, once, after the last step or after a step's or a snapshot's
    CqhjError. Of two errors the earlier in time, the observables', is
    raised with the trajectory before it; state(row) is the final_state.
    Bad run inputs raise ValueError (_step_count) first, and a snapshot
    array that cannot be allocated a ConfigError.
    """
    n_steps = _step_count(t_final, spec.dt, snapshot_stride)
    shape = (1 - (-n_steps // snapshot_stride), vals.size)
    try:
        rows = np.empty(shape, np.complex128)
    except MemoryError as exc:
        raise ConfigError(
            f"run.t_final = {t_final}, integrator.dt = {spec.dt} and run.snapshot_stride = "
            f"{snapshot_stride} ask for {shape[0]} snapshots of {shape[1]} points, "
            f"{16 * shape[0] * shape[1]:.3g} bytes, more than can be allocated"
        ) from exc
    record, series = recorder(rows)
    step, error = 0, None
    try:
        record(0, vals, log)
        for i in range(1, len(rows)):
            end = min(i * snapshot_stride, n_steps)  # the step of snapshot i
            while step < end:
                m = min(cap, end - step)
                vals = advance(vals, m)
                step += m
                if grid is not None:
                    scale = norm(grid, vals)
                    if not 0.0 < scale < np.inf:
                        _check_finite(vals)
                        raise ZeroState("every entry of the state is zero")
                    log -= float(np.log(scale))
                    vals = vals / scale
            record(i, vals, log)
    except CqhjError as exc:
        error = exc
    obs, failure = series()
    count = len(obs["norm"])
    rows.flags.writeable = False
    final = state(rows[count - 1]) if count else None
    steps = [min(i * snapshot_stride, n_steps) for i in range(count)]
    traj = Trajectory(np.multiply(steps, spec.dt), rows[:count], obs, final)
    error = failure or error
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
        psi0.values, spec, t_final, snapshot_stride, advance, partial(_psi_recorder, H, target),
        partial(Field, grid), grid if spec.renormalize_each_step else None,
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

    The reconstructed magnitude is monitored on p0 and after each step by
    the node-mask rule (cqhj._node_mask); if it dips below the node
    threshold the run aborts with the partial trajectory attached to the
    NodeApproach error (only the t = 0 snapshot when p0 itself is below it;
    no step is taken then). The run's momentum fields (final_state) carry
    its node_threshold.

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
    rhs, d = _momentum_kernel(V)
    antiderivative = _antiderivative_op(grid) if grid.boundary is Boundary.BOX else None
    dt = spec.dt

    def monitor(vals: np.ndarray, t: float) -> None:
        # magnitude ~ exp(-cumulative Im p); rel's peak is exactly 1.0
        c = np.cumsum(vals.imag) * grid.dx
        rel = np.exp(-(c - c.min()))
        if not np.all(np.isfinite(vals)) or _node_mask(rel, node_threshold).any():
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

    def momentum(vals: np.ndarray) -> MomentumField:
        return MomentumField(Field(grid, vals), np.zeros(grid.n_points, bool), node_threshold)

    def recorder(rows: np.ndarray):
        # p in the trajectory's rows, psi in the observer's own (NaN if winding)
        record_psi, series = _psi_recorder(H, target, np.full_like(rows, np.nan))

        def record(i: int, vals: np.ndarray, log: float) -> None:
            rows[i] = vals
            try:
                psi, log_scale = p_to_psi(momentum(vals))
            except PeriodicityViolation:
                # winding fields have no single-valued reconstruction: a NaN
                # column keeps the observable series aligned with the snapshots
                record_psi(i, None, np.nan)
            else:
                record_psi(i, psi.values, log_scale)

        return record, series

    return _drive(p0.values, spec, t_final, snapshot_stride, advance, recorder, momentum, None)


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
    law = _force_law(force, grid, node_threshold)
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
    normalization and of every renormalization (IntegratorSpec) is summed
    into gauge_log_magnitude.
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
        vals0, spec, t_final, snapshot_stride, advance, partial(_psi_recorder, H, target),
        partial(Field, grid), grid if spec.renormalize_each_step else None,
        -float(np.log(scale)), cap,
    )
