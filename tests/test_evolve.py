"""Propagators: linear Schroedinger, momentum-space RK4, collapsible Strang."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    IntegratorSpec,
    Method,
    MomentumField,
    collapsible_evolve,
    cqhj_evolve,
    double_well_potential,
    fidelity,
    free_potential,
    gaussian_packet,
    hamiltonian_field_from_state,
    harmonic_potential,
    ho_eigenstate,
    kostin_friction,
    norm,
    null_force,
    pinning_force,
    psi_to_p,
    random_nodeless_state,
    schrodinger_evolve,
    solve_eigenstates,
    superpose,
)
from cqhjlab import evolve
from cqhjlab.cqhj import masked_stats
from cqhjlab.diagnostics import OBSERVABLE_NODE_THRESHOLD, OBSERVABLES, energy
from cqhjlab.errors import (
    AllMasked,
    GridMismatch,
    NodeApproach,
    NodeBlowup,
    NodePresent,
    NonFiniteField,
    PeriodicityViolation,
    StabilityViolation,
    ZeroState,
)
from cqhjlab.evolve import _make_kernel
from cqhjlab.forces import evaluate, gauge_potential
from cqhjlab.grid import gradient
from cqhjlab.runner import load_scenario_or_bundled
from cqhjlab.scenario import apply_override
from cqhjlab.states import hamiltonian, position_expectation, position_variance


def split_step_dt(grid, safety=0.95):
    return safety * 0.1 / evolve._split_step_e_max(grid)


# -- linear propagation --------------------------------------------------------


def test_stationary_state_density_and_phase():
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    pair = ho_eigenstate(0, 1.0, g)
    T = 2 * np.pi
    dt = T / 100000
    traj = schrodinger_evolve(
        pair.state, V, IntegratorSpec(Method.SPLIT_STEP, dt, False), T, snapshot_stride=10**9
    )
    final = traj.final_state
    drift = np.max(np.abs(np.abs(final.values) ** 2 - np.abs(pair.state.values) ** 2))
    assert drift <= 1e-8
    center = g.n_points // 2
    dphi = np.angle(final.values[center] / pair.state.values[center]) + pair.energy * traj.times[-1]
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    assert abs(dphi) <= 1e-6


def test_free_packet_spreading():
    g = Grid(-16.0, 16.0, 512, Boundary.PERIODIC)
    psi0 = gaussian_packet(g, 0.0, 0.0, 1.0)
    traj = schrodinger_evolve(
        psi0,
        free_potential(g),
        IntegratorSpec(Method.SPLIT_STEP, split_step_dt(g), False),
        2.0,
        snapshot_stride=10**9,
    )
    var = position_variance(traj.final_state)
    want = 0.5 * (1.0 + 2.0**2)  # (sigma^2/2)(1 + t^2/sigma^4)
    assert abs(var - want) / want <= 1e-4


def test_coherent_state_centroid():
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    psi0 = gaussian_packet(g, 1.0, 0.0, 1.0)
    traj = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.SPLIT_STEP, 1.5e-4, False), 2 * np.pi, snapshot_stride=400
    )
    xs = np.array([position_expectation(Field(g, s)) for s in traj.snapshots])
    assert np.max(np.abs(xs - np.cos(traj.times))) <= 1e-5


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
def test_crank_nicolson_step_matches_dense_cayley_solve(boundary):
    # n = 1 .. 2 chunk + 1 dense Cayley steps against the kernel's n-step
    # call: up to chunk steps are one solve with the LU of A^n, and a longer
    # call is full chunks first and then the rest, bitwise
    g = Grid(-8.0, 8.0, 128, boundary)
    V = harmonic_potential(g, 1.0)
    dt = 1e-2
    op = hamiltonian(V, Method.CRANK_NICOLSON)
    inner, H = op.inner, op.matrix.toarray()
    eye = np.eye(H.shape[0])
    r = np.random.default_rng(3)
    v = r.standard_normal(g.n_points) + 1j * r.standard_normal(g.n_points)
    if boundary is Boundary.BOX:
        v[[0, -1]] = 0.0
    kernel = _make_kernel(op, dt)
    assert kernel.chunk == 6
    want = v.copy()
    for n in range(1, 2 * kernel.chunk + 2):
        want[inner] = np.linalg.solve(eye + 0.5j * dt * H, (eye - 0.5j * dt * H) @ want[inner])
        got = kernel.step(v, n)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), n
    chunks = kernel._solve(kernel._solve(kernel._solve(v, 6), 6), 1)
    assert np.array_equal(kernel.step(v, 13), chunks)


def test_single_half_step_on_a_stiff_grid_is_one_cayley_solve():
    # the collapse kernel of dt = 1e-2 on the 2048-point box steps h = 5e-3
    # with chunk 2; its single half step solves with A, not A^2, and matches
    # a dense Cayley solve to 2.9e-15 (through A^2, as (A^2)^-1 AB: 2.4e-13)
    g = Grid(-8.0, 8.0, 2048, Boundary.BOX)
    op = hamiltonian(harmonic_potential(g, 1.0), Method.CRANK_NICOLSON)
    kernel = _make_kernel(op, 1e-2, substeps=2)
    assert kernel.chunk == 2
    inner, H, h = op.inner, op.matrix.toarray(), 5e-3
    eye = np.eye(H.shape[0])
    r = np.random.default_rng(5)
    v = r.standard_normal(g.n_points) + 1j * r.standard_normal(g.n_points)
    v[[0, -1]] = 0.0
    want = np.zeros_like(v)
    want[inner] = np.linalg.solve(eye + 0.5j * h * H, (eye - 0.5j * h * H) @ v[inner])
    got = kernel.step(v, 1)
    assert np.linalg.norm(got - want) <= 2e-14 * np.linalg.norm(want)


def test_the_cayley_chunk_rule_cannot_overflow():
    # the chunk q is the largest even q <= 8 with (1 + theta^2)^(q/2) <= 10,
    # theta = dt/2 ||H||_inf: wherever that form is finite the rule gives
    # its q, and a step so long that theta^2 overflows gives q = 2 without
    # a warning
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    matrix = hamiltonian(harmonic_potential(g, 1.0), Method.CRANK_NICOLSON).matrix
    row = abs(matrix).sum(axis=1).max()

    def reference(dt):
        with np.errstate(over="ignore"):
            theta = 0.5 * dt * row
            qs = [q for q in (8, 6, 4) if (1.0 + theta**2) ** (q // 2) <= 10.0]
            finite = np.isfinite((1.0 + theta**2) ** 4)
        return (qs[0] if qs else 2), finite

    edges = [2 * math.sqrt(10.0 ** (2 / q) - 1.0) / row for q in (8, 6, 4)]
    dts = [*np.geomspace(1e-8, 1e300, 400), *edges, *(np.nextafter(e, 1.0) for e in edges)]
    for dt in dts:
        q, finite = reference(dt)
        if finite:
            assert evolve._cayley_chunk(matrix, dt) == q, dt
    assert {q for q in map(reference, dts)} >= {(8, True), (6, True), (4, True), (2, False)}
    assert evolve._cayley_chunk(matrix, 1e300) == 2


@pytest.mark.parametrize("dt", [1e160, 1e200, 1e306])
def test_a_cayley_factor_that_overflows_is_a_stability_violation(dt):
    # a step so long that A^2 (or, from about 1e305, A itself) overflows
    # raises StabilityViolation before the LU, where splu called the NaN
    # factor exactly singular
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    kernel = evolve._CrankNicolsonKernel(
        hamiltonian(harmonic_potential(g, 1.0), Method.CRANK_NICOLSON), dt
    )
    psi = ho_eigenstate(0, 1.0, g).state.values
    with pytest.raises(StabilityViolation, match="overflow"):
        kernel.step(psi, 2)
    assert not kernel._ops


def test_split_step_double_step_merges_potential_factors():
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    kernel = _make_kernel(hamiltonian(harmonic_potential(g, 1.0), Method.SPLIT_STEP), 1e-4)
    r = np.random.default_rng(4)
    v = r.standard_normal(g.n_points) + 1j * r.standard_normal(g.n_points)
    want = kernel.step(kernel.step(v, 1), 1)
    assert np.linalg.norm(kernel.step(v, 2) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "boundary, method",
    [(Boundary.BOX, Method.CRANK_NICOLSON), (Boundary.PERIODIC, Method.SPLIT_STEP)],
)
def test_schrodinger_fused_steps_match_single_steps(monkeypatch, boundary, method):
    # between snapshots schrodinger_evolve takes the steps in one kernel
    # call (on Crank-Nicolson solves of at most kernel.chunk = 8 steps):
    # 11 steps at snapshot strides 1, 3 and 10**9, and the states at shared
    # times agree to roundoff
    g = Grid(-8.0, 8.0, 256, boundary)
    V = harmonic_potential(g, 1.0)
    psi0 = gaussian_packet(g, 0.5, 1.0, 1.0)
    dt = 1e-3 if method is Method.CRANK_NICOLSON else split_step_dt(g)
    spec = IntegratorSpec(method, dt, True)
    kernel = _make_kernel(hamiltonian(V, method), dt)
    step, calls = kernel.step, []

    def counted_step(values, n):
        calls.append(n)
        return step(values, n)

    monkeypatch.setattr(kernel, "step", counted_step)
    runs = []
    for stride, want_calls in ((1, [1] * 11), (3, [3, 3, 3, 2]), (10**9, [11])):
        calls.clear()
        runs.append(schrodinger_evolve(psi0, V, spec, 11 * dt, snapshot_stride=stride))
        assert calls == want_calls, (stride, calls)
    every = dict(zip(runs[0].times, runs[0].snapshots))
    assert len(every) == 12
    for traj in runs[1:]:
        for t, snap in zip(traj.times, traj.snapshots):
            assert np.max(np.abs(snap - every[t])) <= 1e-13, t


def test_kernel_cached_per_grid_potential_dt_and_method():
    g = Grid(-8.0, 8.0, 128, Boundary.PERIODIC)
    cn = Method.CRANK_NICOLSON
    kernel = _make_kernel(hamiltonian(harmonic_potential(g, 1.0), cn), 1e-4)
    # equal inputs in new objects share the Hamiltonian and the kernel
    same_grid = Grid(-8.0, 8.0, 128, Boundary.PERIODIC)
    assert _make_kernel(hamiltonian(harmonic_potential(same_grid, 1.0), cn), 1e-4) is kernel
    assert _make_kernel(hamiltonian(harmonic_potential(g, 2.0), cn), 1e-4) is not kernel
    assert _make_kernel(hamiltonian(harmonic_potential(g, 1.0), cn), 2e-4) is not kernel
    split = hamiltonian(harmonic_potential(g, 1.0), Method.SPLIT_STEP)
    assert _make_kernel(split, 1e-4) is not kernel


@pytest.mark.parametrize(
    "psi_grid", [Grid(-10.0, 10.0, 128, Boundary.PERIODIC), Grid(-8.0, 8.0, 128, Boundary.BOX)]
)
def test_propagators_reject_psi0_on_another_grid(psi_grid):
    # same n_points, another extent or boundary: the values must not be
    # relabelled onto V's grid
    V = harmonic_potential(Grid(-8.0, 8.0, 128, Boundary.PERIODIC), 1.0)
    psi0 = gaussian_packet(psi_grid, 0.0, 0.0, 1.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
    with pytest.raises(GridMismatch):
        schrodinger_evolve(psi0, V, spec, 0.01)
    with pytest.raises(GridMismatch):
        collapsible_evolve(psi0, V, null_force(), spec, 0.01)


def test_crank_nicolson_periodic_eigenstate():
    g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    pair = ho_eigenstate(0, 1.0, g)
    traj = schrodinger_evolve(
        pair.state, V, IntegratorSpec(Method.CRANK_NICOLSON, 2e-3, False), 2 * np.pi,
        snapshot_stride=10**9,
    )
    final = traj.final_state
    assert abs(norm(final) - 1.0) <= 1e-12
    drift = np.max(np.abs(np.abs(final.values) ** 2 - np.abs(pair.state.values) ** 2))
    assert drift <= 1e-8


def test_split_step_stability_guard():
    # the error names the integrator dt and the largest dt accepted. E_max =
    # (pi / dx)^2 / 2 = 561.5 is the Nyquist mode's, which the kinetic factor
    # propagates; collapsible_evolve checks each half step, so it accepts
    # twice the dt of schrodinger_evolve
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    psi = ho_eigenstate(0, 1.0, g).state
    with pytest.raises(StabilityViolation) as linear:
        schrodinger_evolve(psi, V, IntegratorSpec(Method.SPLIT_STEP, 1e-2, False), 0.1)
    assert str(linear.value) == (
        "split-step needs dt <= 0.000178 on this grid (dt * E_max <= 0.1, "
        "kinetic cutoff E_max = 561.5); got dt = 0.01"
    )
    with pytest.raises(StabilityViolation) as collapsible:
        collapsible_evolve(
            psi, V, null_force(), IntegratorSpec(Method.SPLIT_STEP, 1e-3, False), 0.1
        )
    assert str(collapsible.value) == (
        "split-step needs dt <= 0.000356 on this grid (dt * E_max <= 0.2, "
        "kinetic cutoff E_max = 561.5); got dt = 0.001"
    )
    # just inside the bound both propagators run
    e_max = 0.5 * (np.pi / g.dx) ** 2
    schrodinger_evolve(psi, V, IntegratorSpec(Method.SPLIT_STEP, 0.0999 / e_max, False), 1e-3)
    collapsible_evolve(
        psi, V, null_force(), IntegratorSpec(Method.SPLIT_STEP, 0.1998 / e_max, False), 1e-3
    )


@pytest.mark.parametrize("n_points", [256, 257])
def test_split_step_kernel_matches_allocating_steps_bitwise(n_points):
    g = Grid(-12.0, 12.0, n_points, Boundary.PERIODIC)
    kernel = _make_kernel(hamiltonian(harmonic_potential(g, 1.0), Method.SPLIT_STEP), 1e-4)
    r = np.random.default_rng(n_points)
    v = Field(g, r.standard_normal(n_points) + 1j * r.standard_normal(n_points)).values
    before = v.copy()
    half, full, kin = kernel.half_v, kernel.full_v, kernel.kinetic
    one = np.fft.ifft(kin * np.fft.fft(v * half)) * half
    mid = np.fft.ifft(kin * np.fft.fft(v * half)) * full
    two = np.fft.ifft(kin * np.fft.fft(mid)) * half
    # v is a read-only Field buffer: a write into it would raise
    assert np.array_equal(kernel.step(v, 1), one)
    assert np.array_equal(kernel.step(v, 2), two)
    assert np.array_equal(v, before)
    # each call returns a fresh array
    assert kernel.step(v, 1) is not kernel.step(v, 1)


def _allocating_steps(kernel, v, n):
    """n Strang steps in the allocating form of the stepping loop."""
    v = v * kernel.half_v
    for i in range(n):
        if i:
            v = v * kernel.full_v
        v = np.fft.ifft(kernel.kinetic * np.fft.fft(v))
    return v * kernel.half_v


@pytest.mark.parametrize("n_points", [32, 68, 128, 256])
def test_split_step_steps_below_the_power_crossover(n_points):
    # the rule makes every interval from its crossover on a matrix power,
    # also past a power of two (on N = 68 the crossover is 59 and n = 64
    # counts one product more), and never on grids above
    # SPLIT_POWER_MAX_POINTS; kernel.step is the stepping loop, bitwise, on
    # either side of the crossover
    g = Grid(-12.0, 12.0, n_points, Boundary.PERIODIC)
    kernel = _make_kernel(hamiltonian(harmonic_potential(g, 1.0), Method.SPLIT_STEP), 1e-5)
    r = np.random.default_rng(n_points)
    v = r.standard_normal(n_points) + 1j * r.standard_normal(n_points)
    crossover = next(n for n in range(1, 10**4) if evolve._split_power_pays(n_points, n))
    assert all(evolve._split_power_pays(n_points, n) for n in range(crossover, 2 * crossover))
    for n in (crossover - 1, crossover):
        assert np.array_equal(kernel.step(v, n), _allocating_steps(kernel, v, n))
    big = evolve.SPLIT_POWER_MAX_POINTS + 1
    assert not any(evolve._split_power_pays(big, 2**k) for k in range(40))


def test_split_step_power_is_deterministic():
    # the dense power of the bundled stationary run's grid: two chains give
    # the same bits, and a whole null-force run through it twice the same
    # states
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    kernel = _make_kernel(hamiltonian(V, Method.SPLIT_STEP), 5e-5)
    assert evolve._split_power_pays(g.n_points, 5000)
    psi0 = ho_eigenstate(0, 1.0, g).state
    a, b = (psi0.values @ kernel.powers([5000])[5000] for _ in range(2))
    assert a.tobytes() == b.tobytes()
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)

    def run():
        evolve._KEPT_POWERS.clear()  # each run builds its own chain
        return collapsible_evolve(psi0, V, null_force(), spec, 0.5, snapshot_stride=2500)

    a, b = run(), run()
    assert len(a.snapshots) == 3
    for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
        assert sa.tobytes() == sb.tobytes()


def _spy_split_step(monkeypatch):
    """The interval lengths of every squaring chain (the lengths of each
    powers call) and the n of every kernel.step call of the split-step
    kernels, recorded while the calls run as before, from an empty slot of
    kept powers, so a run builds its own chain whatever ran before it."""
    evolve._KEPT_POWERS.clear()
    calls = {"powers": [], "step": []}
    powers, step = evolve._SplitStepKernel.powers, evolve._SplitStepKernel.step

    def spy_powers(self, lengths):
        calls["powers"].append(list(lengths))
        return powers(self, lengths)

    def spy_step(self, values, n):
        calls["step"].append(n)
        return step(self, values, n)

    monkeypatch.setattr(evolve._SplitStepKernel, "powers", spy_powers)
    monkeypatch.setattr(evolve._SplitStepKernel, "step", spy_step)
    return calls


def test_split_step_run_builds_its_interval_power_once(monkeypatch):
    # the bundled stationary run: 62,832 steps at stride 5,000 are 12 equal
    # intervals of 10,000 half steps and a remainder of 5,664; the run builds
    # S^10000 and S^5664 from one squaring chain and takes every interval,
    # the remainder too, as one vector-matrix product
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    psi0 = ho_eigenstate(0, 1.0, g).state
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)
    calls = _spy_split_step(monkeypatch)
    traj = collapsible_evolve(psi0, V, null_force(), spec, 2 * np.pi, snapshot_stride=5000)
    assert len(traj.snapshots) == 14
    assert calls == {"powers": [[10000, 5664]], "step": []}
    assert abs(norm(traj.final_state) - 1.0) <= 1e-10


@pytest.mark.parametrize("run", ["schrodinger", "null"])
def test_single_interval_split_step_run_builds_no_kept_power(monkeypatch, run):
    # one interval (stride >= steps) that pays is one chain for its length
    # and one vector-matrix product with that power, bitwise, and no
    # kernel.step call
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    psi0 = random_nodeless_state(g, np.random.default_rng(19), modes=4, amplitude=0.5)
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)
    n = 6000
    assert evolve._split_power_pays(g.n_points, n)
    substeps = 2 if run == "null" else 1
    kernel = _make_kernel(hamiltonian(V, Method.SPLIT_STEP), 1e-4, substeps)
    powers = kernel.powers
    calls = _spy_split_step(monkeypatch)
    if run == "schrodinger":
        traj = schrodinger_evolve(psi0, V, spec, 0.6, snapshot_stride=10**6)
    else:
        traj = collapsible_evolve(psi0, V, null_force(), spec, 0.3, snapshot_stride=3000)
    assert calls == {"powers": [[n]], "step": []}
    want = psi0.values @ powers([n])[n]
    assert traj.final_state.values.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "t_final, rest, calls",
    [
        # one interval and a remainder that pays: one chain for both
        (0.59, 2900, {"powers": [[3000, 2900]], "step": []}),
        # a remainder below the crossover steps by FFT
        (0.61, 100, {"powers": [[3000]], "step": [100]}),
    ],
)
def test_split_step_remainder_left_to_the_kernel(monkeypatch, t_final, rest, calls):
    # the remainder of a run at stride 3,000 is one product with its power
    # from the run's one chain when it pays, and kernel.step of the last
    # snapshot before it, bitwise, when it does not
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    psi0 = random_nodeless_state(g, np.random.default_rng(23), modes=4, amplitude=0.5)
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)
    kernel = _make_kernel(hamiltonian(V, Method.SPLIT_STEP), 1e-4)
    assert evolve._split_power_pays(g.n_points, rest) == (rest == 2900)
    powers = kernel.powers
    seen = _spy_split_step(monkeypatch)
    traj = schrodinger_evolve(psi0, V, spec, t_final, snapshot_stride=3000)
    assert seen == calls
    prev = traj.snapshots[-2]
    last = prev @ powers([rest])[rest] if rest == 2900 else kernel.step(prev, rest)
    assert traj.final_state.values.tobytes() == last.tobytes()


def test_kept_split_step_power_peaks_below_four_square_arrays():
    # a 256-point run of three 3,000-step intervals keeps S^3000: at most
    # three N x N arrays are alive while it is built, and one after
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    psi0 = ho_eigenstate(1, 1.0, g).state
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)
    _make_kernel(hamiltonian(V, Method.SPLIT_STEP), 1e-4)
    assert evolve._split_power_pays(g.n_points, 3000)
    evolve._KEPT_POWERS.clear()  # the run builds its own chain
    tracemalloc.start()
    try:
        traj = schrodinger_evolve(psi0, V, spec, 0.9, snapshot_stride=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.snapshots) == 4
    assert peak < 4 * g.n_points**2 * np.dtype(np.complex128).itemsize


def test_kept_split_step_powers_with_remainder_peak_below_five_square_arrays(monkeypatch):
    # three 3,000-step intervals and a 2,900-step remainder: the run keeps
    # S^3000 and S^2900 from one chain, with at most four N x N arrays alive
    # while they are built, and two after
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    psi0 = ho_eigenstate(1, 1.0, g).state
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)
    _make_kernel(hamiltonian(V, Method.SPLIT_STEP), 1e-4)
    calls = _spy_split_step(monkeypatch)
    tracemalloc.start()
    try:
        traj = schrodinger_evolve(psi0, V, spec, 1.19, snapshot_stride=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.snapshots) == 5
    assert calls == {"powers": [[3000, 2900]], "step": []}
    assert peak < 5 * g.n_points**2 * np.dtype(np.complex128).itemsize


def _stationary_run(psi0, omega=1.0, t_final=0.59):
    """A 256-point split-step run at stride 3,000 on the oscillator of
    frequency omega: at t_final 0.59 its intervals are one of 3,000 steps
    and a 2,900-step remainder, each a paying length."""
    V = harmonic_potential(psi0.grid, omega)
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)
    return schrodinger_evolve(psi0, V, spec, t_final, snapshot_stride=3000)


def test_a_repeated_split_step_run_takes_the_kept_powers(monkeypatch):
    # a second run on the same kernel and lengths, from another initial
    # state, builds no chain: it takes the powers the first run kept, and
    # its snapshots are bitwise those of the same run from an empty slot
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    calls = _spy_split_step(monkeypatch)
    _stationary_run(ho_eigenstate(0, 1.0, g).state)
    psi0 = random_nodeless_state(g, np.random.default_rng(29), modes=4, amplitude=0.5)
    kept = _stationary_run(psi0)
    assert calls == {"powers": [[3000, 2900]], "step": []}
    evolve._KEPT_POWERS.clear()
    fresh = _stationary_run(psi0)
    assert calls["powers"] == [[3000, 2900]] * 2
    assert len(kept.snapshots) == len(fresh.snapshots) == 3
    for a, b in zip(kept.snapshots, fresh.snapshots, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("other", ["kernel", "lengths"])
def test_another_kernel_or_lengths_builds_from_an_empty_slot(monkeypatch, other):
    # a run on another kernel (another potential) or with other lengths (no
    # remainder) finds the slot empty when its chain starts: the old kept
    # powers are released before the new ones are built
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    psi0 = ho_eigenstate(0, 1.0, g).state
    evolve._KEPT_POWERS.clear()
    _stationary_run(psi0)
    old = weakref.ref(next(iter(evolve._KEPT_POWERS.values()))[3000])
    seen = []
    powers = evolve._SplitStepKernel.powers

    def spy(self, lengths):
        seen.append((list(lengths), len(evolve._KEPT_POWERS), old() is None))
        return powers(self, lengths)

    monkeypatch.setattr(evolve._SplitStepKernel, "powers", spy)
    if other == "kernel":
        _stationary_run(psi0, omega=0.5)
        assert seen == [([3000, 2900], 0, True)]
    else:
        _stationary_run(psi0, t_final=0.9)
        assert seen == [([3000], 0, True)]
    assert len(evolve._KEPT_POWERS) == 1


def test_kept_split_step_powers_are_read_only():
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    evolve._KEPT_POWERS.clear()
    _stationary_run(ho_eigenstate(0, 1.0, g).state)
    (kept,) = evolve._KEPT_POWERS.values()
    assert sorted(kept) == [2900, 3000]
    for power in kept.values():
        assert not power.flags.writeable
        with pytest.raises(ValueError):
            power[0, 0] = 0.0


def test_a_repeated_split_step_run_peaks_below_one_square_array():
    # the second run of one kernel and lengths takes the kept powers: no
    # N x N array is allocated, only its states
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    psi0 = ho_eigenstate(1, 1.0, g).state
    evolve._KEPT_POWERS.clear()
    _stationary_run(psi0)
    tracemalloc.start()
    try:
        traj = _stationary_run(psi0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.snapshots) == 3
    assert peak < g.n_points**2 * np.dtype(np.complex128).itemsize


def test_crank_nicolson_norm_conservation(ho_box_setup):
    grid, V, _ = ho_box_setup
    psi0 = gaussian_packet(grid, 0.5, 1.0, 1.0)
    traj = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False), 10.0, snapshot_stride=10**9
    )
    assert abs(norm(traj.final_state) - 1.0) <= 1e-9  # 1e4 steps


def test_renormalization_logged(ho_box_setup):
    grid, V, _ = ho_box_setup
    psi0 = gaussian_packet(grid, 0.5, 0.0, 1.0)
    traj = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True), 0.2, snapshot_stride=50
    )
    assert np.max(np.abs(traj.observables["norm"] - 1.0)) <= 1e-9
    # the running log scale, one value per snapshot; Crank-Nicolson is
    # unitary, so every renormalization factor is 1 to roundoff
    log_scale = traj.observables["gauge_log_magnitude"]
    assert len(log_scale) == len(traj.snapshots) == 5
    assert np.max(np.abs(log_scale)) <= 1e-12


@pytest.mark.parametrize("with_target", [True, False], ids=["target", "no_target"])
@pytest.mark.parametrize(
    "boundary, method",
    [(Boundary.BOX, Method.CRANK_NICOLSON), (Boundary.PERIODIC, Method.SPLIT_STEP)],
)
def test_recorder_matches_the_public_observables(boundary, method, with_target):
    # the recorder keeps the state and its log scale, and the block pass
    # takes every observable from one finite check, one |psi|^2 sum per row
    # and one operator application; norm, energy and fidelity must be
    # bitwise the public functions', and the H field bitwise the public
    # hamiltonian_field_from_state's under the run's Hamiltonian. The
    # superposition has a node and tails below the observable node
    # threshold, so the mask and its dilation take part.
    g = Grid(-8.0, 8.0, 512, boundary)
    V = harmonic_potential(g, 1.0)
    ground, excited = (ho_eigenstate(n, 1.0, g).state for n in (0, 1))
    psi = superpose([1.0, 1.0], [ground, excited])
    target = Field(g, 3.0 * ground.values) if with_target else None
    H = hamiltonian(V, method)
    rows = np.empty((1, g.n_points), complex)
    record, series = evolve._psi_recorder(H, target, rows)
    record(0, psi.values, 0.25)
    assert np.array_equal(rows[0], psi.values)
    obs, error = series()
    assert error is None
    h_field, mask = hamiltonian_field_from_state(psi, H, OBSERVABLE_NODE_THRESHOLD)
    assert 0 < mask.sum() < g.n_points
    mean, std = masked_stats(h_field, mask)
    want = {
        "norm": [norm(psi)],
        "energy": [energy(psi, H)],
        "H_mean_re": [mean.real],
        "H_std": [std],
        "gauge_log_magnitude": [0.25],
        "gauge_phase": [0.0],
    }
    if with_target:
        want["fidelity_target"] = [fidelity(psi, target)]
    assert {key: series.tolist() for key, series in obs.items()} == want


@pytest.mark.parametrize(
    "bad, error", [(np.nan, NonFiniteField), (0.0, AllMasked)], ids=["nan", "all_masked"]
)
def test_recorder_errors_keep_the_partial_trajectory(ho_box_setup, monkeypatch, bad, error):
    # the third kernel step returns a NaN or an all-zero state: recording it
    # raises the typed error, which carries the two snapshots before it
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
    kernel = _make_kernel(hamiltonian(V, spec.method), spec.dt)
    step, calls = kernel.step, []

    def failing_step(values, n):
        calls.append(n)
        return step(values, n) if len(calls) < 3 else np.full_like(values, bad)

    monkeypatch.setattr(kernel, "step", failing_step)
    with pytest.raises(error) as err:
        schrodinger_evolve(pairs[0].state, V, spec, 5 * spec.dt, target=pairs[0].state)
    partial = err.value.trajectory
    assert np.array_equal(partial.times, [0.0, spec.dt, 2 * spec.dt])
    assert len(partial.snapshots) == 3
    assert all(len(series) == 3 for series in partial.observables.values())


@pytest.mark.parametrize(
    "bad, error", [(np.nan, NonFiniteField), (np.inf, NonFiniteField), (0.0, ZeroState)],
    ids=["nan", "inf", "zero"],
)
def test_a_renormalized_run_is_not_divided_by_a_bad_norm(ho_box_setup, monkeypatch, bad, error):
    # under renormalization the third kernel call returns a NaN, an Inf or
    # an all-zero state: the run raises the typed error before dividing by
    # its norm (which warned), with the two snapshots before it
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    kernel = _make_kernel(hamiltonian(V, spec.method), spec.dt)
    step, calls = kernel.step, []

    def failing_step(values, n):
        calls.append(n)
        return step(values, n) if len(calls) < 3 else np.full_like(values, bad)

    monkeypatch.setattr(kernel, "step", failing_step)
    with pytest.raises(error) as err:
        schrodinger_evolve(pairs[0].state, V, spec, 5 * spec.dt, target=pairs[0].state)
    assert len(calls) == 3
    partial = err.value.trajectory
    assert np.array_equal(partial.times, [0.0, spec.dt, 2 * spec.dt])
    assert all(len(series) == 3 for series in partial.observables.values())


def test_a_nan_from_a_step_stops_the_run_at_the_next_snapshot(ho_box_setup, monkeypatch):
    # the per-snapshot finite check still stops the run where the NaN
    # appears: the second of five snapshot intervals (one kernel call each)
    # returns a NaN, and no interval after it is stepped
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
    kernel = _make_kernel(hamiltonian(V, spec.method), spec.dt)
    step, calls = kernel.step, []

    def nan_step(values, n):
        calls.append(n)
        return step(values, n) if len(calls) < 2 else np.full_like(values, np.nan)

    monkeypatch.setattr(kernel, "step", nan_step)
    with pytest.raises(NonFiniteField) as err:
        schrodinger_evolve(pairs[0].state, V, spec, 10 * spec.dt, snapshot_stride=2)
    assert calls == [2, 2]
    partial = err.value.trajectory
    assert np.array_equal(partial.times, [0.0, 2 * spec.dt])
    assert all(len(series) == 2 for series in partial.observables.values())


@pytest.mark.parametrize(
    "spike, later, error, rows",
    [
        (35, None, NodePresent, 35),
        (35, NodeBlowup, NodePresent, 35),
        (None, NodeBlowup, NodeBlowup, 38),
    ],
    ids=["observable", "observable-then-step", "step"],
)
def test_the_earlier_of_an_observable_and_a_step_error_wins(
    ho_box_setup, monkeypatch, spike, later, error, rows
):
    # 40 steps at stride 1 on 512 points: the observable block pass takes
    # rows 0-31 and 32-40. Step 35 returns a one-point spike, finite, whose
    # dilated node mask covers the grid (NodePresent from its observables),
    # and step 38 raises NodeBlowup. The observable error of snapshot 35 is
    # earlier than the step error and wins; either carries the rows before
    # it, bitwise those of the unbroken run
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
    whole = schrodinger_evolve(pairs[0].state, V, spec, 40 * spec.dt, target=pairs[0].state)
    kernel = _make_kernel(hamiltonian(V, spec.method), spec.dt)
    step, calls = kernel.step, []

    def broken_step(values, n):
        calls.append(n)
        if later is not None and len(calls) == 38:
            raise later("step error")
        if len(calls) == spike:
            out = np.zeros_like(values)
            out[grid.n_points // 2] = 1.0
            return out
        return step(values, n)

    monkeypatch.setattr(kernel, "step", broken_step)
    with pytest.raises(error) as err:
        schrodinger_evolve(pairs[0].state, V, spec, 40 * spec.dt, target=pairs[0].state)
    partial = err.value.trajectory
    assert np.array_equal(partial.times, whole.times[:rows])
    assert len(partial.snapshots) == rows
    assert partial.observables.keys() == whole.observables.keys()
    for key, series in partial.observables.items():
        assert np.array_equal(series, whole.observables[key][:rows]), key


def test_a_failing_snapshot_stops_the_run_when_its_block_fills(ho_box_setup, monkeypatch):
    # 100 steps at stride 1 on 512 points, observed in blocks of 32
    # snapshots: kernel call 1 returns a one-point spike, finite, whose
    # dilated node mask covers the grid. Its block fills at snapshot 31, and
    # the run stops there with the one row before it
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
    kernel = _make_kernel(hamiltonian(V, spec.method), spec.dt)
    step, calls = kernel.step, []

    def spiking_step(values, n):
        calls.append(n)
        if len(calls) == 1:
            out = np.zeros_like(values)
            out[grid.n_points // 2] = 1.0
            return out
        return step(values, n)

    monkeypatch.setattr(kernel, "step", spiking_step)
    with pytest.raises(NodePresent) as err:
        schrodinger_evolve(pairs[0].state, V, spec, 100 * spec.dt)
    assert len(calls) <= 31
    partial = err.value.trajectory
    assert len(partial.snapshots) == 1
    assert all(len(series) == 1 for series in partial.observables.values())


def test_full_blocks_are_observed_inside_the_recorder(ho_box_setup, monkeypatch):
    # 40 snapshots on 512 points: the first block of 32 is observed by the
    # per-snapshot recorder call that fills it, the other 8 at the run's end
    grid, V, pairs = ho_box_setup
    record, observe = evolve._record_psi_observables, evolve._observe
    inside, blocks = [], []

    def traced_record(*args):
        inside.append(True)
        try:
            return record(*args)
        finally:
            inside.pop()

    def traced_observe(H, target, stack):
        blocks.append((len(stack), bool(inside)))
        return observe(H, target, stack)

    monkeypatch.setattr(evolve, "_record_psi_observables", traced_record)
    monkeypatch.setattr(evolve, "_observe", traced_observe)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
    traj = schrodinger_evolve(pairs[0].state, V, spec, 39 * spec.dt, target=pairs[0].state)
    assert len(traj.snapshots) == 40
    assert blocks == [(32, True), (8, False)]


def test_snapshot_cadence_shared_by_all_propagators(ho_box_setup):
    g, V, pairs = ho_box_setup
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    # a wide Gaussian magnitude keeps clear of the RK4 node monitor
    p0 = MomentumField(Field(g, 0.2j * g.x), np.zeros(g.n_points, bool))
    dt = 5e-4
    cn = IntegratorSpec(Method.CRANK_NICOLSON, dt, True)
    runs = {
        "schrodinger": schrodinger_evolve(psi0, V, cn, 7 * dt, snapshot_stride=3, target=pairs[0].state),
        "cqhj": cqhj_evolve(
            p0, V, IntegratorSpec(Method.RK4, dt), 7 * dt, snapshot_stride=3, target=pairs[0].state
        ),
        "collapsible": collapsible_evolve(
            psi0, V, pinning_force(pairs[0], 2.0), cn, 7 * dt, snapshot_stride=3, target=pairs[0].state
        ),
    }
    for name, traj in runs.items():
        assert np.array_equal(traj.times, [0.0, 3 * dt, 6 * dt, 7 * dt]), name
        assert len(traj.snapshots) == 4, name
        assert "fidelity_target" in traj.observables, name
        for key, series in traj.observables.items():
            assert len(series) == 4, (name, key)


@pytest.mark.parametrize("propagator", ["schrodinger", "cqhj", "collapsible"])
def test_snapshots_are_the_rows_of_one_read_only_array(ho_box_setup, propagator):
    # each propagator keeps its snapshots as the rows of one read-only,
    # C-contiguous complex128 array of shape (len(times), N), psi (p of a
    # cqhj_evolve run), and final_state is its last row as a Field
    # (MomentumField)
    g, V, pairs = ho_box_setup
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    p0 = MomentumField(Field(g, 0.2j * g.x), np.zeros(g.n_points, bool))
    dt = 5e-4
    cn = IntegratorSpec(Method.CRANK_NICOLSON, dt, True)
    if propagator == "schrodinger":
        traj = schrodinger_evolve(psi0, V, cn, 7 * dt, snapshot_stride=3)
    elif propagator == "cqhj":
        traj = cqhj_evolve(p0, V, IntegratorSpec(Method.RK4, dt), 7 * dt, snapshot_stride=3)
    else:
        traj = collapsible_evolve(psi0, V, pinning_force(pairs[0], 2.0), cn, 7 * dt, snapshot_stride=3)
    snaps = traj.snapshots
    assert isinstance(snaps, np.ndarray) and snaps.dtype == np.complex128
    assert snaps.shape == (len(traj.times), g.n_points) == (4, g.n_points)
    assert snaps.flags.c_contiguous and not snaps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        snaps[0, 0] = 0.0
    kind = MomentumField if propagator == "cqhj" else Field
    assert type(traj.final_state) is kind
    assert traj.final_state.values.tobytes() == snaps[-1].tobytes()


@pytest.mark.parametrize("with_target", [True, False], ids=["target", "no_target"])
@pytest.mark.parametrize("propagator", ["schrodinger", "cqhj", "collapsible"])
def test_observables_are_read_only_rows_of_one_array(ho_box_setup, propagator, with_target):
    # each observable series is row OBSERVABLES.index(key) of one
    # (len(OBSERVABLES), len(times)) float64 array, read-only; without a
    # target the fidelity_target row is left out
    g, V, pairs = ho_box_setup
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    p0 = MomentumField(Field(g, 0.2j * g.x), np.zeros(g.n_points, bool))
    target = pairs[0].state if with_target else None
    dt = 5e-4
    cn = IntegratorSpec(Method.CRANK_NICOLSON, dt, True)
    if propagator == "schrodinger":
        traj = schrodinger_evolve(psi0, V, cn, 7 * dt, snapshot_stride=3, target=target)
    elif propagator == "cqhj":
        spec = IntegratorSpec(Method.RK4, dt)
        traj = cqhj_evolve(p0, V, spec, 7 * dt, snapshot_stride=3, target=target)
    else:
        force = pinning_force(pairs[0], 2.0)
        traj = collapsible_evolve(psi0, V, force, cn, 7 * dt, snapshot_stride=3, target=target)
    obs = traj.observables
    want = [k for k in OBSERVABLES if with_target or k != "fidelity_target"]
    assert list(obs) == want
    table = obs["norm"].base
    assert table.shape == (len(OBSERVABLES), len(traj.times)) and table.dtype == np.float64
    for key, series in obs.items():
        assert series.base is table and not series.flags.writeable, key
        assert np.shares_memory(series, table[OBSERVABLES.index(key)]), key
        assert np.array_equal(series, table[OBSERVABLES.index(key)]), key
        with pytest.raises(ValueError, match="read-only"):
            series[0] = 0.0


def test_a_winding_row_reads_nan_in_all_seven_series(monkeypatch):
    # p_to_psi rejects the first and the last of 5 snapshots as winding:
    # their column reads NaN in all seven series, scale and phase too, and
    # the snapshots between read the unbroken run's values
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    p0 = MomentumField(Field(g, 0.2j * g.x), np.zeros(g.n_points, bool))
    target = ho_eigenstate(0, 1.0, g).state
    spec = IntegratorSpec(Method.RK4, 5e-4)
    whole = cqhj_evolve(p0, V, spec, 4 * spec.dt, target=target)
    real, calls = evolve.p_to_psi, []

    def winding(pf):
        calls.append(None)
        if len(calls) in (1, 5):
            raise PeriodicityViolation("the field winds")
        return real(pf)

    monkeypatch.setattr(evolve, "p_to_psi", winding)
    traj = cqhj_evolve(p0, V, spec, 4 * spec.dt, target=target)
    assert list(traj.observables) == list(OBSERVABLES)
    for key, series in traj.observables.items():
        assert np.isnan(series[[0, 4]]).all(), key
        assert np.array_equal(series[1:4], whole.observables[key][1:4]), key
        assert not np.isnan(series[1:4]).any(), key


# -- momentum-space propagation --------------------------------------------------


def test_winding_snapshots_of_a_momentum_run_observe_as_nan(monkeypatch):
    # p_to_psi rejects snapshots 5 and 33 of 41 as winding: on 512 points
    # they fall in the first and the second observed block of 32 rows. Their
    # row of every observable is NaN, every other row is bitwise that of the
    # unbroken run, and p stays in the trajectory's rows
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    # a wide Gaussian magnitude keeps clear of the RK4 node monitor
    p0 = MomentumField(Field(g, 0.2j * g.x), np.zeros(g.n_points, bool))
    target = ho_eigenstate(0, 1.0, g).state
    spec = IntegratorSpec(Method.RK4, 5e-4)
    whole = cqhj_evolve(p0, V, spec, 40 * spec.dt, target=target)
    real, calls = evolve.p_to_psi, []

    def winding(pf):
        calls.append(None)
        if len(calls) in (6, 34):
            raise PeriodicityViolation("the field winds")
        return real(pf)

    monkeypatch.setattr(evolve, "p_to_psi", winding)
    traj = cqhj_evolve(p0, V, spec, 40 * spec.dt, target=target)
    assert len(calls) == len(traj.times) == 41
    assert traj.snapshots.tobytes() == whole.snapshots.tobytes()
    assert traj.observables.keys() == whole.observables.keys()
    for key, series in traj.observables.items():
        nan = np.isnan(series)
        assert np.flatnonzero(nan).tolist() == [5, 33], key
        assert np.array_equal(series[~nan], whole.observables[key][~nan]), key


def test_momentum_stationary_ground_state():
    g = Grid(-6.0, 6.0, 320, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    p0 = MomentumField(Field(g, 1j * g.x), np.zeros(g.n_points, bool))
    T = 2 * np.pi
    dt0 = 0.9 * 1.05 * g.dx**2
    steps = int(np.ceil(T / dt0))
    traj = cqhj_evolve(
        p0,
        V,
        IntegratorSpec(Method.RK4, T / steps),
        T,
        snapshot_stride=10**9,
        node_threshold=1e-10,
    )
    weight = np.exp(-g.x**2 / 2)
    sel = weight >= 1e-5
    assert np.max(np.abs(traj.final_state.values[sel] - p0.values[sel])) <= 1e-7
    assert traj.final_state.node_threshold == 1e-10  # the run's, not p0's


def test_momentum_constant_plane_wave_free():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    p0 = MomentumField(Field(g, np.full(64, 3.0 + 0j)), np.zeros(64, bool))
    traj = cqhj_evolve(
        p0, free_potential(g), IntegratorSpec(Method.RK4, 1e-3), 1.0, snapshot_stride=10**9
    )
    assert np.max(np.abs(traj.final_state.values - 3.0)) <= 1e-12


def test_cross_propagator_equivalence():
    g = Grid(-8.0, 8.0, 512, Boundary.PERIODIC)
    V = free_potential(g)
    psi0 = random_nodeless_state(g, np.random.default_rng(3), modes=5, amplitude=0.35)
    p0 = psi_to_p(psi0, node_threshold=1e-12)
    tr_psi = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.SPLIT_STEP, split_step_dt(g), False), 1.0,
        snapshot_stride=10**9,
    )
    tr_p = cqhj_evolve(
        p0, V, IntegratorSpec(Method.RK4, 2e-4), 1.0, snapshot_stride=10**9, node_threshold=1e-12
    )
    p_from_psi = psi_to_p(tr_psi.final_state, node_threshold=1e-12)
    assert np.max(np.abs(p_from_psi.values - tr_p.final_state.values)) <= 1e-4


@pytest.mark.parametrize(
    "other", [Grid(-8.0, 8.0, 320, Boundary.BOX), Grid(-6.0, 6.0, 256, Boundary.BOX)],
    ids=["n_points", "extent"],
)
def test_cqhj_evolve_rejects_potential_on_another_grid(other):
    # raised before the t = 0 snapshot, so no partial trajectory is attached
    g = Grid(-8.0, 8.0, 256, Boundary.BOX)
    p0 = MomentumField(Field(g, 0.2j * g.x), np.zeros(g.n_points, bool))
    with pytest.raises(GridMismatch) as err:
        cqhj_evolve(p0, harmonic_potential(other, 1.0), IntegratorSpec(Method.RK4, 1e-4), 1e-3)
    assert err.value.trajectory is None


def test_rk4_stability_guard():
    g = Grid(-8.0, 8.0, 256, Boundary.PERIODIC)
    p0 = MomentumField(Field(g, np.zeros(256, complex)), np.zeros(256, bool))
    with pytest.raises(StabilityViolation):
        cqhj_evolve(p0, free_potential(g), IntegratorSpec(Method.RK4, 1.0), 2.0)


def test_node_approach_aborts_with_partial_trajectory():
    # min/max magnitude 0.048 at t = 0, already below the 0.05 threshold
    g = Grid(-8.0, 8.0, 256, Boundary.PERIODIC)
    psi0 = random_nodeless_state(g, np.random.default_rng(9), modes=6, amplitude=1.8)
    p0 = psi_to_p(psi0, node_threshold=1e-10)
    with pytest.raises(NodeApproach) as err:
        cqhj_evolve(
            p0,
            free_potential(g),
            IntegratorSpec(Method.RK4, 2e-4),
            4.0,
            snapshot_stride=100,
            node_threshold=0.05,
        )
    partial = err.value.trajectory
    assert partial is not None and len(partial.snapshots) >= 1


def test_node_approach_mid_run_keeps_snapshots():
    # min/max magnitude starts at 0.048, above the 0.04 threshold; free
    # self-steepening crosses it after some hundred steps (t = 0.315 here)
    g = Grid(-8.0, 8.0, 256, Boundary.PERIODIC)
    psi0 = random_nodeless_state(g, np.random.default_rng(9), modes=6, amplitude=1.8)
    p0 = psi_to_p(psi0, node_threshold=1e-10)
    with pytest.raises(NodeApproach) as err:
        cqhj_evolve(
            p0,
            free_potential(g),
            IntegratorSpec(Method.RK4, 2e-4),
            4.0,
            snapshot_stride=100,
            node_threshold=0.04,
        )
    times = err.value.trajectory.times
    assert len(times) > 1 and np.allclose(np.diff(times), 100 * 2e-4)


def test_node_monitor_checks_initial_momentum():
    # relative magnitude exp(-32) at the walls: below the threshold at t = 0,
    # so the run stops before its first step and keeps only the t = 0 snapshot
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    p0 = MomentumField(Field(g, 1j * g.x), np.zeros(g.n_points, bool))
    with pytest.raises(NodeApproach, match=r"at t = 0$") as err:
        cqhj_evolve(p0, harmonic_potential(g, 1.0), IntegratorSpec(Method.RK4, 5e-4), 1e-2)
    assert np.array_equal(err.value.trajectory.times, [0.0])


def test_rk4_timestep_convergence():
    g = Grid(-8.0, 8.0, 256, Boundary.PERIODIC)
    V = free_potential(g)
    psi = random_nodeless_state(g, np.random.default_rng(5), modes=5, amplitude=0.7)
    p0 = psi_to_p(psi, node_threshold=1e-12)
    tf = 0.5

    def final(dt):
        return cqhj_evolve(
            p0, V, IntegratorSpec(Method.RK4, dt), tf, snapshot_stride=10**9,
            node_threshold=1e-12,
        ).final_state.values

    ref = final(tf / 4096)
    e1 = np.max(np.abs(final(tf / 256) - ref))
    e2 = np.max(np.abs(final(tf / 512) - ref))
    assert e1 / e2 >= 14.0


# -- collapsible propagation -----------------------------------------------------


def test_null_force_reduces_to_linear(ho_box_setup):
    grid, V, _ = ho_box_setup
    psi0 = gaussian_packet(grid, 1.0, 0.5, 1.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    nl = collapsible_evolve(psi0, V, null_force(), spec, 1.0, snapshot_stride=10**9)
    lin = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False), 1.0, snapshot_stride=10**9
    )
    assert 1.0 - fidelity(nl.final_state, lin.final_state) <= 1e-7


def test_pinning_collapse_long_time(ho_box_setup):
    grid, V, pairs = ho_box_setup
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    force = pinning_force(pairs[0], 5.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    traj = collapsible_evolve(psi0, V, force, spec, 2.2, snapshot_stride=100, target=pairs[0].state)
    fids = traj.observables["fidelity_target"]
    assert fids[-1] >= 0.999
    # monotone growth after the initial transient
    tail = fids[len(fids) // 4 :]
    assert np.all(np.diff(tail) >= -1e-9)


@pytest.mark.parametrize("potential", ["double_well", "harmonic"])
def test_pinning_approaches_its_target_at_twice_kappa(potential):
    # the exact sub-step contracts the action's distance from the target at
    # rate kappa, so 1 - F falls as exp(-2 kappa t), not to 0 in finite time.
    # rate / kappa reads 1.99980 (double well, solved states, 256 points) and
    # 1.99650 (oscillator states, 512 points): a margin of 1.5e-3
    if potential == "double_well":
        V = double_well_potential(Grid(-8.0, 8.0, 256, Boundary.BOX), 0.05, 2.5)
        ground, excited = solve_eigenstates(hamiltonian(V, Method.CRANK_NICOLSON), 2)
    else:
        V = harmonic_potential(Grid(-8.0, 8.0, 512, Boundary.BOX), 1.0)
        ground, excited = (ho_eigenstate(n, 1.0, V.grid) for n in (0, 1))
    kappa = 3.0
    psi0 = superpose([1.0, 1.0], [ground.state, excited.state])
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    traj = collapsible_evolve(
        psi0, V, pinning_force(ground, kappa), spec, 3.5, snapshot_stride=5, target=ground.state
    )
    gap = 1.0 - traj.observables["fidelity_target"]
    late = (gap > 1e-9) & (gap < 1e-4)
    rate = -np.polyfit(traj.times[late], np.log(gap[late]), 1)[0]
    assert abs(rate / kappa - 2.0) <= 5e-3


def test_collapsible_homogeneity_pointwise(ho_box_setup):
    grid, V, pairs = ho_box_setup
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    c = 2.7 * np.exp(1j * np.pi / 5)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    force = pinning_force(pairs[0], 2.0)
    ta = collapsible_evolve(psi0, V, force, spec, 1.0, snapshot_stride=250)
    tb = collapsible_evolve(Field(grid, c * psi0.values), V, force, spec, 1.0, snapshot_stride=250)
    for a, b in zip(ta.snapshots, tb.snapshots):
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) <= 1e-10


@pytest.mark.parametrize("s", [1e160, 1e-200, 1e-310])
def test_collapsible_runs_any_finite_scale_of_the_bundled_pinning_inputs(s):
    # the norm of psi0 * s is taken scaled, so neither the squares of 1e160
    # (overflow) nor those of 1e-200 (underflow) reach a sum: the run is the
    # unscaled one, with the log scale offset by -ln s. A subnormal peak
    # (1e-310) is divided one real part at a time, since numpy's
    # complex-by-real division overflows the reciprocal of it. The reference
    # starts from the values the scaled run holds, brought to unit scale by
    # the exact power of two 2^-e, s = m 2^e: psi0 * 1e-310 is subnormal
    # and keeps fewer bits in its tails than psi0
    scenario = apply_override(load_scenario_or_bundled("pinning_collapse"), "run.t_final", 0.1)
    grid = scenario.build_grid()
    V = scenario.build_potential(grid)
    psi0 = scenario.build_initial_state(grid, V)
    force = scenario.build_force(grid, V)
    target = scenario.build_fidelity_target(grid, V)
    spec = scenario.build_integrator()

    def run(values):
        return collapsible_evolve(
            Field(grid, values), V, force, spec, 0.1, snapshot_stride=20, target=target
        )

    values, e = s * psi0.values, math.frexp(s)[1]
    ref, scaled = run(np.ldexp(values.view(float), -e).view(complex)), run(values)
    assert abs(scaled.observables["fidelity_target"][-1] - ref.observables["fidelity_target"][-1]) <= 1e-12
    offset = scaled.observables["gauge_log_magnitude"] - ref.observables["gauge_log_magnitude"]
    assert np.max(np.abs(offset + e * np.log(2.0))) <= 1e-12


def test_collapsible_rejects_an_all_zero_state(ho_box_setup):
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    with pytest.raises(ZeroState):
        collapsible_evolve(Field(grid, np.zeros(grid.n_points)), V, null_force(), spec, 0.01)


def test_eigenstate_fixed_point_null_force():
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    pair = ho_eigenstate(1, 1.0, g)
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, True)
    traj = collapsible_evolve(pair.state, V, null_force(), spec, 2 * np.pi, snapshot_stride=10**9)
    drift = np.max(np.abs(np.abs(traj.final_state.values) ** 2 - np.abs(pair.state.values) ** 2))
    assert drift <= 1e-8


def test_pinning_target_fixed_point():
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    pair = ho_eigenstate(0, 1.0, g)
    force = pinning_force(pair, 2.0)
    spec = IntegratorSpec(Method.SPLIT_STEP, 2e-4, True)
    traj = collapsible_evolve(
        pair.state, V, force, spec, 1.0, snapshot_stride=10**9, node_threshold=1e-4
    )
    drift = np.max(np.abs(np.abs(traj.final_state.values) ** 2 - np.abs(pair.state.values) ** 2))
    assert drift <= 1e-8


def test_strang_timestep_convergence(ho_box_setup):
    grid, V, pairs = ho_box_setup
    psi0 = superpose([0.8, 0.6j], [pairs[0].state, pairs[1].state])
    force = pinning_force(pairs[0], 1.0)
    t_final = 0.25

    def final(dt):
        spec = IntegratorSpec(Method.CRANK_NICOLSON, dt, True)
        return collapsible_evolve(
            psi0, V, force, spec, t_final, snapshot_stride=10**9
        ).final_state.values

    ref = final(t_final / 2048)
    e1 = np.max(np.abs(final(t_final / 256) - ref))
    e2 = np.max(np.abs(final(t_final / 512) - ref))
    assert e1 / e2 >= 3.5


def test_collapsible_null_force_norm_drift(ho_box_setup):
    grid, V, _ = ho_box_setup
    psi0 = gaussian_packet(grid, 0.5, 1.0, 1.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, renormalize_each_step=False)
    traj = collapsible_evolve(psi0, V, null_force(), spec, 10.0, snapshot_stride=10**9)
    assert abs(norm(traj.final_state) - 1.0) <= 1e-9  # 1e4 steps, no renormalization


@pytest.mark.parametrize("seed", range(5))
def test_periodic_kostin_substep_conserves_norm(seed):
    # Kostin friction on a real phase gradient lifts to a real Phi, so the
    # gauge sub-step is unitary; an imaginary Nyquist sawtooth in the
    # periodic antiderivative drifted the norm by up to 3e-7 in 50 steps
    grid = Grid(-8.0, 8.0, 128, Boundary.PERIODIC)
    psi0 = random_nodeless_state(grid, np.random.default_rng(seed), modes=4, amplitude=0.5)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, renormalize_each_step=False)
    traj = collapsible_evolve(
        psi0, harmonic_potential(grid, 1.0), kostin_friction(1.0), spec, 0.05, snapshot_stride=1
    )
    assert np.max(np.abs(traj.observables["norm"] - 1.0)) <= 1e-13


def _frozen_mask_phi(vals, grid, force, mask):
    """Gauge potential of the force at the state vals, with p taken on the
    given node mask rather than on the mask of vals."""
    dpsi = gradient(Field(grid, vals)).values
    p = np.zeros_like(vals)
    np.divide(-1j * dpsi, vals, out=p, where=~mask)
    return gauge_potential(evaluate(force, MomentumField(Field(grid, p), mask))).values


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
def test_exact_gauge_substep_matches_fine_rk4(boundary):
    # the nonlinear sub-step of collapsible_evolve, a exp(i tau Phi(a)) with
    # tau = -expm1(-rate dt) / rate, against 400 RK4 steps of psi_t = i Phi psi
    # with the node mask frozen at that of a. dt = 0.05 is 50 production
    # steps, so the tau correction (rate dt^2 / 2 relative) is far above the
    # lift's O(dx^4) projector defect. Measured relative max errors on the
    # unmasked points: 3.3e-6 (box, pinning) and 1.3e-6 (periodic, Kostin),
    # against 1.4e-2 and 2.3e-4 for the uncorrected exp(i dt Phi(a)).
    dt, n_sub = 0.05, 400
    if boundary is Boundary.BOX:
        grid = Grid(-8.0, 8.0, 512, boundary)
        pairs = [ho_eigenstate(n, 1.0, grid) for n in (0, 1)]
        a = superpose([1.0, np.exp(0.25j * np.pi)], [pairs[0].state, pairs[1].state])
        rate = 2.0
        f = pinning_force(pairs[0], rate)
    else:
        # 0 and 2 are both even: the phase gradient is odd, so the friction
        # force has no mean and lifts single-valued
        grid = Grid(-12.0, 12.0, 256, boundary)
        pairs = [ho_eigenstate(n, 1.0, grid) for n in (0, 2)]
        a = superpose([0.8, 0.6j], [pairs[0].state, pairs[1].state])
        rate = 0.3
        f = kostin_friction(rate)
    p = psi_to_p(a)
    mask = p.node_mask
    assert mask.any()  # the freeze matters: the tails are masked

    def rhs(v):
        return 1j * _frozen_mask_phi(v, grid, f, mask) * v

    v, h = a.values, dt / n_sub
    for _ in range(n_sub):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    phi = gauge_potential(evaluate(f, p)).values
    tau = -np.expm1(-rate * dt) / rate

    def err(w):
        return np.max(np.abs(w - v)[~mask]) / np.max(np.abs(v))

    exact = err(a.values * np.exp(1j * tau * phi))
    assert exact <= 1e-5
    assert err(a.values * np.exp(1j * dt * phi)) >= 50 * exact


def _force_setup(boundary):
    """(V, pinning target, psi0): on the box grid the oscillator's ground
    state and an equal superposition of its two lowest states; on the
    periodic grid the free potential and two nodeless states exp(g), whose
    momentum fields have no mean, so neither force winds."""
    if boundary is Boundary.BOX:
        grid = Grid(-8.0, 8.0, 512, boundary)
        pairs = [ho_eigenstate(n, 1.0, grid) for n in (0, 1)]
        psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
        return harmonic_potential(grid, 1.0), pairs[0].state, psi0
    grid = Grid(-8.0, 8.0, 128, boundary)
    target, psi0 = (
        random_nodeless_state(grid, np.random.default_rng(seed), modes=4, amplitude=0.5)
        for seed in (0, 1)
    )
    return free_potential(grid), target, psi0


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC], ids=["box", "periodic"])
@pytest.mark.parametrize("kind", ["pinning", "kostin"])
def test_one_force_evaluation_per_nonlinear_step(monkeypatch, boundary, kind):
    V, target, psi0 = _force_setup(boundary)
    calls = {"psi_to_p": 0, "evaluate_force": 0, "gauge_potential": 0}
    for name in calls:
        real = getattr(evolve, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(evolve, name, counted)
    force = pinning_force(target, 3.5) if kind == "pinning" else kostin_friction(0.5)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    collapsible_evolve(psi0, V, force, spec, 0.2, snapshot_stride=50)
    assert calls == {"psi_to_p": 200, "evaluate_force": 200, "gauge_potential": 200}


def test_pinning_target_on_another_grid_fails_before_the_run(ho_box_setup):
    # checked once, when the run builds its kernel: no step is taken and no
    # snapshot recorded, so the error carries no partial trajectory
    grid, V, pairs = ho_box_setup
    other = Grid(-10.0, 10.0, 512, Boundary.BOX)
    force = pinning_force(ho_eigenstate(0, 1.0, other), 2.0)
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    with pytest.raises(GridMismatch) as err:
        collapsible_evolve(psi0, V, force, spec, 0.01)
    assert err.value.trajectory is None


@pytest.mark.parametrize(
    "point, bad, error",
    [(200, np.nan, NonFiniteField), (slice(None), 0.0, NodeBlowup)],
    ids=["nan", "all-zero"],
)
def test_kernel_errors_keep_the_partial_trajectory(ho_box_setup, monkeypatch, point, bad, error):
    # from the 120th step on the force kernel reads a state with a NaN at
    # one point, or an all-zero one: the typed error carries the snapshots
    # at steps 0, 50 and 100
    grid, V, pairs = ho_box_setup
    real, calls = evolve.psi_to_p, []

    def corrupted(vals, *args):
        calls.append(None)
        if len(calls) >= 120:
            vals = vals.copy()
            vals[point] = bad
        return real(vals, *args)

    monkeypatch.setattr(evolve, "psi_to_p", corrupted)
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    with pytest.raises(error) as err:
        collapsible_evolve(psi0, V, pinning_force(pairs[0], 3.5), spec, 0.2, snapshot_stride=50)
    if error is NodeBlowup:
        assert isinstance(err.value.__cause__, AllMasked)
    partial = err.value.trajectory
    assert np.array_equal(partial.times, [0.0, 50 * spec.dt, 100 * spec.dt])
    assert len(partial.snapshots) == 3
    assert all(len(series) == 3 for series in partial.observables.values())


@pytest.mark.parametrize("threshold", [np.nan, 0.0, -1.0, 1.0])
def test_node_threshold_outside_unit_interval_is_refused_on_entry(ho_box_setup, threshold):
    # a NaN, zero or negative threshold used to run on with RuntimeWarnings
    # until a NonFiniteField that did not name the input
    grid, V, pairs = ho_box_setup
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    force = pinning_force(pairs[0], 3.5)
    with pytest.raises(ValueError, match="node_threshold must lie in"):
        collapsible_evolve(
            psi0, V, force, IntegratorSpec(Method.CRANK_NICOLSON, 1e-3), 0.01,
            node_threshold=threshold,
        )
    with pytest.raises(ValueError, match="node_threshold must lie in"):
        cqhj_evolve(
            psi_to_p(psi0), V, IntegratorSpec(Method.RK4, 1e-5), 1e-4, node_threshold=threshold
        )


def test_winding_periodic_force_keeps_the_partial_trajectory():
    # one unit of net momentum on the ring: Kostin friction -gamma Re(p) has
    # mean -gamma 2 pi / L, which no single-valued Phi lifts; the first step
    # raises, after the t = 0 snapshot
    grid = Grid(-8.0, 8.0, 128, Boundary.PERIODIC)
    k0 = 2.0 * np.pi / grid.length
    psi0 = Field(grid, np.exp(1j * k0 * grid.x + 0.3 * np.cos(k0 * grid.x)))
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    with pytest.raises(PeriodicityViolation) as err:
        collapsible_evolve(psi0, free_potential(grid), kostin_friction(0.5), spec, 0.01)
    partial = err.value.trajectory
    assert np.array_equal(partial.times, [0.0])
    assert len(partial.snapshots) == 1
    assert all(len(series) == 1 for series in partial.observables.values())


def _pinned_mixture_fidelity(grid):
    """Final fidelity to phi_0 of 0.8 phi_0 + 0.6i phi_2 pinned to phi_0 at
    kappa = 3.5 in the oscillator, Crank-Nicolson with dt = 1e-3, to t = 0.5."""
    V = harmonic_potential(grid, 1.0)
    phi0, phi2 = (ho_eigenstate(n, 1.0, grid) for n in (0, 2))
    psi0 = superpose([0.8, 0.6j], [phi0.state, phi2.state])
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    traj = collapsible_evolve(
        psi0, V, pinning_force(phi0, 3.5), spec, 0.5, snapshot_stride=100, target=phi0.state
    )
    assert traj.times[-1] == pytest.approx(0.5)
    return traj.observables["fidelity_target"][-1]


@pytest.mark.parametrize("n_points", [256, 512])
def test_periodic_pinning_with_masked_tails_runs_like_its_box_twin(n_points):
    # regression: the states' tails fall under the node mask on the ring
    # [-12, 12], and the derivative route's ring sum grew past its tolerance
    # mid-run (PeriodicityViolation at t = 0.18-0.19); the pair route runs
    # to the end and agrees with the 512-point box grid [-8, 8], where the
    # tails never reach the walls (0.991269; 1.2e-7 and 6e-9 apart here)
    box = _pinned_mixture_fidelity(Grid(-8.0, 8.0, 512, Boundary.BOX))
    assert box == pytest.approx(0.991269, abs=1e-6)
    ring = _pinned_mixture_fidelity(Grid(-12.0, 12.0, n_points, Boundary.PERIODIC))
    assert ring == pytest.approx(box, abs=1e-6)


@pytest.mark.parametrize("force_kind", ["pinning", "null"])
def test_one_linear_solve_per_step(ho_box_setup, monkeypatch, force_kind):
    # adjacent half steps between snapshots are one double half step: a
    # nonlinear run makes one solve per step plus one per settled snapshot
    # segment (4 snapshots after t = 0); a null-force run takes the 100 half
    # steps of each snapshot interval in one kernel call, solves of at most
    # kernel.chunk = 8 half steps, 12 x 8 + 4: 13 solves per interval
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    kernel = _make_kernel(hamiltonian(V, spec.method), 0.5 * spec.dt)
    counts = {"solves": 0, "forces": 0}
    solve, real_evaluate = kernel._solve, evolve.evaluate_force

    def counted_solve(values, m):
        counts["solves"] += 1
        return solve(values, m)

    def counted_evaluate(*args):
        counts["forces"] += 1
        return real_evaluate(*args)

    monkeypatch.setattr(kernel, "_solve", counted_solve)
    monkeypatch.setattr(evolve, "evaluate_force", counted_evaluate)
    force = pinning_force(pairs[0], 3.5) if force_kind == "pinning" else null_force()
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    collapsible_evolve(psi0, V, force, spec, 0.2, snapshot_stride=50)
    if force_kind == "pinning":
        assert counts == {"solves": 204, "forces": 200}
    else:
        assert kernel.chunk == 8
        assert counts == {"solves": 4 * 13, "forces": 0}


# -- renormalization and run inputs -------------------------------------------


def test_strong_pinning_with_one_snapshot_stays_finite(ho_box_setup):
    # kappa = 6 over 10^4 steps with no snapshot in between: left
    # unrenormalized, the norm would grow by e^421 over the run, past the
    # e^354 at which |psi|^2 overflows. The run renormalizes at least every
    # 1 / (kappa dt) = 166 steps and collapses onto the target.
    grid, V, pairs = ho_box_setup
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    traj = collapsible_evolve(
        psi0, V, pinning_force(pairs[0], 6.0), spec, 10.0, snapshot_stride=10**9,
        target=pairs[0].state,
    )
    assert np.array_equal(traj.times, [0.0, 10.0])
    assert np.all(np.isfinite(traj.final_state.values))
    assert all(np.all(np.isfinite(series)) for series in traj.observables.values())
    assert traj.observables["fidelity_target"][-1] >= 1.0 - 1e-6


@pytest.mark.parametrize(
    "kappa, advances_per_interval", [(3.5, 1), (125.0, 3)], ids=["whole-interval", "capped"]
)
def test_one_norm_per_advance(ho_box_setup, monkeypatch, kappa, advances_per_interval):
    # 100 steps at stride 20 with a target: the entry normalization
    # (_normalized) and one norm per advance; the target is scaled by the
    # observables' own rule (grid._scaled_rows, in diagnostics). kappa = 3.5
    # advances a whole interval at a time; kappa = 125 caps an advance at
    # 1 / (kappa dt) = 8 steps, so each interval is three advances (8 + 8 + 4)
    grid, V, pairs = ho_box_setup
    calls = []

    def counted(real):
        def call(*args):
            calls.append(None)
            return real(*args)

        return call

    monkeypatch.setattr(evolve, "norm", counted(evolve.norm))
    monkeypatch.setattr(evolve, "_normalized", counted(evolve._normalized))
    psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    traj = collapsible_evolve(
        psi0, V, pinning_force(pairs[0], kappa), spec, 0.1, snapshot_stride=20,
        target=pairs[0].state,
    )
    assert len(traj.snapshots) == 6
    assert len(calls) == 1 + 5 * advances_per_interval
    assert np.max(np.abs(traj.observables["norm"] - 1.0)) <= 1e-13


@pytest.mark.parametrize("propagator", ["schrodinger", "collapsible"])
@pytest.mark.parametrize(
    "t_final, stride, match",
    [
        (-1.0, 1, "t_final"),
        (0.0, 1, "t_final"),
        (np.nan, 1, "t_final"),
        (np.inf, 1, "t_final"),
        (5e-4, 1, "dt = 0.001 exceeds t_final = 0.0005"),
        (0.1, 0, "snapshot_stride"),
        (0.1, -5, "snapshot_stride"),
    ],
)
def test_run_inputs_rejected_before_the_first_snapshot(
    ho_box_setup, monkeypatch, propagator, t_final, stride, match
):
    grid, V, pairs = ho_box_setup
    recorded = []
    monkeypatch.setattr(evolve, "_record_psi_observables", lambda *args: recorded.append(args))
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    with pytest.raises(ValueError, match=match):
        if propagator == "schrodinger":
            schrodinger_evolve(pairs[0].state, V, spec, t_final, snapshot_stride=stride)
        else:
            collapsible_evolve(
                pairs[1].state, V, pinning_force(pairs[0], 2.0), spec, t_final,
                snapshot_stride=stride,
            )
    assert recorded == []


def test_step_count_stops_below_2_53():
    # the largest count whose step numbers, and so the times step * dt, are
    # exact; 4 / 1e-320 overflows to inf, and 4 / 1e-300 would have asked
    # for a 4e300-entry list of snapshot steps
    assert evolve._step_count(2.0**53 - 1.0, 1.0, 1) == 2**53 - 1
    for t_final, dt in [(2.0**53, 1.0), (4.0, 1e-300), (4.0, 1e-320)]:
        with pytest.raises(ValueError, match="not a count below 2"):
            evolve._step_count(t_final, dt, 1)


@pytest.mark.parametrize("stride, steps", [(20, [0, 20, 40, 50]), (10**30, [0, 50])])
def test_snapshot_times_are_the_stride_steps_and_the_last(ho_box_setup, stride, steps):
    # snapshot i is at step min(i * stride, n_steps), also for a stride
    # past any int64
    grid, V, pairs = ho_box_setup
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    traj = schrodinger_evolve(pairs[0].state, V, spec, 0.05, snapshot_stride=stride)
    assert traj.times.tobytes() == np.multiply(steps, 1e-3).tobytes()
    assert len(traj.snapshots) == len(steps)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
def test_integrator_spec_rejects_non_finite_or_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        IntegratorSpec(Method.CRANK_NICOLSON, dt)
