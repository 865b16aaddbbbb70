"""Property-based checks of the momentum map, the collapsible step and the
linear propagators on drawn states, scale factors, rates, snapshot strides
and renormalization. Grids stay at 128-512 points and runs at 40 steps,
except the chunked linear steps' stiff grids (up to 2048 points, 60 steps)
and the split-step matrix power (32-128 points, up to 3,100 steps in one
interval, and up to about 9,300 in a run of kept-power intervals), so the
module adds about six seconds to the suite."""


import numpy as np
from hypothesis import example, given, settings, strategies as st

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    IntegratorSpec,
    Method,
    MomentumField,
    collapsible_evolve,
    cqhj_rhs,
    custom_potential,
    energy,
    fidelity,
    gaussian_packet,
    gradient,
    hamiltonian,
    harmonic_potential,
    ho_eigenstate,
    kostin_friction,
    make_field,
    norm,
    null_force,
    p_to_psi,
    pinning_force,
    psi_to_p,
    random_nodeless_state,
    schrodinger_evolve,
    superpose,
)
from cqhjlab import diagnostics, evolve
from cqhjlab.cqhj import DEFAULT_NODE_THRESHOLD, dilated_mask
from cqhjlab.errors import NonFiniteField, PeriodicityViolation
from cqhjlab.forces import GAUGE_MEAN_TOLERANCE, _force_law
from cqhjlab.grid import _antiderivative_op, cumulative_integral

SEEDS = st.integers(0, 2**32 - 1)
# c = 10**log_mag * exp(i angle): magnitudes from 1e-3 to 1e3, any phase
LOG_MAGS = st.floats(-3.0, 3.0)
ANGLES = st.floats(0.0, 2 * np.pi)


def _scale(log_mag: float, angle: float) -> complex:
    return 10.0**log_mag * np.exp(1j * angle)


def _drawn_state(boundary: Boundary, seed: int, modes: int, amplitude: float) -> Field:
    """exp(g) with g a random band-limited field; on a box grid times a
    Gaussian envelope, so the tails fall below the node threshold."""
    g = Grid(-8.0, 8.0, 256, boundary)
    psi = random_nodeless_state(g, np.random.default_rng(seed), modes, amplitude)
    if boundary is Boundary.PERIODIC:
        return psi
    return make_field(g, psi.values * np.exp(-(g.x**2) / 2))


@settings(max_examples=50, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    seed=SEEDS,
    log_mag=LOG_MAGS,
    angle=ANGLES,
)
def test_momentum_map_is_homogeneous(boundary, seed, log_mag, angle):
    # measured over 300 draws each: largest |p(c psi) - p(psi)| / max|p|
    # 8.4e-14 periodic (global FFT roundoff), 1.4e-15 box
    psi = _drawn_state(boundary, seed, 6, 0.35)
    p1 = psi_to_p(psi)
    p2 = psi_to_p(Field(psi.grid, _scale(log_mag, angle) * psi.values))
    assert np.array_equal(p1.node_mask, p2.node_mask)
    assert np.max(np.abs(p1.values - p2.values)) <= 1e-12 * np.max(np.abs(p1.values))


@settings(max_examples=50, deadline=None)
@given(
    seed=SEEDS,
    modes=st.integers(1, 10),
    amplitude=st.floats(0.05, 1.5),
    log_mag=LOG_MAGS,
    angle=ANGLES,
)
def test_psi_to_p_to_psi_round_trip(seed, modes, amplitude, log_mag, angle):
    # nodeless periodic states come back up to one global complex factor;
    # measured over 300 draws: largest |psi' - k psi| / max|psi'| 9.5e-16
    psi0 = _drawn_state(Boundary.PERIODIC, seed, modes, amplitude)
    psi = Field(psi0.grid, _scale(log_mag, angle) * psi0.values)
    back, _ = p_to_psi(psi_to_p(psi))
    v = psi.values
    k = np.vdot(v, back.values) / np.vdot(v, v)
    assert np.max(np.abs(back.values - k * v)) <= 1e-13 * np.max(np.abs(back.values))


BOX = Grid(-8.0, 8.0, 512, Boundary.BOX)
PERIODIC = Grid(-8.0, 8.0, 128, Boundary.PERIODIC)


def _box_superposition(rng: np.random.Generator):
    """The ground state and a drawn superposition of the two lowest
    oscillator states on the box grid."""
    ground, excited = (ho_eigenstate(n, 1.0, BOX) for n in (0, 1))
    mix = rng.uniform(0.0, 2 * np.pi, 2)
    psi0 = superpose(
        [np.cos(mix[0] / 2), np.sin(mix[0] / 2) * np.exp(1j * mix[1])],
        [ground.state, excited.state],
    )
    return ground, psi0


@settings(max_examples=25, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    seed=SEEDS,
    rate=st.floats(0.1, 5.0),
    renormalize=st.booleans(),
    log_mag=LOG_MAGS,
    angle=ANGLES,
)
def test_collapsible_step_ignores_the_scale_of_psi0(
    boundary, seed, rate, renormalize, log_mag, angle
):
    # pinning on a box grid (a drawn superposition of the two lowest
    # oscillator states, pinned to the ground state) and Kostin friction on
    # a periodic grid (a drawn nodeless state); 40 Crank-Nicolson steps.
    # Measured over 60 draws per boundary, with and without renormalization:
    # the normalized densities of psi0 and c psi0 agree to 5.9e-15, their
    # norm series to 2.0e-15, and a renormalized norm is 1 to 2.2e-16.
    if boundary is Boundary.BOX:
        grid = BOX
        ground, psi0 = _box_superposition(np.random.default_rng(seed))
        force = pinning_force(ground, rate)
    else:
        grid = PERIODIC
        psi0 = random_nodeless_state(grid, np.random.default_rng(seed), modes=4, amplitude=0.5)
        force = kostin_friction(rate)
    V = harmonic_potential(grid, 1.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, renormalize)
    a = collapsible_evolve(psi0, V, force, spec, 0.04, snapshot_stride=10)
    b = collapsible_evolve(
        Field(grid, _scale(log_mag, angle) * psi0.values), V, force, spec, 0.04, snapshot_stride=10
    )
    assert np.max(np.abs(a.observables["norm"] - b.observables["norm"])) <= 1e-13
    if renormalize:
        assert np.max(np.abs(a.observables["norm"] - 1.0)) <= 1e-13
    for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
        assert np.max(np.abs(np.abs(sa) ** 2 - np.abs(sb) ** 2)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(
        ["box pinning", "box kostin", "box null", "periodic pinning", "periodic null"]
    ),
    seed=SEEDS,
    rate=st.floats(0.1, 5.0),
    stride=st.integers(2, 41),
)
def test_snapshot_cadence_does_not_change_the_trajectory(case, seed, rate, stride):
    # snapshot_stride = 1 settles every step; a stride k > 1 fuses the
    # trailing and leading half steps of the steps between snapshots into
    # one double half step. 40 steps each, Crank-Nicolson on the box grid
    # and split-step on the periodic one, compared at the common snapshot
    # times. Measured over 100 draws per case: largest |psi_k - psi_1| /
    # max|psi_1| 8.6e-15, and the running log scale, summed from one norm
    # of the end state of each advance, agrees to 2.2e-14. Under the null
    # force a stride-1 step is one double half step, and a stride-k interval
    # is 2k half steps in one kernel call (solves of up to kernel.chunk = 8
    # on the box grid), renormalized once: 1.2e-14 (box)
    # and 8.5e-15 (periodic), log scale 5.6e-15 and 2.3e-15.
    rng = np.random.default_rng(seed)
    if case.startswith("box"):
        grid = BOX
        ground, psi0 = _box_superposition(rng)
        force = {
            "box pinning": lambda: pinning_force(ground, rate),
            "box kostin": lambda: kostin_friction(rate),
            "box null": null_force,
        }[case]()
        spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    else:
        grid = PERIODIC
        psi0, target = (random_nodeless_state(grid, rng, modes=4, amplitude=0.5) for _ in range(2))
        force = null_force() if case == "periodic null" else pinning_force(target, rate)
        spec = IntegratorSpec(Method.SPLIT_STEP, 2e-4, True)
    V = harmonic_potential(grid, 1.0)
    t_final = 40 * spec.dt
    every = collapsible_evolve(psi0, V, force, spec, t_final, snapshot_stride=1)
    fused = collapsible_evolve(psi0, V, force, spec, t_final, snapshot_stride=stride)
    steps = np.rint(fused.times / spec.dt).astype(int)
    for step, snap in zip(steps, fused.snapshots, strict=True):
        ref = every.snapshots[step]
        assert np.max(np.abs(snap - ref)) <= 1e-13 * np.max(np.abs(ref))
    log_scale = every.observables["gauge_log_magnitude"][steps]
    assert np.max(np.abs(fused.observables["gauge_log_magnitude"] - log_scale)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    propagator=st.sampled_from(["schrodinger", "collapsible"]),
    seed=SEEDS,
    stride=st.integers(1, 41),
)
def test_renormalization_does_not_change_a_linear_trajectory(boundary, propagator, seed, stride):
    # linear steps are unitary in the grid inner product, so renormalizing
    # once per snapshot interval moves a linear run only at roundoff. 40
    # steps of schrodinger_evolve or of collapsible_evolve under the null
    # force, Crank-Nicolson on the box grid and split-step on the periodic
    # one, with and without renormalization. Measured over 100 draws per
    # boundary and propagator: largest |psi_on - psi_off| / max|psi_off|
    # 5.6e-15, norm series 3.2e-15 apart, log scales 1.8e-15 apart, and a
    # renormalized norm is 1 to 2.2e-16.
    rng = np.random.default_rng(seed)
    if boundary is Boundary.BOX:
        grid, (_, psi0) = BOX, _box_superposition(rng)
        method, dt = Method.CRANK_NICOLSON, 1e-3
    else:
        grid = PERIODIC
        psi0 = random_nodeless_state(grid, rng, modes=4, amplitude=0.5)
        method, dt = Method.SPLIT_STEP, 2e-4
    V = harmonic_potential(grid, 1.0)
    on, off = (
        schrodinger_evolve(psi0, V, IntegratorSpec(method, dt, r), 40 * dt, snapshot_stride=stride)
        if propagator == "schrodinger"
        else collapsible_evolve(
            psi0, V, null_force(), IntegratorSpec(method, dt, r), 40 * dt, snapshot_stride=stride
        )
        for r in (True, False)
    )
    for a, b in zip(on.snapshots, off.snapshots, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    for key in ("norm", "gauge_log_magnitude"):
        assert np.max(np.abs(on.observables[key] - off.observables[key])) <= 1e-13, key
    assert np.max(np.abs(on.observables["norm"] - 1.0)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    run=st.sampled_from(["schrodinger", "collapsible null", "collapsible pinning"]),
    seed=SEEDS,
    stride=st.integers(1, 41),
    renormalize=st.booleans(),
    cut=st.integers(0, 2**16),
)
def test_a_cut_run_keeps_the_first_rows_of_the_uncut_run(
    boundary, run, seed, stride, renormalize, cut
):
    # the run's kernel returns NaN from a drawn call on: the typed error
    # carries the partial trajectory, whose snapshot array is bitwise the
    # first rows of the uncut run's. 40 steps, Crank-Nicolson on the box
    # grid and split-step on the periodic one
    rng = np.random.default_rng(seed)
    if boundary is Boundary.BOX:
        grid, (ground, psi0) = BOX, _box_superposition(rng)
        spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, renormalize)
    else:
        grid = PERIODIC
        psi0, ground = (random_nodeless_state(grid, rng, modes=4, amplitude=0.5) for _ in range(2))
        spec = IntegratorSpec(Method.SPLIT_STEP, 2e-4, renormalize)
    V = harmonic_potential(grid, 1.0)
    if run == "schrodinger":
        substeps = 1
        evolve_ = lambda: schrodinger_evolve(psi0, V, spec, 40 * spec.dt, snapshot_stride=stride)
    else:
        substeps = 2
        force = null_force() if run == "collapsible null" else pinning_force(ground, 2.0)
        evolve_ = lambda: collapsible_evolve(
            psi0, V, force, spec, 40 * spec.dt, snapshot_stride=stride
        )
    kernel = evolve._make_kernel(hamiltonian(V, spec.method), spec.dt, substeps)
    calls = []

    def counted(values, n):
        calls.append(n)
        out = type(kernel).step(kernel, values, n)
        return np.full_like(out, np.nan) if len(calls) >= bad else out

    bad = np.inf
    kernel.step = counted
    try:
        uncut = evolve_()
        bad, calls = 1 + cut % len(calls), []
        try:
            evolve_()
        except NonFiniteField as exc:
            partial = exc.trajectory
        else:
            raise AssertionError("the run with a NaN step was not cut")
    finally:
        del kernel.step
    rows = len(partial.snapshots)
    assert 1 <= rows < len(uncut.snapshots)
    assert partial.snapshots.tobytes() == uncut.snapshots[:rows].tobytes()
    assert np.array_equal(partial.times, uncut.times[:rows])


def _pair_phi_by_hand(psi: Field, rate: float, target: Field | None, threshold: float):
    """Phi of the collapse step's pair route, written out. Each pair of
    neighbouring points (j, j + 1), with the wrap pair (N - 1, 0) on a
    periodic grid, has the action increment
    1/2 angle((psi[j+1] conj psi[j])^2) - i (log|psi[j+1]| - log|psi[j]|);
    the pair force is -rate (inc - the target's inc) for pinning and
    -rate Re inc for Kostin friction (target None), zero on every pair
    touching a point of psi or of the target below threshold times its
    peak. Phi is their cumulative sum from 0, after the ring sum is spread
    over the pairs and dropped on a periodic grid; PeriodicityViolation
    (returned) when it exceeds the gauge tolerance."""
    g = psi.grid
    periodic = g.boundary is Boundary.PERIODIC

    def increments(v):
        amp = np.abs(v)
        mask = amp < threshold * amp.max()
        log_amp = np.zeros(v.size)
        np.log(amp, out=log_amp, where=~mask)
        if periodic:
            v, log_amp, mask = np.r_[v, v[0]], np.r_[log_amp, log_amp[0]], np.r_[mask, mask[0]]
        r = v[1:] * np.conj(v[:-1])
        inc = 0.5 * np.angle(r * r) - 1j * (log_amp[1:] - log_amp[:-1])
        return inc, mask[1:] | mask[:-1]

    inc, masked = increments(psi.values)
    if target is None:
        f = -rate * inc.real.astype(complex)
    else:
        target_inc, target_masked = increments(target.values)
        f = -rate * (inc - target_inc)
        masked = masked | target_masked
    f[masked] = 0.0
    if periodic:
        ring = f.sum()
        if abs(ring) > GAUGE_MEAN_TOLERANCE * max(np.max(np.abs(f)) / g.dx, 1.0):
            return PeriodicityViolation
        f = f[:-1] - ring / f.size
    return np.concatenate([[0.0], np.cumsum(f)])


@settings(max_examples=40, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    kind=st.sampled_from(["pinning", "kostin"]),
    seed=SEEDS,
    rate=st.floats(0.1, 5.0),
    node=st.one_of(st.none(), st.integers(1, 254)),
    threshold=st.sampled_from([1e-6, 1e-4, 1e-2]),
)
@example(Boundary.BOX, "pinning", 0, 1.0, None, 1e-2)
def test_force_kernel_matches_the_pair_formula_bitwise(
    boundary, kind, seed, rate, node, threshold
):
    # the collapse step's per-run kernel lifts the pair forces of the
    # action increments, bitwise the formula written out above, with the
    # pairs of the state and of the target masked at the run's node
    # threshold. The box states have masked tails, which grow with the
    # threshold, so a target masked at any other threshold fails the
    # example; node puts a double zero
    # 1 - cos(2 pi (x - x_node) / L) at a grid point, which is masked. On a
    # periodic grid the pairs at that node make the ring sum of the pair
    # forces exceed the tolerance (100 of 100 draws per force; the
    # derivative route raised on 95 under pinning and 99 under Kostin
    # friction of 100 such draws), and then both give PeriodicityViolation.
    psi = _drawn_state(boundary, seed, 6, 0.35)
    g = psi.grid
    if node is not None:
        psi = Field(g, psi.values * (1.0 - np.cos(2 * np.pi * (g.x - g.x[node]) / g.length)))
    target = _drawn_state(boundary, seed + 1, 4, 0.3) if kind == "pinning" else None
    force = kostin_friction(rate) if target is None else pinning_force(target, rate)
    try:
        kernel = evolve._gauge_kernel(force, g, threshold)(psi.values)
    except PeriodicityViolation as exc:
        assert boundary is Boundary.PERIODIC and node is not None, exc
        kernel = PeriodicityViolation
    expected = _pair_phi_by_hand(psi, rate, target, threshold)
    if kernel is PeriodicityViolation or expected is PeriodicityViolation:
        assert kernel is expected
    else:
        assert np.array_equal(kernel, expected)


def _frozen_mask_substep(force, psi: Field, rate: float):
    """(Phi, substep) of the collapse step's exact gauge sub-step at psi with
    the pair mask frozen at that of psi: substep(vals, dt) is
    vals exp(i tau Phi[vals]), tau = -expm1(-rate dt) / rate, with Phi taken
    from the unmasked increments of vals on psi's pairs: those of the
    smallest positive node threshold, which masks no point of these states."""
    g = psi.grid
    periodic = g.boundary is Boundary.PERIODIC
    law = _force_law(force, g)
    _, frozen = evolve.psi_to_p(psi.values, DEFAULT_NODE_THRESHOLD, periodic)

    def phi(vals):
        inc, mask = evolve.psi_to_p(vals, np.finfo(float).tiny, periodic)
        assert not mask.any()
        return evolve.gauge_potential(evolve.evaluate_force(inc, frozen, law), g)

    def substep(vals, dt):
        return vals * np.exp(-1j * np.expm1(-rate * dt) / rate * phi(vals))

    return phi, substep


@settings(max_examples=40, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    kind=st.sampled_from(["pinning", "kostin"]),
    seed=SEEDS,
    rate=st.floats(0.1, 5.0),
    dt1=st.floats(1e-4, 0.1),
    dt2=st.floats(1e-4, 0.1),
)
def test_exact_gauge_substep_is_a_projector_semigroup(boundary, kind, seed, rate, dt1, dt2):
    # with one fixed mask the lift operator M of the gauge sub-step
    # u_t = -rate M u is exactly idempotent on the pair route: the sub-step
    # of length dt scales Phi by 1 - rate tau = exp(-rate dt), and two
    # sub-steps of dt1 and dt2 are one of dt1 + dt2. Drawn states as in the
    # test above, without nodes (box tails masked). Measured over 400
    # draws: idempotency defect / range of Phi 3.9e-15, semigroup defect /
    # max|psi| 7.2e-16; the p-route (the public chain on the same frozen
    # mask), whose M is a projector only to discretization error, gives
    # 1.3e-3 and 1.7e-4 on the same draws.
    psi = _drawn_state(boundary, seed, 6, 0.35)
    target = _drawn_state(boundary, seed + 1, 4, 0.3) if kind == "pinning" else None
    force = kostin_friction(rate) if target is None else pinning_force(target, rate)
    phi, substep = _frozen_mask_substep(force, psi, rate)
    phi0 = phi(psi.values)
    spread = np.hypot(np.ptp(phi0.real), np.ptp(phi0.imag))
    one = substep(psi.values, dt1)
    assert np.max(np.abs(phi(one) - np.exp(-rate * dt1) * phi0)) <= 1e-12 * spread
    two = substep(one, dt2)
    joint = substep(psi.values, dt1 + dt2)
    assert np.max(np.abs(two - joint)) <= 1e-12 * np.max(np.abs(joint))


@settings(max_examples=40, deadline=None)
@given(boundary=st.sampled_from(list(Boundary)), seed=SEEDS, n=st.integers(16, 300))
def test_momentum_kernel_matches_cqhj_rhs_bitwise(boundary, seed, n):
    # cqhj_evolve's stage right-hand side on raw arrays is the public
    # cqhj_rhs of the unmasked field, and its box projection the public
    # gradient of the cumulative integral
    rng = np.random.default_rng(seed)
    g = Grid(-6.0, 6.0, n, boundary)
    V = custom_potential(g, rng.normal(size=n))
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    rhs, d = evolve._momentum_kernel(V)
    public = cqhj_rhs(MomentumField(Field(g, p), np.zeros(n, bool)), V).values
    assert rhs(p).tobytes() == public.tobytes()
    if boundary is Boundary.BOX:
        projected = gradient(cumulative_integral(Field(g, p))).values
        assert d(_antiderivative_op(g)(p)).tobytes() == projected.tobytes()



def _chunked_and_single_steps(boundary, n_points, propagator, seed, stride, steps):
    """Largest |psi_k - psi_1| / max|psi_1| over the snapshots of Crank-Nicolson
    runs of the propagator (dt = 1e-3, no renormalization) at snapshot
    strides k = `stride` and 1, and the chunk of the propagator's kernel."""
    grid = Grid(-8.0, 8.0, n_points, boundary)
    rng = np.random.default_rng(seed)
    noise = np.array([1.0, 1j]) @ rng.standard_normal((2, n_points))
    packet = gaussian_packet(grid, rng.uniform(-1.0, 1.0), rng.uniform(-10.0, 10.0), 1.0)
    psi0 = make_field(grid, packet.values + 1e-3 * noise)
    V = harmonic_potential(grid, 1.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
    if propagator == "schrodinger":
        run = lambda k: schrodinger_evolve(psi0, V, spec, steps * spec.dt, snapshot_stride=k)
        h = spec.dt
    else:
        run = lambda k: collapsible_evolve(
            psi0, V, null_force(), spec, steps * spec.dt, snapshot_stride=k
        )
        h = 0.5 * spec.dt
    chunked, single = run(stride), run(1)
    err = 0.0
    for t, snap in zip(chunked.times, chunked.snapshots, strict=True):
        ref = single.snapshots[int(round(t / spec.dt))]
        err = max(err, np.max(np.abs(snap - ref)) / np.max(np.abs(ref)))
    return err, evolve._make_kernel(hamiltonian(V, spec.method), h).chunk


@settings(max_examples=30, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    case=st.sampled_from(
        [("schrodinger", n) for n in (128, 256, 448, 512)]
        + [("collapsible", n) for n in (128, 256, 512, 1024, 2048)]
    ),
    seed=SEEDS,
    stride=st.integers(1, 41),
    steps=st.integers(1, 60),
)
@example(Boundary.BOX, ("collapsible", 2048), 0, 41, 60)
@example(Boundary.PERIODIC, ("collapsible", 2048), 1, 41, 60)
def test_chunked_linear_steps_match_single_steps(boundary, case, seed, stride, steps):
    # a linear interval takes up to kernel.chunk Cayley steps per solve with
    # A^chunk, whose condition number the chunk rule keeps <= 10. A packet
    # with noise on every mode, against the stride-1 run (one step per call);
    # the draws reach chunks 8, 6 (schrodinger, N = 448), 4 (schrodinger,
    # N = 512) and, on the stiff N = 1024 and 2048 grids of the collapsible
    # half step, the fallback 2, the double half step of a stride-1 step.
    # Measured over 30 draws per case and boundary: largest error 2.1e-14
    # for chunks above 2, 0 for chunk 2. schrodinger_evolve's stiff grids
    # are the next test's, at their own bounds: there the stride-1 run's
    # Cayley steps and the chunked run's pairs through A^2 differ in
    # roundoff by up to 2.6e-13.
    propagator, n_points = case
    err, chunk = _chunked_and_single_steps(boundary, n_points, propagator, seed, stride, steps)
    if n_points >= 1024:
        assert chunk == 2
    assert err <= 1e-13


@settings(max_examples=8, deadline=None)
@given(boundary=st.sampled_from(list(Boundary)), n_points=st.sampled_from([1024, 2048]), seed=SEEDS)
@example(Boundary.BOX, 2048, 0)
@example(Boundary.PERIODIC, 1024, 0)
def test_single_linear_steps_are_cayley_steps_on_stiff_grids(boundary, n_points, seed):
    # a stride-1 schrodinger_evolve run takes each step as one Cayley solve
    # A^-1 (B v), with the condition number of A; the chunked run takes its
    # steps in pairs through A^2 (chunk 2 on these grids) and a remaining
    # single one as a Cayley step. 60 steps at stride 41. Measured over 18
    # draws per grid and boundary: largest |psi_k - psi_1| / max|psi_1|
    # 2.2e-14 at N = 1024 and 2.6e-13 at 2048; with single steps through A^2,
    # as (A^2)^-1 AB, 1.1e-13 and 1.4e-12.
    err, chunk = _chunked_and_single_steps(boundary, n_points, "schrodinger", seed, 41, 60)
    assert chunk == 2
    assert err <= {1024: 5e-14, 2048: 5e-13}[n_points]


@settings(max_examples=30, deadline=None)
@given(
    n_points=st.integers(32, 128),
    seed=SEEDS,
    omega=st.floats(0.5, 2.0),
    log2_n=st.floats(0.0, 3.0),
)
def test_split_step_power_matches_the_stepping_loop(n_points, seed, omega, log2_n):
    # on small periodic grids the rule takes an interval of n steps as the
    # matrix power S^n from n = 6 (N = 32) to 389 (N = 128) steps; n is drawn
    # from that crossover to 8 times it, up to 3,100 steps. Measured over 60
    # draws: the power and the stepping loop agree to 3.8e-13 of max|psi|,
    # and both keep the grid norm to 5.7e-13 relative.
    grid = Grid(-8.0, 8.0, n_points, Boundary.PERIODIC)
    rng = np.random.default_rng(seed)
    psi0 = random_nodeless_state(grid, rng, modes=4, amplitude=0.5)
    dt = 0.09 / evolve._split_step_e_max(grid)
    H = hamiltonian(harmonic_potential(grid, omega), Method.SPLIT_STEP)
    kernel = evolve._SplitStepKernel(H, dt)
    crossover = next(n for n in range(1, 10**4) if evolve._split_power_pays(n_points, n))
    n = int(crossover * 2.0**log2_n)
    power, stepped = psi0.values @ kernel.powers([n])[n], kernel.step(psi0.values, n)
    assert np.max(np.abs(power - stepped)) <= 1e-12 * np.max(np.abs(stepped))
    assert abs(norm(make_field(grid, power)) / norm(psi0) - 1.0) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    n_points=st.integers(32, 128),
    seed=SEEDS,
    log2_n=st.floats(0.0, 2.0),
    intervals=st.integers(1, 5),
    remainder=st.floats(0.05, 0.95),
    run=st.sampled_from(["schrodinger", "null"]),
)
# a remainder that pays: the run keeps its power from the same chain
@example(n_points=64, seed=0, log2_n=2.0, intervals=2, remainder=0.9, run="schrodinger")
@example(n_points=64, seed=1, log2_n=2.0, intervals=3, remainder=0.9, run="null")
# one interval and a paying remainder, each a kept power
@example(n_points=64, seed=2, log2_n=2.0, intervals=1, remainder=0.9, run="null")
def test_kept_split_step_powers_match_the_stepping_loop(
    n_points, seed, log2_n, intervals, remainder, run
):
    # a run of 1-5 equal split-step intervals and a remainder takes each
    # interval whose length pays as one product with its kept dense power,
    # all from one chain; each snapshot agrees to roundoff with the FFT
    # stepping loop run from the snapshot before it. The interval is drawn
    # from the rule's crossover to 4 times it, in kernel steps (half steps
    # under the null force). Compared per interval: over a whole run the
    # two paths drift apart by the sum of the intervals' roundoff.
    # Measured over 240 draws (up to 1,402 kernel steps per interval, 46 of
    # one interval, 99 with a remainder that pays): largest deviation
    # 3.6e-13 of max|psi|, norms 8.7e-14 of the input's.
    grid = Grid(-8.0, 8.0, n_points, Boundary.PERIODIC)
    rng = np.random.default_rng(seed)
    psi0 = random_nodeless_state(grid, rng, modes=4, amplitude=0.5)
    V = harmonic_potential(grid, 1.0)
    dt = 0.09 / evolve._split_step_e_max(grid)
    spec = IntegratorSpec(Method.SPLIT_STEP, dt, False)
    crossover = next(n for n in range(1, 10**4) if evolve._split_power_pays(n_points, n))
    n = int(crossover * 2.0**log2_n)
    substeps = 1 if run == "schrodinger" else 2
    stride = -(-n // substeps)
    assert evolve._split_power_pays(n_points, substeps * stride)
    t_final = (intervals * stride + max(1, int(remainder * stride))) * dt
    if run == "schrodinger":
        traj = schrodinger_evolve(psi0, V, spec, t_final, snapshot_stride=stride)
    else:
        traj = collapsible_evolve(psi0, V, null_force(), spec, t_final, snapshot_stride=stride)
    kernel = evolve._make_kernel(hamiltonian(V, spec.method), dt, substeps)
    steps = np.rint(traj.times / dt).astype(int)
    assert len(traj.snapshots) == intervals + 2
    for i in range(1, len(steps)):
        a = traj.snapshots[i]
        b = kernel.step(traj.snapshots[i - 1], substeps * (steps[i] - steps[i - 1]))
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        assert abs(norm(make_field(grid, a)) - norm(make_field(grid, b))) <= 1e-12 * norm(psi0)


def _looped_dilation(mask: np.ndarray, periodic: bool, width: int) -> np.ndarray:
    """The reference OR-dilation, one shift per distance 1..width."""
    out = mask.copy()
    for s in range(1, width + 1):
        out[s:] |= mask[:-s]
        out[:-s] |= mask[s:]
        if periodic:
            out[:s] |= mask[-s:]
            out[-s:] |= mask[:s]
    return out


@settings(max_examples=200, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    mask=st.lists(st.booleans(), min_size=16, max_size=80).map(lambda m: np.array(m, bool)),
    width=st.integers(1, 5),
)
def test_dilated_mask_matches_the_looped_dilation(boundary, mask, width):
    grid = Grid(-1.0, 1.0, mask.size, boundary)
    want = _looped_dilation(mask, boundary is Boundary.PERIODIC, width)
    got = dilated_mask(mask, grid, width)
    assert got.dtype == bool and np.array_equal(got, want)


OBSERVE_CASES = [
    (Boundary.BOX, Method.CRANK_NICOLSON),
    (Boundary.PERIODIC, Method.CRANK_NICOLSON),
    (Boundary.PERIODIC, Method.SPLIT_STEP),
]


def _observed_states(boundary: Boundary, seed: int, rows: int) -> list:
    """rows drawn states on a 512-point grid, where the block pass takes 32
    rows at a time: a band-limited field times a Gaussian envelope whose
    tails fall below the observable node threshold, every other one times
    a double zero at a drawn interior grid point, each at a drawn scale
    between 1e-3 and 1e3 or at 1e160 or 1e-200."""
    g = Grid(-8.0, 8.0, 512, boundary)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(rows):
        v = random_nodeless_state(g, rng, 5, 0.3).values * np.exp(-(g.x**2) / 2)
        if i % 2:
            j = rng.integers(32, 480)
            v = v * (1.0 - np.cos(2 * np.pi * (g.x - g.x[j]) / g.length))
        scale = rng.choice([10.0 ** rng.uniform(-3, 3), 1e160, 1e-200])
        out.append(v * scale * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return out


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(OBSERVE_CASES),
    seed=SEEDS,
    rows=st.integers(1, 40),
    cut=st.integers(0, 40),
)
@example(case=OBSERVE_CASES[0], seed=0, rows=33, cut=0)
def test_observable_rows_do_not_depend_on_their_block(case, seed, rows, cut):
    # the observable block pass gives each state bitwise the values of its
    # one-row pass, under the pass's own blocks of 32 rows (33 rows cross a
    # block boundary) and under any split of the stack in two; norm, energy
    # and fidelity are also bitwise the public functions'
    boundary, method = case
    states = _observed_states(boundary, seed, rows)
    g = Grid(-8.0, 8.0, 512, boundary)
    H = hamiltonian(harmonic_potential(g, 1.0), method)
    target = ho_eigenstate(0, 1.0, g).state
    record, series = evolve._psi_recorder(H, target, np.empty((rows, g.n_points), complex))
    for i, v in enumerate(states):
        record(i, v, 0.0)
    obs, error = series()
    assert error is None
    stack = np.stack(states)
    cut = min(cut, rows)
    halves = [diagnostics._observe(H, target, s) for s in (stack[:cut], stack[cut:]) if len(s)]
    split = np.concatenate(halves, axis=1)
    keys = ["norm", "energy", "fidelity_target", "H_mean_re", "H_std"]
    for i, v in enumerate(states):
        one = diagnostics._observe(H, target, v[None])[:, 0]
        assert np.array_equal(split[:, i], one)
        assert np.array_equal([obs[k][i] for k in keys], one)
        psi = Field(g, v)
        assert one[:3].tolist() == [norm(psi), energy(psi, H), fidelity(psi, target)]
