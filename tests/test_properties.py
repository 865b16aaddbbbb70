"""Property-based checks of the momentum map, the collapsible step and the
linear propagators on drawn states, scale factors, rates, snapshot strides
and renormalization. Grids stay at 128-512 points and runs at 40 steps, so
the module adds about four seconds to the suite."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    IntegratorSpec,
    Method,
    collapsible_evolve,
    harmonic_potential,
    ho_eigenstate,
    kostin_friction,
    make_field,
    null_force,
    p_to_psi,
    pinning_force,
    psi_to_p,
    random_nodeless_state,
    schrodinger_evolve,
    superpose,
)
from cqhjlab import evolve
from cqhjlab.cqhj import DEFAULT_NODE_THRESHOLD
from cqhjlab.errors import PeriodicityViolation
from cqhjlab.forces import evaluate, gauge_potential

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
        assert np.max(np.abs(np.abs(sa.values) ** 2 - np.abs(sb.values) ** 2)) <= 1e-12


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
    # max|psi_1| 8.6e-15, and the running log scale, summed from the
    # renormalization of pending states, agrees to 2.2e-14. Under the null
    # force every step is one double half step and only the
    # renormalization differs (every step at stride 1, once per snapshot
    # interval at stride k): 3.4e-15 (box) and 5.0e-15 (periodic), log
    # scale 1.6e-15 and 2.0e-15.
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
        ref = every.snapshots[step].values
        assert np.max(np.abs(snap.values - ref)) <= 1e-13 * np.max(np.abs(ref))
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
        assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(b.values))
    for key in ("norm", "gauge_log_magnitude"):
        assert np.max(np.abs(on.observables[key] - off.observables[key])) <= 1e-13, key
    assert np.max(np.abs(on.observables["norm"] - 1.0)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    boundary=st.sampled_from(list(Boundary)),
    kind=st.sampled_from(["pinning", "kostin"]),
    seed=SEEDS,
    rate=st.floats(0.1, 5.0),
    node=st.one_of(st.none(), st.integers(1, 254)),
)
def test_force_kernel_matches_the_public_chain_bitwise(boundary, kind, seed, rate, node):
    # the collapse step's per-run kernel and the public Field functions run
    # the same raw cores, so their Phi is bitwise equal. The box states have
    # masked tails; node puts a double zero 1 - cos(2 pi (x - x_node) / L)
    # at a grid point, which is masked. On a periodic grid that node mostly
    # makes the force wind (the masked point's force is missing from its
    # mean), and then both raise PeriodicityViolation.
    psi = _drawn_state(boundary, seed, 6, 0.35)
    g = psi.grid
    if node is not None:
        psi = Field(g, psi.values * (1.0 - np.cos(2 * np.pi * (g.x - g.x[node]) / g.length)))
    if kind == "pinning":
        force = pinning_force(_drawn_state(boundary, seed + 1, 4, 0.3), rate)
    else:
        force = kostin_friction(rate)
    outcomes = []
    for phi in (
        lambda: evolve._gauge_kernel(force, g, DEFAULT_NODE_THRESHOLD)(psi.values),
        lambda: gauge_potential(evaluate(force, psi_to_p(psi))).values,
    ):
        try:
            outcomes.append(phi())
        except PeriodicityViolation as exc:
            assert boundary is Boundary.PERIODIC and node is not None, exc
            outcomes.append(PeriodicityViolation)
    kernel, public = outcomes
    if kernel is PeriodicityViolation or public is PeriodicityViolation:
        assert kernel is public
    else:
        assert np.array_equal(kernel, public)
