"""Collapse forces and their gauge-potential lift."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqhjlab import (
    Boundary,
    Field,
    ForceKind,
    Grid,
    Method,
    MomentumField,
    cumulative_integral,
    evaluate,
    gauge_potential,
    gradient,
    hamiltonian,
    hamiltonian_field_from_state,
    harmonic_potential,
    ho_eigenstate,
    kostin_friction,
    laplacian,
    make_field,
    null_force,
    p_to_psi,
    pinning_force,
    psi_to_p,
    superpose,
    unwrapped_phase,
)
from cqhjlab.cqhj import DEFAULT_NODE_THRESHOLD
from cqhjlab.errors import AllMasked, GridMismatch, NonFiniteField, PeriodicityViolation
from cqhjlab.evolve import _gauge_kernel
from cqhjlab.forces import GAUGE_MEAN_TOLERANCE, _force_law
from cqhjlab.grid import _fd_matrix


def test_pinning_fixed_point_zero_field(ho_setup):
    grid, _, pairs = ho_setup
    force = pinning_force(pairs[0], 5.0)
    p = psi_to_p(pairs[0].state)
    f = evaluate(force, p)
    assert np.max(np.abs(f.values)) == 0.0  # identical arrays cancel exactly


def test_pinning_forces_on_equal_targets_are_equal_and_hash_alike(ho_setup):
    # two distinct but bitwise-equal target fields make equal forces of one
    # hash; another rate, target value or grid makes them differ. A force
    # is its kind, rate and target: the run's node threshold masks the target
    grid, _, pairs = ho_setup
    target = pairs[0].state
    twin = Field(grid, target.values.copy())
    assert twin is not target and twin == target and hash(twin) == hash(target)
    a, b = pinning_force(target, 3.0), pinning_force(twin, 3.0)
    assert list(vars(a)) == ["kind", "rate", "target"]
    assert a == b and hash(a) == hash(b) and len({a, b, null_force()}) == 2
    other_grid = Grid(-12.0, 12.0, grid.n_points, Boundary.BOX)
    assert twin != Field(other_grid, target.values)
    assert twin != Field(grid, target.values * (1 + 1e-16j))
    assert a != pinning_force(target, 3.5)
    assert a != pinning_force(pairs[1], 3.0)
    assert a != kostin_friction(3.0)


def test_kostin_on_plane_wave():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    psi = make_field(g, np.exp(2j * g.x))
    p = psi_to_p(psi)
    f = evaluate(kostin_friction(0.3), p)
    assert np.max(np.abs(f.values - (-0.6))) <= 1e-10


def test_pinning_acts_on_superpositions(ho_box_setup):
    # box grid: the gauge lift of a node-crossing force field is not
    # single-valued on a periodic domain
    grid, _, pairs = ho_box_setup
    psi = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    force = pinning_force(pairs[0], 1.0)
    p = psi_to_p(psi)
    f = evaluate(force, p)
    assert np.max(np.abs(f.values)) > 1e-2
    phi = gauge_potential(f)
    ok = ~p.node_mask
    assert np.max(np.abs(phi.values[ok] - phi.values[ok][0])) > 1e-2  # non-constant


@pytest.mark.parametrize("threshold, zeros", [(1e-10, 78), (1e-6, 176), (1e-3, 274)])
def test_evaluate_masks_the_target_at_the_momentum_fields_threshold(ho_box_setup, threshold, zeros):
    # the force vanishes exactly where p or the target's p at p's threshold
    # is masked, so a finer threshold widens its support
    _, _, pairs = ho_box_setup
    p = psi_to_p(pairs[1].state, threshold)
    f = evaluate(pinning_force(pairs[0], 1.0), p).values
    masked = p.node_mask | psi_to_p(pairs[0].state, threshold).node_mask
    assert np.array_equal(f == 0.0, masked) and masked.sum() == zeros


def test_force_homogeneity(ho_box_setup):
    grid, _, pairs = ho_box_setup
    psi = superpose([0.8, 0.6j], [pairs[0].state, pairs[1].state])
    c = 1.9 * np.exp(0.7j)
    for force in (pinning_force(pairs[0], 2.0), kostin_friction(0.4)):
        f1 = evaluate(force, psi_to_p(psi)).values
        f2 = evaluate(force, psi_to_p(Field(grid, c * psi.values))).values
        assert np.max(np.abs(f1 - f2)) <= 1e-12


def test_grid_mismatch(ho_setup, box_grid):
    _, _, pairs = ho_setup
    force = pinning_force(pairs[0], 1.0)
    other = ho_eigenstate(0, 1.0, box_grid)
    p = psi_to_p(other.state)
    with pytest.raises(GridMismatch):
        evaluate(force, p)


def test_null_force_zero_field(ho_setup):
    grid, _, pairs = ho_setup
    p = psi_to_p(pairs[0].state)
    f = evaluate(null_force(), p)
    assert np.max(np.abs(f.values)) == 0.0
    assert np.max(np.abs(gauge_potential(f).values)) == 0.0


def test_gauge_potential_constant_force():
    g = Grid(-3.0, 5.0, 257, Boundary.BOX)
    f = make_field(g, np.full(257, 0.7 + 0j))
    phi = gauge_potential(f)
    assert np.max(np.abs(phi.values - 0.7 * (g.x - g.x_min))) <= 1e-10


def _lift_without_mean(f):
    g = f.grid
    mean = np.dot(g.quadrature_weights, f.values) / g.length
    return cumulative_integral(Field(g, f.values - mean)).values


def test_gauge_potential_drops_small_periodic_mean():
    g = Grid(0.0, 10.0, 128, Boundary.PERIODIC)
    wave = 0.8 * np.cos(2 * np.pi * g.x / g.length) + 0.3j * np.sin(6 * np.pi * g.x / g.length)
    f = make_field(g, wave + 2e-7)  # |mean| L = 2e-6, under the 1e-4 tolerance
    phi = gauge_potential(f)
    assert np.array_equal(phi.values, _lift_without_mean(f))
    # periodic: a ramp left in Phi would break its spectral derivative at the wrap
    assert np.max(np.abs(gradient(phi).values - wave)) <= 1e-12


def test_gauge_potential_rejects_mean_past_tolerance_on_long_domain():
    # |mean| L = 1.15e-4, just over the 1e-4 tolerance: a winding force, not
    # residue to drop, even though the ramp it would leave in Phi is small
    g = Grid(0.0, 128.0, 1024, Boundary.PERIODIC)
    f = make_field(g, np.cos(6 * np.pi * g.x / g.length) + 9e-7)
    with pytest.raises(PeriodicityViolation):
        gauge_potential(f)


@settings(max_examples=60, deadline=None)
@given(
    length=st.sampled_from([2 * np.pi, 20.0, 128.0]),
    amplitudes=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
    ratio=st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 100.0)),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_gauge_potential_periodic_mean_is_dropped_or_rejected(length, amplitudes, ratio, angle):
    g = Grid(0.0, length, 128, Boundary.PERIODIC)
    k = 2 * np.pi * np.arange(1, 5)[:, None] * g.x / length
    a = np.asarray(amplitudes)
    wave = a[:4] @ np.cos(k) + 1j * (a[4:] @ np.sin(k))
    scale = max(float(np.max(np.abs(wave))), 1.0)
    mean = ratio * GAUGE_MEAN_TOLERANCE * scale / length * np.exp(1j * angle)
    f = make_field(g, wave + mean)
    if ratio > 1.0:
        with pytest.raises(PeriodicityViolation):
            gauge_potential(f)
        return
    phi = gauge_potential(f)
    assert np.array_equal(phi.values, _lift_without_mean(f))
    assert np.max(np.abs(gradient(phi).values - wave)) <= 1e-10 * scale


def test_kostin_gauge_is_phase_profile(periodic_grid):
    # Phi for -gamma Re(p) equals -gamma (theta - theta_left) with theta
    # the unwrapped phase, since Re p is the phase gradient
    from cqhjlab import random_nodeless_state

    psi = random_nodeless_state(periodic_grid, np.random.default_rng(12))
    gamma = 0.4
    p = psi_to_p(psi)
    f = evaluate(kostin_friction(gamma), p)
    phi = gauge_potential(f)
    theta = unwrapped_phase(psi)
    oracle = -gamma * (theta - theta[0])
    assert np.max(np.abs(phi.values - oracle)) <= 1e-8


def test_constructor_guards(ho_setup):
    _, _, pairs = ho_setup
    with pytest.raises(ValueError):
        pinning_force(pairs[0], 0.0)
    with pytest.raises(ValueError):
        kostin_friction(-1.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_constructors_reject_non_finite_rates(ho_setup, rate):
    # the collapse step takes its time factor and its steps per
    # renormalization from the rate, so a NaN or infinite one is refused
    # where it is given
    _, _, pairs = ho_setup
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        pinning_force(pairs[0], rate)
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        kostin_friction(rate)


def test_pinning_accepts_eigenpair_and_momentum_field(ho_setup):
    grid, _, pairs = ho_setup
    p = psi_to_p(pairs[0].state)
    via_pair = pinning_force(pairs[0], 1.0)
    assert via_pair.kind is ForceKind.PINNING and via_pair.rate == 1.0
    assert via_pair.target is pairs[0].state
    via_field = pinning_force(pairs[0].state, 1.0)
    assert np.array_equal(evaluate(via_field, p).values, evaluate(via_pair, p).values)
    # a momentum field is not a pointer state: the force needs the target's
    # wave function, which p_to_psi gives back up to a scale
    with pytest.raises(TypeError, match=r"p_to_psi\(p\)\[0\]"):
        pinning_force(p, 1.0)


def test_pinning_rejects_an_all_masked_or_non_finite_target(ho_setup):
    grid, _, pairs = ho_setup
    with pytest.raises(AllMasked, match="^wave function vanishes identically$"):
        pinning_force(Field(grid, np.zeros(grid.n_points)), 1.0)
    vals = pairs[0].state.values.copy()
    vals[3] = np.nan
    with pytest.raises(NonFiniteField, match="^field contains NaN or Inf entries$"):
        pinning_force(Field(grid, vals), 1.0)


def _chain_inputs(boundary):
    """A state with masked points and a nodeless-enough target: on the box
    grid an oscillator superposition with one interior point set to zero
    (its tails are masked too); on the periodic grid (1 - cos x) exp(g),
    masked at its double zero x = 0."""
    if boundary is Boundary.BOX:
        g = Grid(-8.0, 8.0, 512, Boundary.BOX)
        phi0, phi1 = (ho_eigenstate(n, 1.0, g).state.values for n in (0, 1))
        vals = phi0 + 0.6j * phi1
        vals[200] = 0.0
        return g, Field(g, vals), Field(g, phi0)
    g = Grid(0.0, 2 * np.pi, 256, Boundary.PERIODIC)
    vals = (1.0 - np.cos(g.x)) * np.exp(0.3 * np.sin(g.x) + 0.2j * np.cos(2 * g.x))
    return g, Field(g, vals), Field(g, np.exp(0.1j * np.sin(g.x)))


def _chain_by_hand(g, psi, kind, rate, target):
    """Phi of the force on psi, written out: 4th-order FD matrix or FFT
    derivative, node mask, force with masked points zeroed, mean drop on
    periodic grids, cumsum trapezoid (box) or spectral antiderivative."""
    n, dx, periodic = g.n_points, g.dx, g.boundary is Boundary.PERIODIC
    k = 2 * np.pi * np.fft.fftfreq(n, d=dx)

    def d(v):
        if periodic:
            mult = 1j * k
            mult[n // 2] = 0.0  # unpaired Nyquist mode
            return np.fft.ifft(mult * np.fft.fft(v))
        return (_fd_matrix(n, 1, False) @ v) / dx

    def p_and_mask(v):
        mask = np.abs(v) < 1e-6 * np.abs(v).max()
        p = np.zeros(n, dtype=complex)
        p[~mask] = -1j * d(v)[~mask] / v[~mask]
        return p, mask

    p, mask = p_and_mask(psi)
    if kind is ForceKind.PINNING:
        pt, mask_t = p_and_mask(target)
        F = -rate * (p - pt)
        F[mask | mask_t] = 0.0
    else:
        F = -rate * p.real.astype(complex)
        F[mask] = 0.0
    if periodic:
        F = F - np.dot(np.full(n, dx), F) / g.length
        fhat = np.fft.fft(F)
        with np.errstate(divide="ignore", invalid="ignore"):
            Phi_hat = np.where(k != 0.0, fhat / (1j * k), 0.0)
        Phi_hat[n // 2] = 0.0  # unpaired Nyquist mode, as in d(v)
        Phi = np.fft.ifft(Phi_hat) + fhat[0] / n * (g.x - g.x_min)
        return Phi - Phi[0], mask
    Phi = np.zeros(n, dtype=complex)
    Phi[1:] = np.cumsum(dx * (F[1:] + F[:-1]) / 2.0)
    fp = d(F)
    return Phi - (dx**2 / 12.0) * (fp - fp[0]), mask


def _pair_phi_by_hand(psi: Field, rate: float, target: Field | None, threshold: float):
    """Phi of the collapse step's pair route, written out. Each pair of
    neighbouring points (j, j + 1), with the wrap pair (N - 1, 0) on a
    periodic grid, has the action increment
    1/2 angle((psi[j+1] conj psi[j])^2) - i (log|psi[j+1]| - log|psi[j]|);
    the pair force is -rate (inc - the target's inc) for pinning and
    -rate Re inc for Kostin friction (target None), zero on every pair
    touching a point of psi or of the target below threshold times its
    peak. Phi is their cumulative sum from 0 at the cut: the left wall of a
    box; on a ring the first point whose left pair (N - 1, 0 for point 0)
    is masked, or with no masked pair the point 0, unless the pair forces
    sum to -rate pi n with n != 0, when PeriodicityViolation is returned."""
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
    if not periodic:
        return np.concatenate([[0.0], np.cumsum(f)])
    if masked.any():
        cut = min((np.flatnonzero(masked) + 1) % g.n_points)
    elif round(f.sum().real / (np.pi * rate)) != 0:
        return PeriodicityViolation
    else:
        cut = 0
    order = (cut + np.arange(g.n_points)) % g.n_points  # the points from the cut on
    phi = np.empty(g.n_points, complex)
    phi[order] = np.concatenate([[0.0], np.cumsum(f[order[:-1]])])
    return phi


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
@pytest.mark.parametrize("kind", [ForceKind.PINNING, ForceKind.KOSTIN_FRICTION])
def test_force_chain_matches_explicit_formula_bitwise(boundary, kind):
    g, psi, target = _chain_inputs(boundary)
    force = pinning_force(target, 2.5) if kind is ForceKind.PINNING else kostin_friction(0.4)
    rate = 2.5 if kind is ForceKind.PINNING else 0.4
    p = psi_to_p(psi)
    phi = gauge_potential(evaluate(force, p))
    expected, mask = _chain_by_hand(g, psi.values, kind, rate, target.values)
    assert mask.sum() >= 1 and not mask.all()
    assert np.array_equal(p.node_mask, mask)
    assert np.array_equal(phi.values, expected)
    # the collapse step's per-run kernel lifts the pair forces instead; on
    # the periodic grid it cuts the ring at the masked pairs of the double
    # zero, whose ring sum (3.9e-2 under pinning) the tolerance of the
    # derivative route rejected
    kernel = _gauge_kernel(force, g, DEFAULT_NODE_THRESHOLD)
    pairs = _pair_phi_by_hand(
        psi, rate, target if kind is ForceKind.PINNING else None, DEFAULT_NODE_THRESHOLD
    )
    assert np.array_equal(kernel(psi.values), pairs)


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
def test_force_chain_outputs_are_read_only_and_unshared(boundary):
    # every Field and MomentumField the chain returns holds fresh frozen
    # arrays, and no call changes the writeable flag of an array it reads
    g, psi, target = _chain_inputs(boundary)
    H = hamiltonian(harmonic_potential(g, 1.0), Method.CRANK_NICOLSON)
    outputs = []

    def arrays(x):
        if isinstance(x, MomentumField):
            return [x.values, x.node_mask]
        return [x.values] if isinstance(x, Field) else []

    def checked(fn, *inputs):
        sources = [a for x in inputs for a in arrays(x)]
        flags = [a.flags.writeable for a in sources]
        out = fn(*inputs)
        assert [a.flags.writeable for a in sources] == flags
        out = out[0] if isinstance(out, tuple) else out
        outputs.extend((a, sources) for a in arrays(out))
        return out

    p = checked(psi_to_p, psi)
    checked(laplacian, psi)
    checked(cumulative_integral, checked(gradient, psi))
    checked(p_to_psi, psi_to_p(Field(g, np.exp(0.1j * np.sin(g.x)))))
    checked(hamiltonian_field_from_state, psi, H)
    for force in (pinning_force(target, 2.5), kostin_friction(0.4), null_force()):
        checked(gauge_potential, checked(evaluate, force, p))
    for out, sources in outputs:
        assert not out.flags.writeable
        assert not any(np.shares_memory(out, source) for source in sources)
        with pytest.raises(ValueError):
            out[0] = out[1]


def test_winding_momentum_field_target_keeps_its_increments():
    # one unit of ring momentum: the target's increments, taken from its
    # wave function, are k0 dx on every pair including the wrap pair
    g = Grid(-8.0, 8.0, 128, Boundary.PERIODIC)
    k0 = 2.0 * np.pi / g.length
    wave = Field(g, np.exp(1j * k0 * g.x))
    _, inc, masked = _force_law(pinning_force(wave, 1.0), g)
    assert not masked.any()
    assert np.max(np.abs(inc - k0 * g.dx)) <= 1e-14
