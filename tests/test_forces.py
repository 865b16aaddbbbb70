"""Collapse forces and their gauge-potential lift."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqhjlab import (
    Boundary,
    Field,
    ForceKind,
    Grid,
    cumulative_integral,
    evaluate,
    gauge_potential,
    gradient,
    ho_eigenstate,
    kostin_friction,
    make_field,
    null_force,
    pinning_force,
    psi_to_p,
    superpose,
    unwrapped_phase,
)
from cqhjlab.cqhj import DEFAULT_NODE_THRESHOLD
from cqhjlab.errors import GridMismatch, PeriodicityViolation
from cqhjlab.evolve import _gauge_kernel
from cqhjlab.forces import GAUGE_MEAN_TOLERANCE
from cqhjlab.grid import _fd_matrix


def test_pinning_fixed_point_zero_field(ho_setup):
    grid, _, pairs = ho_setup
    force = pinning_force(pairs[0], 5.0)
    p = psi_to_p(pairs[0].state)
    f = evaluate(force, p)
    assert np.max(np.abs(f.values)) == 0.0  # identical arrays cancel exactly


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


def test_pinning_accepts_eigenpair_and_momentum_field(ho_setup):
    grid, _, pairs = ho_setup
    via_pair = pinning_force(pairs[0], 1.0)
    via_p = pinning_force(psi_to_p(pairs[0].state), 1.0)
    assert via_pair.kind is ForceKind.PINNING
    assert np.max(np.abs(via_pair.target.values - via_p.target.values)) <= 1e-14


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
    # the collapse step's per-run kernel runs the same cores
    kernel = _gauge_kernel(force, g, DEFAULT_NODE_THRESHOLD)
    assert np.array_equal(kernel(psi.values), expected)


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
def test_force_chain_outputs_are_read_only_and_unshared(boundary):
    g, psi, target = _chain_inputs(boundary)
    p = psi_to_p(psi)
    pairs = [
        (gradient(psi).values, psi.values),
        (p.values, psi.values),
        (p.node_mask, psi.values),
    ]
    for force in (pinning_force(target, 2.5), kostin_friction(0.4), null_force()):
        f = evaluate(force, p)
        pairs += [(f.values, p.values), (gauge_potential(f).values, f.values)]
    for out, source in pairs:
        assert not out.flags.writeable
        assert not np.shares_memory(out, source)
        with pytest.raises(ValueError):
            out[0] = out[1]
