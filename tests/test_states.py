"""Reference states: packets, oscillator eigenstates, eigensolver, superpositions."""

import numpy as np
import pytest

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    IntegratorSpec,
    Method,
    box_potential,
    collapsible_evolve,
    double_well_potential,
    fidelity,
    free_potential,
    gaussian_packet,
    harmonic_potential,
    ho_eigenstate,
    norm,
    null_force,
    schrodinger_evolve,
    solve_eigenstates,
    superpose,
)
from cqhjlab import states, verify
from cqhjlab.errors import DomainOverflow, GridMismatch, UnresolvedState, ZeroState
from cqhjlab.grid import _scaled_rows
from cqhjlab.states import (
    hamiltonian,
    hamiltonian_residual,
    position_expectation,
    position_variance,
)

CN = Method.CRANK_NICOLSON


def test_equal_potentials_are_equal_and_hash_alike():
    # same grid and bitwise-equal samples in distinct arrays; the Hamiltonian
    # cache is keyed on the potential itself
    g = Grid(-8.0, 8.0, 64, Boundary.PERIODIC)
    a = harmonic_potential(g, 1.0)
    b = harmonic_potential(Grid(-8.0, 8.0, 64, Boundary.PERIODIC), 1.0)
    assert a.samples is not b.samples
    assert a == b and hash(a) == hash(b)
    assert a != harmonic_potential(g, 2.0)
    assert a != harmonic_potential(Grid(-8.0, 8.0, 64, Boundary.BOX), 1.0)
    assert a != a.grid
    assert hamiltonian(a, CN) is hamiltonian(b, CN)


def test_packet_unit_norm(periodic_grid):
    p = gaussian_packet(periodic_grid, 0.0, 0.0, 1.0)
    assert abs(norm(p) - 1.0) <= 1e-12


def test_packet_centroid(periodic_grid):
    p = gaussian_packet(periodic_grid, 1.5, 0.0, 1.0)
    assert abs(position_expectation(p) - 1.5) <= 1e-10


def test_packet_variance_moment_oracle(periodic_grid):
    # |psi|^2 ~ exp(-x^2/sigma^2) has variance sigma^2/2
    p = gaussian_packet(periodic_grid, 0.0, 0.7, 1.0)
    assert abs(position_variance(p) - 0.5) <= 1e-8


def _two_pass_variance(psi):
    """The variance with its mean from position_expectation, which scales
    and squares the state a second time."""
    dens = _scaled_rows(psi.grid, psi.values[None])[1][0] ** 2
    w = psi.grid.quadrature_weights
    mean = position_expectation(psi)
    return float(np.dot(w, (psi.grid.x - mean) ** 2 * dens) / np.dot(w, dens))


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-310])
def test_position_variance_scales_the_state_once(periodic_grid, monkeypatch, scale):
    # one scaled density serves the mean and the spread, and the variance is
    # bitwise the two-pass formula's, at any finite scale of the state
    psi = Field(periodic_grid, gaussian_packet(periodic_grid, 0.8, 0.7, 1.5).values * scale)
    calls = []

    def spy(g, values):
        calls.append(len(values))
        return _scaled_rows(g, values)

    monkeypatch.setattr(states, "_scaled_rows", spy)
    var = position_variance(psi)
    assert calls == [1]
    assert var.hex() == _two_pass_variance(psi).hex()


def test_free_packet_spreading_measures_the_two_pass_variance(monkeypatch):
    # the one verify check that takes a variance measures the same value,
    # to the last digit of its repr, as with the two-pass formula
    measured = verify._free_spreading()[0]
    monkeypatch.setattr(verify, "position_variance", _two_pass_variance)
    assert repr(verify._free_spreading()[0]) == repr(measured)


def test_packet_resolution_guard():
    g = Grid(-10.0, 10.0, 64, Boundary.BOX)
    with pytest.raises(UnresolvedState):
        gaussian_packet(g, 0.0, 0.0, 0.5 * g.dx)


def test_packet_domain_guard():
    g = Grid(-4.0, 4.0, 256, Boundary.BOX)
    with pytest.raises(DomainOverflow):
        gaussian_packet(g, 1.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "x0", [20.0, -20.0, 8.0, -8.0], ids=["right", "left", "right-edge", "left-edge"]
)
@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
def test_packet_centre_off_the_grid_is_a_domain_overflow(boundary, x0):
    # the envelope's edge test alone passes a centre far outside the grid:
    # at x0 = 20 the box packet used to peak on the wall x = 8, where psi
    # must vanish
    g = Grid(-8.0, 8.0, 256, boundary)
    with pytest.raises(DomainOverflow, match="not inside the grid"):
        gaussian_packet(g, x0, 0.0, 1.0)


def test_ho_ground_energy(periodic_grid):
    pair = ho_eigenstate(0, 1.0, periodic_grid)
    assert pair.energy == pytest.approx(0.5)
    assert abs(norm(pair.state) - 1.0) <= 1e-10


def test_ho_excited_energy_and_nodes(periodic_grid):
    pair = ho_eigenstate(3, 1.0, periodic_grid)
    assert pair.energy == pytest.approx(3.5)
    prof = pair.state.values.real
    sgn = np.sign(prof[np.abs(prof) > 1e-8 * np.max(np.abs(prof))])
    assert int(np.sum(sgn[1:] * sgn[:-1] < 0)) == 3


def test_ho_discrete_residual(periodic_grid):
    pair = ho_eigenstate(0, 2.0, periodic_grid)
    V = harmonic_potential(periodic_grid, 2.0)
    assert hamiltonian_residual(pair, V) <= 1e-6


def test_ho_unresolved_grid_raises():
    g = Grid(-10.0, 10.0, 128, Boundary.BOX)
    with pytest.raises(UnresolvedState):
        ho_eigenstate(3, 1.0, g)


def test_eigensolver_harmonic_ladder():
    g = Grid(-8.0, 8.0, 3072, Boundary.BOX)
    pairs = solve_eigenstates(hamiltonian(harmonic_potential(g, 1.0), CN), 4)
    for j, pair in enumerate(pairs):
        assert abs(pair.energy - (j + 0.5)) <= 1e-4


def test_eigensolver_box_well_ground():
    # particle in a box of width 1: ground energy pi^2/2 in these units
    g = Grid(0.0, 1.0, 201, Boundary.BOX)
    pairs = solve_eigenstates(hamiltonian(box_potential(g), CN), 1)
    assert abs(pairs[0].energy - np.pi**2 / 2) <= 1e-3


def test_eigensolver_orthonormality():
    g = Grid(-8.0, 8.0, 1024, Boundary.BOX)
    pairs = solve_eigenstates(hamiltonian(harmonic_potential(g, 1.0), CN), 5)
    for i in range(5):
        for j in range(5):
            a, b = pairs[i].state, pairs[j].state
            ov = np.sqrt(fidelity(a, b)) if i != j else norm(a) ** 2
            assert ov <= 1e-8 if i != j else abs(ov - 1.0) <= 1e-10


def test_eigensolver_energies_nondecreasing():
    g = Grid(-6.0, 6.0, 512, Boundary.BOX)
    pairs = solve_eigenstates(hamiltonian(double_well_potential(g, 1.0, 1.5), CN), 6)
    energies = [p.energy for p in pairs]
    assert energies == sorted(energies)


def test_eigensolver_matches_analytic_states():
    g = Grid(-8.0, 8.0, 2048, Boundary.BOX)
    pairs = solve_eigenstates(hamiltonian(harmonic_potential(g, 1.0), CN), 6)
    for n in range(6):
        ana = ho_eigenstate(n, 1.0, g)
        fid = fidelity(pairs[n].state, ana.state)
        assert fid >= 1.0 - 1e-6


@pytest.mark.parametrize("method", [Method.CRANK_NICOLSON, Method.SPLIT_STEP])
def test_eigensolver_periodic_free_ring_spectrum(method):
    # Crank-Nicolson's wrapped 5-point operator -1/2 D2 on n points has the
    # exact spectrum E_j = (15 - 16 cos t_j + cos 2 t_j) / (12 dx^2),
    # t_j = 2 pi j / n; split-step's spectral operator has (2 pi j / L)^2 / 2
    g = Grid(-4.0, 4.0, 64, Boundary.PERIODIC)
    pairs = solve_eigenstates(hamiltonian(free_potential(g), method), 8)
    if method is Method.CRANK_NICOLSON:
        theta = 2.0 * np.pi * np.arange(g.n_points) / g.n_points
        spectrum = (15.0 - 16.0 * np.cos(theta) + np.cos(2.0 * theta)) / (12.0 * g.dx**2)
    else:
        j = np.arange(-g.n_points // 2, g.n_points // 2)
        spectrum = 0.5 * (2.0 * np.pi * j / g.length) ** 2
    exact = np.sort(spectrum)[:8]
    energies = np.array([pair.energy for pair in pairs])
    assert np.max(np.abs(energies - exact)) <= 1e-10 * exact.max()
    for pair in pairs:
        assert abs(norm(pair.state) - 1.0) <= 1e-12


def test_solver_built_state_is_stationary_under_crank_nicolson():
    # the eigensolver diagonalizes the operator the propagator steps with;
    # a 3-point Hamiltonian's state drifted 4.1e-5 in density here
    g = Grid(-5.0, 5.0, 256, Boundary.BOX)
    V = double_well_potential(g, 1.0, 1.5)
    psi0 = solve_eigenstates(hamiltonian(V, CN), 2)[1].state
    spec = IntegratorSpec(CN, 1e-3, True)
    traj = collapsible_evolve(psi0, V, null_force(), spec, 0.05, snapshot_stride=10**9)
    drift = np.max(np.abs(np.abs(traj.final_state.values) ** 2 - np.abs(psi0.values) ** 2))
    assert drift <= 1e-10


def _periodic_double_well_state(method):
    g = Grid(-8.0, 8.0, 256, Boundary.PERIODIC)
    V = double_well_potential(g, 1.0, 1.5)
    return V, solve_eigenstates(hamiltonian(V, method), 2)[1]


def test_solver_built_state_is_stationary_under_split_step():
    # the eigensolver diagonalizes the spectral operator split-step
    # propagates; the 5-point stencil's state drifted 5.4e-6 here
    V, pair = _periodic_double_well_state(Method.SPLIT_STEP)
    spec = IntegratorSpec(Method.SPLIT_STEP, 5e-5, False)
    traj = schrodinger_evolve(pair.state, V, spec, 1.0, snapshot_stride=10**9)
    assert traj.times[-1] == pytest.approx(1.0)
    drift = np.max(np.abs(np.abs(traj.final_state.values) ** 2 - np.abs(pair.state.values) ** 2))
    assert drift <= 1e-8


@pytest.mark.parametrize("method", [Method.CRANK_NICOLSON, Method.SPLIT_STEP])
def test_periodic_recorded_energy_is_the_eigenvalue(method):
    # the recorded energy is the expectation of the operator the method
    # steps with; periodic Crank-Nicolson recorded the spectral one's, 1.04e-5 off
    V, pair = _periodic_double_well_state(method)
    dt = 1e-3 if method is Method.CRANK_NICOLSON else 5e-5
    traj = schrodinger_evolve(
        pair.state, V, IntegratorSpec(method, dt, False), 40 * dt, snapshot_stride=10
    )
    assert len(traj.observables["energy"]) == 5
    assert np.max(np.abs(traj.observables["energy"] - pair.energy)) <= 1e-12


def test_hamiltonian_keeps_no_dense_matrix():
    # the cached Hamiltonian keeps its sparse stencil matrix; the dense
    # spectral one is built on each access and freed after use
    g = Grid(-4.0, 4.0, 64, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    stencil = hamiltonian(V, CN)
    assert stencil.matrix is stencil.matrix
    spectral = hamiltonian(V, Method.SPLIT_STEP)
    dense = spectral.matrix
    assert isinstance(dense, np.ndarray) and dense is not spectral.matrix
    assert not any(isinstance(a, np.ndarray) and a.ndim == 2 for a in vars(spectral).values())
    psi = gaussian_packet(g, 0.0, 1.0, 0.5).values
    assert np.allclose(dense @ psi, spectral.apply(psi), rtol=0.0, atol=1e-10)


def test_eigensolver_count_guard():
    g = Grid(-8.0, 8.0, 64, Boundary.BOX)
    with pytest.raises(ValueError):
        solve_eigenstates(hamiltonian(harmonic_potential(g, 1.0), CN), 9)


def test_superpose_identity(ho_setup):
    _, _, pairs = ho_setup
    s = superpose([1.0, 0.0], [pairs[0].state, pairs[1].state])
    assert abs(np.sqrt(fidelity(s, pairs[0].state)) - 1.0) <= 1e-12


def test_superpose_equal_weights(ho_setup):
    _, _, pairs = ho_setup
    s = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    for n in (0, 1):
        assert abs(fidelity(s, pairs[n].state) - 0.5) <= 1e-10


def test_superpose_born_arithmetic(ho_setup):
    _, _, pairs = ho_setup
    s = superpose([0.6, 0.8j], [pairs[0].state, pairs[1].state])
    assert abs(fidelity(s, pairs[0].state) - 0.36) <= 1e-10
    assert abs(fidelity(s, pairs[1].state) - 0.64) <= 1e-10


def test_superpose_grid_mismatch(ho_setup, box_grid):
    _, _, pairs = ho_setup
    other = ho_eigenstate(0, 1.0, box_grid)
    with pytest.raises(GridMismatch):
        superpose([1.0, 1.0], [pairs[0].state, other.state])


def test_superpose_accepts_any_finite_scale_of_its_coefficients(ho_setup):
    # the coefficients are scaled by a power of two before any product, and
    # the cancellation test is relative to the largest of them
    _, _, pairs = ho_setup
    states = [pairs[0].state, pairs[1].state]
    big = superpose([1e300, 1.0], states)
    assert abs(norm(big) - 1.0) <= 1e-14
    assert np.max(np.abs(big.values - superpose([1.0, 1e-300], states).values)) <= 1e-14
    tiny = superpose([1e-170, 1e-170], states)
    assert np.max(np.abs(tiny.values - superpose([1.0, 1.0], states).values)) <= 1e-14


def test_superpose_zero_state(ho_setup):
    _, _, pairs = ho_setup
    with pytest.raises(ZeroState):
        superpose([0.0, 0.0], [pairs[0].state, pairs[1].state])
    with pytest.raises(ZeroState):
        superpose([1.0, -1.0], [pairs[0].state, pairs[0].state])
