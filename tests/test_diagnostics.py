"""Observables, collapse-time extraction, dimensionless measure, units."""

import math

import numpy as np
import pytest

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    Method,
    Trajectory,
    UnitSystem,
    collapse_time,
    dimensionless_measure,
    energy,
    energy_spread,
    fidelity,
    free_potential,
    gaussian_packet,
    hamiltonian,
    hamiltonian_field_from_state,
    harmonic_potential,
    ho_eigenstate,
    make_field,
    make_collapse_report,
    superpose,
)
from cqhjlab.cqhj import masked_stats
from cqhjlab.diagnostics import BRACKET_MAX_S, BRACKET_MIN_S, HBAR_SI
from cqhjlab.errors import GridMismatch, NonFiniteField, ZeroSpread, ZeroState
from cqhjlab.states import position_expectation, position_variance


def fake_trajectory(times, fidelities):
    return Trajectory(
        times=np.asarray(times, float),
        snapshots=[None] * len(times),
        observables={"fidelity_target": np.asarray(fidelities, float)},
    )


def test_fidelity_self_and_orthogonal(ho_setup):
    _, _, pairs = ho_setup
    assert fidelity(pairs[0].state, pairs[0].state) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(pairs[0].state, pairs[1].state) <= 1e-10


def test_fidelity_born_weights(ho_setup):
    _, _, pairs = ho_setup
    s = superpose([0.6, 0.8], [pairs[0].state, pairs[1].state])
    assert abs(fidelity(s, pairs[1].state) - 0.64) <= 1e-10


def test_fidelity_scale_invariance(ho_setup):
    grid, _, pairs = ho_setup
    a = pairs[0].state
    b = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    scaled = make_field(grid, 3.7j * b.values)
    assert abs(fidelity(a, b) - fidelity(a, scaled)) <= 1e-12
    assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-12


def test_fidelity_guards(ho_setup, box_grid):
    grid, _, pairs = ho_setup
    other = ho_eigenstate(0, 1.0, box_grid)
    with pytest.raises(GridMismatch):
        fidelity(pairs[0].state, other.state)
    with pytest.raises(ZeroState):
        fidelity(pairs[0].state, make_field(grid, np.zeros(grid.n_points)))


def test_energy_spread_of_zero_state_raises(ho_setup):
    grid, V, _ = ho_setup
    H = hamiltonian(V, Method.CRANK_NICOLSON)
    zero = make_field(grid, np.zeros(grid.n_points))
    with pytest.raises(ZeroState):
        energy_spread(zero, H)
    with pytest.raises(ZeroState):
        dimensionless_measure(1.0, zero, H)


def spectral(V):
    """The spectral Hamiltonian of a periodic grid's potential."""
    return hamiltonian(V, Method.SPLIT_STEP)


def test_energy_eigenstates(ho_setup):
    grid, V, pairs = ho_setup
    for pair in pairs:
        assert abs(energy(pair.state, spectral(V)) - pair.energy) <= 1e-6


def test_energy_plane_wave():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    k = 3.0
    psi = make_field(g, np.exp(1j * k * g.x))
    assert abs(energy(psi, spectral(free_potential(g))) - k * k / 2) <= 1e-10


def test_energy_superposition_average(ho_setup):
    grid, V, pairs = ho_setup
    s = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    assert abs(energy(s, spectral(V)) - 1.0) <= 1e-6


@pytest.mark.parametrize("scale", [1e305, 1e160, 1e100, 1e-100, 1e-160, 1e-200, 1e-310])
@pytest.mark.parametrize(
    "boundary, method",
    [(Boundary.BOX, Method.CRANK_NICOLSON), (Boundary.PERIODIC, Method.SPLIT_STEP)],
)
def test_observables_are_scale_free(boundary, method, scale):
    # energy, energy_spread, fidelity, the position moments and the H field
    # are of degree zero in psi: a state whose squares would overflow or
    # underflow is divided by max|psi| first, as grid.norm does, and the
    # fidelity of two states inside that range (1e100 and 1e-100) takes the
    # ratio of |<a|b>| to the product of their norms before squaring it.
    # At 1e305 H psi would overflow unscaled, and a subnormal peak (1e-310)
    # is divided one real part at a time, as the reciprocal of it overflows.
    # The H field's moments are compared with those of the same values
    # brought to unit scale by the exact power of two 2^-e, scale = m 2^e:
    # at 1e-310 the tails are subnormals that keep fewer bits than psi's.
    # The moments run over tails down to 1e-5 of the peak, where the
    # spectral (H psi)/psi magnifies the rounding of the division by the
    # peak to 3e-11
    g = Grid(-8.0, 8.0, 512, boundary)
    V = harmonic_potential(g, 1.0)
    H = hamiltonian(V, method)
    ground, excited = (ho_eigenstate(n, 1.0, g).state for n in (0, 1))
    psi = superpose([1.0, 1.0], [ground, excited])
    big = make_field(g, scale * psi.values)
    assert abs(energy(big, H) - energy(psi, H)) <= 1e-12
    assert abs(energy_spread(big, H) - energy_spread(psi, H)) <= 1e-12
    assert abs(fidelity(big, ground) - fidelity(psi, ground)) <= 1e-12
    assert abs(fidelity(ground, big) - fidelity(ground, psi)) <= 1e-12
    assert abs(fidelity(big, big) - 1.0) <= 1e-12
    assert abs(position_expectation(big) - position_expectation(psi)) <= 1e-12
    assert abs(position_variance(big) - position_variance(psi)) <= 1e-12
    unit = Field(g, np.ldexp(big.values.view(float), -math.frexp(scale)[1]).view(complex))
    field, mask = hamiltonian_field_from_state(unit, H, 1e-5)
    big_field, big_mask = hamiltonian_field_from_state(big, H, 1e-5)
    assert np.array_equal(big_mask, mask)
    (mean, std), (big_mean, big_std) = masked_stats(field, mask), masked_stats(big_field, big_mask)
    assert abs(big_mean - mean) <= 1e-10
    assert abs(big_std - std) <= 1e-10


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
def test_energy_of_non_finite_field_raises(boundary):
    g = Grid(-8.0, 8.0, 128, boundary)
    values = gaussian_packet(g, 0.0, 0.0, 1.0).values.copy()
    values[64] = np.nan
    H = hamiltonian(free_potential(g), Method.CRANK_NICOLSON)
    with pytest.raises(NonFiniteField):
        energy(Field(g, values), H)
    with pytest.raises(NonFiniteField):
        energy_spread(Field(g, values), H)


def test_collapse_time_at_start():
    traj = fake_trajectory([0.0, 1.0, 2.0], [0.9995, 0.9999, 1.0])
    assert collapse_time(traj, 1e-3) == 0.0


def test_collapse_time_not_reached():
    traj = fake_trajectory([0.0, 1.0, 2.0], [0.2, 0.3, 0.4])
    assert collapse_time(traj, 1e-3) is None


def test_collapse_time_interpolates():
    traj = fake_trajectory([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
    # threshold 0.9 crossed linearly between t=1 and t=2
    assert collapse_time(traj, 0.1) == pytest.approx(1.8)


def test_collapse_time_after_a_non_finite_fidelity_is_the_crossing_snapshot():
    # cqhj_evolve records NaN observables for winding fields; with no finite
    # fidelity before the crossing there is nothing to interpolate from
    traj = fake_trajectory([0.0, 1.0, 2.0, 3.0], [0.5, np.nan, 0.9995, 1.0])
    assert collapse_time(traj, 1e-3) == 2.0
    traj = fake_trajectory([0.0, 1.0, 2.0], [-np.inf, 0.9995, 1.0])
    assert collapse_time(traj, 1e-3) == 1.0


def test_collapse_time_monotone_in_epsilon():
    fids = np.linspace(0.0, 1.0, 21)
    traj = fake_trajectory(np.linspace(0.0, 2.0, 21), fids)
    taus = [collapse_time(traj, eps) for eps in (0.3, 0.2, 0.1, 0.01)]
    assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_collapse_time_epsilon_guard():
    traj = fake_trajectory([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        collapse_time(traj, 0.7)


def test_collapse_time_without_fidelity_series_is_value_error():
    traj = Trajectory(times=np.zeros(1), snapshots=[None], observables={"norm": np.ones(1)})
    with pytest.raises(ValueError, match="no fidelity-to-target series"):
        collapse_time(traj, 1e-3)


def test_dimensionless_measure_two_level(ho_setup):
    grid, V, pairs = ho_setup
    psi = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
    # spread of a 50/50 two-level mix with gap 1 is 1/2
    H = spectral(V)
    assert abs(energy_spread(psi, H) - 0.5) <= 1e-6
    assert dimensionless_measure(3.0, psi, H) == pytest.approx(1.5, rel=1e-6)
    assert dimensionless_measure(6.0, psi, H) == pytest.approx(3.0, rel=1e-6)


def test_dimensionless_measure_eigenstate_rejected(ho_setup):
    grid, V, pairs = ho_setup
    with pytest.raises(ZeroSpread):
        dimensionless_measure(1.0, pairs[0].state, spectral(V))


def test_unit_system_electron_nanometer():
    u = UnitSystem(mass_kg=9.1093837015e-31, length_m=1e-9)
    want = 9.1093837015e-31 * 1e-18 / HBAR_SI
    assert u.time_scale_s == pytest.approx(want, rel=1e-12)
    assert u.time_scale_s == pytest.approx(8.64e-15, rel=1e-2)
    assert u.to_si(1.0) < BRACKET_MIN_S  # below the experimental window


@pytest.mark.parametrize(
    "mass_kg, length_m",
    [(float("nan"), 1e-9), (9.1e-31, float("nan")), (float("inf"), 1e-9), (9.1e-31, float("inf")),
     (0.0, 1e-9), (9.1e-31, -1e-9)],
)
def test_unit_system_rejects_non_finite_or_non_positive_scales(mass_kg, length_m):
    with pytest.raises(ValueError, match="positive and finite"):
        UnitSystem(mass_kg, length_m)


def test_unit_round_trip():
    u = UnitSystem(mass_kg=1.67e-27, length_m=5e-8)
    for tau in (1e-4, 1.0, 42.0):
        assert u.from_si(u.to_si(tau)) == pytest.approx(tau, rel=1e-12)


def test_bracket_classification():
    # choose the length so the time scale lands inside the window
    u = UnitSystem(mass_kg=9.1093837015e-31, length_m=1e-6)
    assert BRACKET_MIN_S <= u.to_si(1.0) <= BRACKET_MAX_S
    rep = make_collapse_report(1.0, 1e-3, units=u)
    assert rep.in_experimental_bracket
    rep_zero = make_collapse_report(0.0, 1e-3, units=u)
    assert rep_zero.tau_si == 0.0 and not rep_zero.in_experimental_bracket


def test_report_handles_not_reached():
    rep = make_collapse_report(None, 1e-3)
    assert rep.tau_internal is None and rep.tau_si is None and rep.xi is None
    assert not rep.in_experimental_bracket
