"""The psi <-> p map, quantum-Hamiltonian field, closed-form momentum rate
and the residuals of the identity chain behind it."""

import numpy as np
import pytest

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    MomentumField,
    RhsForm,
    cqhj_rhs,
    cqhj_rhs_from_state,
    derivation_residuals,
    fidelity,
    free_potential,
    gaussian_packet,
    gradient,
    hamiltonian_field_from_state,
    harmonic_potential,
    ho_eigenstate,
    make_field,
    norm,
    p_to_psi,
    psi_to_p,
    quantum_hamiltonian_field,
    random_nodeless_state,
    unwrapped_phase,
)
from cqhjlab.cqhj import _masked_gradient, dilated_mask, masked_stats
from cqhjlab.errors import AllMasked, NodePresent, NonFiniteField, PeriodicityViolation
from cqhjlab.grid import _fd_matrix
from cqhjlab.states import custom_potential


def cosine_potential(grid, amplitude=1.5):
    return custom_potential(grid, amplitude * np.cos(2 * np.pi * grid.x / grid.length))


# -- psi -> p -----------------------------------------------------------------


def test_plane_wave_momentum():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    k = 5.0
    psi = make_field(g, np.exp(1j * k * g.x) / np.sqrt(2 * np.pi))
    p = psi_to_p(psi)
    assert not p.node_mask.any()
    assert np.max(np.abs(p.values - k)) <= 1e-10


def test_gaussian_momentum_is_ix(periodic_grid):
    psi = make_field(periodic_grid, np.exp(-periodic_grid.x**2 / 2))
    p = psi_to_p(psi)
    ok = ~p.node_mask
    assert np.max(np.abs(p.values[ok] - 1j * periodic_grid.x[ok])) <= 1e-8


def test_node_masking_first_excited(periodic_grid):
    pair = ho_eigenstate(1, 1.0, periodic_grid)
    p = psi_to_p(pair.state)
    center = periodic_grid.n_points // 2  # x = 0 lies on the grid
    assert p.node_mask[center]
    x = periodic_grid.x
    sel = ~p.node_mask & (np.abs(x) > 0.2) & (np.abs(x) < 4.0)
    oracle = 1j * (x[sel] - 1.0 / x[sel])  # profile x exp(-x^2/2)
    assert np.max(np.abs(p.values[sel] - oracle)) <= 1e-6
    assert np.all(np.isfinite(p.values[~p.node_mask]))


def test_all_masked_raises(periodic_grid):
    with pytest.raises(AllMasked):
        psi_to_p(Field(periodic_grid, np.zeros(periodic_grid.n_points)))


def test_momentum_map_homogeneity(periodic_grid):
    rng = np.random.default_rng(2)
    psi = random_nodeless_state(periodic_grid, rng)
    for _ in range(5):
        c = complex(rng.normal(), rng.normal())
        if abs(c) < 1e-3:
            continue
        p1 = psi_to_p(psi)
        p2 = psi_to_p(Field(periodic_grid, c * psi.values))
        assert np.array_equal(p1.node_mask, p2.node_mask)
        assert np.max(np.abs(p1.values - p2.values)) <= 1e-12


def test_momentum_fields_are_equal_with_equal_fields_and_masks(periodic_grid):
    values = np.exp(1j * periodic_grid.x)
    mask = np.zeros(periodic_grid.n_points, dtype=bool)
    p = MomentumField(Field(periodic_grid, values), mask)
    q = MomentumField(Field(periodic_grid, values.copy()), mask.copy())
    assert p == q and hash(p) == hash(q)
    mask[0] = True
    assert p != MomentumField(p.field, mask)
    assert p != MomentumField(Field(periodic_grid, 2 * values), p.node_mask)


def test_classical_osmotic_decomposition(periodic_grid):
    psi = random_nodeless_state(periodic_grid, np.random.default_rng(4))
    p = psi_to_p(psi)
    theta = unwrapped_phase(psi)
    re_oracle = gradient(make_field(periodic_grid, theta)).values.real
    im_oracle = -gradient(make_field(periodic_grid, np.log(np.abs(psi.values)))).values.real
    assert np.max(np.abs(p.values.real - re_oracle)) <= 1e-8
    assert np.max(np.abs(p.values.imag - im_oracle)) <= 1e-8


# -- p -> psi -----------------------------------------------------------------


def test_constant_momentum_reconstructs_plane_wave():
    g = Grid(-12.0, 12.0, 513, Boundary.BOX)
    p = MomentumField(Field(g, np.full(513, 2.0 + 0j)), np.zeros(513, bool))
    psi, log_scale = p_to_psi(p)
    expected = np.exp(2j * (g.x - g.x_min))
    expected /= norm(make_field(g, expected))
    assert np.max(np.abs(psi.values - expected)) <= 1e-10
    # applying the returned log scale to the raw construction reproduces psi
    raw = np.exp(2j * (g.x - g.x_min))
    assert np.max(np.abs(raw * np.exp(log_scale) - psi.values)) <= 1e-12


def test_round_trip_fidelity():
    g = Grid(-9.0, 10.0, 513, Boundary.BOX)
    psi = gaussian_packet(g, 0.5, 1.0, 1.2)
    p = psi_to_p(psi, node_threshold=1e-15)
    back, _ = p_to_psi(p)
    assert 1.0 - fidelity(psi, back) <= 1e-8


def test_linear_imaginary_momentum_gives_gaussian():
    g = Grid(-12.0, 12.0, 513, Boundary.BOX)
    p = MomentumField(Field(g, 1j * g.x), np.zeros(513, bool))
    psi, _ = p_to_psi(p)
    target = np.exp(-g.x**2 / 2)
    target /= norm(make_field(g, target))
    sel = np.abs(target) > 1e-6 * np.max(np.abs(target))
    rel = np.abs(psi.values[sel] - target[sel]) / np.abs(target[sel])
    assert rel.max() <= 1e-6


def test_p_to_psi_requires_nodeless(periodic_grid):
    pair = ho_eigenstate(1, 1.0, periodic_grid)
    p = psi_to_p(pair.state)
    with pytest.raises(NodePresent):
        p_to_psi(p)


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psi_to_p_rejects_nonfinite_values(boundary, bad):
    g = Grid(-4.0, 4.0, 64, boundary)
    vals = np.exp(-(g.x**2)).astype(complex)
    vals[20] = bad
    with pytest.raises(NonFiniteField):
        psi_to_p(Field(g, vals))


def test_p_to_psi_periodic_winding_rejected():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    p = MomentumField(Field(g, np.full(64, 3.0 + 0j)), np.zeros(64, bool))
    with pytest.raises(PeriodicityViolation):
        p_to_psi(p)


# -- quantum Hamiltonian field ---------------------------------------------------


def test_h_field_plane_wave_free():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    k = 5.0
    psi = make_field(g, np.exp(1j * k * g.x))
    p = psi_to_p(psi)
    H = quantum_hamiltonian_field(p, free_potential(g))
    assert np.max(np.abs(H.values - k * k / 2)) <= 1e-9


def test_h_field_ground_state_constant(ho_setup):
    grid, V, pairs = ho_setup
    p = psi_to_p(pairs[0].state)
    H = quantum_hamiltonian_field(p, V)
    mean, std = masked_stats(H, p.node_mask)
    assert std <= 1e-6
    assert abs(mean.real - 0.5) <= 1e-6


def test_h_field_non_eigenstate_varies(ho_setup):
    grid, V, _ = ho_setup
    psi = gaussian_packet(grid, 1.0, 0.0, 1.3)
    p = psi_to_p(psi)
    _, std = masked_stats(quantum_hamiltonian_field(p, V), p.node_mask)
    assert std > 1e-2


def test_h_field_from_state_matches_p_route(ho_setup):
    grid, V, pairs = ho_setup
    psi = random_nodeless_state(grid, np.random.default_rng(8))
    p = psi_to_p(psi)
    H_p = quantum_hamiltonian_field(p, V)
    H_s, mask = hamiltonian_field_from_state(psi, V)
    assert not mask.any()
    assert np.max(np.abs(H_p.values - H_s.values)) <= 1e-8


def test_masked_stats_keeps_the_far_wall_of_a_box_grid():
    # a mask at the left wall drops that wall's dilation and nothing at the
    # right wall (a wrapped dilation also dropped the last 3 points)
    g = Grid(-1.0, 1.0, 64, Boundary.BOX)
    values = np.arange(64.0) ** 2
    mask = np.zeros(64, bool)
    mask[0] = True
    mean, _ = masked_stats(make_field(g, values), mask)
    assert mean.real == pytest.approx(values[4:].mean(), rel=1e-15)


def test_dilated_mask_wraps_only_on_periodic_grids():
    mask = np.zeros(64, bool)
    mask[[1, 40]] = True
    box = Grid(-1.0, 1.0, 64, Boundary.BOX)
    periodic = Grid(-1.0, 1.0, 64, Boundary.PERIODIC)
    inner = [0, 1, 2, 3, 4, 37, 38, 39, 40, 41, 42, 43]
    assert np.flatnonzero(dilated_mask(mask, box)).tolist() == inner
    assert np.flatnonzero(dilated_mask(mask, periodic)).tolist() == inner + [62, 63]


def test_eigenstate_characterization_all_levels(ho_setup):
    grid, V, pairs = ho_setup
    for pair in pairs:
        H, mask = hamiltonian_field_from_state(pair.state, V, node_threshold=1e-5)
        mean, std = masked_stats(H, mask)
        assert std <= 1e-5 * pair.energy
        assert abs(mean.real - pair.energy) <= 1e-5 * pair.energy


# -- closed-form momentum rate -----------------------------------------------


def test_rhs_zero_for_free_plane_wave():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    p = MomentumField(Field(g, np.full(64, 3.0 + 0j)), np.zeros(64, bool))
    r = cqhj_rhs(p, free_potential(g))
    assert np.max(np.abs(r.values)) <= 1e-12


def test_rhs_vanishes_on_eigenstates(ho_setup):
    grid, V, pairs = ho_setup
    p = psi_to_p(pairs[0].state)
    r = cqhj_rhs(p, V)
    keep = ~dilated_mask(p.node_mask, grid, 5)
    assert np.max(np.abs(r.values[keep])) <= 1e-6
    # cross-check through the H-field constancy route
    rs, mask = cqhj_rhs_from_state(pairs[0].state, V, node_threshold=1e-5)
    assert np.max(np.abs(rs.values[~dilated_mask(mask, grid, 5)])) <= 1e-6


def test_rhs_matches_schrodinger_side_spectral(periodic_grid):
    # momentum rate from the wave-function side: -i grad(psi_t / psi);
    # a delocalized nodeless state keeps that ratio field periodic
    from cqhjlab.grid import laplacian

    V = cosine_potential(periodic_grid)
    psi = random_nodeless_state(periodic_grid, np.random.default_rng(6))
    p = psi_to_p(psi)
    psi_t = -1j * (-0.5 * laplacian(psi).values + V.samples * psi.values)
    p_t = -1j * gradient(Field(periodic_grid, psi_t / psi.values)).values
    r = cqhj_rhs(p, V)
    assert np.max(np.abs(r.values - p_t)) / np.max(np.abs(p_t)) <= 1e-6


def test_rhs_matches_schrodinger_side_gaussian_packet():
    # for a localized packet the ratio field grows quadratically, so the
    # comparison lives on a box grid with one-sided stencils
    from cqhjlab.grid import laplacian

    g = Grid(-7.0, 7.0, 1024, Boundary.BOX)
    V = free_potential(g)
    psi = gaussian_packet(g, 0.0, 1.0, 1.0)
    p = psi_to_p(psi, node_threshold=1e-12)
    assert not p.node_mask.any()
    psi_t = -1j * (-0.5 * laplacian(psi).values)
    p_t = -1j * gradient(Field(g, psi_t / psi.values)).values
    r = cqhj_rhs(p, V)
    amp = np.abs(psi.values) / np.abs(psi.values).max()
    sel = amp >= 1e-3
    assert np.max(np.abs(r.values[sel] - p_t[sel])) / np.max(np.abs(p_t)) <= 1e-6


def _per_run_gradient(values, mask, dx):
    """The segment-wise derivative written out: each unmasked run of at
    least 6 points through its own one-sided 4th-order stencil matrix, every
    other entry 0."""
    out = np.zeros_like(values)
    start = None
    for stop, masked in enumerate([*mask, True]):
        if not masked and start is None:
            start = stop
        elif masked and start is not None:
            if stop - start >= 6:
                out[start:stop] = (_fd_matrix(stop - start, 1, False) @ values[start:stop]) / dx
            start = None
    return out


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize(
    "masked",
    [
        [10, 11, 15, 16, 40],  # a 3-point run (12-14) between runs of 10 and more
        [5, 11, 16, 22, 27, 33, 38, 44, 49, 55, 60],  # no run reaches the stencil's 6
    ],
    ids=["short-run", "only-short-runs"],
)
def test_rhs_on_short_runs_matches_the_per_run_formula(boundary, masked):
    # runs shorter than the stencil hold 0 in every derivative, so both forms
    # are the written-out formula bitwise, and neither raises when no run is
    # long enough
    g = Grid(-3.0, 3.0, 64, boundary)
    rng = np.random.default_rng(11)
    mask = np.zeros(64, bool)
    mask[masked] = True
    vals = np.where(mask, 0.0, rng.normal(size=64) + 1j * rng.normal(size=64))
    V = custom_potential(g, rng.normal(size=64))
    p = MomentumField(Field(g, vals), mask)

    def d(v):
        return _per_run_gradient(v, mask, g.dx)

    expanded = -d(V.samples.astype(np.complex128)) - 0.5 * d(vals**2) + 0.5j * d(d(vals))
    canonical = -d(V.samples + 0.5 * vals**2 - 0.5j * d(vals))
    assert cqhj_rhs(p, V, RhsForm.EXPANDED).values.tobytes() == expanded.tobytes()
    assert cqhj_rhs(p, V, RhsForm.CANONICAL).values.tobytes() == canonical.tobytes()


def test_rhs_from_state_differentiates_h_segment_wise(ho_setup):
    # the same masked-derivative rule as cqhj_rhs: no fill of the masked zone
    grid, V, pairs = ho_setup
    for pair in pairs:
        rhs, mask = cqhj_rhs_from_state(pair.state, V, node_threshold=1e-5)
        H, h_mask = hamiltonian_field_from_state(pair.state, V, node_threshold=1e-5)
        assert np.array_equal(mask, h_mask) and mask.any()
        assert rhs.values.tobytes() == (-_masked_gradient(H.values, mask, grid)).tobytes()


def test_rhs_form_agreement(periodic_grid):
    V = cosine_potential(periodic_grid)
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = psi_to_p(random_nodeless_state(periodic_grid, rng))
        a = cqhj_rhs(p, V, RhsForm.EXPANDED).values
        b = cqhj_rhs(p, V, RhsForm.CANONICAL).values
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) <= 1e-9


# -- derivation residuals -------------------------------------------------------


def test_residuals_plane_wave():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    psi = make_field(g, np.exp(5j * g.x) / np.sqrt(2 * np.pi))
    r = derivation_residuals(psi, free_potential(g))
    assert r.max() <= 1e-10


def test_residuals_random_nodeless(periodic_grid):
    V = cosine_potential(periodic_grid)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        psi = random_nodeless_state(periodic_grid, rng)
        worst = max(worst, derivation_residuals(psi, V).max())
    assert worst <= 1e-7


def test_residuals_shrink_with_resolution():
    vals = {}
    for n in (256, 512):
        g = Grid(-12.0, 12.0, n, Boundary.PERIODIC)
        V = cosine_potential(g)
        psi = random_nodeless_state(g, np.random.default_rng(7), modes=16, amplitude=2.5)
        vals[n] = derivation_residuals(psi, V).closed_form
    assert vals[256] / vals[512] >= 10.0


def test_residuals_require_nodeless(ho_setup):
    grid, V, pairs = ho_setup
    with pytest.raises(NodePresent):
        derivation_residuals(pairs[1].state, V)
