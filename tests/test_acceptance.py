"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Tolerances are fixed here, not configurable.

Momentum-field comparisons are evaluated where the state carries at least
1e-4..1e-5 of its peak amplitude: p = -i grad(psi)/psi divides by |psi|,
so below that double-precision roundoff dominates the field itself (the
bound is a conditioning fact, measured in the module tests).
"""

import json
import time

import numpy as np
import pytest

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    IntegratorSpec,
    Method,
    RhsForm,
    collapse_time,
    collapsible_evolve,
    cqhj_evolve,
    cqhj_rhs,
    cqhj_rhs_from_state,
    derivation_residuals,
    fidelity,
    gaussian_packet,
    hamiltonian,
    hamiltonian_field_from_state,
    harmonic_potential,
    ho_eigenstate,
    kostin_friction,
    null_force,
    pinning_force,
    psi_to_p,
    random_nodeless_state,
    schrodinger_evolve,
    superpose,
)
from cqhjlab.cqhj import dilated_mask, masked_stats
from cqhjlab.states import custom_potential


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.number} {self.name}: PASS ({elapsed:.1f}s)")
        else:
            print(f"ACCEPTANCE {self.number} {self.name}: FAIL ({elapsed:.1f}s)")
        return False


def test_acceptance_1_derivation_validity():
    with Budget(1, "derivation-validity", 10.0):
        g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
        V = custom_potential(g, 1.5 * np.cos(2 * np.pi * g.x / g.length))
        rng = np.random.default_rng(42)
        for _ in range(20):
            psi = random_nodeless_state(g, rng)
            res = derivation_residuals(psi, V)
            assert res.max() <= 1e-7
            p = psi_to_p(psi)
            a = cqhj_rhs(p, V, RhsForm.EXPANDED).values
            b = cqhj_rhs(p, V, RhsForm.CANONICAL).values
            assert np.max(np.abs(a - b)) / np.max(np.abs(a)) <= 1e-9


def _momentum_vs_wavefunction_error(n):
    """Max-abs momentum-field error between the two propagators at t=1 for
    a breathing Gaussian in a harmonic trap, on the region where the state
    carries at least 1e-4 of its peak; also returns the 1e-5-region error."""
    g = Grid(-6.3, 6.3, n, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    psi0 = gaussian_packet(g, 0.0, 0.0, 0.9)
    p0 = psi_to_p(psi0, node_threshold=1e-12)
    assert not p0.node_mask.any()
    tr_psi = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.CRANK_NICOLSON, 1e-4, False), 1.0,
        snapshot_stride=10**9,
    )
    dt0 = 0.9 * 1.05 * g.dx**2
    steps = int(np.ceil(1.0 / dt0))
    tr_p = cqhj_evolve(
        p0,
        V,
        IntegratorSpec(Method.RK4, 1.0 / steps),
        1.0,
        snapshot_stride=10**9,
        node_threshold=1e-12,
    )
    psif = tr_psi.final_state
    pf = psi_to_p(psif, node_threshold=1e-12)
    diff = np.abs(pf.values - tr_p.final_state.values)
    amp = np.abs(psif.values) / np.abs(psif.values).max()
    return np.max(diff[amp >= 1e-4]), np.max(diff[amp >= 1e-5])


def test_acceptance_2_psi_elimination_equivalence():
    with Budget(2, "psi-elimination-equivalence", 30.0):
        bulk_512, wide_512 = _momentum_vs_wavefunction_error(512)
        assert bulk_512 <= 1e-4
        assert wide_512 <= 1e-4
        bulk_1024, _ = _momentum_vs_wavefunction_error(1024)
        assert bulk_1024 < bulk_512  # error decreases when n doubles


def test_acceptance_3_eigenstate_characterization():
    with Budget(3, "eigenstate-characterization", 5.0):
        g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
        H = hamiltonian(harmonic_potential(g, 1.0), Method.SPLIT_STEP)
        for n in range(4):
            pair = ho_eigenstate(n, 1.0, g)
            field, mask = hamiltonian_field_from_state(pair.state, H, node_threshold=1e-5)
            mean, std = masked_stats(field, mask)
            assert std <= 1e-5 * pair.energy
            assert abs(mean.real - pair.energy) <= 1e-5 * pair.energy
            rhs, m2 = cqhj_rhs_from_state(pair.state, H, node_threshold=1e-5)
            keep = ~dilated_mask(m2, g, 5)
            assert np.max(np.abs(rhs.values[keep])) <= 1e-6


def test_acceptance_4_schrodinger_limit():
    with Budget(4, "schrodinger-limit", 10.0):
        g = Grid(-8.0, 8.0, 512, Boundary.BOX)
        V = harmonic_potential(g, 1.0)
        pairs = [ho_eigenstate(n, 1.0, g) for n in range(3)]
        states = [
            gaussian_packet(g, 1.0, 0.5, 1.0),
            superpose([1.0, 1.0], [pairs[0].state, pairs[1].state]),
            pairs[2].state,
        ]
        spec_nl = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
        spec_lin = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False)
        for psi0 in states:
            nl = collapsible_evolve(psi0, V, null_force(), spec_nl, 1.0, snapshot_stride=10**9)
            lin = schrodinger_evolve(psi0, V, spec_lin, 1.0, snapshot_stride=10**9)
            assert 1.0 - fidelity(nl.final_state, lin.final_state) <= 1e-7


def test_acceptance_5_homogeneity_probability_conservation():
    with Budget(5, "homogeneity-probability-conservation", 20.0):
        g = Grid(-8.0, 8.0, 512, Boundary.BOX)
        V = harmonic_potential(g, 1.0)
        pairs = [ho_eigenstate(n, 1.0, g) for n in range(2)]
        psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
        c = 2.7 * np.exp(1j * np.pi / 5)
        spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
        for force in (pinning_force(pairs[0], 2.0), kostin_friction(0.3)):
            ta = collapsible_evolve(psi0, V, force, spec, 2.0, snapshot_stride=250)
            tb = collapsible_evolve(
                Field(g, c * psi0.values), V, force, spec, 2.0, snapshot_stride=250
            )
            for a, b in zip(ta.snapshots, tb.snapshots):
                assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) <= 1e-10
            assert np.max(np.abs(ta.observables["norm"] - 1.0)) <= 1e-9
            assert np.max(np.abs(tb.observables["norm"] - 1.0)) <= 1e-9


def test_acceptance_6_finite_time_collapse():
    with Budget(6, "finite-time-collapse", 60.0):
        g = Grid(-8.0, 8.0, 512, Boundary.BOX)
        V = harmonic_potential(g, 1.0)
        pairs = [ho_eigenstate(n, 1.0, g) for n in range(2)]
        psi0 = superpose([1.0, 1.0], [pairs[0].state, pairs[1].state])
        spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
        taus = {}
        for kappa in (1.0, 2.0, 4.0):
            traj = collapsible_evolve(
                psi0,
                V,
                pinning_force(pairs[0], kappa),
                spec,
                14.0 / kappa,
                snapshot_stride=20,
                target=pairs[0].state,
            )
            tau = collapse_time(traj, 1e-3)
            assert tau is not None  # finite collapse time
            taus[kappa] = tau
        assert 0.4 <= taus[2.0] / taus[1.0] <= 0.6
        assert 0.4 <= taus[4.0] / taus[2.0] <= 0.6
        # doubling the rate halves the collapse time to within 10 percent
        assert abs(taus[4.0] / taus[2.0] - 0.5) <= 0.05

        # dissipative relaxation: monotone energy, ground-state capture
        psi_k = gaussian_packet(g, 0.8, 0.0, 1.0)
        trk = collapsible_evolve(
            psi_k,
            V,
            kostin_friction(0.2),
            IntegratorSpec(Method.CRANK_NICOLSON, 2e-3, True),
            20.0,
            snapshot_stride=50,
            target=pairs[0].state,
        )
        assert trk.observables["fidelity_target"][-1] >= 0.99
        assert np.diff(trk.observables["energy"]).max() <= 1e-8


def test_acceptance_7_unit_bracket_reporting(capsys):
    from cqhjlab.cli import main

    with Budget(7, "unit-bracket-reporting", 1.0):
        def convert(tau, mass, length):
            assert (
                main(
                    [
                        "convert-units",
                        "--tau",
                        str(tau),
                        "--mass-kg",
                        str(mass),
                        "--length-m",
                        str(length),
                    ]
                )
                == 0
            )
            return json.loads(capsys.readouterr().out)

        # electron mass, 1 nm: time scale m L^2 / hbar = 8.64e-15 s
        out = convert(1.0, 9.1093837015e-31, 1e-9)
        assert out["time_scale_s"] == pytest.approx(8.64e-15, rel=1e-2)
        assert out["in_experimental_bracket"] is False  # below 0.1 ps
        # inside the window
        out = convert(1.0, 9.1093837015e-31, 1e-6)
        assert 1e-13 <= out["tau_si"] <= 1e-4
        assert out["in_experimental_bracket"] is True
        # above the window
        out = convert(1e7, 9.1093837015e-31, 1e-5)
        assert out["tau_si"] > 1e-4
        assert out["in_experimental_bracket"] is False


def test_acceptance_8_determinism_and_tooling(tmp_path, capsys):
    from cqhjlab.cli import main
    from cqhjlab.runner import run_to_directory
    from cqhjlab.scenario import parse_scenario
    from cqhjlab.verify import run_checks

    with Budget(8, "determinism-and-tooling", 90.0):
        t0 = time.perf_counter()
        results = run_checks(level="fast")
        fast_seconds = time.perf_counter() - t0
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]
        assert fast_seconds < 60.0

        config = """
[grid]
x_min = -8.0
x_max = 8.0
n_points = 256
boundary = box
[potential]
kind = harmonic
omega = 1.0
[initial_state]
kind = packet
x0 = 0.5
k0 = 0.0
sigma = 1.0
[force]
kind = kostin
gamma = 0.3
[integrator]
method = crank_nicolson
dt = 2e-3
[run]
t_final = 0.2
snapshot_stride = 20
"""
        scenario = parse_scenario(config, name="determinism")
        run_to_directory(scenario, tmp_path / "a")
        run_to_directory(scenario, tmp_path / "b")
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
            tmp_path / "b" / "timeseries.csv"
        ).read_bytes()

        # documented exit codes: 0 above; 2 config error; 3 solver error;
        # 1 verification failure
        bad = tmp_path / "bad.ini"
        bad.write_text(config.replace("dt = 2e-3", ""))
        assert main(["run", str(bad)]) == 2
        capsys.readouterr()
        unstable = tmp_path / "unstable.ini"
        unstable.write_text(
            config.replace("boundary = box", "boundary = periodic")
            .replace("crank_nicolson", "split_step")
            .replace("dt = 2e-3", "dt = 0.1")
        )
        assert main(["run", str(unstable), "--output", str(tmp_path / "u")]) == 3
        capsys.readouterr()
        assert main(["verify", "--level", "fast", "--tolerance-scale", "1e-16"]) == 1
        capsys.readouterr()
