"""Command-line interface: subcommands, exit codes, output layout."""

import json

import pytest

from cqhjlab import evolve, runner, states
from cqhjlab.cli import main
from cqhjlab.errors import NodeBlowup
from cqhjlab.runner import OUTPUT_ROOT_ENV, bundled_scenario_names
from cqhjlab.scenario import load_scenario, parse_scenario

FAST_MINI = """
[grid]
x_min = -8.0
x_max = 8.0
n_points = 320
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
t_final = 0.1
snapshot_stride = 20
fidelity_target = eigenstate:0

[output]
directory = out
"""


# equal-weight superposition of the two lowest oscillator states pinned to
# the ground state at kappa = 3.5; one grid point sits at the node threshold
# near t = 3.3
PHASE0_PINNING = """
[grid]
x_min = -8.0
x_max = 8.0
n_points = 512
boundary = box

[potential]
kind = harmonic
omega = 1.0

[initial_state]
kind = superposition
indices = 0, 1
coefficients = 0.7071067811865475+0j, 0.7071067811865475+0j

[force]
kind = pinning
kappa = 3.5
target = eigenstate:0

[integrator]
method = crank_nicolson
dt = 1e-3
renormalize = true

[run]
t_final = 4.0
snapshot_stride = 20
collapse_epsilon = 1e-3
"""


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text(FAST_MINI)
    return path


def test_run_exit_zero_and_artifacts(mini_config, tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["run", str(mini_config), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["scenario"] == "mini"
    assert (out / "timeseries.csv").exists()
    assert (out / "manifest.json").exists()


def test_run_missing_key_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_MINI.replace("dt = 2e-3", ""))
    assert main(["run", str(bad)]) == 2
    assert "integrator.dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new,key",
    [("t_final = 0.1", "t_final = inf", "run.t_final"), ("x0 = 0.5", "x0 = nan", "initial_state.x0")],
    ids=["t_final-inf", "x0-nan"],
)
def test_run_nonfinite_number_exit_two(tmp_path, capsys, old, new, key):
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_MINI.replace(old, new))
    assert main(["run", str(bad), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err


def test_sweep_nonfinite_value_exit_two(mini_config, tmp_path, capsys):
    args = ["--values", "0.1,inf", "--workers", "1", "--output", str(tmp_path / "out")]
    assert main(["sweep", str(mini_config), "--param", "run.t_final", *args]) == 2
    err = capsys.readouterr().err
    assert "run.t_final" in err and "finite" in err


def test_run_solver_error_exit_three(mini_config, tmp_path, capsys):
    # split-step on a periodic grid with a dt violating the kinetic bound
    text = (
        FAST_MINI.replace("boundary = box", "boundary = periodic")
        .replace("method = crank_nicolson", "method = split_step")
        .replace("dt = 2e-3", "dt = 1e-1")
    )
    cfg = tmp_path / "unstable.ini"
    cfg.write_text(text)
    out = tmp_path / "unstable_out"
    assert main(["run", str(cfg), "--output", str(out)]) == 3
    assert "StabilityViolation" in capsys.readouterr().err
    # partial artifacts are flagged incomplete
    summary = json.loads((out / "summary.json").read_text())
    assert summary["incomplete"] is True


def _node_blowup_from_step(monkeypatch, step):
    """Make the nonlinear step's gauge lift raise NodeBlowup from the given
    step on (one lift per step)."""
    lift = evolve.gauge_potential
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) >= step:
            raise NodeBlowup("force evaluation has no unmasked momentum values left")
        return lift(*args)

    monkeypatch.setattr(evolve, "gauge_potential", failing)


def test_nonlinear_solver_error_keeps_partial_trajectory(monkeypatch):
    _node_blowup_from_step(monkeypatch, 1001)
    with pytest.raises(NodeBlowup) as err:
        runner.execute(parse_scenario(PHASE0_PINNING, name="phase0"))
    traj = err.value.trajectory
    assert len(traj.snapshots) == len(traj.times) == 51
    assert round(traj.times[-1] / 1e-3) == 1000
    assert all(len(v) == 51 for v in traj.observables.values())


def test_phase0_pinning_collapses_through_the_former_two_cycle(tmp_path, capsys):
    # regression: this input ended in FixedPointDivergence at t = 3.317
    cfg = tmp_path / "phase0.ini"
    cfg.write_text(PHASE0_PINNING)
    assert main(["run", str(cfg), "--output", str(tmp_path / "phase0_out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_fidelity_target"] >= 1.0 - 1e-3
    assert 3.5 * summary["collapse_report"]["tau_internal"] == pytest.approx(3.55, abs=0.01)


def test_run_imaginary_energy_exit_three(mini_config, tmp_path, monkeypatch, capsys):
    # a non-Hermitian kinetic operator from the third snapshot on (t = 0.08 of
    # the snapshots at t = 0, 0.04, 0.08, 0.1) leaves an imaginary energy
    apply_h = states.Hamiltonian.apply
    calls = []

    def leaky(self, values):
        calls.append(None)
        return apply_h(self, values) * (1.0 + 1e-3j if len(calls) >= 3 else 1.0)

    monkeypatch.setattr(states.Hamiltonian, "apply", leaky)
    out = tmp_path / "imaginary_out"
    assert main(["run", str(mini_config), "--output", str(out)]) == 3
    assert "ImaginaryEnergy" in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["incomplete"] is True
    rows = (out / "timeseries.csv").read_text().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.0, 0.04])


def test_run_solver_error_writes_partial_timeseries(tmp_path, monkeypatch, capsys):
    _node_blowup_from_step(monkeypatch, 1001)
    cfg = tmp_path / "phase0.ini"
    cfg.write_text(PHASE0_PINNING)
    out = tmp_path / "phase0_out"
    assert main(["run", str(cfg), "--output", str(out)]) == 3
    assert "NodeBlowup" in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["incomplete"] is True
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[1] == ",".join(runner.TIMESERIES_COLUMNS)
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 51
    assert round(float(rows[-1][0]) / 1e-3) == 1000
    assert "nan" not in {v for row in rows for v in row}


def test_unknown_bundled_name_exit_two(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no bundled scenario" in capsys.readouterr().err


def test_bundled_scenarios_present():
    names = bundled_scenario_names()
    assert "ho_ground_stationary" in names
    assert "pinning_collapse" in names
    assert "kostin_relaxation" in names


def test_output_root_env(mini_config, tmp_path, monkeypatch, capsys):
    root = tmp_path / "root"
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
    assert main(["run", str(mini_config)]) == 0
    capsys.readouterr()
    assert (root / "out" / "timeseries.csv").exists()


def test_convert_units_output(capsys):
    code = main(
        [
            "convert-units",
            "--tau",
            "1.0",
            "--mass-kg",
            "9.1093837015e-31",
            "--length-m",
            "1e-9",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tau_si"] == pytest.approx(8.64e-15, rel=1e-2)
    assert out["in_experimental_bracket"] is False


def test_convert_units_inside_bracket(capsys):
    assert (
        main(
            [
                "convert-units",
                "--tau",
                "1.0",
                "--mass-kg",
                "9.1093837015e-31",
                "--length-m",
                "1e-6",
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["in_experimental_bracket"] is True


def test_sweep_writes_table_in_input_order(mini_config, tmp_path, capsys):
    out = tmp_path / "sweep_out"
    code = main(
        [
            "sweep",
            str(mini_config),
            "--param",
            "force.gamma",
            "--values",
            "0.3,0.1",
            "--workers",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("value,")
    assert lines[2].startswith("0.3,ok")
    assert lines[3].startswith("0.1,ok")


def test_sweep_keeps_other_rows_when_one_raises(mini_config, monkeypatch):
    real_execute = runner.execute

    def execute(scenario):
        if scenario.resolved["force"]["gamma"] == 0.1:
            raise FloatingPointError("overflow encountered in exp")
        return real_execute(scenario)

    monkeypatch.setattr(runner, "execute", execute)
    rows = runner.sweep(load_scenario(mini_config), "force.gamma", [0.3, 0.1, 0.2], workers=1)
    assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
    assert rows[1]["error"].startswith("FloatingPointError: ")


@pytest.mark.parametrize(
    "param, value, message",
    [
        ("run.snapshot_stride", "0", "run.snapshot_stride must be >= 1"),
        ("integrator.dt", "-1", "integrator.dt must be positive"),
        ("grid.n_points", "8", "grid.n_points must be >= 16"),
        ("force.kappa", "-2", "force.kappa must be positive"),
        ("run.collapse_epsilon", "0.9", "run.collapse_epsilon must lie in"),
    ],
)
def test_sweep_invalid_value_exit_two_before_any_run(capsys, monkeypatch, param, value, message):
    # validated like the same value in the file; a stride of 0 used to fail
    # every row with ZeroDivisionError and exit 3
    monkeypatch.setattr(runner, "execute", lambda scenario: pytest.fail("a row ran"))
    args = ["sweep", "pinning_collapse", "--param", param, "--values", f"1,{value}"]
    assert main([*args, "--workers", "1"]) == 2
    assert message in capsys.readouterr().err


def test_sweep_bad_param_exit_two(mini_config, capsys):
    assert (
        main(["sweep", str(mini_config), "--param", "force.nope", "--values", "1,2"]) == 2
    )
    assert "force.nope" in capsys.readouterr().err


def test_verify_tightened_tolerances_exit_one(capsys):
    code = main(["verify", "--level", "fast", "--tolerance-scale", "1e-16"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "failed:" in out


def test_bundled_stationary_scenario_summary(tmp_path, capsys):
    code = main(["run", "ho_ground_stationary", "--output", str(tmp_path / "st")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_density_drift"] <= 1e-8
    assert summary["final_fidelity_target"] >= 1.0 - 1e-9


def test_bundled_pinning_scenario_collapse_report(tmp_path, capsys):
    code = main(["run", "pinning_collapse", "--output", str(tmp_path / "pc")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    rep = summary["collapse_report"]
    assert rep["tau_internal"] is not None and rep["tau_internal"] > 0
    assert rep["tau_si"] is not None and rep["xi"] is not None


def test_sweep_over_dt_converges():
    from cqhjlab import fidelity
    from cqhjlab.runner import execute
    from cqhjlab.scenario import apply_override, parse_scenario

    s = parse_scenario(FAST_MINI, name="mini")
    finals = []
    for dt in (1e-3, 5e-4):
        res = execute(apply_override(s, "integrator.dt", dt))
        finals.append(res.trajectory.final_state)
    assert 1.0 - fidelity(finals[0], finals[1]) <= 1e-6


def test_full_level_includes_convergence_studies():
    from cqhjlab.verify import FULL_CHECKS

    names = [name for name, *_ in FULL_CHECKS]
    assert "fd4-convergence-order" in names
    assert "residual-resolution-study" in names
    assert "strang-timestep-order" in names
    assert "rk4-timestep-order" in names
