"""Command-line interface: subcommands, exit codes, output layout."""

import cmath
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    # regression: this input ended in FixedPointDivergence at t = 3.317.
    # The state starts with a real node between grid points, and kappa tau
    # depends on how the lift treats it: 3.549 (derivative route) and 3.590
    # (pair route, the collapse step's) at this resolution; 3.570 and 3.572
    # at n = 4096, dt = 2.5e-4 (both at snapshot stride 1)
    cfg = tmp_path / "phase0.ini"
    cfg.write_text(PHASE0_PINNING)
    assert main(["run", str(cfg), "--output", str(tmp_path / "phase0_out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_fidelity_target"] >= 1.0 - 1e-3
    assert 3.5 * summary["collapse_report"]["tau_internal"] == pytest.approx(3.59, abs=0.01)


def test_run_imaginary_energy_exit_three(mini_config, tmp_path, monkeypatch, capsys):
    # a non-Hermitian kinetic operator from the third row on of the
    # observable block pass (t = 0.08 of the snapshots at t = 0, 0.04, 0.08,
    # 0.1) leaves an imaginary energy
    apply_h = states.Hamiltonian.apply

    def leaky(self, values):
        out = apply_h(self, values)
        if values.ndim == 2:
            out[2:] *= 1.0 + 1e-3j
        return out

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


def test_run_to_directory_keeps_the_partial_artifacts_of_a_failed_run(tmp_path, monkeypatch):
    # the library entry writes what a failed run computed, as the CLI's run
    # does, and raises the error again
    _node_blowup_from_step(monkeypatch, 1001)
    out = tmp_path / "phase0_out"
    with pytest.raises(NodeBlowup):
        runner.run_to_directory(parse_scenario(PHASE0_PINNING, name="phase0"), out)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["incomplete"] is True
    assert summary["error"].startswith("NodeBlowup: ")
    assert len((out / "timeseries.csv").read_text().splitlines()[2:]) == 51
    assert not (out / "manifest.json").exists()


def _bundled_variant(tmp_path, name: str, *edits) -> Path:
    """The bundled scenario name with each (old line, new lines) edit, as a
    config file in tmp_path."""
    text = (Path(runner.__file__).parent / "scenarios" / f"{name}.ini").read_text()
    for old, new in edits:
        assert f"\n{old}\n" in text, old
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    config = tmp_path / f"{name}_variant.ini"
    config.write_text(text)
    return config


def _run_captured(config: Path, out: Path) -> tuple[int, str]:
    """The exit code and stderr of `cqhjlab run config --output out`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(config), "--output", str(out)])
    return code, err.getvalue()


NULL_FORCE = (("kind = pinning", "kind = null"), ("kappa = 2.0", ""), ("target = eigenstate:0", ""))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "force, dt, code",
    [("pinning", "1e200", 0), ("pinning", "1e306", 3), ("null", "1e200", 3), ("null", "1e306", 3)],
)
def test_a_huge_crank_nicolson_step_exits_without_a_traceback(tmp_path, force, dt, code):
    # the chunk rule overflowed at dt = 1e200 (a warning, a traceback under
    # -W error), the null-force run's A^2 overflowed into a factor splu
    # called exactly singular, and at 1e306 building A overflowed; an
    # overflowing factor is a StabilityViolation, exit 3. t_final = dt: one
    # step, as a dt past t_final = 4.0 took before it became a config error
    edits = [
        ("dt = 1e-3", f"dt = {dt}"),
        ("t_final = 4.0", f"t_final = {dt}"),
        *(NULL_FORCE if force == "null" else ()),
    ]
    config = _bundled_variant(tmp_path, "pinning_collapse", *edits)
    got, err = _run_captured(config, tmp_path / "out")
    assert got == code, err
    assert "Traceback" not in err
    if code == 3:
        assert "solver error: StabilityViolation: " in err


@pytest.mark.parametrize("dt", ["4.5", "1e200"])
def test_a_step_longer_than_the_run_is_a_config_error(tmp_path, dt):
    # it used to take one whole step and report it as the run's end: exit 0
    # with "t_final": 1e+200 in summary.json
    config = _bundled_variant(tmp_path, "pinning_collapse", ("dt = 1e-3", f"dt = {dt}"))
    got, err = _run_captured(config, tmp_path / "out")
    assert got == 2, err
    assert f"config error: integrator.dt = {float(dt)} exceeds run.t_final = 4.0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_step_too_small_to_count_is_a_config_error(tmp_path):
    # t_final / dt = 4 / 1e-320 overflows to inf, which ended the run in an
    # OverflowError traceback, exit 1
    config = _bundled_variant(tmp_path, "pinning_collapse", ("dt = 1e-3", "dt = 1e-320"))
    got, err = _run_captured(config, tmp_path / "out")
    assert got == 2, err
    assert err.startswith("config error: integrator.dt = 1e-320 and run.t_final = 4.0: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _fresh(code: str, *args: str, cwd=None, preexec_fn=None) -> subprocess.CompletedProcess:
    """`python -W error::RuntimeWarning -c code args` in a fresh interpreter
    that imports cqhjlab from this tree."""
    src = str(Path(runner.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), cwd=cwd,
        preexec_fn=preexec_fn,
    )


# runs main(argv) and prints, on its last stdout line, the exit code and
# the scipy modules the process has loaded
_CLI_SCIPY = """
import json, sys
from cqhjlab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _scipy_loaded(tmp_path, *argv) -> list[str]:
    done = _fresh(_CLI_SCIPY, *argv, cwd=tmp_path)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and "Traceback" not in done.stderr, done.stderr
    return loaded


def test_import_and_a_periodic_split_step_run_load_no_scipy(tmp_path):
    # scipy is imported by the functions that build a sparse operator, an
    # LU or a dense eigensolve; importing the package, --help, convert-units
    # and the split-step oscillator run build none of them
    done = _fresh("import sys, cqhjlab; print([m for m in sys.modules if m.startswith('scipy')])")
    assert done.returncode == 0 and done.stdout.strip() == "[]", done.stderr
    assert _scipy_loaded(tmp_path, "--help") == []
    units = ["convert-units", "--tau", "1", "--mass-kg", "1e-30", "--length-m", "1e-9"]
    assert _scipy_loaded(tmp_path, *units) == []
    assert _scipy_loaded(tmp_path, "run", "ho_ground_stationary", "--output", "out") == []
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["snapshots"] == 14


def test_a_crank_nicolson_run_loads_the_sparse_solver(tmp_path):
    # the check above is not vacuous: a short box pinning run builds its LU
    config = _bundled_variant(tmp_path, "pinning_collapse", ("t_final = 4.0", "t_final = 0.02"))
    loaded = _scipy_loaded(tmp_path, "run", str(config), "--output", "out")
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(loaded)


def test_an_unallocatable_snapshot_array_is_a_config_error(tmp_path):
    # 4e15 steps at stride 20 pass the 2**53 count check and ask for a
    # (2e14 + 1, 512) array, 1.42 EiB, which ended the run in an
    # _ArrayMemoryError traceback, exit 1; the address space is capped at
    # 4 GiB so the request fails at once whatever the host's overcommit
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    config = _bundled_variant(tmp_path, "pinning_collapse", ("dt = 1e-3", "dt = 1e-15"))
    run = "import sys; from cqhjlab.cli import main; sys.exit(main(sys.argv[1:]))"
    done = _fresh(run, "run", str(config), "--output", "out", cwd=tmp_path, preexec_fn=cap)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(
        "config error: run.t_final = 4.0, integrator.dt = 1e-15 and run.snapshot_stride = 20 "
        "ask for 200000000000001 snapshots of 512 points, 1.64e+18 bytes"
    ), done.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "potential, bound, omega, key",
    [
        ("free", "1e300", None, "grid.x_min"),
        ("free", "1e308", None, "grid.x_min"),
        ("free", "1e-100", None, "grid.x_min"),
        ("harmonic", "1e160", "1.0", "grid.x_min"),
        ("harmonic", "1e300", "1.0", "grid.x_min"),
        ("harmonic", "1e154", "10.0", "potential.kind = harmonic, potential.omega = 10.0"),
        ("harmonic", "8.0", "1e200", "potential.kind = harmonic, potential.omega = 1e+200"),
    ],
)
def test_an_overflowing_grid_or_potential_is_a_config_error(tmp_path, potential, bound, omega, key):
    # a grid whose x_max - x_min, 1/dx^2 or 1/dx^4 (the box stencil's D2^2)
    # overflows, or a potential whose samples overflow, is a config error
    # naming the keys (exit 2), where it was an OverflowError, a ValueError,
    # a RuntimeWarning or a factor splu called exactly singular
    pot = "kind = free" if omega is None else f"kind = harmonic\nomega = {omega}"
    config = _bundled_variant(
        tmp_path, "pinning_collapse", ("x_min = -8.0", f"x_min = -{bound}"),
        ("x_max = 8.0", f"x_max = {bound}"), ("kind = harmonic\nomega = 1.0", pot),
    )
    code, err = _run_captured(config, tmp_path / "out")
    assert code == 2, err
    assert err.startswith(f"config error: {key}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_failed_run_leaves_no_artifacts_of_an_earlier_run(tmp_path):
    # ho_ground_stationary writes its three files into out; a pinning run at
    # omega = 1e10 then fails before its first snapshot (ZeroState, exit 3)
    # and leaves its incomplete summary.json alone
    out = tmp_path / "out"
    code, err = _run_captured(Path("ho_ground_stationary"), out)
    assert code == 0, err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "summary.json", "timeseries.csv"]
    config = _bundled_variant(tmp_path, "pinning_collapse", ("omega = 1.0", "omega = 1e10"))
    code, err = _run_captured(config, out)
    assert code == 3, err
    assert "solver error: ZeroState: " in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["incomplete"] is True and summary["scenario"] == config.stem


def test_run_solver_error_writes_partial_snapshots(tmp_path, monkeypatch, capsys):
    # with the dump on, a failed run keeps one snapshot file per row of its
    # partial timeseries, each holding the state of that row's snapshot
    _node_blowup_from_step(monkeypatch, 1001)
    with pytest.raises(NodeBlowup) as err:
        runner.execute(parse_scenario(PHASE0_PINNING, name="phase0"))
    partial = err.value.trajectory
    monkeypatch.undo()
    _node_blowup_from_step(monkeypatch, 1001)
    cfg = tmp_path / "phase0.ini"
    cfg.write_text(PHASE0_PINNING.replace("[run]", "[run]\nwrite_snapshots = true"))
    out = tmp_path / "phase0_out"
    assert main(["run", str(cfg), "--output", str(out)]) == 3
    assert "NodeBlowup" in capsys.readouterr().err
    rows = (out / "timeseries.csv").read_text().splitlines()[2:]
    files = sorted((out / "snapshots").glob("t_*.npy"))
    assert len(files) == len(rows) == len(partial.snapshots) == 51
    assert [f.name for f in files] == [f"t_{i:02d}.npy" for i in range(51)]
    for f, snap in zip(files, partial.snapshots):
        assert np.load(f, allow_pickle=False).tobytes() == snap.tobytes(), f.name


UNSUPPLIABLE = """
[grid]
x_min = -8.0
x_max = 8.0
n_points = {n_points}
boundary = box

[potential]
kind = {potential}

[initial_state]
kind = eigenstate
index = {index}

[force]
kind = null

[integrator]
method = crank_nicolson
dt = 1e-3

[run]
t_final = 0.01
"""


@pytest.mark.parametrize(
    "n_points, potential, index",
    [(16, "box", 40), (256, "harmonic\nomega = 1.0", 21)],
    ids=["solved-16-points", "oscillator"],
)
def test_run_unsuppliable_eigenstate_exit_two(tmp_path, capsys, n_points, potential, index):
    # a 16-point box solves n_points // 8 = 2 states and the oscillator's
    # recurrence reaches state 20; an index past either used to end in a
    # ValueError traceback and exit 1
    bad = tmp_path / "bad.ini"
    bad.write_text(UNSUPPLIABLE.format(n_points=n_points, potential=potential, index=index))
    assert main(["run", str(bad), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial_state.index ") and "Traceback" not in err


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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_workers_below_one_exit_two_before_any_run(capsys, monkeypatch, workers):
    monkeypatch.setattr(runner, "execute", lambda scenario: pytest.fail("a row ran"))
    args = ["sweep", "pinning_collapse", "--param", "force.kappa", "--values", "1,2"]
    assert main([*args, "--workers", workers]) == 2
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_sweep_unsuppliable_eigenstate_exit_two_before_any_run(capsys, monkeypatch):
    # a sweep override re-resolves, so it meets the same index check
    monkeypatch.setattr(runner, "execute", lambda scenario: pytest.fail("a row ran"))
    args = ["sweep", "ho_ground_stationary", "--param", "initial_state.index", "--values", "1,21"]
    assert main([*args, "--workers", "1"]) == 2
    assert "initial_state.index names eigenstate 21" in capsys.readouterr().err


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


@pytest.mark.parametrize("scale, code", [("1", 0), ("1e-16", 1)])
def test_verify_json_reports_every_check_last(scale, code, capsys):
    from cqhjlab.verify import FAST_CHECKS

    assert main(["verify", "--level", "fast", "--tolerance-scale", scale, "--json"]) == code
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-1])
    assert record["level"] == "fast"
    checks = record["checks"]
    assert [c["name"] for c in checks] == [name for name, *_ in FAST_CHECKS]
    for check, text in zip(checks, lines, strict=False):
        assert set(check) == {"name", "measured", "tolerance", "kind", "passed", "seconds"}
        assert text.startswith("PASS" if check["passed"] else "FAIL")
        assert f"measured {float(check['measured']):.3e}" in text
    assert all(c["passed"] for c in checks) is (code == 0)


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_verify_bad_tolerance_scale_exit_two(scale, capsys):
    assert main(["verify", "--level", "fast", "--tolerance-scale", scale]) == 2
    assert capsys.readouterr().err.startswith("config error: --tolerance-scale must be")


UNITS = {"--tau": "1.0", "--mass-kg": "9.1093837015e-31", "--length-m": "1e-9"}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--mass-kg", "-1"),
        ("--mass-kg", "0"),
        ("--mass-kg", "nan"),
        ("--length-m", "0"),
        ("--length-m", "inf"),
        ("--tau", "nan"),
        ("--tau", "-inf"),
        ("--tau", "-1"),
    ],
)
def test_convert_units_bad_number_exit_two(flag, value, capsys):
    args = [f"{key}={value if key == flag else default}" for key, default in UNITS.items()]
    assert main(["convert-units", *args]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"config error: {flag} must be") and out.out == ""


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


# -- a property over drawn scenarios ------------------------------------------
# The draw space: grids of 16-256 points on either boundary and a drawn
# extent; every potential, initial state, force and method; eigenstate
# indices up to 40, which the smaller grids cannot supply (half of them
# from 0..3, so that most draws run); superposition coefficients of
# magnitude 1e-300 to 1e300 at any phase; steps dt of 1e-4 to 1e300 and
# t_final <= 0.05, or t_final = dt for a longer step, so that a huge step
# runs (one step) rather than being a config error. Draws that break
# a rule of the format (a box potential on a ring, split-step on a box) are
# part of the space: they must exit 2. 100 examples take about a second.

INDICES = st.integers(0, 3) | st.integers(0, 40)


def _section(name: str, **keys) -> str:
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)


@st.composite
def scenario_texts(draw) -> str:
    x_min = draw(st.floats(-20.0, 0.0))
    grid = _section(
        "grid",
        x_min=repr(x_min),
        x_max=repr(x_min + draw(st.floats(2.0, 40.0))),
        n_points=draw(st.integers(16, 256)),
        boundary=draw(st.sampled_from(["box", "periodic"])),
    )
    potential = draw(st.sampled_from(["free", "harmonic", "box", "double_well"]))
    potential = _section(
        "potential",
        kind=potential,
        omega=repr(draw(st.floats(0.1, 5.0))) if potential == "harmonic" else None,
        a=repr(draw(st.floats(0.01, 2.0))) if potential == "double_well" else None,
        b=repr(draw(st.floats(0.5, 5.0))) if potential == "double_well" else None,
    )
    kind = draw(st.sampled_from(["packet", "eigenstate", "superposition"]))
    if kind == "packet":
        initial = _section(
            "initial_state", kind=kind, x0=repr(x_min + draw(st.floats(0.0, 40.0))),
            k0=repr(draw(st.floats(-5.0, 5.0))), sigma=repr(draw(st.floats(0.05, 5.0))),
        )
    elif kind == "eigenstate":
        initial = _section("initial_state", kind=kind, index=draw(INDICES))
    else:
        indices = draw(st.lists(INDICES, min_size=1, max_size=3))
        coefficients = [
            cmath.rect(10.0 ** draw(st.floats(-300.0, 300.0)), draw(st.floats(0.0, 2 * np.pi)))
            for _ in indices
        ]
        initial = _section(
            "initial_state", kind=kind, indices=", ".join(map(str, indices)),
            coefficients=", ".join(f"{c.real!r}{c.imag:+.17g}j" for c in coefficients),
        )
    force = draw(st.sampled_from(["null", "pinning", "kostin"]))
    force = _section(
        "force",
        kind=force,
        kappa=repr(draw(st.floats(0.1, 10.0))) if force == "pinning" else None,
        target=f"eigenstate:{draw(INDICES)}" if force == "pinning" else None,
        gamma=repr(draw(st.floats(0.1, 10.0))) if force == "kostin" else None,
    )
    dt = 10.0 ** draw(st.floats(-4.0, 300.0))
    integrator = _section(
        "integrator",
        method=draw(st.sampled_from(["split_step", "crank_nicolson"])),
        dt=repr(dt),
        renormalize=draw(st.sampled_from(["true", "false"])),
    )
    run = _section(
        "run",
        t_final=repr(max(draw(st.floats(1e-3, 0.05)), dt)),
        snapshot_stride=draw(st.integers(1, 20)),
        fidelity_target=draw(st.none() | INDICES.map("eigenstate:{}".format)),
    )
    return "\n".join([grid, potential, initial, force, integrator, run])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(text=scenario_texts())
def test_every_drawn_scenario_exits_with_a_documented_code(text):
    # exit 0, 2 (config error) or 3 (solver error), never an escaped
    # exception or a traceback; a solver error leaves an incomplete summary
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "drawn.ini", Path(tmp) / "out"
        config.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(config), "--output", str(out)])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 3:
            assert json.loads((out / "summary.json").read_text())["incomplete"] is True
