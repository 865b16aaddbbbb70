"""Scenario parsing, validation, artifact writing and determinism."""

import csv
import io
import json

import numpy as np
import pytest

from cqhjlab import evolve, scenario as scenario_module
from cqhjlab.errors import ConfigError, ZeroState
from cqhjlab.diagnostics import OBSERVABLES
from cqhjlab.evolve import Trajectory
from cqhjlab.grid import Boundary, Grid
from cqhjlab.runner import (
    RunResult,
    execute,
    run_to_directory,
    sweep,
    write_artifacts,
    write_snapshots,
)
from cqhjlab.scenario import SCHEMA_VERSION, Scenario, apply_override, parse_scenario
from cqhjlab.states import Method, hamiltonian, superpose

MINI = """
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
coefficients = 0.7071067811865476+0j, 0.7071067811865476+0j

[force]
kind = pinning
kappa = 4.0
target = eigenstate:0

[integrator]
method = crank_nicolson
dt = 2e-3

[run]
t_final = 0.1
snapshot_stride = 10

[output]
directory = runs/mini
"""


def test_parse_echoes_defaults():
    s = parse_scenario(MINI, name="mini")
    run = s.resolved["run"]
    # defaults are explicit in the echo
    assert run["collapse_epsilon"] == 1e-3
    assert run["node_threshold"] == 1e-6
    assert run["write_snapshots"] is False
    assert s.resolved["integrator"]["renormalize"] is True
    assert run["fidelity_target_index"] == 0  # inherited from the force target


@pytest.mark.parametrize(
    "mutation, anchor",
    [
        (("dt = 2e-3", "dt_typo = 2e-3"), "integrator.dt"),
        (("kappa = 4.0", "kappa = -1"), "force.kappa"),
        (("n_points = 512", "n_points = 8"), "grid.n_points"),
        (("boundary = box", "boundary = moebius"), "grid.boundary"),
        (("kind = pinning", "kind = tractor_beam"), "force.kind"),
        (("t_final = 0.1", ""), "run.t_final"),
        (("kappa = 4.0", "kappa = inf"), "force.kappa"),
        (("x_min = -8.0", "x_min = -inf"), "grid.x_min"),
        (("0.7071067811865476+0j, 0.7071067811865476+0j", "nan, 1"), "initial_state.coefficients"),
        (("t_final = 0.1", "t_final = 0.1\nnode_threshold = 1.0"), "run.node_threshold"),
    ],
)
def test_validation_names_offending_key(mutation, anchor):
    old, new = mutation
    text = MINI.replace(old, new)
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert anchor in str(err.value)


@pytest.mark.parametrize("dt", ["1e-320", "1e-300"])
def test_a_step_count_past_2_53_is_a_config_error(dt):
    # 0.1 / 1e-320 overflows to inf, which ended the run in an OverflowError;
    # 0.1 / 1e-300 is a 1e299-step run
    with pytest.raises(ConfigError, match=r"integrator\.dt = .* and run\.t_final = 0\.1: "):
        parse_scenario(MINI.replace("dt = 2e-3", f"dt = {dt}"))


def test_syntax_error_carries_line_info():
    with pytest.raises(ConfigError) as err:
        parse_scenario("[grid\nx_min = 0\n")
    assert "line" in str(err.value).lower()


def test_split_step_requires_periodic():
    text = MINI.replace("method = crank_nicolson", "method = split_step")
    with pytest.raises(ConfigError):
        parse_scenario(text)


def test_builders_produce_consistent_objects():
    s = parse_scenario(MINI, name="mini")
    grid = s.build_grid()
    V = s.build_potential(grid)
    psi0 = s.build_initial_state(grid, V)
    force = s.build_force(grid, V)
    assert grid.n_points == 512
    assert V.samples[0] == pytest.approx(0.5 * 64.0)
    assert abs(np.vdot(psi0.values, psi0.values).real * grid.dx - 1.0) <= 1e-6
    assert force.rate == 4.0


def test_apply_override_round_trips():
    s = parse_scenario(MINI, name="mini")
    s2 = apply_override(s, "force.kappa", 8.0)
    assert s2.resolved["force"]["kappa"] == 8.0
    assert s.resolved["force"]["kappa"] == 4.0  # original untouched
    with pytest.raises(ConfigError):
        apply_override(s, "force.flavor", 1.0)
    with pytest.raises(ConfigError):
        apply_override(s, "potential.kind", 1.0)  # not numeric


def test_run_artifacts_and_determinism(tmp_path):
    s = parse_scenario(MINI, name="mini")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_to_directory(s, out_a)
    run_to_directory(s, out_b)
    ts_a = (out_a / "timeseries.csv").read_bytes()
    ts_b = (out_b / "timeseries.csv").read_bytes()
    assert ts_a == ts_b  # byte-identical reruns
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["max_norm_deviation"] <= 1e-9
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["deterministic"] is True
    assert manifest["scenario"]["run"]["collapse_epsilon"] == 1e-3
    header = ts_a.decode().splitlines()
    assert header[0].startswith("# cqhjlab timeseries schema_version=")
    assert header[1] == "t,norm,energy,fidelity_target,H_mean_re,H_std,gauge_log_magnitude,gauge_phase"


def test_snapshot_dump(tmp_path):
    text = MINI.replace("snapshot_stride = 10", "snapshot_stride = 25\nwrite_snapshots = true")
    s = parse_scenario(text, name="mini")
    run_to_directory(s, tmp_path / "a")
    run_to_directory(s, tmp_path / "b")
    files = sorted((tmp_path / "a" / "snapshots").glob("t_*.npy"))
    assert [f.name for f in files] == ["t_0.npy", "t_1.npy", "t_2.npy"]  # t=0, t=0.05, t=0.1
    first = np.load(files[0], allow_pickle=False)
    assert first.dtype == np.complex128 and first.shape == (512,)
    # byte-identical reruns, snapshot by snapshot
    assert len(list((tmp_path / "b" / "snapshots").glob("t_*.npy"))) == 3
    for f in files:
        assert f.read_bytes() == (tmp_path / "b" / "snapshots" / f.name).read_bytes(), f.name


@pytest.mark.parametrize("boundary", ["box", "periodic"])
def test_snapshot_files_are_the_bytes_np_save_writes(tmp_path, boundary):
    # the dump writes one shared .npy header and each row's bytes; every
    # file equals np.save of its row, at S = 1, 10 and 11 (where the index
    # gains a digit), and maps back read-only
    text = MINI.replace("snapshot_stride = 10", "snapshot_stride = 1")
    if boundary == "periodic":  # null force: pinning winds on a periodic grid
        text = text.replace("boundary = box", "boundary = periodic").replace(
            "kind = pinning\nkappa = 4.0\ntarget = eigenstate:0", "kind = null"
        )
    traj = execute(parse_scenario(text, name="mini")).trajectory
    for count in (1, 10, 11):
        out = tmp_path / f"{count}"
        write_snapshots(Trajectory(traj.times[:count], traj.snapshots[:count]), out)
        files = sorted((out / "snapshots").glob("t_*.npy"))
        assert len(files) == count
        for i, (f, row) in enumerate(zip(files, traj.snapshots, strict=False)):
            want = io.BytesIO()
            np.save(want, row, allow_pickle=False)
            assert f.name == f"t_{i:0{len(str(count - 1))}d}.npy"
            assert f.read_bytes() == want.getvalue(), f.name
            mapped = np.load(f, mmap_mode="r", allow_pickle=False)
            assert mapped.dtype == np.complex128 and mapped.tobytes() == row.tobytes(), f.name


def _reference_csv(head, header, rows):
    """What csv.writer with LF line ends and repr(float(...)) per value writes."""
    fh = io.StringIO()
    fh.write(head + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) for v in row] for row in rows)
    return fh.getvalue().encode()


def test_artifact_csvs_match_reference_formatter(tmp_path):
    # signed zero, the smallest subnormal, exponent forms and the largest
    # doubles of either sign, in both parts of a snapshot
    special = [-0.0, 5e-324, 1e-05, 1e16, -1.7976931348623157e308, 1.7976931348623157e308, 0.1,
               -2.5, 1.0 / 3.0] * 2
    grid = Grid(-1.0, 1.0, len(special), Boundary.BOX)
    values = []
    for re, im in ((special, special[::-1]), (special[::-1], special)):
        v = np.empty(grid.n_points, dtype=np.complex128)
        v.real, v.imag = re, im
        values.append(v)
    times = np.array([0.0, 0.1])
    traj = Trajectory(
        times=times,
        snapshots=np.array(values),
        observables={"norm": np.array([1.0, 1.0 - 2.0**-52]), "energy": np.array([-0.0, 1e16])},
    )
    text = MINI.replace("snapshot_stride = 10", "snapshot_stride = 10\nwrite_snapshots = true")
    result = RunResult(scenario=parse_scenario(text, name="mini"), trajectory=traj, summary={})
    write_artifacts(result, tmp_path, wall_time_s=0.0)
    # each snapshot file loads back as the snapshot's values, bit for bit
    for i, v in enumerate(values):
        loaded = np.load(tmp_path / "snapshots" / f"t_{i}.npy", allow_pickle=False)
        assert loaded.dtype == np.complex128 and loaded.shape == v.shape, i
        assert loaded.tobytes() == v.tobytes(), i
    # a missing series is written as nan
    series = [times, *(traj.observables.get(k, [np.nan] * 2) for k in OBSERVABLES)]
    want = _reference_csv(
        f"# cqhjlab timeseries schema_version={SCHEMA_VERSION}", ["t", *OBSERVABLES], zip(*series)
    )
    assert (tmp_path / "timeseries.csv").read_bytes() == want


def test_density_drift_is_the_row_by_row_maximum():
    # 51 snapshots on 512 points are observed in two blocks of rows; the
    # summary's max_density_drift, one reduction over the snapshot array,
    # is bitwise the largest drift of any snapshot taken row by row
    text = MINI.replace("snapshot_stride = 10", "snapshot_stride = 1")
    result = execute(parse_scenario(text, name="mini"))
    snaps = result.trajectory.snapshots
    assert len(snaps) == 51 > evolve.observe_block_rows(snaps.shape[1])
    dens0 = np.abs(snaps[0]) ** 2
    want = max(float(np.max(np.abs(np.abs(row) ** 2 - dens0))) for row in snaps)
    assert want > 0.0
    assert result.summary["max_density_drift"].hex() == want.hex()


def test_snapshot_files_one_per_snapshot(tmp_path):
    # 11 snapshots 1e-7 apart; names built from t to 6 decimals kept 2 files
    text = (
        MINI.replace("dt = 2e-3", "dt = 1e-7")
        .replace("t_final = 0.1", "t_final = 1e-6")
        .replace("snapshot_stride = 10", "snapshot_stride = 1\nwrite_snapshots = true")
    )
    out = tmp_path / "snaps"
    result = run_to_directory(parse_scenario(text, name="mini"), out)
    files = sorted((out / "snapshots").glob("t_*.npy"))
    assert len(files) == result.summary["snapshots"] == 11
    assert [f.name for f in files] == [f"t_{i:02d}.npy" for i in range(11)]
    # file i is snapshot i, whose time is row i of timeseries.csv
    rows = list(csv.reader(io.StringIO((out / "timeseries.csv").read_text())))[2:]
    assert [float(row[0]) for row in rows] == list(result.trajectory.times)
    for f, snap in zip(files, result.trajectory.snapshots):
        assert np.load(f, allow_pickle=False).tobytes() == snap.tobytes(), f.name


def test_second_dump_into_one_directory_replaces_the_snapshots(tmp_path):
    # stride 1 writes t_00 .. t_50; stride 25 into the same directory leaves
    # its own t_0 .. t_2 alone (not 54 files), and a file of another name
    # in snapshots/ is kept
    out = tmp_path / "dump"
    for stride in (1, 25):
        run = f"snapshot_stride = {stride}\nwrite_snapshots = true"
        text = MINI.replace("snapshot_stride = 10", run)
        result = run_to_directory(parse_scenario(text, name="mini"), out)
        (out / "snapshots" / "notes.txt").write_text("kept")
    files = sorted((out / "snapshots").glob("t_*.npy"))
    assert [f.name for f in files] == ["t_0.npy", "t_1.npy", "t_2.npy"]
    assert len(files) == result.summary["snapshots"]
    for f, snap in zip(files, result.trajectory.snapshots, strict=True):
        assert np.load(f, allow_pickle=False).tobytes() == snap.tobytes(), f.name
    assert (out / "snapshots" / "notes.txt").read_text() == "kept"


def test_a_run_without_the_dump_deletes_an_earlier_dump(tmp_path):
    # the dump's 11 files and their directory go, so the directory holds
    # the files of the second run alone
    out = tmp_path / "out"
    dump = MINI.replace("snapshot_stride = 10", "snapshot_stride = 5\nwrite_snapshots = true")
    run_to_directory(parse_scenario(dump, name="mini"), out)
    assert len(list((out / "snapshots").glob("t_*.npy"))) == 11
    run_to_directory(parse_scenario(MINI, name="mini"), out)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "summary.json", "timeseries.csv"]
    rows = (out / "timeseries.csv").read_text().splitlines()[2:]
    assert len(rows) == json.loads((out / "summary.json").read_text())["snapshots"] == 6


def test_a_run_that_fails_before_its_first_snapshot_deletes_an_earlier_dump(tmp_path):
    # omega = 1e10 makes the initial superposition underflow to zero, a
    # ZeroState before the first snapshot: only its incomplete summary.json
    # is left, no file of the earlier dump
    out = tmp_path / "out"
    dump = MINI.replace("snapshot_stride = 10", "snapshot_stride = 10\nwrite_snapshots = true")
    run_to_directory(parse_scenario(dump, name="mini"), out)
    assert len(list((out / "snapshots").glob("t_*.npy"))) == 6
    with pytest.raises(ZeroState):
        run_to_directory(parse_scenario(dump.replace("omega = 1.0", "omega = 1e10"), name="z"), out)
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["incomplete"] is True and summary["scenario"] == "z"


def test_sweep_rows_match_single_runs():
    s = parse_scenario(MINI, name="mini")
    rows = sweep(s, "integrator.dt", [2e-3, 1e-3], workers=1)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    single = execute(apply_override(s, "integrator.dt", 1e-3))
    assert rows[1]["final_fidelity"] == single.summary["final_fidelity_target"]


def test_sweep_rejects_invalid_value_before_any_run(monkeypatch):
    # a negative dt is a config error, as it is in the file, not a failed row
    from cqhjlab import runner

    monkeypatch.setattr(runner, "execute", lambda scenario: pytest.fail("a row ran"))
    s = parse_scenario(MINI, name="mini")
    with pytest.raises(ConfigError, match="integrator.dt must be positive"):
        sweep(s, "integrator.dt", [1e-3, -1.0], workers=1)


def test_default_sweep_workers_follow_cpu_affinity(monkeypatch):
    # one CPU in the affinity set: a 3-value sweep runs serially, whatever
    # os.cpu_count() says, and starts no pool
    from cqhjlab import runner

    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool"))
    s = parse_scenario(MINI, name="mini")
    rows = sweep(s, "integrator.dt", [2e-3, 1.5e-3, 1e-3])
    assert [r["status"] for r in rows] == ["ok", "ok", "ok"]


def test_explicit_sweep_workers_are_capped_at_the_values(monkeypatch):
    # the pool forks all its workers at once: a million requested for two
    # values start two; the fake pool maps serially and starts no process
    from cqhjlab import runner

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
    s = parse_scenario(MINI, name="mini")
    rows = sweep(s, "integrator.dt", [2e-3, 1e-3], workers=10**6)
    assert started == [2]
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_pooled_sweep_rows_equal_single_runs():
    # two worker processes; each row must equal the run of its own scenario
    s = parse_scenario(MINI.replace("t_final = 0.1", "t_final = 1.2"), name="mini")
    kappas = [4.0, 8.0]
    rows = sweep(s, "force.kappa", kappas, workers=2)
    for kappa, row in zip(kappas, rows, strict=True):
        single = execute(apply_override(s, "force.kappa", kappa)).summary
        assert row["status"] == "ok" and row["value"] == kappa
        assert row["tau_internal"] is not None
        assert row["tau_internal"] == single["collapse_report"]["tau_internal"]
        assert row["final_fidelity"] == single["final_fidelity_target"]


def test_misspelt_key_is_rejected():
    # a misspelt defaulted key was ignored, and the run kept renormalize = true
    from importlib import resources

    text = (resources.files("cqhjlab") / "scenarios" / "pinning_collapse.ini").read_text()
    bad = text.replace("renormalize = true", "renormalise = false")
    with pytest.raises(ConfigError, match="integrator.renormalise"):
        parse_scenario(bad, name="pinning_collapse")


def test_override_of_integer_key_accepts_integral_value():
    s = parse_scenario(MINI, name="mini")
    assert apply_override(s, "grid.n_points", 256.0).resolved["grid"]["n_points"] == 256
    assert apply_override(s, "run.snapshot_stride", 5).resolved["run"]["snapshot_stride"] == 5
    with pytest.raises(ConfigError, match="grid.n_points is not an integer"):
        apply_override(s, "grid.n_points", 256.5)


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    return value is None or isinstance(value, str) or bool(np.all(np.isfinite(value)))


BOX_PINNING = """
[grid]
x_min = -1.0
x_max = 1.0
n_points = 129
boundary = box

[potential]
kind = box

[initial_state]
kind = superposition
indices = 0, 1
coefficients = 1, 1

[force]
kind = pinning
kappa = 4.0
target = eigenstate:0

[integrator]
method = crank_nicolson
dt = 1e-4

[run]
t_final = 0.02
"""

DOUBLE_WELL_EIGENSTATE = """
[grid]
x_min = -5.0
x_max = 5.0
n_points = 256
boundary = box

[potential]
kind = double_well
a = 1.0
b = 1.5

[initial_state]
kind = eigenstate
index = 1

[force]
kind = null

[integrator]
method = crank_nicolson
dt = 1e-3
renormalize = false

[run]
t_final = 0.05
fidelity_target = eigenstate:1
"""

FREE_PACKET = """
[grid]
x_min = -10.0
x_max = 10.0
n_points = 128
boundary = periodic

[potential]
kind = free

[initial_state]
kind = packet
x0 = 0.0
k0 = 1.0
sigma = 1.0

[force]
kind = null

[integrator]
method = split_step
dt = 5e-4
renormalize = false

[run]
t_final = 0.05
"""


@pytest.mark.parametrize(
    "text", [BOX_PINNING, DOUBLE_WELL_EIGENSTATE, FREE_PACKET], ids=["box", "double_well", "free"]
)
def test_scenarios_over_solver_built_potentials(text):
    # the box and double-well states come from solve_eigenstates, not the
    # oscillator recurrence
    summary = execute(parse_scenario(text, name="paths")).summary
    assert _finite_numbers(summary)
    assert abs(summary["final_norm"] - 1.0) <= 1e-12
    if summary["final_fidelity_target"] is not None:
        assert summary["final_fidelity_target"] > 0.5


def test_one_eigensolve_per_scenario_build(monkeypatch):
    # BOX_PINNING names states 0 and 1 in its superposition and state 0 as
    # the pinning and the fidelity target: one solve of the two lowest
    # states serves all three builders
    calls = []
    real = scenario_module.solve_eigenstates

    def counted(H, count):
        calls.append(count)
        return real(H, count)

    monkeypatch.setattr(scenario_module, "solve_eigenstates", counted)
    s = parse_scenario(BOX_PINNING, name="box")
    grid = s.build_grid()
    V = s.build_potential(grid)
    psi0 = s.build_initial_state(grid, V)
    force = s.build_force(grid, V)
    target = s.build_fidelity_target(grid, V)
    assert calls == [2]
    ground, excited = real(hamiltonian(V, Method.CRANK_NICOLSON), 2)
    assert np.array_equal(psi0.values, superpose([1, 1], [ground.state, excited.state]).values)
    assert np.array_equal(target.values, ground.state.values)
    assert force.rate == 4.0 and np.array_equal(force.target.values, ground.state.values)


def test_one_oscillator_build_per_named_state_and_grid(monkeypatch):
    # MINI names the oscillator states 0 and 1 in its superposition and
    # state 0 as the pinning and the fidelity target: each is built once,
    # and a build on another grid builds anew
    calls = []
    real = scenario_module.ho_eigenstate

    def counted(n, omega, grid):
        calls.append((n, grid.n_points))
        return real(n, omega, grid)

    monkeypatch.setattr(scenario_module, "ho_eigenstate", counted)
    s = parse_scenario(MINI, name="mini")
    grid = s.build_grid()
    V = s.build_potential(grid)
    psi0 = s.build_initial_state(grid, V)
    force = s.build_force(grid, V)
    target = s.build_fidelity_target(grid, V)
    assert calls == [(0, 512), (1, 512)]
    ground, excited = (real(n, 1.0, grid).state for n in (0, 1))
    coefficients = s.resolved["initial_state"]["coefficients"]
    assert psi0 == superpose(coefficients, [ground, excited])
    assert force.target == ground and target == ground
    other = Grid(-8.0, 8.0, 1024, Boundary.BOX)
    assert s.build_fidelity_target(other, s.build_potential(other)) == real(0, 1.0, other).state
    assert calls[2:] == [(0, 1024)]


def test_degenerate_sweep_equals_run():
    s = parse_scenario(MINI, name="mini")
    rows = sweep(s, "force.kappa", [4.0], workers=1)
    single = execute(s)
    assert rows[0]["final_fidelity"] == single.summary["final_fidelity_target"]
