"""Scenario execution and persisted run artifacts.

A run writes three files into its output directory:

- timeseries.csv  one row per snapshot (deterministic, byte-reproducible)
- summary.json    collapse report and invariant margins (no timings)
- manifest.json   resolved scenario echo, tool version, wall time

CSV values are shortest round-trip decimals, lines end in LF. Snapshots can
be dumped, byte-reproducibly, as snapshots/t_<index>.npy: file i is row i
of the trajectory's (S, N) snapshot array, psi alone, a complex128 array
of the grid's length in NumPy .npy format 1.0, the bytes np.save writes.
Its time is row i of timeseries.csv, and x is the grid that manifest.json
echoes. A run's files replace all an earlier run left in the directory; a
failed run writes no manifest.json. Sweeps fan out over a process pool
with no shared state; the result table keeps the input order of the values
and records per-row failures without aborting the rest.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import OBSERVABLES, collapse_time, make_collapse_report
from .errors import ConfigError, CqhjError
from .evolve import Trajectory, collapsible_evolve, observe_block_rows
from .scenario import SCHEMA_VERSION, Scenario, apply_override, load_scenario
from .states import hamiltonian

OUTPUT_ROOT_ENV = "CQHJLAB_OUTPUT_ROOT"

TIMESERIES_COLUMNS = ["t", *OBSERVABLES]


def _fmt(x) -> str:
    """Shortest round-trip decimal representation; deterministic bytes."""
    return repr(float(x))


def _fmt_column(values) -> list[str]:
    """_fmt of every value of a real array."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_json(path: Path, obj) -> None:
    """obj as JSON at path: indent 2, sorted keys, a trailing LF."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunResult:
    scenario: Scenario
    trajectory: Trajectory
    summary: dict


def execute(scenario: Scenario) -> RunResult:
    """Run a scenario through the collapsible propagator."""
    grid = scenario.build_grid()
    V = scenario.build_potential(grid)
    psi0 = scenario.build_initial_state(grid, V)
    force = scenario.build_force(grid, V)
    spec = scenario.build_integrator()
    target = scenario.build_fidelity_target(grid, V)
    run = scenario.resolved["run"]
    traj = collapsible_evolve(
        psi0,
        V,
        force,
        spec,
        run["t_final"],
        snapshot_stride=run["snapshot_stride"],
        node_threshold=run["node_threshold"],
        target=target,
    )
    report = None
    if target is not None:
        tau = collapse_time(traj, run["collapse_epsilon"])
        # xi is the spread of the Hamiltonian the run steps with
        report = make_collapse_report(
            tau,
            run["collapse_epsilon"],
            psi0=psi0,
            H=hamiltonian(V, spec.method),
            units=scenario.build_units(),
        )
    obs = traj.observables
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.resolved["name"],
        "snapshots": len(traj.snapshots),
        "t_final": float(traj.times[-1]),
        "final_norm": float(obs["norm"][-1]),
        "max_norm_deviation": float(np.max(np.abs(obs["norm"] - 1.0))),
        "final_energy": float(obs["energy"][-1]),
        "max_density_drift": _max_density_drift(traj.snapshots),
        "final_fidelity_target": (
            float(obs["fidelity_target"][-1]) if "fidelity_target" in obs else None
        ),
        "collapse_report": report.as_dict() if report is not None else None,
    }
    return RunResult(scenario=scenario, trajectory=traj, summary=summary)


def _max_density_drift(snapshots: np.ndarray) -> float:
    """max |(|psi_k|^2 - |psi_0|^2)| over the (S, N) snapshot array, reduced
    over blocks of the observed block's rows, so no (S, N) temporary."""
    dens0 = np.abs(snapshots[0]) ** 2
    rows = observe_block_rows(snapshots.shape[1])
    peak = 0.0
    for k in range(0, len(snapshots), rows):
        drift = np.abs(snapshots[k : k + rows])  # |psi_k|^2 - |psi_0|^2 in place
        drift **= 2
        drift -= dens0
        peak = max(peak, np.max(np.abs(drift, out=drift)))
    return float(peak)


def resolve_output_dir(scenario: Scenario, override=None) -> Path:
    base = Path(override) if override else Path(scenario.resolved["output"]["directory"])
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not base.is_absolute():
        base = Path(root) / base
    return base


def write_timeseries(traj: Trajectory, out_dir: Path) -> None:
    """timeseries.csv of a finished run, or of the partial trajectory a
    failed one carries; "nan" marks a missing series."""
    series = [traj.times, *(traj.observables.get(k) for k in OBSERVABLES)]
    columns = [_fmt_column(s) if s is not None else ["nan"] * len(traj.times) for s in series]
    # one write: the head line, the header, a row per snapshot; LF, no quoting
    rows = "\n".join(map(",".join, [TIMESERIES_COLUMNS, *zip(*columns)]))
    with open(out_dir / "timeseries.csv", "w", newline="") as fh:
        fh.write(f"# cqhjlab timeseries schema_version={SCHEMA_VERSION}\n{rows}\n")


def write_snapshots(traj: Trajectory, out_dir: Path) -> None:
    """snapshots/t_<index>.npy, psi of each snapshot of a finished run or of
    the partial trajectory a failed one carries; the index is zero-padded so
    the names sort in time order. Every row shares one .npy 1.0 header, so
    each file is one unbuffered write of that header and the row's bytes."""
    snap_dir = out_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    rows = traj.snapshots
    if len(rows) == 0:
        return
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, np.lib.format.header_data_from_array_1_0(rows[0]))
    head = buf.getvalue()
    width = len(str(len(rows) - 1))
    for i, row in enumerate(rows):
        with open(snap_dir / f"t_{i:0{width}d}.npy", "wb", buffering=0) as fh:
            fh.write(head + row.tobytes())


def _write_run(
    out_dir: Path, scenario: Scenario, summary: dict, traj: Trajectory | None, manifest=None
) -> None:
    """The one writer of a run directory. It deletes every file a run leaves
    (manifest.json, timeseries.csv, snapshots/t_*.npy, and snapshots/ if that
    empties it) and nothing else, then writes summary.json; with a trajectory,
    full or partial, its timeseries.csv and, when run.write_snapshots is on,
    its dump; and manifest.json, which only a finished run has."""
    out_dir.mkdir(parents=True, exist_ok=True)
    snap_dir = out_dir / "snapshots"
    for old in (out_dir / "manifest.json", out_dir / "timeseries.csv", *snap_dir.glob("t_*.npy")):
        old.unlink(missing_ok=True)
    if snap_dir.is_dir() and not any(snap_dir.iterdir()):
        snap_dir.rmdir()
    _write_json(out_dir / "summary.json", summary)
    if traj is not None:
        write_timeseries(traj, out_dir)
        if scenario.resolved["run"]["write_snapshots"]:
            write_snapshots(traj, out_dir)
    if manifest is not None:
        _write_json(out_dir / "manifest.json", manifest)


def write_artifacts(result: RunResult, out_dir: Path, wall_time_s: float) -> None:
    """A finished run's artifacts (_write_run); manifest.json records wall_time_s."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario": result.scenario.resolved,
        "deterministic": True,
        "wall_time_s": wall_time_s,
    }
    _write_run(out_dir, result.scenario, result.summary, result.trajectory, manifest)


def run_to_directory(scenario: Scenario, out_dir: Path) -> RunResult:
    """Execute the scenario and write its artifacts into out_dir, in place of
    an earlier run's. A run that raises a CqhjError writes a summary.json
    flagged incomplete, with the timeseries.csv (and the dump) of the
    partial trajectory the error carries, and the error is raised again."""
    started = time.perf_counter()
    try:
        result = execute(scenario)
    except CqhjError as exc:
        summary = {
            "schema_version": SCHEMA_VERSION, "scenario": scenario.resolved["name"],
            "incomplete": True, "error": f"{type(exc).__name__}: {exc}",
        }
        _write_run(out_dir, scenario, summary, exc.trajectory)
        raise
    write_artifacts(result, out_dir, wall_time_s=time.perf_counter() - started)
    return result


# -- sweeps ----------------------------------------------------------------


def _sweep_row(args):
    """One sweep run; returns a plain dict (must stay picklable)."""
    scenario, param, value = args
    row = dict.fromkeys(SWEEP_COLUMNS) | {"value": value, "status": "failed", "error": ""}
    try:
        result = execute(apply_override(scenario, param, value))
    except Exception as exc:  # a failed row must not abort the sweep and lose finished rows
        return row | {"error": f"{type(exc).__name__}: {exc}"}
    rep = result.summary["collapse_report"] or {}
    row.update((k, rep.get(k)) for k in ("tau_internal", "tau_si", "xi"))
    return row | {"status": "ok", "final_fidelity": result.summary["final_fidelity_target"]}


def check_sweep(scenario: Scenario, param: str, values, workers: int | None = None) -> None:
    """The ConfigError of a sweep's arguments, raised before any run: workers
    below 1, or a parameter or value the scenario rejects."""
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    for v in values:
        apply_override(scenario, param, v)


def sweep(scenario: Scenario, param: str, values, workers: int | None = None) -> list[dict]:
    """Run the scenario once per parameter value; rows keep input order. The
    pool starts at most one worker per value (by default one per CPU this
    process may run on); bad arguments raise check_sweep's ConfigError."""
    values = list(values)
    check_sweep(scenario, param, values, workers)
    tasks = [(scenario, param, v) for v in values]
    if workers is None:
        # the CPUs this process may run on, which os.cpu_count() ignores
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = cpus or 1
    # the pool forks all its workers at once, so at most one per value
    workers = min(workers, len(values))
    if workers <= 1:
        return [_sweep_row(t) for t in tasks]
    if scenario.resolved["integrator"]["method"] == "crank_nicolson":
        # Crank-Nicolson rows (every box run is one) build sparse operators
        # and their LU; the forked workers inherit scipy imported here once
        import scipy.sparse.linalg  # noqa: F401
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_row, tasks))


SWEEP_COLUMNS = ["value", "status", "tau_internal", "tau_si", "xi", "final_fidelity", "error"]


def write_sweep_table(rows: list[dict], param: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        fh.write(f"# cqhjlab sweep schema_version={SCHEMA_VERSION} param={param}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                row[c] if c in ("status", "error") else "" if row[c] is None else _fmt(row[c])
                for c in SWEEP_COLUMNS
            )
    table = {"schema_version": SCHEMA_VERSION, "param": param, "rows": rows}
    _write_json(out_dir / "sweep.json", table)


def bundled_scenario_names() -> list[str]:
    from importlib import resources

    return sorted(
        p.name[:-4]
        for p in (resources.files("cqhjlab") / "scenarios").iterdir()
        if p.name.endswith(".ini")
    )


def load_bundled_scenario(name: str) -> Scenario:
    """Scenario shipped with the package (name without .ini suffix)."""
    from importlib import resources

    from .scenario import parse_scenario

    ref = resources.files("cqhjlab") / "scenarios" / f"{name}.ini"
    if not ref.is_file():
        raise ConfigError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        )
    return parse_scenario(ref.read_text(), name=name)


def load_scenario_or_bundled(path_or_name: str) -> Scenario:
    p = Path(path_or_name)
    if p.exists():
        return load_scenario(p)
    if "/" not in path_or_name and "\\" not in path_or_name and not path_or_name.endswith(".ini"):
        return load_bundled_scenario(path_or_name)
    return load_scenario(p)  # raises a readable ConfigError
