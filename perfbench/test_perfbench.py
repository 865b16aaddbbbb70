"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl
from tracing import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_draws_are_deterministic_per_seed(workload):
    first = [wl.draw(workload, 7, i) for i in range(4)]
    again = [wl.draw(workload, 7, i) for i in range(4)]
    other = [wl.draw(workload, 8, i) for i in range(4)]
    assert first == again
    assert first != other


def test_collapse_draws_alternate_between_collapsing_and_diverging_inputs():
    rows = {phase: (ok, bad) for phase, ok, bad in wl.COLLAPSE_TABLE}
    for seed in (3, 4):
        for i in range(6):
            p = wl.draw("collapse_box", seed, i).params
            assert p["kappa"] in rows[p["phase"]][i % 2]
        sweep = wl.draw("kappa_sweep", seed, 0, workers=3).params
        ok, bad = rows[sweep["phase"]]
        assert [k in ok for k in sweep["kappas"]] == [True, False, True]
        assert sweep["kappas"][1] in bad


def test_run_size_depends_only_on_the_seconds():
    import run

    for name in wl.WORKLOADS:
        assert run.unit_count(name, 1, False) == 1
        assert run.unit_count(name, 20, True) <= run.unit_count(name, 20, False)
    assert run.unit_count("collapse_box", 20, False) == 5


def test_generated_scenarios_parse():
    sys.path.insert(0, str(ROOT / "src"))
    from cqhjlab import scenario

    for workload in wl.WORKLOADS:
        d = wl.draw(workload, 5, 0)
        sc = scenario.parse_scenario(d.text, name=workload)
        if "kappa" in d.params:
            assert sc.resolved["force"]["kappa"] == d.params["kappa"]
        if "x0" in d.params:
            assert sc.resolved["initial_state"]["x0"] == d.params["x0"]


def test_collapse_oracle_rejects_perturbed_outputs():
    kappa = 2.5
    good = dict(tau=3.5 / kappa, final_fidelity=1 - 1e-8, epsilon=1e-3, kappa=kappa,
                max_norm_deviation=2e-16)
    assert wl.check_collapse(**good).ok
    for change in (
        {"tau": None},
        {"final_fidelity": 1 - 2e-3},
        {"max_norm_deviation": 1e-10},
        {"tau": 1.5 * 3.5 / kappa},
        {"tau": 0.7 * 3.5 / kappa},
    ):
        assert not wl.check_collapse(**{**good, **change}).ok, change


def test_stationary_oracle_rejects_perturbed_outputs():
    energies = [3.5] * 14
    assert wl.check_stationary(energies, 4e-10, 3).ok
    assert not wl.check_stationary(energies, 4e-10, 2).ok
    assert not wl.check_stationary([3.5] * 13 + [3.5 + 1e-6], 4e-10, 3).ok
    assert not wl.check_stationary(energies, 1e-6, 3).ok


def test_coherent_oracle_rejects_perturbed_outputs():
    x0 = 0.9
    fid = [math.exp(-0.5 * x0 * x0) + 2e-8] * 787
    energy = [0.5 + 0.5 * x0 * x0] * 787
    v = wl.check_coherent(fid, energy, x0)
    assert v.ok and v.err == pytest.approx(2e-8)
    assert not wl.check_coherent([f + 1e-5 for f in fid], energy, x0).ok
    assert not wl.check_coherent(fid, [e + 1e-4 for e in energy], x0).ok
    assert not wl.check_coherent(fid, energy, x0 + 0.01).ok


def test_steps_reached_reads_the_failure_time():
    msg = "FixedPointDivergence: ... in 50 iterations at t = 2.293"
    assert wl.steps_reached(msg, 1e-3) == 2293
    assert wl.steps_reached("ValueError: something else", 1e-3) == 0

    class Partial(Exception):
        trajectory = type("T", (), {"times": [0.0, 0.5, 1.25]})()

    assert wl.steps_reached(Partial("no time here"), 1e-3) == 1250


def test_failed_operations_count_with_their_projected_wall_time():
    import run

    whole = wl.OpResult(index=0, params={}, wall_s=4.0, speed_factor=0.5)
    quarter = wl.OpResult(index=1, params={}, wall_s=1.0, progress=0.25, speed_factor=0.5)
    assert run.median_wall([whole, quarter]) == pytest.approx(2.0)
    assert run.median_wall([whole, quarter], scaled=False) == pytest.approx(4.0)


def test_self_time_subtracts_children():
    # root(0..100) -> a(10..40) -> b(20..30); root -> a(50..60)
    spans = [
        (1, "root", 0, 100, 0),
        (2, "a", 10, 40, 1),
        (3, "b", 20, 30, 2),
        (4, "a", 50, 60, 1),
    ]
    s = summarize(spans)
    assert s["root"]["self_s"] == pytest.approx(60e-9)
    assert s["a"]["calls"] == 2
    assert s["a"]["total_s"] == pytest.approx(40e-9)
    assert s["a"]["self_s"] == pytest.approx(30e-9)
    assert s["b"]["self_s"] == pytest.approx(10e-9)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_traced_run_emits_every_per_layer_metric():
    p = _run(["--workload", "stationary_split", "--seed", "0", "--seconds", "1", "--trace", "1"])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the null-force control never reaches the force layer
    assert result["metrics"]["forces.gauge_potential.calls"]["value"] == 0
    assert result["metrics"]["diagnostics.record.calls"]["value"] == 14


def test_untraced_run_emits_every_end_to_end_metric():
    p = _run(["--workload", "trajectory_dump", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "collapse_box", "--seed", "0", "--seconds", "1"], cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
