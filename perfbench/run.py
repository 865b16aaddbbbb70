"""cqhjlab benchmark: seeded scenario workloads through the public API.

    python3 perfbench/run.py --workload collapse_box --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured with nothing patched;
with ``--trace 1`` each operation runs once untraced and once with spans
around the layer functions (see ``tracing.py``), giving the per-layer
metrics and the tracing overhead. ``--seconds`` sets the number of
operations (``unit_count``), not a deadline, so a seed always gives the
same inputs and counts. Timed calls are scaled to an uncontended core by
the reference computation in ``speed.py``. The last line of
standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
lines before it print every metric with its unit, the failure share, the
oracle error and the environment. The full record, and the spans of a
traced run, go to ``.perfbench_out/`` in the source tree; run artifacts go
to a temporary directory there that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import REFERENCE_S, SENSITIVITY, Calibrated, on_cores  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

SETUP_REPEATS = 3

# Fresh interpreter: import the package, parse the scenario and build
# everything runner.execute builds before its first step.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
from cqhjlab import scenario
sc = scenario.parse_scenario(sys.stdin.read(), name="setup")
grid = sc.build_grid()
V = sc.build_potential(grid)
sc.build_initial_state(grid, V)
sc.build_force(grid, V)
sc.build_integrator()
sc.build_fidelity_target(grid, V)
print(time.perf_counter() - t0)
"""


def import_program():
    """Import cqhjlab from this tree's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cqhjlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cqhjlab from {src}: {exc}")
    if src.resolve() not in Path(cqhjlab.__file__).resolve().parents:
        sys.exit(f"perfbench: cqhjlab was imported from {cqhjlab.__file__}, not {src}")
    return cqhjlab


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def setup_seconds(text: str, cal: Calibrated) -> list[tuple[float, float]]:
    """(raw, speed factor) of each set-up in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            input=text, capture_output=True, text=True, env=_child_env(),
            cwd=ROOT, timeout=120, check=True,
        )
        times.append((float(out.stdout.strip().splitlines()[-1]), cal.factor()))
    return times


def import_seconds() -> float:
    """Cumulative import time of the cqhjlab package from `-X importtime`."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cqhjlab"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=120, check=True,
    )
    for line in out.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "cqhjlab":
            return int(parts[1]) * 1e-6
    raise RuntimeError("no cqhjlab line in -X importtime output")


def environment(program) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    src_lines = 0
    for p in sorted((ROOT / "src").rglob("*.py")):
        with open(p, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "reference_s": REFERENCE_S,
        "sensitivity": SENSITIVITY,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cqhjlab": program.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


# --------------------------------------------------------------------------
# operations


class Workload:
    """Runs operation i of one workload and seed."""

    def __init__(self, name: str, seed: int, workers: int, tmp: Path):
        self.name, self.seed, self.workers, self.tmp = name, seed, workers, tmp

    def draw(self, i: int) -> wl.Draw:
        return wl.draw(self.name, self.seed, i, self.workers)

    def run(self, i: int, workers: int | None = None, d: wl.Draw | None = None) -> wl.OpResult:
        d = d or self.draw(i)
        if self.name == "kappa_sweep":
            return wl.run_sweep_op(d, i, workers or self.workers)
        out_dir = self.tmp / f"op{i}"
        try:
            return wl.run_scenario_op(self.name, d, i, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# Operations a run makes per 20 s of --seconds, untraced and traced (a
# traced unit runs its operation untraced and traced; on kappa_sweep also its
# rows serially). About what fits in 20 s on the 2-core host the benchmark
# was defined on; collapse_box and kappa_sweep, whose operation times swing
# most with neighbour load, get more so their medians are steadier. The count depends on
# --seconds alone, so a seed always gives the same inputs, attempted and
# failed counts, however busy the host is.
OPS_PER_20_S = {
    "collapse_box": (5, 2),
    "stationary_split": (6, 3),
    "trajectory_dump": (8, 4),
    "kappa_sweep": (3, 1),
}
# stop early rather than overrun the time a run may take
MAX_RUN_S = 140.0


def unit_count(workload: str, seconds: float, trace: bool) -> int:
    return max(1, round(OPS_PER_20_S[workload][trace] * seconds / 20.0))


def run_units(n: int, unit):
    """Call unit(i) for i = 0 .. n-1; stop early only past MAX_RUN_S."""
    deadline = time.perf_counter() + MAX_RUN_S
    results = []
    for i in range(n):
        if i and time.perf_counter() > deadline:
            print(f"# stopped after {i} of {n} units: past {MAX_RUN_S:.0f} s")
            break
        results.append(unit(i))
    return results


def median_wall(ops, scaled: bool = True) -> float:
    """Median operation wall time. An operation that failed part-way counts
    with the time it would have taken to finish at its own rate, so failures
    do not shorten the median."""
    def wall(o):
        return o.wall_s * (o.speed_factor if scaled else 1.0)

    done = [wall(o) / o.progress for o in ops if o.progress > 0]
    return statistics.median(done or [wall(o) for o in ops])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_run(w: Workload, seconds: float, cal: Calibrated):
    # set-up is single-process on every workload: time it on one core
    first = {cal.cores[0]}
    with on_cores(first):
        setups = setup_seconds(w.draw(0).text, Calibrated(first))

    def unit(i):
        op = w.run(i)
        op.speed_factor = cal.factor()
        return op

    ops = run_units(unit_count(w.name, seconds, False), unit)
    steps = sum(o.steps_done for o in ops)
    metrics = {
        "run_wall_s": (median_wall(ops), "s"),
        "steps_per_s": (steps / sum(o.execute_s * o.speed_factor for o in ops), "1/s"),
        "setup_s": (statistics.median(t * f for t, f in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {
        "run_wall_s": median_wall(ops, scaled=False),
        "steps_per_s": steps / sum(o.execute_s for o in ops),
        "setup_s": statistics.median(t for t, _ in setups),
    }
    return metrics, ops, {"raw": raw, "setup": setups}


def traced_run(w: Workload, seconds: float, cal: Calibrated):
    import_s = import_seconds()
    tracer = Tracer()
    untraced, traced, pooled = [], [], []

    def timed(i, workers, d, into):
        op = w.run(i, workers, d)
        op.speed_factor = cal.factor()
        into.append(op)

    def unit(i):
        d = w.draw(i)
        if w.name == "kappa_sweep":
            timed(i, None, d, pooled)
            rows = [
                wl.Draw(d.text, {**d.params, "kappas": [k]}) for k in d.params["kappas"]
            ]
            for r in rows:
                timed(i, 1, r, untraced)
            d = rows[0]
        else:
            timed(i, 1, d, untraced)
        with tracer, tracer.span("bench.op"):
            op = w.run(i, 1, d)
        op.speed_factor = cal.factor()
        traced.append(op)

    run_units(unit_count(w.name, seconds, True), unit)
    stats = summarize(tracer.spans)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{w.name}-seed{w.seed}.csv.gz")

    n_ops = len(traced)
    steps = max(1, sum(o.steps_done for o in traced))

    def s(name, key="calls"):
        return stats.get(name, {}).get(key, 0)

    def per_call_us(name):
        return s(name, "total_s") / s(name) * 1e6 if s(name) else 0.0

    def scaled_wall(ops):
        return sum(o.wall_s * o.speed_factor for o in ops)

    psi_calls = s("cqhj.psi_to_p")
    paired = untraced if w.name != "kappa_sweep" else untraced[:: w.workers]
    metrics = {
        "evolve.self_us_per_step": (s("evolve.collapsible_evolve", "self_s") / steps * 1e6, "us"),
        "evolve.fp_iters_per_step": (psi_calls / steps - 1.0 if psi_calls else 0.0, "count"),
        "cqhj.psi_to_p.calls": (psi_calls / n_ops, "count"),
        "cqhj.psi_to_p.us": (per_call_us("cqhj.psi_to_p"), "us"),
        "forces.evaluate.us": (per_call_us("forces.evaluate"), "us"),
        "forces.gauge_potential.calls": (s("forces.gauge_potential") / n_ops, "count"),
        "forces.gauge_potential.us": (per_call_us("forces.gauge_potential"), "us"),
        "grid.gradient.calls": (s("grid.gradient") / n_ops, "count"),
        "grid.gradient.us": (per_call_us("grid.gradient"), "us"),
        "grid.cumulative_integral.us": (per_call_us("grid.cumulative_integral"), "us"),
        "grid.norm.calls": (s("grid.norm") / n_ops, "count"),
        "diagnostics.record.calls": (s("diagnostics.record") / n_ops, "count"),
        "diagnostics.record.us": (per_call_us("diagnostics.record"), "us"),
        "diagnostics.report_s": (
            (s("diagnostics.collapse_time", "total_s")
             + s("diagnostics.make_collapse_report", "total_s")) / n_ops,
            "s",
        ),
        "runner.execute_self_s": (s("runner.execute", "self_s") / n_ops, "s"),
        "runner.write_artifacts_s": (s("runner.write_artifacts", "total_s") / n_ops, "s"),
        "runner.bytes_written": (sum(o.bytes_written for o in traced) / n_ops, "B"),
        "runner.files_written": (sum(o.files_written for o in traced) / n_ops, "count"),
        "setup.import_s": (import_s, "s"),
        "scenario.parse_s": (s("scenario.parse", "total_s") / n_ops, "s"),
        "states.build_s": (
            sum(v["total_s"] for k, v in stats.items() if k.startswith("states.")) / n_ops,
            "s",
        ),
        "runner.sweep.parallel_efficiency": (
            scaled_wall(untraced) / (w.workers * scaled_wall(pooled)) if pooled else 0.0,
            "ratio",
        ),
        "runner.sweep.rows": (statistics.mean(o.attempted for o in pooled) if pooled else 0, "count"),
        "runner.sweep.workers": (w.workers if pooled else 0, "count"),
        "trace.overhead_frac": (scaled_wall(traced) / scaled_wall(paired) - 1.0, "ratio"),
    }
    return metrics, untraced + traced + pooled, {"layers": stats}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = import_program()
    env = environment(program)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="artifacts-", dir=OUT))
    cores = os.sched_getaffinity(0)
    # a single-process run stays on one core, next to its speed references
    own = cores if args.workload == "kappa_sweep" else {min(cores)}
    try:
        with on_cores(own):
            w = Workload(args.workload, args.seed, len(cores), tmp)
            run = traced_run if args.trace else timed_run
            metrics, ops, extra = run(w, args.seconds, Calibrated(own))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    incorrect = sum(o.incorrect for o in ops)
    errors = Counter(e.split(":", 1)[0] for o in ops for e in o.errors)
    oracle_err = max((o.oracle_err for o in ops), default=0.0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "fail_frac": failed / attempted,
        "oracle_err": oracle_err,
        "errors": dict(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "ops": [asdict(o) for o in ops],
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    raw = extra.get("raw", {})
    for k, (v, u) in metrics.items():
        note = f"  (unscaled {raw[k]:.6g})" if k in raw else ""
        print(f"#   {k:34s} {v:.6g} {u}{note}")
    print(f"#   {'fail_frac':34s} {failed / attempted:.6g} share ({failed}/{attempted}) {dict(errors)}")
    print(f"#   {'oracle_err':34s} {oracle_err:.6g} (max over operations)")
    print(json.dumps({
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
