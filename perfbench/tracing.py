"""Outside-in spans around cqhjlab's public layer functions.

The tracer replaces a function in the module that calls it (the name the
caller looks up at call time), so the program itself is unchanged. Each span
is (id, name, start_ns, end_ns, parent_id); spans stay in memory until
``write``. A span's self time is its duration minus the time its child
spans cover; calls are counted at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module that looks the name up, attribute, span name)
BOUNDARIES = (
    ("cqhjlab.scenario", "parse_scenario", "scenario.parse"),
    ("cqhjlab.scenario", "gaussian_packet", "states.gaussian_packet"),
    ("cqhjlab.scenario", "ho_eigenstate", "states.ho_eigenstate"),
    ("cqhjlab.scenario", "solve_eigenstates", "states.solve_eigenstates"),
    ("cqhjlab.scenario", "superpose", "states.superpose"),
    ("cqhjlab.runner", "execute", "runner.execute"),
    ("cqhjlab.runner", "write_artifacts", "runner.write_artifacts"),
    ("cqhjlab.runner", "sweep", "runner.sweep"),
    ("cqhjlab.runner", "collapsible_evolve", "evolve.collapsible_evolve"),
    ("cqhjlab.runner", "collapse_time", "diagnostics.collapse_time"),
    ("cqhjlab.runner", "make_collapse_report", "diagnostics.make_collapse_report"),
    ("cqhjlab.evolve", "psi_to_p", "cqhj.psi_to_p"),
    ("cqhjlab.evolve", "evaluate_force", "forces.evaluate"),
    ("cqhjlab.evolve", "gauge_potential", "forces.gauge_potential"),
    ("cqhjlab.evolve", "norm", "grid.norm"),
    ("cqhjlab.evolve", "_record_psi_observables", "diagnostics.record"),
    ("cqhjlab.cqhj", "gradient", "grid.gradient"),
    ("cqhjlab.forces", "cumulative_integral", "grid.cumulative_integral"),
    ("cqhjlab.grid", "gradient", "grid.gradient"),
)


class Tracer:
    """In-memory span recorder; use as a context manager to patch and restore."""

    def __init__(self):
        self.spans: list = []
        self._stack = [0]
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) + 1
            spans.append(None)  # reserve the slot: ids follow start order
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid - 1] = (sid, name, start, end, stack[-1])

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        spans, stack = self.spans, self._stack
        sid = len(spans) + 1
        spans.append(None)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[sid - 1] = (sid, name, start, end, stack[-1])

    def __enter__(self):
        for mod_name, attr, name in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for s in self.spans:
                fh.write("%d,%s,%d,%d,%d\n" % s)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_ns = defaultdict(int)
    for s in spans:
        if s is not None and s[4]:
            child_ns[s[4]] += s[3] - s[2]
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        if s is None:
            continue
        dur = s[3] - s[2]
        agg = out[s[1]]
        agg["calls"] += 1
        agg["total_s"] += dur * 1e-9
        agg["self_s"] += (dur - child_ns[s[0]]) * 1e-9
    return dict(out)
