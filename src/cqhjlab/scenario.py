"""Declarative run scenarios: a flat, sectioned key-value config format
(INI dialect) that parses into a fully validated Scenario object.

Every default is made explicit in the resolved echo that lands in the run
manifest, so a config plus its echo fully documents a run. A key that no
setting reads is an error, and a sweep override is resolved exactly as the
same value in the file would be.
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import UnitSystem
from .errors import ConfigError
from .evolve import IntegratorSpec, Method, _step_count
from .forces import CollapseForce, kostin_friction, null_force, pinning_force
from .grid import Boundary, Field, Grid
from .states import (
    HO_TOP_INDEX,
    POINTS_PER_STATE,
    Potential,
    box_potential,
    double_well_potential,
    free_potential,
    gaussian_packet,
    hamiltonian,
    harmonic_potential,
    ho_eigenstate,
    solve_eigenstates,
    superpose,
)

SCHEMA_VERSION = 1

_BOUNDARIES = {"box": Boundary.BOX, "periodic": Boundary.PERIODIC}
_METHODS = {
    "split_step": Method.SPLIT_STEP,
    "crank_nicolson": Method.CRANK_NICOLSON,
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario; `resolved` echoes every effective setting and
    `sections` keeps the text of every key, from which overrides resolve."""

    resolved: dict
    sections: dict
    # the eigenpairs solved for this scenario, per Hamiltonian
    _eigenpairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- builders ---------------------------------------------------------
    def build_grid(self) -> Grid:
        """The grid; ConfigError unless 1/dx^2 and 1/dx^4 (of the box stencil's
        D2^2) are finite, in Python floats, where an overflow is no warning."""
        g = self.resolved["grid"]
        dx = (g["x_max"] - g["x_min"]) / (g["n_points"] - (g["boundary"] == "box"))
        if not (0.0 < dx * dx < math.inf and 1.0 / (dx * dx) / (dx * dx) < math.inf):
            raise ConfigError(f"grid.x_min, x_max and n_points give dx = {dx:.3g}, out of range")
        return Grid(g["x_min"], g["x_max"], g["n_points"], _BOUNDARIES[g["boundary"]])

    def build_potential(self, grid: Grid) -> Potential:
        """The potential; ConfigError if a sample overflows on the grid."""
        p = self.resolved["potential"]
        build = {"free": free_potential, "harmonic": harmonic_potential,
                 "box": box_potential, "double_well": double_well_potential}.get(p["kind"])
        if build is None:
            raise ConfigError(f"unknown potential kind {p['kind']!r}")
        try:
            with np.errstate(over="raise", invalid="raise"):
                return build(grid, *(p[k] for k in ("omega", "a", "b") if k in p))
        except (FloatingPointError, OverflowError) as exc:
            keys = ", ".join(f"potential.{k} = {v}" for k, v in p.items())
            raise ConfigError(f"{keys} overflows on grid [{grid.x_min}, {grid.x_max}]") from exc

    def _eigenstate(self, index: int, grid: Grid, V: Potential) -> Field:
        if self.resolved["potential"]["kind"] == "harmonic":
            return ho_eigenstate(index, self.resolved["potential"]["omega"], grid).state
        # the states of the Hamiltonian the integrator steps with are stationary;
        # one solve gives every state the scenario names
        H = hamiltonian(V, _METHODS[self.resolved["integrator"]["method"]])
        if H not in self._eigenpairs:
            self._eigenpairs[H] = solve_eigenstates(H, self._eigenstate_count())
        return self._eigenpairs[H][index].state

    def _eigenstate_count(self) -> int:
        """How many of the lowest eigenstates the initial state and the
        targets reach into."""
        return max(index for _, index in _named_eigenstates(self.resolved)) + 1

    def build_initial_state(self, grid: Grid, V: Potential) -> Field:
        s = self.resolved["initial_state"]
        kind = s["kind"]
        if kind == "packet":
            return gaussian_packet(grid, s["x0"], s["k0"], s["sigma"])
        if kind == "eigenstate":
            return self._eigenstate(s["index"], grid, V)
        if kind == "superposition":
            states = [self._eigenstate(i, grid, V) for i in s["indices"]]
            return superpose(s["coefficients"], states)
        raise ConfigError(f"unknown initial state kind {kind!r}")

    def build_force(self, grid: Grid, V: Potential) -> CollapseForce:
        f = self.resolved["force"]
        kind = f["kind"]
        if kind == "null":
            return null_force()
        if kind == "pinning":
            target = self._eigenstate(f["target_index"], grid, V)
            return pinning_force(
                target, f["kappa"], node_threshold=self.resolved["run"]["node_threshold"]
            )
        if kind == "kostin":
            return kostin_friction(f["gamma"])
        raise ConfigError(f"unknown force kind {kind!r}")

    def build_integrator(self) -> IntegratorSpec:
        i = self.resolved["integrator"]
        return IntegratorSpec(
            method=_METHODS[i["method"]],
            dt=i["dt"],
            renormalize_each_step=i["renormalize"],
        )

    def build_fidelity_target(self, grid: Grid, V: Potential) -> Field | None:
        idx = self.resolved["run"]["fidelity_target_index"]
        if idx is None:
            return None
        return self._eigenstate(idx, grid, V)

    def build_units(self) -> UnitSystem | None:
        u = self.resolved.get("units")
        if u is None:
            return None
        return UnitSystem(mass_kg=u["mass_kg"], length_m=u["length_m"])


_REQUIRED = object()
_REQUIRED_SECTIONS = ("grid", "potential", "initial_state", "force", "integrator", "run")
_OPTIONAL_SECTIONS = ("units", "output")


class _SectionReader:
    """Typed access to one config section with section.key error anchors;
    records the keys it reads."""

    def __init__(self, sections: dict, name: str):
        self.name = name
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
        self.section = sections[name]
        self.read: set[str] = set()

    def _raw(self, key: str, default=_REQUIRED):
        self.read.add(key)
        if key not in self.section:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {self.name}.{key}")
            return default
        return self.section[key].strip()

    def string(self, key, choices=None, default=_REQUIRED):
        v = self._raw(key, default)
        if not isinstance(v, str):
            return v
        v = v.lower()
        if choices and v not in choices:
            raise ConfigError(
                f"{self.name}.{key} must be one of {sorted(choices)}, got {v!r}"
            )
        return v

    def number(self, key, default=_REQUIRED, positive=False):
        v = self._raw(key, default)
        if isinstance(v, str):
            try:
                v = float(v)
            except ValueError as exc:
                raise ConfigError(f"{self.name}.{key} is not a number: {v!r}") from exc
        if v is not None and not math.isfinite(v):
            raise ConfigError(f"{self.name}.{key} must be finite, got {v}")
        if v is not None and positive and not v > 0:
            raise ConfigError(f"{self.name}.{key} must be positive, got {v}")
        return v

    def integer(self, key, default=_REQUIRED, minimum=None):
        v = self._raw(key, default)
        if isinstance(v, str):
            try:
                v = int(v)
            except ValueError as exc:
                raise ConfigError(f"{self.name}.{key} is not an integer: {v!r}") from exc
        if v is not None and minimum is not None and v < minimum:
            raise ConfigError(f"{self.name}.{key} must be >= {minimum}, got {v}")
        return v

    def boolean(self, key, default=_REQUIRED):
        v = self._raw(key, default)
        if isinstance(v, str):
            if v.lower() in ("true", "yes", "1", "on"):
                return True
            if v.lower() in ("false", "no", "0", "off"):
                return False
            raise ConfigError(f"{self.name}.{key} is not a boolean: {v!r}")
        return v

    def int_list(self, key):
        raw = self._raw(key)
        try:
            return [int(t.strip()) for t in raw.split(",") if t.strip()]
        except ValueError as exc:
            raise ConfigError(f"{self.name}.{key} is not an integer list: {raw!r}") from exc

    def complex_list(self, key):
        raw = self._raw(key)
        try:
            values = [complex(t.strip().replace(" ", "")) for t in raw.split(",") if t.strip()]
        except ValueError as exc:
            raise ConfigError(f"{self.name}.{key} is not a complex list: {raw!r}") from exc
        if not all(cmath.isfinite(v) for v in values):
            raise ConfigError(f"{self.name}.{key} must be finite, got {raw!r}")
        return values


def _named_eigenstates(resolved: dict) -> list[tuple[str, int]]:
    """(key, index) of each eigenstate the initial state and the targets name."""
    init = resolved["initial_state"]
    named = [("initial_state.index", init.get("index", 0))]
    named += [("initial_state.indices", index) for index in init.get("indices", ())]
    return named + [
        ("force.target", resolved["force"].get("target_index", 0)),
        ("run.fidelity_target", resolved["run"]["fidelity_target_index"] or 0),
    ]


def _parse_target(reader: _SectionReader, key: str) -> int:
    raw = reader._raw(key)
    if not raw.startswith("eigenstate:"):
        raise ConfigError(
            f"{reader.name}.{key} must look like 'eigenstate:<index>', got {raw!r}"
        )
    try:
        return int(raw.split(":", 1)[1])
    except ValueError as exc:
        raise ConfigError(f"{reader.name}.{key} has a non-integer index: {raw!r}") from exc


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario config; raises ConfigError with the
    offending section.key (or the parser's line-numbered message)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    return _resolve({s: dict(parser[s]) for s in parser.sections()}, name)


def _resolve(sections: dict, name: str) -> Scenario:
    """Validate the key texts of each section into a Scenario."""
    readers = {s: _SectionReader(sections, s) for s in _REQUIRED_SECTIONS}
    readers.update((s, _SectionReader(sections, s)) for s in _OPTIONAL_SECTIONS if s in sections)
    grid = readers["grid"]
    resolved_grid = {
        "x_min": grid.number("x_min"),
        "x_max": grid.number("x_max"),
        "n_points": grid.integer("n_points", minimum=16),
        "boundary": grid.string("boundary", choices=set(_BOUNDARIES)),
    }
    if not resolved_grid["x_max"] > resolved_grid["x_min"]:
        raise ConfigError("grid.x_max must exceed grid.x_min")

    pot = readers["potential"]
    kind = pot.string("kind", choices={"free", "harmonic", "box", "double_well"})
    resolved_pot: dict = {"kind": kind}
    if kind == "harmonic":
        resolved_pot["omega"] = pot.number("omega", positive=True)
    elif kind == "double_well":
        resolved_pot["a"] = pot.number("a", positive=True)
        resolved_pot["b"] = pot.number("b", positive=True)
    if kind == "box" and resolved_grid["boundary"] != "box":
        raise ConfigError("potential.kind box requires grid.boundary = box")

    init = readers["initial_state"]
    ikind = init.string("kind", choices={"packet", "eigenstate", "superposition"})
    resolved_init: dict = {"kind": ikind}
    if ikind == "packet":
        resolved_init.update(
            x0=init.number("x0"),
            k0=init.number("k0"),
            sigma=init.number("sigma", positive=True),
        )
    elif ikind == "eigenstate":
        resolved_init["index"] = init.integer("index", minimum=0)
    else:
        indices = init.int_list("indices")
        coefficients = init.complex_list("coefficients")
        if len(indices) != len(coefficients) or not indices:
            raise ConfigError(
                "initial_state.indices and initial_state.coefficients must have "
                "equal nonzero length"
            )
        resolved_init["indices"] = indices
        resolved_init["coefficients"] = [str(c) for c in coefficients]

    force = readers["force"]
    fkind = force.string("kind", choices={"null", "pinning", "kostin"})
    resolved_force: dict = {"kind": fkind}
    if fkind == "pinning":
        resolved_force["kappa"] = force.number("kappa", positive=True)
        resolved_force["target_index"] = _parse_target(force, "target")
    elif fkind == "kostin":
        resolved_force["gamma"] = force.number("gamma", positive=True)

    integ = readers["integrator"]
    resolved_integ = {
        "method": integ.string("method", choices=set(_METHODS)),
        "dt": integ.number("dt", positive=True),
        "renormalize": integ.boolean("renormalize", default=True),
    }
    if resolved_integ["method"] == "split_step" and resolved_grid["boundary"] != "periodic":
        raise ConfigError("integrator.method split_step requires grid.boundary = periodic")

    run = readers["run"]
    resolved_run = {
        "t_final": run.number("t_final", positive=True),
        "snapshot_stride": run.integer("snapshot_stride", default=10, minimum=1),
        "collapse_epsilon": run.number("collapse_epsilon", default=1e-3),
        "node_threshold": run.number("node_threshold", default=1e-6, positive=True),
        "write_snapshots": run.boolean("write_snapshots", default=False),
    }
    eps, threshold = resolved_run["collapse_epsilon"], resolved_run["node_threshold"]
    if not 0.0 < eps < 0.5:
        raise ConfigError(f"run.collapse_epsilon must lie in (0, 0.5), got {eps}")
    if not threshold < 1.0:
        raise ConfigError(f"run.node_threshold must lie in (0, 1), got {threshold}")
    dt, t_final = resolved_integ["dt"], resolved_run["t_final"]
    if dt > t_final:
        raise ConfigError(f"integrator.dt = {dt} exceeds run.t_final = {t_final}")
    try:
        _step_count(t_final, dt, resolved_run["snapshot_stride"])
    except ValueError as exc:
        raise ConfigError(f"integrator.dt = {dt} and run.t_final = {t_final}: {exc}") from exc
    if "fidelity_target" in run.section:
        resolved_run["fidelity_target_index"] = _parse_target(run, "fidelity_target")
    elif fkind == "pinning":
        resolved_run["fidelity_target_index"] = resolved_force["target_index"]
    else:
        resolved_run["fidelity_target_index"] = None

    resolved: dict = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "grid": resolved_grid,
        "potential": resolved_pot,
        "initial_state": resolved_init,
        "force": resolved_force,
        "integrator": resolved_integ,
        "run": resolved_run,
    }

    top = HO_TOP_INDEX if kind == "harmonic" else resolved_grid["n_points"] // POINTS_PER_STATE - 1
    for key, index in _named_eigenstates(resolved):
        if not 0 <= index <= top:
            raise ConfigError(f"{key} names eigenstate {index}; this scenario supplies 0..{top}")

    if "units" in readers:
        units = readers["units"]
        resolved["units"] = {
            "mass_kg": units.number("mass_kg", positive=True),
            "length_m": units.number("length_m", positive=True),
        }

    out = readers.get("output")
    resolved["output"] = {
        "directory": (out._raw("directory", "runs") if out else "runs"),
    }

    extra = set(sections) - set(readers)
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    unread = [f"{r.name}.{k}" for r in readers.values() for k in r.section if k not in r.read]
    if unread:
        raise ConfigError(f"unknown config keys: {unread}")

    scenario = Scenario(resolved=resolved, sections=sections)
    scenario.build_potential(scenario.build_grid())  # a ConfigError if either overflows
    return scenario


def load_scenario(path) -> Scenario:
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {p}: {exc}") from exc
    return parse_scenario(text, name=p.stem)


def apply_override(scenario: Scenario, param: str, value: float) -> Scenario:
    """New scenario with one config key (e.g. force.kappa) set to a number,
    validated as the same value in the file would be; an integral value
    is written without its ".0", so integer keys accept it."""
    parts = param.split(".")
    if len(parts) != 2:
        raise ConfigError(f"sweep parameter must look like section.key, got {param!r}")
    section, key = parts
    sections = {s: dict(keys) for s, keys in scenario.sections.items()}
    sections.setdefault(section, {})[key] = repr(float(value)).removesuffix(".0")
    return _resolve(sections, scenario.resolved["name"])
