"""Self-contained invariant verification suites.

`fast` exercises every structural identity the package is built on: the
operator substrate, the momentum-map identity chain, eigenstate
characterization, homogeneity, and the Schroedinger limit of the
collapsible propagator. `full` adds resolution and time-step convergence
studies plus the long-run collapse behaviors.

Each check reports a measured value against a tolerance. The tolerance
scale multiplies upper bounds and divides lower bounds, so a scale below
one uniformly tightens the suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cqhj import (
    DEFAULT_NODE_THRESHOLD,
    MomentumField,
    RhsForm,
    cqhj_rhs,
    cqhj_rhs_from_state,
    derivation_residuals,
    dilated_mask,
    hamiltonian_field_from_state,
    masked_stats,
    psi_to_p,
    random_nodeless_state,
)
from .diagnostics import UnitSystem, collapse_time, fidelity
from .evolve import (
    IntegratorSpec,
    Method,
    _gauge_kernel,
    _split_step_e_max,
    collapsible_evolve,
    cqhj_evolve,
    schrodinger_evolve,
)
from .forces import (
    evaluate as evaluate_force,
    gauge_potential,
    kostin_friction,
    null_force,
    pinning_force,
)
from .grid import (
    Boundary,
    Field,
    Grid,
    cumulative_integral,
    gradient,
    make_field,
)
from .states import (
    custom_potential,
    free_potential,
    gaussian_packet,
    hamiltonian,
    harmonic_potential,
    ho_eigenstate,
    position_variance,
    solve_eigenstates,
    superpose,
)

@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    kind: str  # "max": measured <= tolerance, "min": measured >= tolerance
    seconds: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        rel = "<=" if self.kind == "max" else ">="
        out = (
            f"{mark}  {self.name:42s} measured {self.measured:.3e} "
            f"(needs {rel} {self.tolerance:.3e}, {self.seconds:.2f}s)"
        )
        if self.detail:
            out += f"  [{self.detail}]"
        return out


def _check(name, fn, tolerance, kind="max", scale=1.0):
    started = time.perf_counter()
    tol = tolerance * scale if kind == "max" else tolerance / scale
    measured, detail = fn()
    passed = measured <= tol if kind == "max" else measured >= tol
    return CheckResult(
        name=name,
        passed=bool(passed),
        measured=float(measured),
        tolerance=float(tol),
        kind=kind,
        seconds=time.perf_counter() - started,
        detail=detail,
    )


# -- substrate checks -------------------------------------------------------


def _spectral_plane_wave():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    k = 5.0
    f = make_field(g, np.exp(1j * k * g.x))
    err = np.max(np.abs(gradient(f).values - 1j * k * f.values))
    return err, "d/dx exp(ikx) vs ik exp(ikx)"


def _gradient_linearity():
    rng = np.random.default_rng(11)
    g = Grid(-10.0, 10.0, 256, Boundary.PERIODIC)
    worst = 0.0
    for _ in range(5):
        f1 = random_nodeless_state(g, rng)
        f2 = random_nodeless_state(g, rng)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lhs = gradient(Field(g, a * f1.values + b * f2.values)).values
        rhs = a * gradient(f1).values + b * gradient(f2).values
        scale = np.max(np.abs(rhs))
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    return worst, "relative, random complex combinations"


def _fd4_doubling_ratio():
    errs = []
    for n in (256, 512):
        g = Grid(-10.0, 10.0, n, Boundary.BOX)
        f = make_field(g, np.exp(-g.x**2 / 2))
        exact = -g.x * np.exp(-g.x**2 / 2)
        errs.append(np.max(np.abs(gradient(f).values - exact)))
    return errs[0] / errs[1], "gaussian derivative error ratio n=256/512"


def _spectral_floor():
    g = Grid(-10.0, 10.0, 64, Boundary.PERIODIC)
    f = make_field(g, np.exp(-g.x**2 / 2))
    err = np.max(np.abs(gradient(f).values - (-g.x * np.exp(-g.x**2 / 2))))
    return err, "resolved gaussian at n=64"


def _fundamental_theorem():
    g = Grid(-10.0, 10.0, 512, Boundary.BOX)
    f = make_field(g, np.exp(-((g.x - 1.0) ** 2) / 4))
    from .grid import integrate

    got = integrate(gradient(f))
    want = f.values[-1] - f.values[0]
    return abs(got - want), "integrate(grad f) vs boundary difference"


def _cumulative_inverse():
    g = Grid(-10.0, 10.0, 256, Boundary.BOX)
    f = make_field(g, np.exp(-g.x**2 / 8))
    err = np.max(np.abs(gradient(cumulative_integral(f)).values - f.values))
    return err, "grad(cumulative(f)) vs f, box n=256"


# -- momentum-map checks -----------------------------------------------------


def _residual_suite(n_states=20):
    g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
    V = custom_potential(g, 1.5 * np.cos(2 * np.pi * g.x / g.length))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(n_states):
        psi = random_nodeless_state(g, rng)
        worst = max(worst, derivation_residuals(psi, V).max())
    return worst, f"{n_states} random nodeless states, n=512 spectral"


def _form_agreement():
    g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
    V = custom_potential(g, 1.5 * np.cos(2 * np.pi * g.x / g.length))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        p = psi_to_p(random_nodeless_state(g, rng))
        a = cqhj_rhs(p, V, RhsForm.EXPANDED).values
        b = cqhj_rhs(p, V, RhsForm.CANONICAL).values
        worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(a)))
    return worst, "expanded vs canonical right-hand side, relative"


def _eigenstate_hamiltonian():
    g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
    H = hamiltonian(harmonic_potential(g, 1.0), Method.SPLIT_STEP)
    worst = 0.0
    for n in range(4):
        pair = ho_eigenstate(n, 1.0, g)
        field, mask = hamiltonian_field_from_state(pair.state, H, node_threshold=1e-5)
        mean, std = masked_stats(field, mask)
        worst = max(worst, std / pair.energy, abs(mean.real - pair.energy) / pair.energy)
    return worst, "H-field mean/std vs energy, oscillator n=0..3"


def _eigenstate_rhs():
    g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
    H = hamiltonian(harmonic_potential(g, 1.0), Method.SPLIT_STEP)
    worst = 0.0
    for n in range(4):
        pair = ho_eigenstate(n, 1.0, g)
        rhs, mask = cqhj_rhs_from_state(pair.state, H, node_threshold=1e-5)
        keep = ~dilated_mask(mask, g, 5)
        worst = max(worst, np.max(np.abs(rhs.values[keep])))
    return worst, "momentum rate on stationary states, off-mask"


def _map_homogeneity():
    g = Grid(-12.0, 12.0, 512, Boundary.PERIODIC)
    rng = np.random.default_rng(3)
    psi = random_nodeless_state(g, rng)
    c = 2.7 * np.exp(1j * np.pi / 5)
    p1 = psi_to_p(psi)
    p2 = psi_to_p(Field(g, c * psi.values))
    return np.max(np.abs(p1.values - p2.values)), "p(c psi) vs p(psi), nodeless state"


def _force_homogeneity():
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    pair0 = ho_eigenstate(0, 1.0, g)
    pair1 = ho_eigenstate(1, 1.0, g)
    psi = superpose([0.8, 0.6j], [pair0.state, pair1.state])
    c = 1.7 - 0.4j
    worst = 0.0
    for force in (pinning_force(pair0, 2.0), kostin_friction(0.3)):
        f1 = evaluate_force(force, psi_to_p(psi)).values
        f2 = evaluate_force(force, psi_to_p(Field(g, c * psi.values))).values
        worst = max(worst, np.max(np.abs(f1 - f2)))
    return worst, "force(p(c psi)) vs force(p(psi))"


def _gauge_lift_agreement():
    # the collapse step's pair route against the public p-route, on nodeless
    # states, where both lift the same force: they differ by the box
    # stencils' discretization error and by roundoff on the ring
    worst = 0.0
    for g in (Grid(-8.0, 8.0, 512, Boundary.BOX), Grid(-8.0, 8.0, 256, Boundary.PERIODIC)):
        rng = np.random.default_rng(17)
        for _ in range(10):
            psi, target = random_nodeless_state(g, rng), random_nodeless_state(g, rng)
            for force in (pinning_force(target, 2.0), kostin_friction(0.5)):
                pairs = _gauge_kernel(force, g, DEFAULT_NODE_THRESHOLD)(psi.values)
                ref = gauge_potential(evaluate_force(force, psi_to_p(psi))).values
                spread = np.hypot(np.ptp(ref.real), np.ptp(ref.imag))
                worst = max(worst, np.max(np.abs(pairs - ref)) / spread)
    return worst, "pair lift vs p-route Phi / range of Phi, box n=512, ring n=256"


# -- propagator checks -------------------------------------------------------


def _null_force_reduction():
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    psi0 = gaussian_packet(g, 1.0, 0.5, 1.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    nl = collapsible_evolve(psi0, V, null_force(), spec, 1.0, snapshot_stride=10**9)
    lin = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, False), 1.0, snapshot_stride=10**9
    )
    return 1.0 - fidelity(nl.final_state, lin.final_state), "fidelity deficit at t=1"


def _density_scaling_invariance():
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    pair0 = ho_eigenstate(0, 1.0, g)
    pair1 = ho_eigenstate(1, 1.0, g)
    psi0 = superpose([1 / np.sqrt(2), 1 / np.sqrt(2)], [pair0.state, pair1.state])
    c = 2.7 * np.exp(1j * np.pi / 5)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
    force = pinning_force(pair0, 2.0)
    ta = collapsible_evolve(psi0, V, force, spec, 1.0, snapshot_stride=200)
    tb = collapsible_evolve(Field(g, c * psi0.values), V, force, spec, 1.0, snapshot_stride=200)
    worst = float(np.max(np.abs(np.abs(ta.snapshots) ** 2 - np.abs(tb.snapshots) ** 2)))
    return worst, "normalized densities, psi0 vs 2.7 exp(i pi/5) psi0"


def _pinning_fixed_point():
    g = Grid(-12.0, 12.0, 256, Boundary.PERIODIC)
    V = harmonic_potential(g, 1.0)
    pair = ho_eigenstate(0, 1.0, g)
    force = pinning_force(pair, 2.0)
    spec = IntegratorSpec(Method.SPLIT_STEP, 2e-4, True)
    # the run's node threshold limits the force support to the spectrally
    # conditioned region: below 1e-4 of peak, global FFT roundoff divided by
    # |psi| would feed a slow noise loop through the gauge lift
    traj = collapsible_evolve(
        pair.state, V, force, spec, 1.0, snapshot_stride=10**9, node_threshold=1e-4
    )
    drift = np.max(np.abs(np.abs(traj.final_state.values) ** 2 - np.abs(pair.state.values) ** 2))
    return drift, "density drift at t=1, target = initial state"


def _eigensolver_ladder():
    g = Grid(-8.0, 8.0, 3072, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    pairs = solve_eigenstates(hamiltonian(V, Method.CRANK_NICOLSON), 4)
    worst = max(abs(p.energy - (j + 0.5)) for j, p in enumerate(pairs))
    return worst, "harmonic ladder energies, n=3072"


def _born_rule():
    g = Grid(-8.0, 8.0, 1024, Boundary.BOX)
    pair0 = ho_eigenstate(0, 1.0, g)
    pair1 = ho_eigenstate(1, 1.0, g)
    psi = superpose([0.6, 0.8j], [pair0.state, pair1.state])
    e0 = abs(fidelity(psi, pair0.state) - 0.36)
    e1 = abs(fidelity(psi, pair1.state) - 0.64)
    return max(e0, e1), "superposition weights 0.36/0.64"


def _unit_round_trip():
    u = UnitSystem(mass_kg=9.1093837015e-31, length_m=1e-9)
    taus = (1e-3, 1.0, 17.3)
    worst = max(abs(u.from_si(u.to_si(t)) - t) / t for t in taus)
    return worst, "to_si then from_si, relative"


# -- full-level checks -------------------------------------------------------


def _fd4_order_study():
    errs = {}
    for n in (128, 256, 512):
        g = Grid(-10.0, 10.0, n, Boundary.BOX)
        f = make_field(g, np.exp(-g.x**2 / 2))
        errs[n] = np.max(np.abs(gradient(f).values - (-g.x * np.exp(-g.x**2 / 2))))
    o1 = np.log2(errs[128] / errs[256])
    o2 = np.log2(errs[256] / errs[512])
    return min(o1, o2), f"orders {o1:.2f}, {o2:.2f} over n=128/256/512"


def _residual_resolution_study():
    vals = {}
    for n in (256, 512):
        g = Grid(-12.0, 12.0, n, Boundary.PERIODIC)
        V = custom_potential(g, 1.5 * np.cos(2 * np.pi * g.x / g.length))
        psi = random_nodeless_state(g, np.random.default_rng(7), modes=16, amplitude=2.5)
        vals[n] = derivation_residuals(psi, V).closed_form
    return vals[256] / vals[512], f"closed-form residual {vals[256]:.2e} -> {vals[512]:.2e}"


def _cross_propagator():
    g = Grid(-8.0, 8.0, 512, Boundary.PERIODIC)
    V = free_potential(g)
    psi0 = random_nodeless_state(g, np.random.default_rng(3), modes=5, amplitude=0.35)
    p0 = psi_to_p(psi0, node_threshold=1e-12)
    # the largest dt with dt * E_max <= 0.095 that divides t_final = 1
    dt_psi = 1.0 / np.ceil(_split_step_e_max(g) / 0.095)
    tr_psi = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.SPLIT_STEP, dt_psi, False), 1.0, snapshot_stride=10**9
    )
    tr_p = cqhj_evolve(
        p0, V, IntegratorSpec(Method.RK4, 2e-4), 1.0, snapshot_stride=10**9, node_threshold=1e-12
    )
    p_from_psi = psi_to_p(tr_psi.final_state, node_threshold=1e-12)
    err = np.max(np.abs(p_from_psi.values - tr_p.final_state.values))
    return err, "momentum fields from both propagators at t=1"


def _momentum_stationarity():
    g = Grid(-6.0, 6.0, 320, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    p0 = MomentumField(Field(g, 1j * g.x), np.zeros(g.n_points, dtype=bool))
    dt0 = 0.9 * 1.05 * g.dx**2
    T = 2 * np.pi
    steps = int(np.ceil(T / dt0))
    tr = cqhj_evolve(
        p0,
        V,
        IntegratorSpec(Method.RK4, T / steps),
        T,
        snapshot_stride=10**9,
        node_threshold=1e-10,
    )
    weight = np.exp(-g.x**2 / 2)
    sel = weight >= 1e-5
    drift = np.max(np.abs(tr.final_state.values[sel] - p0.values[sel]))
    return drift, "ground-state momentum field over one period (observable region)"


def _strang_order():
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    pair0 = ho_eigenstate(0, 1.0, g)
    pair1 = ho_eigenstate(1, 1.0, g)
    psi0 = superpose([0.8, 0.6j], [pair0.state, pair1.state])
    force = pinning_force(pair0, 1.0)
    t_final = 0.25

    def final(dt):
        spec = IntegratorSpec(Method.CRANK_NICOLSON, dt, True)
        return collapsible_evolve(psi0, V, force, spec, t_final, snapshot_stride=10**9).final_state.values

    ref = final(t_final / 2048)
    e1 = np.max(np.abs(final(t_final / 256) - ref))
    e2 = np.max(np.abs(final(t_final / 512) - ref))
    return e1 / e2, f"dt-halving ratio, errors {e1:.2e} -> {e2:.2e}"


def _rk4_order():
    g = Grid(-8.0, 8.0, 256, Boundary.PERIODIC)
    V = free_potential(g)
    psi = random_nodeless_state(g, np.random.default_rng(5), modes=5, amplitude=0.7)
    p0 = psi_to_p(psi, node_threshold=1e-12)
    tf = 0.5

    def final(dt):
        return cqhj_evolve(
            p0, V, IntegratorSpec(Method.RK4, dt), tf, snapshot_stride=10**9, node_threshold=1e-12
        ).final_state.values

    ref = final(tf / 4096)
    e1 = np.max(np.abs(final(tf / 256) - ref))
    e2 = np.max(np.abs(final(tf / 512) - ref))
    return e1 / e2, f"dt-halving ratio, errors {e1:.2e} -> {e2:.2e}"


def _pinning_rate_scaling():
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    pair0 = ho_eigenstate(0, 1.0, g)
    pair1 = ho_eigenstate(1, 1.0, g)
    psi0 = superpose([1 / np.sqrt(2), 1 / np.sqrt(2)], [pair0.state, pair1.state])
    taus = {}
    for kappa in (1.0, 2.0, 4.0):
        force = pinning_force(pair0, kappa)
        spec = IntegratorSpec(Method.CRANK_NICOLSON, 1e-3, True)
        traj = collapsible_evolve(
            psi0, V, force, spec, 14.0 / kappa, snapshot_stride=20, target=pair0.state
        )
        taus[kappa] = collapse_time(traj, 1e-3)
    r1 = taus[2.0] / taus[1.0]
    r2 = taus[4.0] / taus[2.0]
    dev = max(abs(r1 - 0.5), abs(r2 - 0.5))
    return dev, f"tau ratios {r1:.3f}, {r2:.3f} (1/rate scaling wants 0.5)"


def _kostin_relaxation():
    g = Grid(-8.0, 8.0, 512, Boundary.BOX)
    V = harmonic_potential(g, 1.0)
    pair0 = ho_eigenstate(0, 1.0, g)
    psi0 = gaussian_packet(g, 0.8, 0.0, 1.0)
    spec = IntegratorSpec(Method.CRANK_NICOLSON, 2e-3, True)
    traj = collapsible_evolve(
        psi0, V, kostin_friction(0.2), spec, 20.0, snapshot_stride=50, target=pair0.state
    )
    fid = traj.observables["fidelity_target"][-1]
    d_energy = np.diff(traj.observables["energy"]).max()
    if d_energy > 1e-8:
        return 0.0, f"energy not monotone (max increase {d_energy:.2e})"
    return fid, f"final ground-state fidelity (max energy increase {d_energy:.2e})"


def _free_spreading():
    g = Grid(-16.0, 16.0, 512, Boundary.PERIODIC)
    V = free_potential(g)
    psi0 = gaussian_packet(g, 0.0, 0.0, 1.0)
    # the largest dt with dt * E_max <= 0.095 that divides t_final = 2
    dt = 2.0 / np.ceil(2.0 * _split_step_e_max(g) / 0.095)
    traj = schrodinger_evolve(
        psi0, V, IntegratorSpec(Method.SPLIT_STEP, dt, False), 2.0, snapshot_stride=10**9
    )
    var = position_variance(traj.final_state)
    want = 0.5 * (1.0 + 4.0)
    return abs(var - want) / want, "free-packet variance at t=2 vs closed form"


FAST_CHECKS = [
    ("spectral-plane-wave-derivative", _spectral_plane_wave, 1e-12, "max"),
    ("derivative-linearity", _gradient_linearity, 1e-12, "max"),
    ("fd4-doubling-ratio", _fd4_doubling_ratio, 12.0, "min"),
    ("spectral-accuracy-floor", _spectral_floor, 1e-13, "max"),
    ("integrate-gradient-boundary", _fundamental_theorem, 1e-8, "max"),
    ("gradient-inverts-cumulative", _cumulative_inverse, 1e-6, "max"),
    ("momentum-map-identity-chain", _residual_suite, 1e-7, "max"),
    ("rhs-form-agreement", _form_agreement, 1e-9, "max"),
    ("eigenstate-hamiltonian-constancy", _eigenstate_hamiltonian, 1e-5, "max"),
    ("eigenstate-momentum-rate", _eigenstate_rhs, 1e-6, "max"),
    ("momentum-map-homogeneity", _map_homogeneity, 1e-8, "max"),
    ("force-homogeneity", _force_homogeneity, 1e-12, "max"),
    ("gauge-lift-agreement", _gauge_lift_agreement, 1e-5, "max"),
    ("null-force-reduction", _null_force_reduction, 1e-7, "max"),
    ("density-scaling-invariance", _density_scaling_invariance, 1e-10, "max"),
    ("pinning-fixed-point", _pinning_fixed_point, 1e-8, "max"),
    ("eigensolver-ladder", _eigensolver_ladder, 1e-4, "max"),
    ("superposition-born-weights", _born_rule, 1e-10, "max"),
    ("unit-round-trip", _unit_round_trip, 1e-12, "max"),
]

FULL_CHECKS = [
    ("fd4-convergence-order", _fd4_order_study, 3.5, "min"),
    ("residual-resolution-study", _residual_resolution_study, 10.0, "min"),
    ("cross-propagator-equivalence", _cross_propagator, 1e-4, "max"),
    ("momentum-evolution-stationarity", _momentum_stationarity, 1e-7, "max"),
    ("strang-timestep-order", _strang_order, 3.5, "min"),
    ("rk4-timestep-order", _rk4_order, 14.0, "min"),
    ("pinning-rate-scaling", _pinning_rate_scaling, 0.1, "max"),
    ("kostin-relaxation", _kostin_relaxation, 0.99, "min"),
    ("free-packet-spreading", _free_spreading, 1e-4, "max"),
]


def run_checks(level: str = "fast", tolerance_scale: float = 1.0) -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = list(FAST_CHECKS)
    if level == "full":
        checks += FULL_CHECKS
    return [
        _check(name, fn, tol, kind, scale=tolerance_scale)
        for name, fn, tol, kind in checks
    ]
