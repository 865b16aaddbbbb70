"""cqhjlab: a numerical laboratory for the complex quantum Hamilton-Jacobi
(CQHJ) representation of quantum dynamics and for nonlinear "collapsible"
Schroedinger evolution on 1-D grids.

The package evolves wave functions and complex momentum fields
p = -i (grad psi)/psi (hbar = m = 1 internally), verifies the identity
chain that closes the momentum-field equation of motion, simulates
finite-time collapse under pluggable non-potential forces, and extracts
collapse times with SI conversion and a dimensionless measure.
"""

__version__ = "0.1.0"

from .cqhj import (  # noqa: F401
    DerivationResiduals,
    MomentumField,
    RhsForm,
    cqhj_rhs,
    cqhj_rhs_from_state,
    derivation_residuals,
    hamiltonian_field_from_state,
    p_to_psi,
    psi_to_p,
    quantum_hamiltonian_field,
    random_nodeless_state,
    unwrapped_phase,
)
from .diagnostics import (  # noqa: F401
    CollapseReport,
    UnitSystem,
    collapse_time,
    dimensionless_measure,
    energy,
    energy_spread,
    fidelity,
    make_collapse_report,
)
from .evolve import (  # noqa: F401
    IntegratorSpec,
    Trajectory,
    collapsible_evolve,
    cqhj_evolve,
    schrodinger_evolve,
)
from .forces import (  # noqa: F401
    CollapseForce,
    ForceKind,
    evaluate,
    gauge_potential,
    kostin_friction,
    null_force,
    pinning_force,
)
from .grid import (  # noqa: F401
    Boundary,
    Field,
    Grid,
    cumulative_integral,
    gradient,
    integrate,
    laplacian,
    make_field,
    norm,
)
from .states import (  # noqa: F401
    EigenPair,
    Hamiltonian,
    Method,
    Potential,
    box_potential,
    custom_potential,
    double_well_potential,
    free_potential,
    gaussian_packet,
    hamiltonian,
    harmonic_potential,
    ho_eigenstate,
    position_expectation,
    position_variance,
    solve_eigenstates,
    superpose,
)
