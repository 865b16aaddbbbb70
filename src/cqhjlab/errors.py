"""Exception hierarchy shared by all cqhjlab modules."""


class CqhjError(Exception):
    """Base class for all errors raised by this package. An error raised by
    a time step or a snapshot carries the partial trajectory computed
    before it."""

    trajectory = None


class GridMismatch(CqhjError):
    """Two fields (or a field and an operator) live on different grids."""


class SchemeMismatch(CqhjError):
    """An FFT-based operation (wavenumbers, split-step) requested on a box grid."""


class NonFiniteField(CqhjError):
    """A field contains NaN or Inf entries."""


class PeriodicityViolation(CqhjError):
    """Cumulative integral on a periodic grid would be multi-valued (nonzero mean)."""


class UnresolvedState(CqhjError):
    """Requested state is not resolved by the grid (too narrow, too oscillatory)."""


class DomainOverflow(CqhjError):
    """Requested state does not decay inside the grid domain."""


class ConvergenceFailure(CqhjError):
    """An iterative or direct solver failed to produce a valid result."""


class ZeroState(CqhjError):
    """A state that is zero where one is required: every entry is zero, or a
    superposition cancels below 1e-12 of its largest coefficient."""


class NodePresent(CqhjError):
    """Momentum-field operation requested on a field with masked node points."""


class AllMasked(NodePresent):
    """The source wave function vanishes everywhere at the node threshold."""


class StabilityViolation(CqhjError):
    """Time step violates the documented stability/accuracy bound of the integrator."""


class NodeBlowup(CqhjError):
    """Force evaluation needed the momentum field where the state has collapsed to nodes."""


class NodeApproach(CqhjError):
    """Momentum-space evolution drove the reconstructed magnitude below the node
    threshold."""


class ImaginaryEnergy(CqhjError):
    """The energy expectation of a state has an imaginary part above roundoff."""


class ZeroSpread(CqhjError):
    """Energy spread of the state is zero (eigenstate input where spread is needed)."""


class ConfigError(CqhjError):
    """Scenario configuration failed to parse or validate."""
