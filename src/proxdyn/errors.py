"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A numeric argument fell outside its admissible domain."""


class ValidationError(ValueError):
    """A configuration object failed its consistency checks."""


class UnsupportedOracleError(ValueError):
    """The brute-force prox oracle cannot handle this objective."""


class InfeasibleError(ValueError):
    """No parameter value satisfies the requested constraints."""


class InsufficientDataError(ValueError):
    """Not enough samples for the requested computation."""


class _Located:
    """Mixin of the integration failures: located by ``t_last``, the last
    time with a finite, in-range state, and ``h``, the step size then in use."""

    def __init__(self, message, t_last=None, h=None):
        # every arg kept in .args so the exception survives pickling
        super().__init__(message, t_last, h)
        self.t_last = t_last
        self.h = h

    def __str__(self):
        return str(self.args[0])


class DivergenceError(_Located, RuntimeError):
    """The trajectory norm exceeded the divergence guard, or a stage turned
    non-finite."""


class StepSizeError(_Located, RuntimeError):
    """The adaptive controller drove the step below its minimum, or a run
    needs more than max_steps steps."""
