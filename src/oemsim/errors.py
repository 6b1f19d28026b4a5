"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A physical parameter is outside its allowed domain (e.g. kappa <= 0)."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach tolerance.

    Carries the last residual so callers can judge how far off it stopped.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnstableWorkingPointError(ConvergenceError):
    """A working point whose linearized dynamics grow: there is no steady state to probe.

    ``row`` is the index of the first unstable working point of the batch checked and
    ``margin`` its largest eigenvalue real part [rad/s].
    """

    def __init__(self, message, row, margin):
        super().__init__(message)
        self.row = row
        self.margin = margin


class SingularResponseError(RuntimeError):
    """A sideband linear system was singular (probe sits on an exact pole)."""

    def __init__(self, message, delta=None):
        super().__init__(message)
        self.delta = delta


class StepSizeError(ValueError):
    """RK4 step size violates the stability guard."""


class ScenarioError(ValueError):
    """A scenario/config document failed to parse or validate."""
