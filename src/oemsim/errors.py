"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A physical parameter is outside its allowed domain (e.g. kappa <= 0)."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach tolerance."""


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


class ScenarioError(ValueError):
    """A scenario that cannot be read or whose shape is wrong: no such file or preset, not
    valid JSON, an object in it that is not a JSON object or holds an unknown key, a value
    of the wrong type or choice, or keys that contradict each other (a subcommand and its
    sweep kind included).

    A value outside the supported-input envelope is not a ScenarioError: the envelope
    refuses it with its own InvalidParameterError, wherever the value enters.
    """
