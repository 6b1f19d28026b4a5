"""Linear-response toolkit for a double-cavity electro-optomechanical system.

An optical cavity and a microwave cavity share one mechanical element.  Both
cavities are driven by red-detuned coupling tones; a weak probe on the
optical side then sees interference of its direct response with the
phonon-mediated pathways: a transparency window from the optical coupling
alone, a narrow absorption peak inside it once the microwave coupling is on,
and, at the absorption point, near-complete routing of the probe photons
into the microwave output.

The package solves the probe-off working point, the first-order sideband
response (full five-sideband model and its rotating-wave reduction), the
closed-form response with its cubic pole structure, and an equivalent
three-coupled-oscillator model with exact time-domain propagation.
"""

from .analytic import (
    EIT_REGIME,
    NMS_REGIME,
    EiaSplitting,
    PeakHeight,
    PoleSet,
    RwaCoefficients,
    denominator_roots,
    eia_splitting,
    peak_height,
    response_rwa,
    root_trajectories,
)
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    ScenarioError,
    SingularResponseError,
    StepSizeError,
    UnstableWorkingPointError,
)
from .linear_response import ProbeResponse, response_grid
from .oscillators import (
    OscillatorModel,
    Trajectory,
    from_working_point,
    harmonic_steady_state,
    propagate,
)
from .params import (
    HBAR,
    DriveConfig,
    Geometry,
    SystemParams,
    cooperativity,
    coupling_from_geometry,
    critical_power,
    default_params,
    drive_amplitude,
    eit_width,
)
from .working_point import WorkingPoint, solve_working_point, stability_margin

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "EIT_REGIME",
    "NMS_REGIME",
    "ConvergenceError",
    "DriveConfig",
    "EiaSplitting",
    "Geometry",
    "InvalidParameterError",
    "OscillatorModel",
    "PeakHeight",
    "PoleSet",
    "ProbeResponse",
    "RwaCoefficients",
    "ScenarioError",
    "SingularResponseError",
    "StepSizeError",
    "SystemParams",
    "Trajectory",
    "UnstableWorkingPointError",
    "WorkingPoint",
    "cooperativity",
    "coupling_from_geometry",
    "critical_power",
    "default_params",
    "denominator_roots",
    "drive_amplitude",
    "eia_splitting",
    "eit_width",
    "from_working_point",
    "harmonic_steady_state",
    "peak_height",
    "propagate",
    "response_grid",
    "response_rwa",
    "root_trajectories",
    "solve_working_point",
    "stability_margin",
]
