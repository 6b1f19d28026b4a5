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

__version__ = "0.1.0"

# module -> the public names it provides.  Each is imported on first access (PEP 562), so
# that a process loads only the layers it uses: the CLI's ``invert`` never loads the
# response, pole or oscillator layers.
_PROVIDERS = {
    "analytic": ("EIT_REGIME", "NMS_REGIME", "EiaSplitting", "PeakHeight", "PoleSet",
                 "RwaCoefficients", "denominator_roots", "eia_splitting", "peak_height",
                 "response_rwa", "root_trajectories"),
    "errors": ("ConvergenceError", "InvalidParameterError", "ScenarioError",
               "SingularResponseError", "UnstableWorkingPointError"),
    "linear_response": ("ProbeResponse", "response_grid"),
    "oscillators": ("OscillatorModel", "Trajectory", "from_working_point",
                    "harmonic_steady_state", "propagate"),
    "params": ("HBAR", "DriveConfig", "SystemParams", "cooperativity", "critical_power",
               "default_params", "drive_amplitude", "eit_width"),
    "working_point": ("WorkingPoint", "solve_working_point", "stability_margin"),
}
_MODULE_OF = {name: module for module, names in _PROVIDERS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
