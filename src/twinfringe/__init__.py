"""Two-crystal down-conversion source simulator.

Builds the coupled origin/polarization state of a two-crystal pair source,
simulates coincidence fringe scans with realistic instrument effects, and
recovers the degree of polarization entanglement from fringe visibility.
"""

from .analysis import (VisibilityReport, concurrence, phi_scan_oracle,
                       visibility_from_extrema)
from .detection import (SCAN_DTYPE, ScanConfig, expected_scan, sample_counts,
                        slit_visibility_factor)
from .errors import (ConfigurationError, IllPosedError, NotTwoQubitStateError,
                     TwinfringeError, UndefinedVisibilityError)
from .fitting import (FitResult, FringeModelParams, VisibilityCurveParams,
                      fit_fringe, fit_visibility_curve, fringe_model,
                      fringe_params, visibility_curve_params)
from .polarization import (DIAGONAL, HORIZONTAL, VERTICAL, JonesVector,
                           PolarizationAngle, PumpState, malus_amplitude,
                           pump_jones)
from .spdc import (CrystalConfig, GeometryConfig, SourceConfig,
                   TwoPhotonState, build_two_photon_state,
                   coincidence_probability, default_source, fringe_phase,
                   predicted_visibility, predicted_visibility_with_analyzers)

__version__ = "0.1.0"

__all__ = [
    "VisibilityReport", "concurrence", "phi_scan_oracle", "visibility_from_extrema",
    "SCAN_DTYPE", "ScanConfig", "expected_scan", "sample_counts",
    "slit_visibility_factor",
    "ConfigurationError", "IllPosedError",
    "NotTwoQubitStateError", "TwinfringeError", "UndefinedVisibilityError",
    "FitResult", "FringeModelParams", "VisibilityCurveParams",
    "fit_fringe", "fit_visibility_curve", "fringe_model",
    "fringe_params", "visibility_curve_params",
    "DIAGONAL", "HORIZONTAL", "VERTICAL", "JonesVector", "PolarizationAngle",
    "PumpState", "malus_amplitude", "pump_jones",
    "CrystalConfig", "GeometryConfig", "SourceConfig", "TwoPhotonState",
    "build_two_photon_state", "coincidence_probability", "default_source",
    "fringe_phase", "predicted_visibility",
    "predicted_visibility_with_analyzers",
]
