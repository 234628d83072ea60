"""Continuous-variable teleportation toolkit.

Builds Schmidt-diagonal entangled resources (twin-beams, heralded
noiseless-amplifier outputs, photon-subtracted baselines), quantifies
their entanglement, EPR correlation and non-Gaussianity, and evaluates
coherent-state teleportation fidelity through the transfer-operator
description of the protocol.
"""

from .errors import BoundaryMassWarning, NumericsError, ValidationError
from .metrics import (
    cross_moment,
    entanglement_entropy,
    epr_correlation,
    h_function,
    mean_photon,
    metrics_report,
    non_gaussianity,
)
from .resources import (
    NlaConfig,
    TwbParams,
    make_added_then_subtracted_twb,
    make_amplified_twb,
    make_photon_subtracted_twb,
    make_twb,
    success_probability,
    twb_average_fidelity_closed,
    twb_entropy_closed,
)
from .schmidt import (
    DEFAULT_POLICY,
    SchmidtState,
    TruncationPolicy,
    schmidt_probabilities,
)
from .teleport import (
    QuadratureSpec,
    average_fidelity_grid2d,
    average_fidelity_radial,
    average_fidelity_sampled,
    average_fidelity_series,
    classify_fidelity,
    conditional_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMassWarning",
    "DEFAULT_POLICY",
    "NlaConfig",
    "NumericsError",
    "QuadratureSpec",
    "SchmidtState",
    "TruncationPolicy",
    "TwbParams",
    "ValidationError",
    "average_fidelity_grid2d",
    "average_fidelity_radial",
    "average_fidelity_sampled",
    "average_fidelity_series",
    "classify_fidelity",
    "conditional_fidelity",
    "cross_moment",
    "entanglement_entropy",
    "epr_correlation",
    "h_function",
    "make_added_then_subtracted_twb",
    "make_amplified_twb",
    "make_photon_subtracted_twb",
    "make_twb",
    "mean_photon",
    "metrics_report",
    "non_gaussianity",
    "schmidt_probabilities",
    "success_probability",
    "twb_average_fidelity_closed",
    "twb_entropy_closed",
]
