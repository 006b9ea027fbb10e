"""Multi-cell massive MIMO uplink simulator with hardware impairments.

The package models an uplink where every base-station antenna branch is
affected by three impairments: multiplicative Wiener phase-drifts (variance
``delta`` per channel use), additive distortion noise proportional to the
instantaneous received power (factor ``kappa2``), and amplified receiver
noise (variance ``xi``).  It provides a phase-drift-aware LMMSE channel
estimator, closed-form and Monte Carlo achievable-rate evaluation for MRC
and MMSE receive filters, asymptotic limits and hardware scaling laws, and
mappings from circuit specifications (ADC/LNA/LO) to the impairment triple.
"""

__version__ = "0.1.0"

from .model import (
    HardwareProfile,
    LoMode,
    Scenario,
    conventional_profile,
    expand_covariance,
    factorize_covariance,
    validate,
)
from .pilots import Placement, PlacementKind, PilotBook, dft_book, place, temporal_book

__all__ = [
    "HardwareProfile",
    "LoMode",
    "Scenario",
    "conventional_profile",
    "expand_covariance",
    "factorize_covariance",
    "validate",
    "Placement",
    "PlacementKind",
    "PilotBook",
    "dft_book",
    "place",
    "temporal_book",
]
