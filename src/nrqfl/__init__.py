"""Desk-scale simulator for noise-resilient quantum federated aggregation."""

from .config import ExperimentConfig, parse_config
from .qcore import (
    DensityMatrix,
    KrausChannel,
    NoiseModel,
    Observable,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
)

# Version of the invariant suite (`nrqfl.validate`), written to every run's
# summary.json; it lives here so that a run need not import the suite.
SUITE_VERSION = "1.0"

__all__ = [
    "DensityMatrix",
    "ExperimentConfig",
    "KrausChannel",
    "NoiseModel",
    "Observable",
    "SUITE_VERSION",
    "amplitude_damping_channel",
    "dephasing_channel",
    "depolarizing_channel",
    "parse_config",
]
