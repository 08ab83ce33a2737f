"""Monte-Carlo simulator for the downlink of cell-free massive MIMO networks.

Covers AP selection (exhaustive and gain-ranked), MMSE/ZF/CB precoding,
max-min / adaptive / uniform power allocation under per-antenna constraints,
and sum-rate / minimum-SINR / QPSK-BER evaluation.
"""

from .channel import (ChannelRealization, ConfigError, SystemConfig,
                      generate_realization)
from .metrics import LinkMetrics, SinrCoefficients, analytic_sinr, rates, snr_to_rho_f
from .pipeline import (PipelineResult, Scheme, SolverParams, SweepRow, TrialError,
                       run_learning_curve, run_sweep, run_trial)
from .power_allocation import AllocationResult
from .precoding import PrecoderOutput
from .presets import PRESETS
from .selection import apply_mask, ls_aps

__all__ = [
    "AllocationResult",
    "ChannelRealization",
    "ConfigError",
    "LinkMetrics",
    "PipelineResult",
    "PRESETS",
    "PrecoderOutput",
    "Scheme",
    "SinrCoefficients",
    "SolverParams",
    "SweepRow",
    "SystemConfig",
    "TrialError",
    "analytic_sinr",
    "apply_mask",
    "generate_realization",
    "ls_aps",
    "rates",
    "run_learning_curve",
    "run_sweep",
    "run_trial",
    "snr_to_rho_f",
]

__version__ = "0.1.0"
