"""Canned experiment setups.

Each preset pins a scenario (config overrides on top of the defaults or of a
user-supplied config file), the scheme list, the sweep axis and the trial
count, so that the standard sum-rate / minimum-SINR / BER experiments run
from a single name on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .channel import SystemConfig

SNR_GRID_FULL = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    description: str
    config: dict
    schemes: tuple
    axis: str = "snr_grid"
    axis_values: tuple = None
    trials: int = 120
    kind: str = "sweep"              # "sweep" or "learning"
    with_ber: bool = False
    solver: dict = field(default_factory=dict)  # SolverParams fields: BER's packet shape

    def resolve_config(self, base: SystemConfig) -> SystemConfig:
        return replace(base, **self.config).validate()


_TINY = dict(num_aps=5, antennas_per_ap=1, num_users=2, selected_aps=3,
             csi_quality=0.99, snr_grid_db=SNR_GRID_FULL)
_LARGE = dict(num_aps=128, antennas_per_ap=1, num_users=16, selected_aps=64,
              csi_quality=0.99, snr_grid_db=SNR_GRID_FULL)
_MULTI_ANTENNA = dict(num_aps=24, antennas_per_ap=4, num_users=8, selected_aps=12,
                      csi_quality=1.0)

PRESETS = {
    "fig-learning": ExperimentPreset(
        name="fig-learning",
        description="Adaptive-allocation cost per gradient iteration "
                    "(24 APs x 4 antennas, 8 users, half the APs selected, 25 dB)",
        config=dict(_MULTI_ANTENNA, snr_grid_db=(25.0,)),
        schemes=("MMSE+APA+LS",),
        kind="learning",
    ),
    "fig-tiny-opa": ExperimentPreset(
        name="fig-tiny-opa",
        description="Sum-rate vs SNR on the 5-AP / 2-user system where "
                    "exhaustive selection is affordable (max-min allocation)",
        config=_TINY,
        schemes=("MMSE+OPA+NS", "MMSE+OPA+ES", "MMSE+OPA+LS", "MMSE+UPA+NS",
                 "ZF+OPA+NS", "ZF+OPA+LS", "CB+OPA+NS", "CB+OPA+LS",
                 "MMSE_CONV+UPA+NS"),
    ),
    "fig-tiny-apa": ExperimentPreset(
        name="fig-tiny-apa",
        description="Sum-rate vs SNR on the 5-AP / 2-user system "
                    "(adaptive allocation)",
        config=_TINY,
        schemes=("MMSE+APA+NS", "MMSE+APA+ES", "MMSE+APA+LS", "MMSE+UPA+NS",
                 "ZF+OPA+NS", "MMSE_CONV+UPA+NS"),
    ),
    "fig-large-minsinr": ExperimentPreset(
        name="fig-large-minsinr",
        description="Minimum SINR vs SNR, 128 single-antenna APs, 16 users, "
                    "half the APs selected per user",
        config=_LARGE,
        schemes=("MMSE+OPA+LS", "MMSE+UPA+LS", "MMSE+APA+LS",
                 "ZF+OPA+LS", "ZF+UPA+LS", "CB+OPA+LS", "CB+UPA+LS"),
    ),
    "fig-large-sumrate": ExperimentPreset(
        name="fig-large-sumrate",
        description="Sum-rate vs SNR, 128 single-antenna APs, 16 users, "
                    "half the APs selected per user",
        config=_LARGE,
        schemes=("MMSE+OPA+LS", "MMSE+UPA+LS", "MMSE+APA+LS",
                 "ZF+OPA+LS", "ZF+UPA+LS", "CB+OPA+LS", "CB+UPA+LS",
                 "MMSE_CONV+UPA+NS"),
    ),
    "fig-selection-fraction": ExperimentPreset(
        name="fig-selection-fraction",
        description="Sum-rate vs fraction of selected APs at 10 dB, "
                    "128 single-antenna APs, 16 users",
        config=dict(num_aps=128, antennas_per_ap=1, num_users=16,
                    selected_aps=64, csi_quality=1.0, snr_grid_db=(10.0,)),
        schemes=("MMSE+OPA+LS",),
        axis="selection_fraction",
        axis_values=(1.0, 0.5, 0.25, 0.125, 0.0625),
    ),
    "fig-antenna-split": ExperimentPreset(
        name="fig-antenna-split",
        description="Sum-rate at 10 dB for a fixed total of 256 antennas "
                    "split into APs of 1/2/4/8 antennas (half selected)",
        config=dict(num_aps=256, antennas_per_ap=1, num_users=16,
                    selected_aps=128, csi_quality=0.99, snr_grid_db=(10.0,)),
        schemes=("MMSE+UPA+LS",),
        axis="antennas_per_ap",
        axis_values=(1, 2, 4, 8),
    ),
    "fig-ber": ExperimentPreset(
        name="fig-ber",
        description="Uncoded QPSK BER vs SNR, 24 APs x 4 antennas, 8 users, "
                    "half the APs selected, perfect CSI, 100-symbol packets",
        config=dict(_MULTI_ANTENNA, snr_grid_db=SNR_GRID_FULL),
        schemes=("MMSE+OPA+LS", "MMSE+APA+LS", "MMSE+UPA+LS",
                 "ZF+OPA+LS", "ZF+UPA+LS", "CB+OPA+LS"),
        with_ber=True,
        solver=dict(symbols_per_packet=100, packets_per_trial=1),
    ),
}
