"""Monte-Carlo MU-MIMO link simulation and aperiodic array synthesis.

Evaluates zero-forcing beamforming performance (SINR distributions, sum
rate, amplifier power spread) of linear base-station arrays over random
propagation environments, and synthesizes aperiodic layouts by density-
tapering the average-power profile of a densely sampled reference
aperture.
"""

__version__ = "1.0.0"

from .arrays import (
    ArrayLayout,
    huygens_gain,
    read_layout_csv,
    regular_layout,
    write_layout_csv,
)
from .beamform import (
    COND_LIMIT,
    Precoder,
    RESIDUAL_LIMIT,
    SingularChannelError,
    downlink_sinr,
    uplink_zf_sinr,
    zf_precoder,
)
from .channel import (
    Environment,
    PlaneWave,
    WaveSet,
    assemble_channel,
    calibrate_normalization,
)
from .engine import (
    ComparisonReport,
    RealizationRecord,
    ScenarioConfig,
    SimulationReport,
    SweepRow,
    compare_layouts,
    run_realization,
    run_simulation,
    sweep,
)
from .metrics import (
    PowerProfile,
    SinrCdf,
    StreamingMoments,
    accumulate_excitation,
    percentile,
    power_spread,
    psc,
    sinr_gain,
    sum_rate,
)
from .synthesis import (
    CumulativeDistribution,
    DensityProfile,
    cumulative_density,
    density_taper,
    invert_cumulative,
    reference_profile,
    synthesize_aperiodic,
)

__all__ = [
    "ArrayLayout",
    "COND_LIMIT",
    "ComparisonReport",
    "CumulativeDistribution",
    "DensityProfile",
    "Environment",
    "PlaneWave",
    "PowerProfile",
    "Precoder",
    "RESIDUAL_LIMIT",
    "RealizationRecord",
    "ScenarioConfig",
    "SimulationReport",
    "SingularChannelError",
    "SinrCdf",
    "StreamingMoments",
    "SweepRow",
    "WaveSet",
    "accumulate_excitation",
    "assemble_channel",
    "calibrate_normalization",
    "compare_layouts",
    "cumulative_density",
    "density_taper",
    "downlink_sinr",
    "huygens_gain",
    "invert_cumulative",
    "percentile",
    "power_spread",
    "psc",
    "read_layout_csv",
    "reference_profile",
    "regular_layout",
    "run_realization",
    "run_simulation",
    "sinr_gain",
    "sum_rate",
    "sweep",
    "synthesize_aperiodic",
    "uplink_zf_sinr",
    "write_layout_csv",
    "zf_precoder",
]
