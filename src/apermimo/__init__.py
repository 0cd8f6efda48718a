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
)
from .beamform import COND_LIMIT, RESIDUAL_LIMIT
from .channel import calibrate_normalization
from .engine import (
    ComparisonReport,
    ScenarioConfig,
    SimulationReport,
    SweepRow,
    compare_layouts,
    run_simulation,
    sweep,
)
from .metrics import (
    SinrCdf,
    StreamingMoments,
    power_spread,
    psc,
    sinr_gain,
)
from .synthesis import (
    DensityProfile,
    density_taper,
    reference_profile,
)

__all__ = [
    "ArrayLayout",
    "COND_LIMIT",
    "ComparisonReport",
    "DensityProfile",
    "RESIDUAL_LIMIT",
    "ScenarioConfig",
    "SimulationReport",
    "SinrCdf",
    "StreamingMoments",
    "SweepRow",
    "calibrate_normalization",
    "compare_layouts",
    "density_taper",
    "huygens_gain",
    "power_spread",
    "psc",
    "read_layout_csv",
    "reference_profile",
    "regular_layout",
    "run_simulation",
    "sinr_gain",
    "sweep",
]
