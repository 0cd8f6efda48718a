"""The public export list: one batched path per layer, nothing more."""

import apermimo

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(apermimo.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in apermimo.__all__:
        assert getattr(apermimo, name) is not None, name
