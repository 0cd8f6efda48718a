import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apermimo.arrays import regular_layout
from apermimo.engine import ScenarioConfig
from apermimo.synthesis import (
    MIN_SEPARATION,
    DegenerateProfileError,
    DensityProfile,
    _enforce_min_separation,
    density_taper,
    reference_profile,
)


def _uniform_profile(x_max=7.0, n=64):
    x = np.linspace(0.0, x_max, n)
    return DensityProfile(positions=x, values=np.ones(n))


def _ramp_profile(n=4_097):
    x = np.linspace(0.0, 1.0, n)
    return DensityProfile(positions=x, values=x.copy())


def _node_cumulative(profile: DensityProfile):
    """Exact cumulative i(x) at the nodes: trapezoids of the piecewise-linear density."""
    val = profile.values
    seg = 0.5 * (val[:-1] + val[1:]) * np.diff(profile.positions)
    return np.concatenate(([0.0], np.cumsum(seg)))


def _cumulative_at(profile: DensityProfile, x):
    """i(x) for scalar or array x in [0, X_max]: the quadratic piece of the
    segment holding x, from the node cumulatives and the linear density."""
    pos, val = profile.positions, profile.values
    x = np.asarray(x, dtype=float)
    j = np.clip(np.searchsorted(pos, x, side="right") - 1, 0, pos.size - 2)
    t = x - pos[j]
    slope = (val[j + 1] - val[j]) / (pos[j + 1] - pos[j])
    return _node_cumulative(profile)[j] + t * (val[j] + 0.5 * slope * t)


def _scalar_taper_positions(profile: DensityProfile, m: int) -> np.ndarray:
    """Element positions before spreading, one closed-form inversion per
    element: the reference the batched taper must match bit for bit."""
    pos, val = profile.positions, profile.values
    nodes = _node_cumulative(profile)
    total = float(nodes[-1])
    targets = np.arange(m) * total / (m - 1)
    out = np.empty(m)
    out[0] = 0.0
    for i in range(1, m - 1):
        j = int(np.searchsorted(nodes, targets[i], side="left"))
        if j == 0:
            out[i] = float(pos[0])
            continue
        r = targets[i] - nodes[j - 1]
        dx = pos[j] - pos[j - 1]
        mu0 = val[j - 1]
        slope = (val[j] - mu0) / dx
        t = 2.0 * r / (mu0 + np.sqrt(max(mu0 * mu0 + 2.0 * slope * r, 0.0)))
        out[i] = float(pos[j - 1] + min(t, dx))
    out[-1] = profile.x_max
    return out


def _scan_invert(profile: DensityProfile, targets, n_scan=1_000_001):
    """Brute-force inversion through a dense scan of the cumulative.

    Trapezoid cumulative on a fine grid, then linear interpolation inside
    the bracketing grid cell; accurate well below the grid pitch because
    the cumulative is smooth.
    """
    x = np.linspace(0.0, profile.x_max, n_scan)
    mu = np.interp(x, profile.positions, profile.values)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (mu[1:] + mu[:-1]) * np.diff(x))))
    out = []
    for t in np.asarray(targets) * cum[-1]:
        j = int(np.searchsorted(cum, t, side="left"))
        if j == 0:
            out.append(x[0])
            continue
        frac = (t - cum[j - 1]) / (cum[j] - cum[j - 1])
        out.append(x[j - 1] + frac * (x[j] - x[j - 1]))
    return np.asarray(out)


# ----------------------------------------------------------- cumulative


def test_cumulative_of_uniform_density():
    profile = _uniform_profile()
    assert _node_cumulative(profile)[-1] == pytest.approx(7.0, abs=1e-12)
    for x in (0.0, 1.3, 3.5, 7.0):
        assert _cumulative_at(profile, x) == pytest.approx(x, abs=1e-12)


def test_cumulative_of_ramp_density():
    profile = _ramp_profile()
    assert _node_cumulative(profile)[-1] == pytest.approx(0.5, abs=1e-9)
    assert _cumulative_at(profile, 0.6) == pytest.approx(0.18, abs=1e-9)


def test_cumulative_matches_fine_quadrature():
    rng = np.random.default_rng(23)
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 7.0, 30)), [7.0]))
    v = rng.uniform(0.1, 2.0, x.size)
    profile = DensityProfile(positions=x, values=v)
    grid = np.linspace(0.0, 7.0, 1_000_001)
    mu = np.interp(grid, x, v)
    oracle = np.trapezoid(mu, grid)
    assert _node_cumulative(profile)[-1] == pytest.approx(oracle, rel=1e-8)


def test_profile_validation():
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([0.1, 1.0]), values=np.ones(2))
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([0.0, 1.0, 0.5]), values=np.ones(3))
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([0.0, 1.0]), values=np.array([-0.1, 1.0]))
    # node grids that ArrayLayout refuses: not finite, not 1-D, a single node
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([0.0, np.nan, 2.0]), values=np.ones(3))
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([[0.0, 1.0]]), values=np.ones((1, 2)))
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([0.0]), values=np.ones(1))
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([0.0, 1.0]), values=np.ones(3))
    with pytest.raises(ValueError):
        DensityProfile(positions=np.array([0.0, 1.0]), values=np.array([np.inf, 1.0]))
    with pytest.raises(DegenerateProfileError):
        DensityProfile(positions=np.array([0.0, 1.0]), values=np.zeros(2))


def test_profile_holds_read_only_copies():
    x, v = np.array([0.0, 1.0, 2.0]), np.ones(3)
    profile = DensityProfile(positions=x, values=v)
    x[1], v[1] = 0.5, 7.0
    np.testing.assert_array_equal(profile.positions, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(profile.values, np.ones(3))
    assert not profile.positions.flags.writeable
    assert not profile.values.flags.writeable


# ------------------------------------------------------------- inversion


def test_invert_uniform_is_identity():
    pos = density_taper(_uniform_profile(), 15).positions  # element 7 at 3.5
    assert pos[0] == 0.0
    assert pos[-1] == 7.0
    np.testing.assert_allclose(pos, 0.5 * np.arange(15), atol=1e-12)


def test_invert_ramp_closed_form():
    # i(x) = x^2 / 2 with total 0.5, so the preimage of 0.25 is 1/sqrt(2)
    x = density_taper(_ramp_profile(), 3).positions[1]
    assert x == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


def test_invert_plateau_leftmost():
    # half the mass lies left of the plateau [1, 2], so the middle of three
    # elements sits at its left end, not its right
    profile = DensityProfile(
        positions=np.array([0.0, 1.0, 1.0 + 1e-9, 2.0, 2.0 + 1e-9, 3.0]),
        values=np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0]),
    )
    assert density_taper(profile, 3).positions[1] == pytest.approx(1.0, abs=1e-6)
    # a target exactly on the plateau's cumulative value
    exact = DensityProfile(positions=np.arange(4.0), values=np.array([1.0, 0.0, 0.0, 1.0]))
    assert density_taper(exact, 3).positions[1] == 1.0


def test_invert_roundtrip_tolerance():
    rng = np.random.default_rng(24)
    # an aperture wide enough that 200 interior elements need no spreading
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 500.0, 40)), [500.0]))
    v = rng.uniform(0.0, 3.0, x.size)
    v[0] = 0.5
    profile = DensityProfile(positions=x, values=v)
    m = 202
    total = _node_cumulative(profile)[-1]
    targets = np.arange(m) * total / (m - 1)
    pos = density_taper(profile, m).positions
    assert np.all(np.abs(_cumulative_at(profile, pos) - targets) <= 1e-10 * total)


@st.composite
def _profiles_and_sizes(draw, max_steps=40, max_m=60, dyadic=False):
    """A density with zero plateaus and spikes, and an element count that fits.

    ``dyadic`` draws steps and values from a few binary fractions instead,
    so node cumulatives are exact and targets land on them, plateaus included.
    """
    step = st.sampled_from([0.25, 0.5, 1.0]) if dyadic else st.floats(1e-3, 2.0)
    steps = draw(st.lists(step, min_size=1, max_size=max_steps))
    positions = np.concatenate(([0.0], np.cumsum(steps)))
    density = st.one_of(st.just(0.0),
                        st.sampled_from([0.5, 1.0, 2.0]) if dyadic else st.floats(1e-3, 1e3))
    values = draw(st.lists(density, min_size=positions.size, max_size=positions.size)
                  .filter(lambda v: any(x > 0.0 for x in v)))
    profile = DensityProfile(positions=positions, values=np.array(values))
    fit = int(profile.x_max / MIN_SEPARATION) + 1  # (m - 1) * MIN_SEPARATION <= X_max
    return profile, draw(st.integers(2, max(2, min(fit, max_m))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_profiles_and_sizes(max_steps=600, max_m=80),
                 _profiles_and_sizes(max_steps=60, max_m=80, dyadic=True)))
def test_taper_matches_scalar_inversion_bitwise(profile_and_m):
    """The batched taper places every element exactly where one closed-form
    inversion per element does, zero plateaus and spreading included."""
    profile, m = profile_and_m
    if (m - 1) * MIN_SEPARATION > profile.x_max:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the spreading notice
        expected = _enforce_min_separation(_scalar_taper_positions(profile, m), profile.x_max)
        got = density_taper(profile, m).positions
    np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------- density taper


def test_taper_uniform_recovers_regular_grid():
    layout = density_taper(_uniform_profile(), 8)
    np.testing.assert_allclose(layout.positions, np.arange(8.0), atol=1e-9)
    assert layout.positions[0] == 0.0
    assert layout.positions[-1] == 7.0


def test_taper_ramp_three_elements():
    layout = density_taper(_ramp_profile(), 3)
    np.testing.assert_allclose(
        layout.positions, [0.0, 1.0 / math.sqrt(2.0), 1.0], atol=1e-5
    )


def test_taper_matches_dense_scan_oracle():
    # triangular density, peak at the aperture center
    x = np.linspace(0.0, 7.0, 201)
    v = 1.0 + 4.0 * np.minimum(x, 7.0 - x) / 7.0
    profile = DensityProfile(positions=x, values=v)
    m = 16
    layout = density_taper(profile, m)
    oracle = _scan_invert(profile, np.arange(m) / (m - 1))
    np.testing.assert_allclose(layout.positions, oracle, atol=1e-6)


def test_taper_random_profiles_against_scan():
    rng = np.random.default_rng(25)
    for _ in range(5):
        x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 7.0, 25)), [7.0]))
        v = rng.uniform(0.05, 2.0, x.size)
        profile = DensityProfile(positions=x, values=v)
        m = int(rng.integers(4, 12))
        layout = density_taper(profile, m)
        oracle = _scan_invert(profile, np.arange(m) / (m - 1))
        np.testing.assert_allclose(layout.positions, oracle, atol=1e-6)


def test_taper_scale_invariance():
    x = np.linspace(0.0, 7.0, 101)
    v = 1.0 + np.sin(x) ** 2
    a = density_taper(DensityProfile(positions=x, values=v), 9)
    b = density_taper(DensityProfile(positions=x, values=250.0 * v), 9)
    np.testing.assert_allclose(a.positions, b.positions, atol=1e-12)


def test_taper_equal_mass_between_elements():
    rng = np.random.default_rng(26)
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 7.0, 50)), [7.0]))
    v = rng.uniform(0.1, 2.0, x.size)
    profile = DensityProfile(positions=x, values=v)
    m = 10
    layout = density_taper(profile, m)
    total = _node_cumulative(profile)[-1]
    masses = np.diff(_cumulative_at(profile, layout.positions))
    np.testing.assert_allclose(masses, total / (m - 1), atol=1e-9 * total)


def test_taper_center_heavy_density_packs_center():
    x = np.linspace(0.0, 7.0, 301)
    v = 0.2 + np.exp(-((x - 3.5) ** 2))
    layout = density_taper(DensityProfile(positions=x, values=v), 8)
    gaps = np.diff(layout.positions)
    assert gaps[3] < gaps[0]
    assert gaps[3] < gaps[-1]


def test_taper_min_separation_enforced_with_warning():
    # nearly all mass inside a 0.02-wavelength sliver around the center
    x = np.array([0.0, 3.49, 3.5, 3.51, 7.0])
    v = np.array([1e-6, 1e-6, 1e4, 1e-6, 1e-6])
    profile = DensityProfile(positions=x, values=v)
    with pytest.warns(RuntimeWarning):
        layout = density_taper(profile, 8)
    assert np.all(np.diff(layout.positions) >= MIN_SEPARATION - 1e-12)
    assert layout.positions[0] == 0.0
    assert layout.positions[-1] == 7.0


@settings(max_examples=300, deadline=None)
@given(_profiles_and_sizes())
def test_taper_spacing_properties(profile_and_m):
    """Any fitting profile tapers to m strictly ascending elements pinned at
    0 and X_max, no two closer than MIN_SEPARATION up to round-off: the
    spreading step adds i * MIN_SEPARATION in floating point, so a spread
    gap can land an ulp short (density 0 -> 1 on [0, 1] at m = 12 gives
    0.04999999999999993)."""
    profile, m = profile_and_m
    if (m - 1) * MIN_SEPARATION > profile.x_max:
        return  # only when X_max < MIN_SEPARATION, where m = 2 cannot fit either
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the spreading notice
        pos = density_taper(profile, m).positions
    assert pos.size == m
    assert pos[0] == 0.0 and pos[-1] == profile.x_max
    assert np.all(np.diff(pos) > 0.0)
    assert np.diff(pos).min() >= MIN_SEPARATION - 4 * np.spacing(profile.x_max)


def test_taper_underflowed_target_sits_at_origin():
    # total = 5e-324, so the middle target total / 2 rounds to 0
    profile = DensityProfile(positions=np.array([0.0, 1.0]), values=np.array([0.0, 1e-323]))
    with pytest.warns(RuntimeWarning, match="spreading"):
        pos = density_taper(profile, 3).positions
    np.testing.assert_array_equal(pos, [0.0, MIN_SEPARATION, 1.0])  # spread from 0, 0, 1


def test_taper_target_on_the_zero_of_a_falling_segment():
    # the middle target is the cumulative at the 0-density node; there the
    # discriminant of the falling first segment rounds to -2.1e-22
    profile = DensityProfile(positions=np.array([0.0, 0.4375, 0.875]),
                             values=np.array([0.001, 0.0, 0.001]))
    np.testing.assert_array_equal(density_taper(profile, 3).positions, [0.0, 0.4375, 0.875])


def test_taper_rejects_tiny_m():
    with pytest.raises(ValueError):
        density_taper(_uniform_profile(), 1)


def test_taper_impossible_separation():
    x = np.linspace(0.0, 0.2, 11)
    profile = DensityProfile(positions=x, values=np.exp(-50 * x))
    with pytest.raises(ValueError):
        density_taper(profile, 9)


# ----------------------------------------------- environment-driven design


def test_reference_profile_warns_on_few_realizations():
    sc = ScenarioConfig(M=2, K=1, waves_per_ue=1, realizations=100, master_seed=7)
    with pytest.warns(RuntimeWarning, match="realizations"):
        profile = reference_profile(sc, dense_oversampling=2, realizations=2_000)
    assert profile.positions.size == int(round(sc.aperture * 2)) + 1
    assert profile.x_max == pytest.approx(sc.aperture)


def test_reference_oversampling_validation():
    sc = ScenarioConfig(M=2, K=1)
    with pytest.raises(ValueError):
        reference_profile(sc, dense_oversampling=1, realizations=20_000)


@pytest.fixture(scope="module")
def rimp_reference():
    """Dense reference run in rich multipath over an 8-element aperture."""
    sc = ScenarioConfig(M=8, K=2, waves_per_ue=20, realizations=100_000, master_seed=20260818)
    return reference_profile(sc, dense_oversampling=8, realizations=100_000)


def test_rich_multipath_profile_symmetric(rimp_reference):
    mu = rimp_reference.values
    folded = 0.5 * (mu + mu[::-1])
    assert np.max(np.abs(mu - mu[::-1]) / folded) <= 0.02


def test_rich_multipath_synthesis_stays_regular(rimp_reference):
    """Statistically uniform illumination must not move elements far off
    the equispaced grid."""
    layout = density_taper(rimp_reference, 8)
    regular = regular_layout(8, 7.0)
    assert np.max(np.abs(layout.positions - regular.positions)) <= 0.15
