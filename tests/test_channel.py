import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from apermimo import channel
from apermimo.arrays import read_layout_csv, regular_layout, write_layout_csv
from apermimo.channel import calibrate_normalization, sample_wave_blocks, wave_field

SEED = 424242


class _Scenario:
    """Minimal stand-in carrying what calibration needs."""

    def __init__(self, k=2, waves=1, seed=SEED):
        self.master_seed = seed
        self.K = k
        self.waves_per_ue = waves


def test_wave_blocks_counts_and_ranges():
    params = sample_wave_blocks(SEED, channel.STREAM_EVAL, [0], 1, 20)
    assert all(p.shape == (1, 1, 20) for p in params)
    aoa, amp, phase, pol = (p[0, 0] for p in params)
    assert np.all((-np.pi / 3 <= aoa) & (aoa <= np.pi / 3))
    assert np.all((0.0 <= amp) & (amp <= 1.0))
    assert np.all((0.0 <= phase) & (phase < 2 * np.pi))
    assert np.all((0.0 <= pol) & (pol < np.pi))


def test_wave_blocks_single_for_rlos():
    params = sample_wave_blocks(SEED, channel.STREAM_EVAL, [1], 1, 1)
    assert all(p.shape == (1, 1, 1) for p in params)


def test_aoa_mean_converges_to_broadside():
    n = 100_000
    aoa, _, _, _ = sample_wave_blocks(SEED, channel.STREAM_EVAL, range(n), 1, 1)
    sigma = (2 * np.pi / 3) / np.sqrt(12.0)
    assert abs(aoa.mean()) < 3 * sigma / np.sqrt(n)


def _draws(seed=SEED, kind=channel.STREAM_EVAL, r=7, k=3, waves=2):
    """The 4 * waves parameters of one (realization, user) pair, flattened."""
    params = sample_wave_blocks(seed, kind, [r], k + 1, waves)
    return np.concatenate([p[0, k] for p in params])


def test_wave_blocks_reproducible_and_distinct():
    a = _draws()
    np.testing.assert_array_equal(a, _draws())
    assert not np.array_equal(a, _draws(k=4))
    assert not np.array_equal(a, _draws(kind=channel.STREAM_CALIBRATION))
    # every counter and key word takes part: high realization and seed words
    assert not np.array_equal(a, _draws(r=2**32 + 7))
    assert not np.array_equal(a, _draws(seed=SEED + (1 << 32)))
    assert not np.array_equal(_draws(r=0, k=0), _draws(r=0, k=0, seed=SEED + (1 << 40)))


@pytest.mark.parametrize(
    "counter, key, expected",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2,
         (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ],
)
def test_philox_known_answers(counter, key, expected):
    """Random123 known-answer vectors for Philox4x32-10."""
    assert tuple(int(w) for w in channel._philox4x32(counter, key)) == expected


def test_wave_blocks_follow_counter_layout():
    """Every parameter rebuilt one Philox call at a time with Python scalars."""
    seed = (0x1234_5678 << 32) | 0x9ABC_DEF0
    kind = channel.STREAM_SYNTHESIS
    indices = [0, 5, 2**32 + 3]
    L = 3
    params = sample_wave_blocks(seed, kind, indices, 2, L)
    maps = (
        lambda u: (2.0 * u - 1.0) * channel.SECTOR_HALF_ANGLE,
        lambda u: u,
        lambda u: 2.0 * np.pi * u,
        lambda u: np.pi * u,
    )
    key = (seed & 0xFFFFFFFF, seed >> 32)
    for i, r in enumerate(indices):
        for k in range(2):
            uniforms = []
            for c in range(2 * L):
                ctr = (c, k, r & 0xFFFFFFFF, (r >> 32) | kind << 28)
                w = [int(x) for x in channel._philox4x32(ctr, key)]
                for h in range(2):
                    bits = (w[2 * h] >> 5) * 2**26 + (w[2 * h + 1] >> 6)
                    assert bits < 2**53
                    uniforms.append(bits / 2**53)
            for q, u in enumerate(uniforms):
                assert params[q // L][i, k, q % L] == maps[q // L](u)


@pytest.mark.parametrize("k, waves", [(3, 1), (4, 20)])
def test_wave_blocks_independent_of_grouping(k, waves):
    # at 4 users x 20 waves the 1000 realizations span several Philox passes
    full = sample_wave_blocks(SEED, channel.STREAM_EVAL, range(1000), k, waves)
    part = sample_wave_blocks(SEED, channel.STREAM_EVAL, range(200, 210), k, waves)
    one = sample_wave_blocks(SEED, channel.STREAM_EVAL, [607], k, waves)
    for f, p, o in zip(full, part, one):
        np.testing.assert_array_equal(p, f[200:210])
        np.testing.assert_array_equal(o[0], f[607])


def test_wave_parameters_in_half_open_ranges():
    """Uniforms lie in [0, 1), so no parameter reaches its upper edge."""
    indices = np.r_[0:5000, 2**32 - 5 : 2**32 + 5, 2**60 : 2**60 + 10]
    upper = (np.pi / 3, 1.0, 2 * np.pi, np.pi)
    lower = (-np.pi / 3, 0.0, 0.0, 0.0)
    for seed in (0, SEED, 2**64 - 1):
        params = sample_wave_blocks(seed, channel.STREAM_EVAL, indices, 4, 2)
        for p, lo, hi in zip(params, lower, upper):
            assert p.min() >= lo and p.max() < hi


@pytest.mark.parametrize(
    "which, cdf",
    [
        (0, lambda x: (x + np.pi / 3) / (2 * np.pi / 3)),
        (1, lambda x: x),
        (2, lambda x: x / (2 * np.pi)),
        (3, lambda x: x / np.pi),
    ],
    ids=["aoa", "amplitude", "phase", "pol_angle"],
)
def test_wave_parameters_match_closed_form(which, cdf):
    """Kolmogorov-Smirnov distance below the 0.1% critical value 1.95/sqrt(n)."""
    params = sample_wave_blocks(SEED, channel.STREAM_EVAL, range(4000), 3, 5)
    x = np.sort(params[which].ravel())
    n = x.size
    f = cdf(x)
    d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    assert d < 1.95 / np.sqrt(n)


def _row(positions, aoa, amp, phase, pol, norm=1.0):
    """wave_field of one user from scalars or (L,) arrays: an (M,) row."""
    return wave_field(positions, *map(np.atleast_1d, (aoa, amp, phase, pol)), norm=norm)


def test_broadside_unit_wave_gives_unit_row():
    lay = regular_layout(5, 4.0)
    h = _row(lay.positions, 0.0, 1.0, 0.0, 0.0)
    np.testing.assert_allclose(h, np.ones(5, dtype=complex), atol=1e-15)


def test_horizon_wave_element_pattern():
    # a wave from 90 degrees sees the half-gain cardioid edge on every element
    pos = np.array([0.0, 1.0])
    a, psi = 0.7, 0.4
    h = wave_field(
        pos,
        np.array([[[np.pi / 2]]]),
        np.array([[[a]]]),
        np.array([[[0.0]]]),
        np.array([[[psi]]]),
        norm=1.0,
    )
    np.testing.assert_allclose(np.abs(h[0, 0]), 0.5 * a * np.cos(psi), rtol=1e-12)


def test_phase_progression_linear_in_position():
    lay = regular_layout(6, 5.0)
    theta = 0.31
    h = _row(lay.positions, theta, 1.0, 0.2, 0.3)
    dphi = np.angle(h[1:] * h[:-1].conj())
    expected = 2 * np.pi * 1.0 * np.sin(theta)
    np.testing.assert_allclose(
        np.mod(dphi - expected + np.pi, 2 * np.pi) - np.pi, 0.0, atol=1e-10
    )


def _random_waves(rng, n):
    """(aoa, amplitude, phase, pol_angle) arrays of n waves, each of shape (n,)."""
    return (
        rng.uniform(-np.pi / 3, np.pi / 3, n),
        rng.uniform(0, 1, n),
        rng.uniform(0, 2 * np.pi, n),
        rng.uniform(0, np.pi, n),
    )


def test_wave_permutation_invariance():
    lay = regular_layout(4, 3.0)
    waves = _random_waves(np.random.default_rng(3), 5)
    h1 = _row(lay.positions, *waves)
    h2 = _row(lay.positions, *(w[::-1] for w in waves))
    np.testing.assert_allclose(h1, h2, rtol=1e-12)


def test_assemble_channel_against_brute_force():
    """Straight-line triple loop over users, waves, elements; one (L,) row per user."""
    lay = regular_layout(7, 6.0)
    rng = np.random.default_rng(11)
    k, L = 3, 4
    users = [_random_waves(rng, L) for _ in range(k)]
    norm = 0.37
    h = np.stack([_row(lay.positions, *waves, norm=norm) for waves in users])
    ref = np.zeros((k, 7), dtype=complex)
    for ki, (aoa, amp, phase, pol) in enumerate(users):
        for l in range(L):
            g = 0.5 * (1.0 + np.cos(aoa[l]))
            coeff = amp[l] * np.exp(1j * phase[l]) * np.cos(pol[l]) * g
            for m, x in enumerate(lay.positions):
                ref[ki, m] += coeff * np.exp(2j * np.pi * x * np.sin(aoa[l]))
    ref /= norm
    np.testing.assert_allclose(h, ref, atol=1e-12)


def _field_oracle(positions, aoa, amp, phase, pol, norm):
    """Triple loop over (draw, user), waves and elements in extended precision."""
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    waves = [np.asarray(a, dtype=ld).reshape(-1, np.shape(a)[-1]) for a in (aoa, amp, phase, pol)]
    re = np.zeros((waves[0].shape[0], len(positions)), dtype=ld)
    im = np.zeros_like(re)
    for r, (th, a, ph, psi) in enumerate(zip(*waves)):
        for l in range(th.size):
            coeff = a[l] * np.cos(psi[l]) * (1 + np.cos(th[l])) / 2
            for m, x in enumerate(positions):
                arg = ph[l] + two_pi * ld(x) * np.sin(th[l])
                re[r, m] += coeff * np.cos(arg)
                im[r, m] += coeff * np.sin(arg)
    h = (re.astype(float) + 1j * im.astype(float)) / norm
    return h.reshape(*np.shape(aoa)[:-1], len(positions))


def _fast_split(positions):
    return channel._sum_grid(np.asarray(positions, dtype=float))[1].size > 1


def _assert_field_matches_oracle(positions, k, waves, draws=2, seed=SEED):
    params = sample_wave_blocks(seed, channel.STREAM_EVAL, range(draws), k, waves)
    h = wave_field(positions, *params, norm=0.37)
    ref = _field_oracle(positions, *params, norm=0.37)
    assert h.shape == ref.shape == (draws, k, len(positions))
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "m, aperture, k, waves",
    [(121, 15.0, 2, 20), (505, 63.0, 3, 1)],
    ids=["dense-16-rimp", "dense-64-rlos"],
)
def test_wave_field_regular_against_oracle(m, aperture, k, waves):
    lay = regular_layout(m, aperture)
    assert _fast_split(lay.positions)
    _assert_field_matches_oracle(lay.positions, k, waves)


def test_wave_field_aperiodic_against_oracle():
    rng = np.random.default_rng(5)
    pos = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 15.0, 14)), [15.0]])
    assert not _fast_split(pos)
    _assert_field_matches_oracle(pos, 2, 20)


def test_wave_field_csv_round_trip_against_oracle(tmp_path):
    # a non-dyadic spacing: the sum grid rebuilds it only to within rounding
    path = tmp_path / "layout.csv"
    write_layout_csv(regular_layout(50, 7.3), path)
    pos = read_layout_csv(path).positions
    assert _fast_split(pos)
    _assert_field_matches_oracle(pos, 2, 20)


def test_wave_field_moved_element_against_oracle():
    pos = regular_layout(121, 15.0).positions.copy()
    # one ulp is inside the rounding of regular_layout itself (up to three
    # ulp of an element for non-dyadic spacings): the grid still applies
    pos[100] = np.nextafter(pos[100], np.inf)
    assert _fast_split(pos)
    _assert_field_matches_oracle(pos, 2, 20)
    # a move past the few-ulp tolerance is no longer a regular layout
    pos[100] += 8 * np.finfo(float).eps * pos[-1]
    assert not _fast_split(pos)
    _assert_field_matches_oracle(pos, 2, 20)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_wave_field_tiny_arrays_against_oracle(m):
    pos = np.arange(m) * 0.5
    _assert_field_matches_oracle(pos, 1, 20)
    params = [a[0, 0] for a in sample_wave_blocks(SEED, channel.STREAM_EVAL, [0], 1, 20)]
    h = wave_field(pos, *params, norm=0.37)
    assert h.shape == (m,)
    ref = _field_oracle(pos, *params, norm=0.37)
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_regular_layouts_take_the_sum_grid():
    for m in range(2, 601):
        for aperture in (m - 1.0, (m - 1.0) / 8):
            assert _fast_split(regular_layout(m, aperture).positions), (m, aperture)


def test_single_wave_row_has_constant_modulus():
    lay = regular_layout(9, 8.0)
    params = [p[0, 0] for p in sample_wave_blocks(SEED, channel.STREAM_EVAL, [5], 1, 1)]
    mags = np.abs(wave_field(lay.positions, *params, norm=1.0))
    np.testing.assert_allclose(mags, mags[0], rtol=1e-12)


def test_calibration_matches_one_block():
    """Chunked calibration, serial or mapped over worker processes, equals to
    the bit one wave_field call over all draws."""
    lay = regular_layout(121, 15.0)
    sc = _Scenario(k=2, waves=20)
    n_cal = 2_007
    chunk = min(channel._sub_batch(sc.K, sc.waves_per_ue, len(lay)), 1024)
    assert chunk < n_cal and n_cal % chunk  # several chunks, the last one short
    params = sample_wave_blocks(
        sc.master_seed, channel.STREAM_CALIBRATION, range(n_cal), sc.K, sc.waves_per_ue
    )
    h = wave_field(lay.positions, *params, norm=1.0)
    mean_square = np.mean(np.abs(h) ** 2, axis=(1, 2))  # ||H0||_F^2 / (K M) per draw
    expected = np.sqrt(np.mean(mean_square))
    assert calibrate_normalization(sc, lay, n_cal) == expected
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        assert calibrate_normalization(sc, lay, n_cal, mapper=pool.map) == expected


def test_calibration_self_consistency():
    """After dividing by c, the mean per-entry channel power is one."""
    lay = regular_layout(8, 7.0)
    sc = _Scenario(k=2, waves=1)
    c = calibrate_normalization(sc, lay, 20_000)
    n = 20_000
    aoa, amp, phase, pol = sample_wave_blocks(
        sc.master_seed, channel.STREAM_EVAL, range(n), sc.K, sc.waves_per_ue
    )
    h = wave_field(lay.positions, aoa, amp, phase, pol, norm=c)
    mean_power = np.mean(np.abs(h) ** 2)
    assert mean_power == pytest.approx(1.0, abs=0.02)


def test_calibration_mean_power_analytic():
    """E|h|^2 of the raw single wave is E[a^2] E[cos^2 psi] E[g^2] = 0.140031."""
    lay = regular_layout(8, 7.0)
    c = calibrate_normalization(_Scenario(k=2, waves=1), lay, 50_000)
    np.testing.assert_allclose(c * c, 0.140031, rtol=0.02)


def test_calibration_scales_with_wave_count():
    lay = regular_layout(8, 7.0)
    c1 = calibrate_normalization(_Scenario(k=2, waves=1), lay, 30_000)
    c10 = calibrate_normalization(_Scenario(k=2, waves=10), lay, 30_000)
    np.testing.assert_allclose((c10 / c1) ** 2, 10.0, rtol=0.05)


def test_calibration_reproducible():
    lay = regular_layout(8, 7.0)
    a = calibrate_normalization(_Scenario(), lay, 5_000)
    b = calibrate_normalization(_Scenario(), lay, 5_000)
    assert a == b


def test_calibration_requires_enough_draws():
    with pytest.raises(ValueError):
        calibrate_normalization(_Scenario(), regular_layout(4, 3.0), 999)
