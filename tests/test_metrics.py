import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from apermimo.channel import STREAM_EVAL, sample_wave_blocks, wave_field
from apermimo.engine import BLOCK, ScenarioConfig, _simulate_block, default_layout, run_simulation
from apermimo.metrics import (
    CDF_BIN_WIDTH_DB,
    CDF_MAX_DB,
    CDF_MIN_DB,
    InvalidStateError,
    SinrCdf,
    StreamingMoments,
    power_spread,
    psc,
    sinr_gain,
)


# ---------------------------------------------------------------- moments


def _rows_merged(samples):
    """Moments of (n, dim) samples fed as one-row batches merged in order."""
    acc = StreamingMoments(samples.shape[1])
    for row in samples:
        acc.merge(StreamingMoments.from_batch(row[None]))
    return acc


def test_excitation_two_point_variance():
    """Samples (1,1) and (3,3) give mean 2 and unbiased variance 2."""
    one = _rows_merged(np.array([[1.0, 1.0]]))
    np.testing.assert_array_equal(one.variance, [0.0, 0.0])  # undefined below 2 samples
    acc = _rows_merged(np.array([[1.0, 1.0], [3.0, 3.0]]))
    np.testing.assert_allclose(acc.mean, [2.0, 2.0])
    np.testing.assert_allclose(acc.variance, [2.0, 2.0])
    assert acc.count == 2


def _two_block_run():
    """A run spanning two engine blocks, and all its draws replayed at once."""
    sc = ScenarioConfig(M=8, K=2, waves_per_ue=3, realizations=BLOCK + 500, master_seed=16)
    layout = default_layout(sc)
    report = run_simulation(sc, layout)
    blk = _simulate_block(sc, layout, report.norm, 0, sc.realizations, STREAM_EVAL)
    assert report.accepted_count == int(blk["ok"].sum())
    return sc, layout, report, blk


def test_excitation_coherent_sum():
    """The power profile holds the moments of beta |sum_k W[m, k]|^2, the
    coherent sum over users, with W = pinv(H) of channels rebuilt here."""
    sc, layout, report, blk = _two_block_run()
    params = sample_wave_blocks(
        sc.master_seed, STREAM_EVAL, range(sc.realizations), sc.K, sc.waves_per_ue
    )
    h = wave_field(layout.positions, *params, norm=report.norm)[blk["ok"]]
    w = np.linalg.pinv(h)
    beta = 1.0 / np.sum(np.abs(w) ** 2, axis=(1, 2))
    power = beta[:, None] * np.abs(w.sum(axis=2)) ** 2
    assert report.power.count == power.shape[0]
    np.testing.assert_allclose(report.power.mean, power.mean(axis=0), rtol=1e-9)
    np.testing.assert_allclose(report.power.variance, power.var(axis=0, ddof=1), rtol=1e-9)


def test_streaming_matches_two_pass_batch():
    rng = np.random.default_rng(11)
    samples = rng.uniform(0.0, 5.0, size=(10_000, 8))
    acc = _rows_merged(samples)
    mu = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    np.testing.assert_allclose(acc.mean, mu, rtol=1e-10)
    np.testing.assert_allclose(acc.variance, var, rtol=1e-10)


def test_moments_merge_matches_single_pass():
    rng = np.random.default_rng(12)
    samples = rng.standard_normal((5_000, 4)) * 3.0 + 1.0
    whole = StreamingMoments.from_batch(samples)
    for split in (1, 777, 2_500, 4_999):
        left = StreamingMoments.from_batch(samples[:split])
        right = StreamingMoments.from_batch(samples[split:])
        merged = left.merge(right)
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
        np.testing.assert_allclose(merged.variance, whole.variance, rtol=1e-12)
        assert merged.count == whole.count


def test_moments_merge_order_insensitive():
    rng = np.random.default_rng(13)
    a = StreamingMoments.from_batch(rng.uniform(size=(100, 3)))
    b = StreamingMoments.from_batch(rng.uniform(size=(57, 3)) + 2.0)
    ab = StreamingMoments(3).merge(a).merge(b)
    ba = StreamingMoments(3).merge(b).merge(a)
    np.testing.assert_allclose(ab.mean, ba.mean, rtol=1e-12)
    np.testing.assert_allclose(ab.variance, ba.variance, rtol=1e-12)


@st.composite
def _batch_and_cuts(draw):
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 4))
    batch = draw(arrays(float, (n, dim), elements=st.floats(-1e3, 1e3)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return batch, cuts


@settings(max_examples=200, deadline=None)
@given(_batch_and_cuts())
def test_any_ordered_split_merges_to_the_batch(batch_and_cuts):
    """Merging the parts of any ordered split (empty parts included) in
    order gives the one-batch moments up to round-off."""
    batch, cuts = batch_and_cuts
    whole = StreamingMoments.from_batch(batch)
    merged = StreamingMoments(batch.shape[1])
    for part in np.split(batch, cuts):
        merged.merge(StreamingMoments.from_batch(part))
    assert merged.count == whole.count == batch.shape[0]
    scale = 1.0 + np.abs(batch).max()
    n = batch.shape[0]
    np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12, atol=1e-13 * scale)
    np.testing.assert_allclose(merged._m2, whole._m2, rtol=1e-9, atol=1e-12 * n * scale**2)


@settings(max_examples=100, deadline=None)
@given(_batch_and_cuts())
def test_merge_into_empty_is_bit_exact(batch_and_cuts):
    batch, _ = batch_and_cuts
    src = StreamingMoments.from_batch(batch)
    dst = StreamingMoments(batch.shape[1]).merge(src)
    assert dst.count == src.count
    np.testing.assert_array_equal(dst.mean, src.mean)
    np.testing.assert_array_equal(dst._m2, src._m2)


def test_merge_into_empty_is_exact():
    rng = np.random.default_rng(14)
    src = StreamingMoments.from_batch(rng.uniform(size=(64, 5)))
    dst = StreamingMoments(5).merge(src)
    np.testing.assert_array_equal(dst.mean, src.mean)
    np.testing.assert_array_equal(dst.variance, src.variance)
    assert dst.count == src.count


def test_merge_empty_operand_is_noop():
    acc = StreamingMoments.from_batch([[1.0, 2.0]])
    mean_before = acc.mean.copy()
    acc.merge(StreamingMoments(2))
    np.testing.assert_array_equal(acc.mean, mean_before)
    assert acc.count == 1


def test_moments_reject_bad_dims():
    with pytest.raises(ValueError):
        StreamingMoments(0)
    with pytest.raises(ValueError):
        StreamingMoments(2).merge(StreamingMoments(3))


# ------------------------------------------------------------ power spread


def test_power_spread_uniform_is_zero_db():
    assert power_spread(np.full(8, 0.37), np.zeros(8)) == pytest.approx(0.0, abs=1e-12)


def test_power_spread_factor_two():
    ps = power_spread(np.array([1.0, 2.0]), np.zeros(2))
    assert ps == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)


def test_power_spread_degenerate_is_infinite():
    with pytest.warns(RuntimeWarning):
        assert power_spread(np.array([1.0, 1.0]), np.array([0.5, 2.0])) == math.inf


def test_power_spread_needs_two_accepted_draws():
    """Below 2 accepted draws the variance is undefined and the run
    reports the power spread as NaN."""
    report = run_simulation(ScenarioConfig(M=4, K=2, realizations=1, master_seed=5))
    assert report.accepted_count == report.power.count == 1
    assert math.isnan(report.power_spread_db)


def test_power_spread_nonnegative():
    rng = np.random.default_rng(15)
    for _ in range(20):
        mu = rng.uniform(0.5, 2.0, size=6)
        s2 = rng.uniform(0.0, 0.1, size=6)
        ps = power_spread(mu, s2)
        assert ps >= 0.0


# --------------------------------------------------------------- sum rate


def test_sum_rate_matches_naive_average():
    """The sum rate merged over two blocks is the per-user average of
    log2(1 + SINR) over every accepted draw, summed over users."""
    sc, _, report, blk = _two_block_run()
    sinr = blk["sinr"][blk["ok"]]
    naive = sum(
        np.mean([math.log2(1.0 + s) for s in sinr[:, k]]) for k in range(sc.K)
    )
    assert report.sum_rate == pytest.approx(naive, rel=1e-12)


# ------------------------------------------------------------------- CDF


def test_percentile_point_mass():
    cdf = SinrCdf().push_db(np.full(100, 7.00))
    assert cdf.percentile(0.05) == pytest.approx(7.00, abs=0.01)


def test_percentile_uniform_median():
    cdf = SinrCdf().push_db(np.linspace(0.0, 10.0, 100_001))
    assert cdf.percentile(0.5) == pytest.approx(5.0, abs=0.02)


def test_percentile_standard_normal_tail():
    rng = np.random.default_rng(18)
    cdf = SinrCdf().push_db(rng.standard_normal(100_000))
    assert cdf.percentile(0.05) == pytest.approx(-1.645, abs=0.03)


def test_percentile_validation():
    cdf = SinrCdf()
    with pytest.raises(InvalidStateError):
        cdf.percentile(0.5)
    cdf.push_db([0.0])
    with pytest.raises(ValueError):
        cdf.percentile(0.0)
    with pytest.raises(ValueError):
        cdf.percentile(1.0)


def test_cdf_clamps_out_of_range():
    cdf = SinrCdf().push_db([-100.0, 100.0, 0.0])
    assert cdf.count == 3
    assert cdf.counts[0] == 1
    assert cdf.counts[-1] == 1
    assert cdf.percentile(0.01) == pytest.approx(CDF_MIN_DB + CDF_BIN_WIDTH_DB / 2)
    assert cdf.percentile(0.99) == pytest.approx(CDF_MAX_DB - CDF_BIN_WIDTH_DB / 2)


def test_cdf_rejects_nonfinite():
    with pytest.raises(ValueError):
        SinrCdf().push_db([np.nan])
    with pytest.raises(ValueError):
        SinrCdf().push_db([np.inf])


def test_cdf_monotone_zero_to_one():
    rng = np.random.default_rng(19)
    cdf = SinrCdf().push_db(rng.normal(5.0, 10.0, size=10_000))
    curve = cdf.cdf
    assert np.all(np.diff(curve) >= 0.0)
    assert curve[-1] == pytest.approx(1.0)


def test_cdf_merge_is_exact_count_sum():
    rng = np.random.default_rng(20)
    a = SinrCdf().push_db(rng.normal(size=1_000))
    b = SinrCdf().push_db(rng.normal(size=2_000))
    whole = SinrCdf().push_db(np.zeros(0))
    whole.merge(a).merge(b)
    again = SinrCdf().merge(b).merge(a)
    np.testing.assert_array_equal(whole.counts, again.counts)
    assert whole.count == 3_000


# -------------------------------------------------------- figures of merit


def _cdf_from(values_db):
    return SinrCdf().push_db(np.asarray(values_db))


def test_sinr_gain_self_comparison_zero():
    rng = np.random.default_rng(21)
    vals = rng.normal(0.0, 5.0, size=5_000)
    assert sinr_gain(_cdf_from(vals), _cdf_from(vals)) == 0.0


def test_sinr_gain_pure_shift():
    rng = np.random.default_rng(22)
    vals = rng.normal(0.0, 5.0, size=5_000)
    gain = sinr_gain(_cdf_from(vals + 2.0), _cdf_from(vals))
    assert gain == pytest.approx(2.0, abs=2 * CDF_BIN_WIDTH_DB)


def test_sinr_gain_needs_enough_samples():
    big = _cdf_from(np.zeros(2_000))
    small = _cdf_from(np.zeros(999))
    with pytest.raises(InvalidStateError):
        sinr_gain(small, big)
    with pytest.raises(InvalidStateError):
        sinr_gain(big, small)


def test_psc_arithmetic():
    assert psc(5.0, 3.0) == pytest.approx(2.0)
    assert psc(4.0, 4.0) == 0.0


def test_psc_undefined_for_infinite_spread():
    with pytest.warns(RuntimeWarning):
        assert math.isnan(psc(math.inf, 3.0))
    with pytest.warns(RuntimeWarning):
        assert math.isnan(psc(5.0, math.inf))
