import math

import numpy as np
import pytest

from apermimo import channel
from apermimo.arrays import ArrayLayout, regular_layout
from apermimo.beamform import COND_LIMIT, RESIDUAL_LIMIT
from apermimo.channel import STREAM_EVAL, sample_wave_blocks, wave_field
from apermimo.engine import (
    BLOCK,
    ComparisonReport,
    ScenarioConfig,
    SweepRow,
    _block_stats,
    _simulate_block,
    compare_layouts,
    default_layout,
    run_simulation,
    sweep,
)
from apermimo.metrics import SinrCdf


def _small_scenario(**overrides):
    base = dict(
        M=8, K=2, waves_per_ue=1, realizations=2_000, master_seed=31, snr_db=0.0
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ------------------------------------------------------------ validation


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(M=2, K=0)
    with pytest.raises(ValueError):
        ScenarioConfig(M=2, K=3)
    with pytest.raises(ValueError):
        ScenarioConfig(M=4, K=2, waves_per_ue=0)
    with pytest.raises(ValueError):
        ScenarioConfig(M=4, K=2, waves_per_ue=21)
    with pytest.raises(ValueError):
        ScenarioConfig(M=4, K=2, realizations=0)
    with pytest.raises(ValueError):
        ScenarioConfig(M=4, K=2, link="sideways")
    with pytest.raises(ValueError):
        ScenarioConfig(M=4, K=2, aperture=-1.0)
    for aperture in (math.nan, math.inf):
        with pytest.raises(ValueError, match="aperture must be finite"):
            ScenarioConfig(M=4, K=2, aperture=aperture)
    with pytest.raises(ValueError):
        ScenarioConfig(M=4, K=2, master_seed=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(M=4, K=2, master_seed=2**64)


def test_scenario_defaults():
    sc = ScenarioConfig(M=16, K=4)
    assert sc.aperture == 15.0
    assert sc.snr_db == 0.0
    assert sc.link == "uplink"
    assert sc.snr == pytest.approx(1.0)
    layout = default_layout(sc)
    assert len(layout) == 16
    assert layout.positions[-1] == pytest.approx(15.0)


# -------------------------------------------------------- single records


def _replay(sc, layout, norm, index):
    """Realization ``index`` regenerated alone, as a dict of length-1 arrays."""
    return _simulate_block(sc, layout, norm, index, index + 1, STREAM_EVAL)


def test_realization_is_reproducible():
    sc = _small_scenario()
    layout = default_layout(sc)
    norm = channel.calibrate_normalization(sc, layout, 2_000)
    a = _replay(sc, layout, norm, 17)
    b = _replay(sc, layout, norm, 17)
    assert a["ok"][0] and b["ok"][0]
    for key in ("sinr", "power", "residual"):
        np.testing.assert_array_equal(a[key], b[key])
    # the accepted draw clears the condition limit by the SVD of its own Gram
    params = sample_wave_blocks(sc.master_seed, STREAM_EVAL, [17], sc.K, sc.waves_per_ue)
    h = wave_field(layout.positions, *params, norm=norm)[0]
    assert np.linalg.cond(h @ h.conj().T) <= COND_LIMIT


def test_realizations_differ_by_index():
    sc = _small_scenario()
    layout = default_layout(sc)
    norm = channel.calibrate_normalization(sc, layout, 2_000)
    a = _replay(sc, layout, norm, 17)
    b = _replay(sc, layout, norm, 18)
    assert not np.array_equal(a["sinr"], b["sinr"])


def test_downlink_record_equalizes_users():
    sc = _small_scenario(link="downlink", snr_db=3.0)
    layout = default_layout(sc)
    norm = channel.calibrate_normalization(sc, layout, 2_000)
    rec = _replay(sc, layout, norm, 5)
    assert rec["ok"][0]
    assert rec["sinr"].shape == (1, 2)
    # exact interference nulling leaves every user at the same level
    assert rec["sinr"][0, 0] == pytest.approx(rec["sinr"][0, 1], rel=1e-9)


def test_record_index_validation():
    sc = _small_scenario()
    layout = default_layout(sc)
    with pytest.raises(OverflowError):  # realization indices are unsigned
        _replay(sc, layout, 1.0, -1)


# ------------------------------------------------------------- full runs


def test_report_matches_per_record_accumulation():
    """A full run equals replaying its realizations one by one."""
    sc = _small_scenario(realizations=300)
    layout = default_layout(sc)
    report = run_simulation(sc, layout)
    norm = report.norm
    recs = [_replay(sc, layout, norm, i) for i in range(sc.realizations)]
    accepted = [i for i, rec in enumerate(recs) if rec["ok"][0]]
    # acceptance is cond(G) <= COND_LIMIT plus the residual gate
    params = sample_wave_blocks(
        sc.master_seed, STREAM_EVAL, range(sc.realizations), sc.K, sc.waves_per_ue
    )
    h = wave_field(layout.positions, *params, norm=norm)
    cond_ok = np.linalg.cond(h @ h.conj().swapaxes(-1, -2)) <= COND_LIMIT
    residual = np.concatenate([rec["residual"] for rec in recs])
    np.testing.assert_array_equal(
        np.flatnonzero(cond_ok & (residual <= RESIDUAL_LIMIT)), accepted
    )
    sinr = np.concatenate([recs[i]["sinr"] for i in accepted])
    power = np.concatenate([recs[i]["power"] for i in accepted])
    assert report.rejected_count == sc.realizations - len(accepted)
    assert report.accepted_count == len(accepted)
    manual = SinrCdf().push_db(10.0 * np.log10(sinr).ravel())
    np.testing.assert_array_equal(report.sinr_cdf.counts, manual.counts)
    np.testing.assert_allclose(report.power.mean, power.mean(axis=0), rtol=1e-12)
    # sum rate: sum over users of the mean over draws of log2(1 + SINR)
    naive = sum(
        np.mean([math.log2(1.0 + s) for s in sinr[:, k]]) for k in range(sc.K)
    )
    assert report.sum_rate == pytest.approx(naive, rel=1e-12)
    # power sample: beta |sum_k W[:, k]|^2 with W the pseudoinverse of H rebuilt here
    for i in accepted[:5]:
        params = sample_wave_blocks(sc.master_seed, STREAM_EVAL, [i], sc.K, sc.waves_per_ue)
        h = wave_field(layout.positions, *params, norm=norm)[0]
        w = np.linalg.pinv(h)
        beta = 1.0 / np.sum(np.abs(w) ** 2)
        np.testing.assert_allclose(
            recs[i]["power"][0], beta * np.abs(w.sum(axis=1)) ** 2, rtol=1e-9
        )


def test_worker_count_does_not_change_report():
    # a single block still forks: the pool takes the calibration chunks
    for realizations in (2 * BLOCK + 123, BLOCK // 2):
        sc = _small_scenario(realizations=realizations)
        layout = default_layout(sc)
        rep1 = run_simulation(sc, layout, workers=1)
        rep2 = run_simulation(sc, layout, workers=2)
        assert rep1.norm == rep2.norm
        np.testing.assert_array_equal(rep1.sinr_cdf.counts, rep2.sinr_cdf.counts)
        np.testing.assert_array_equal(rep1.power.mean, rep2.power.mean)
        np.testing.assert_array_equal(rep1.power.variance, rep2.power.variance)
        assert rep1.sum_rate == rep2.sum_rate
        assert rep1.power_spread_db == rep2.power_spread_db
        assert rep1.rejected_count == rep2.rejected_count
        assert rep1.max_residual == rep2.max_residual


def test_uplink_downlink_share_power_statistics():
    """The transmit and receive weight magnitudes coincide under channel
    reciprocity, so the power profile is link-independent."""
    up = run_simulation(_small_scenario(link="uplink"))
    down = run_simulation(_small_scenario(link="downlink"))
    np.testing.assert_allclose(up.power.mean, down.power.mean, rtol=1e-12)


def test_report_residuals_within_gate():
    rep = run_simulation(_small_scenario(realizations=5_000))
    assert rep.max_residual <= 1e-9
    assert rep.accepted_count + rep.rejected_count == 5_000
    assert rep.sinr_cdf.count == rep.accepted_count * 2


def test_layout_mismatch_rejected():
    sc = _small_scenario()
    with pytest.raises(ValueError):
        run_simulation(sc, regular_layout(4, 3.0))


def test_degenerate_layout_flags_report():
    """Two effectively coincident elements reject every 2-user draw."""
    sc = ScenarioConfig(M=2, K=2, waves_per_ue=1, realizations=200, master_seed=5, aperture=1e-9)
    layout = ArrayLayout(np.array([0.0, 1e-9]))
    with pytest.warns(RuntimeWarning, match="rejected"):
        rep = run_simulation(sc, layout)
    assert rep.accepted_count == 0
    assert rep.rejected_count == 200
    assert not rep.valid
    assert math.isnan(rep.sum_rate)


# ------------------------------------------------------------ comparisons


def test_compare_layout_against_itself_is_null():
    sc = _small_scenario(realizations=2_000)
    comp = compare_layouts(sc, aperiodic=default_layout(sc))
    assert isinstance(comp, ComparisonReport)
    assert comp.sinrg_db == 0.0
    assert comp.psc_db == 0.0
    assert comp.sr_gain_fraction == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(
        comp.aperiodic.sinr_cdf.counts, comp.regular.sinr_cdf.counts
    )


def test_sweep_skips_infeasible_points():
    sc = _small_scenario(realizations=1_500)
    with pytest.warns(RuntimeWarning, match="infeasible"), \
            pytest.warns(RuntimeWarning, match="recommended"):
        rows = sweep(sc, bs_counts=[4], crowdedness=[0.01, 0.5], workers=1,
                     dense_oversampling=2, synthesis_realizations=1_500)
    assert len(rows) == 1
    row = rows[0]
    assert isinstance(row, SweepRow)
    assert row.M == 4 and row.K == 2
    assert row.crowdedness == 0.5
    assert math.isfinite(row.sinrg_db)


def test_zero_synthesis_realizations_is_not_the_default():
    # 0 used to fall through an ``or`` to the 100 000-draw default
    sc = _small_scenario(M=4, K=2, realizations=1_200)
    for run in (lambda: compare_layouts(sc, dense_oversampling=2, synthesis_realizations=0),
                lambda: sweep(sc, [4], [0.5], dense_oversampling=2, synthesis_realizations=0)):
        with pytest.warns(RuntimeWarning, match="recommended"), \
                pytest.raises(ValueError, match="realizations"):
            run()


def test_block_stats_merge_folds_every_field():
    sc = _small_scenario(realizations=600)
    layout = default_layout(sc)
    whole = _block_stats((sc, layout, 1.0, 0, 600, STREAM_EVAL))
    halves = _block_stats((sc, layout, 1.0, 0, 250, STREAM_EVAL))
    halves.merge(_block_stats((sc, layout, 1.0, 250, 600, STREAM_EVAL)))
    np.testing.assert_array_equal(halves.cdf.counts, whole.cdf.counts)
    assert halves.rejected == whole.rejected
    assert halves.max_residual == whole.max_residual
    assert halves.rate.count == halves.power.count == 600 - whole.rejected
    np.testing.assert_allclose(halves.rate.mean, whole.rate.mean, rtol=1e-12)
    np.testing.assert_allclose(halves.power.mean, whole.power.mean, rtol=1e-12)
    np.testing.assert_allclose(halves.power.variance, whole.power.variance, rtol=1e-10)


def test_sweep_sets_k_by_rounding():
    sc = _small_scenario(realizations=1_200)
    with pytest.warns(RuntimeWarning, match="recommended"):
        rows = sweep(sc, bs_counts=[8], crowdedness=[0.25], workers=1,
                     dense_oversampling=2, synthesis_realizations=1_200)
    assert rows[0].K == 2
    assert rows[0].M == 8
