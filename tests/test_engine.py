import concurrent.futures
import ctypes
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from conftest import gather_block

from apermimo import channel, engine
from apermimo.arrays import ArrayLayout, regular_layout
from apermimo.beamform import COND_LIMIT, RESIDUAL_LIMIT
from apermimo.channel import STREAM_EVAL, sample_wave_blocks, wave_field
from apermimo.engine import (
    BLOCK,
    ComparisonReport,
    ScenarioConfig,
    _block_stats,
    _simulate_block,
    compare_layouts,
    default_layout,
    run_simulation,
)
from apermimo.metrics import SinrCdf, StreamingMoments
from apermimo.synthesis import reference_profile


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
    with pytest.raises(ValueError, match="at least 2 elements"):
        ScenarioConfig(M=1, K=1)
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
    return next(_simulate_block(sc, (layout,), norm, index, index + 1, STREAM_EVAL))[0]


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
    # the block's sub-batches, concatenated, are the replays stacked
    blk = gather_block(_simulate_block(sc, (layout,), norm, 0, sc.realizations, STREAM_EVAL))[0]
    for key in blk:
        np.testing.assert_array_equal(blk[key], np.concatenate([rec[key] for rec in recs]))
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


def _assert_same_stats(a, b, msg=""):
    """Two BlockStats records agree bit for bit in every field."""
    np.testing.assert_array_equal(a.cdf.counts, b.cdf.counts, err_msg=msg)
    for name in ("rate", "power"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.count == y.count, (name, msg)
        np.testing.assert_array_equal(x.mean, y.mean, err_msg=f"{name} {msg}")
        np.testing.assert_array_equal(x._m2, y._m2, err_msg=f"{name} {msg}")
    assert (a.rejected, a.max_residual) == (b.rejected, b.max_residual), msg


@pytest.mark.parametrize("link, waves, positions, m", [
    ("uplink", 1, None, 8),
    ("downlink", 20, (0.0, 0.9, 2.2, 3.0, 4.1, 4.9, 6.3, 7.0), 8),
    ("downlink", 3, None, 64),
], ids=["los-uplink-regular", "rimp-downlink-aperiodic", "downlink-64-two-chunks"])
def test_simulate_block_independent_of_sub_batch(fixed_sub_batch, link, waves, positions, m):
    """Every per-draw array of a block, and every field of its reduction, is
    bit-identical for any sub-batch size; at 64 elements the power moments
    fold two chunks of 2048 rows."""
    sc = _small_scenario(link=link, waves_per_ue=waves, K=3, M=m)
    layout = default_layout(sc) if positions is None else ArrayLayout(positions)
    args = (sc, (layout,), 1.0, 0, BLOCK, STREAM_EVAL)
    blk = gather_block(_simulate_block(*args))[0]
    stats = _block_stats(args)[0]
    assert engine._reduce_rows(m) == (BLOCK if m == 8 else BLOCK // 2)
    for sub in (1, 7, 4096):
        batches = fixed_sub_batch(sub)
        blk_sub = gather_block(_simulate_block(*args))[0]
        assert len(batches) == -(-BLOCK // sub) and max(batches) == sub
        for key in blk:
            np.testing.assert_array_equal(blk_sub[key], blk[key], err_msg=f"{key} {sub}")
        _assert_same_stats(_block_stats(args)[0], stats, f"sub-batch {sub}")


def _assert_same_report(a, b):
    """Two reports agree bit for bit in every figure."""
    np.testing.assert_array_equal(a.layout.positions, b.layout.positions)
    assert a.norm == b.norm
    np.testing.assert_array_equal(a.sinr_cdf.counts, b.sinr_cdf.counts)
    np.testing.assert_array_equal(a.power.mean, b.power.mean)
    np.testing.assert_array_equal(a.power.variance, b.power.variance)
    assert a.sum_rate == b.sum_rate
    assert a.power_spread_db == b.power_spread_db
    assert a.rejected_count == b.rejected_count
    assert a.accepted_count == b.accepted_count
    assert a.max_residual == b.max_residual
    assert a.valid == b.valid


def test_worker_count_does_not_change_report():
    # a single block still forks: the pool takes the calibration chunks
    for realizations in (2 * BLOCK + 123, BLOCK // 2):
        sc = _small_scenario(realizations=realizations)
        layout = default_layout(sc)
        rep1 = run_simulation(sc, layout, workers=1)
        rep2 = run_simulation(sc, layout, workers=2)
        _assert_same_report(rep1, rep2)


def test_uplink_downlink_share_power_statistics():
    """The transmit and receive weight magnitudes coincide under channel
    reciprocity, so the power profile is link-independent."""
    up = run_simulation(_small_scenario(link="uplink"))
    down = run_simulation(_small_scenario(link="downlink"))
    np.testing.assert_allclose(up.power.mean, down.power.mean, rtol=1e-12)


def test_links_reject_the_same_draws(negated_rescue_gain):
    """Acceptance belongs to the solve, so a rescued draw with a nonpositive
    noise gain is rejected on both links, and with SINR 0 on each."""
    blocks = [
        gather_block(_simulate_block(ScenarioConfig(M=16, K=8, link=link),
                                     (regular_layout(16, 15.0),), 1.0, 0, 1024, STREAM_EVAL))[0]
        for link in ("uplink", "downlink")
    ]
    up, down = (blk["ok"] for blk in blocks)
    assert sum(negated_rescue_gain) > 0
    np.testing.assert_array_equal(up, down)
    for blk in blocks:
        assert np.all(blk["sinr"][~blk["ok"]] == 0.0)


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
    with pytest.warns(RuntimeWarning, match="rejected") as record:
        rep = run_simulation(sc, layout)
    assert [r.filename for r in record] == [__file__]  # the caller's line, not the engine's
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


def test_compare_layouts_only_compares():
    # synthesizing the aperiodic layout is the caller's step: no engine -> synthesis import
    assert not hasattr(engine, "synthesis")
    params = list(inspect.signature(compare_layouts).parameters)
    assert params == ["scenario", "aperiodic", "workers"]


_APERIODIC_8 = ArrayLayout((0.0, 0.9, 2.2, 3.0, 4.1, 4.9, 6.3, 7.0))


def test_comparison_samples_each_draw_once_on_one_pool(monkeypatch):
    sc = _small_scenario(realizations=BLOCK + 123, waves_per_ue=3)
    streams = {STREAM_EVAL: 0, STREAM_EVAL + 1: 0}
    sample = channel.sample_wave_blocks

    def counting(master_seed, kind, indices, num_users, num_waves):
        streams[kind] += len(indices) * num_users
        return sample(master_seed, kind, indices, num_users, num_waves)

    calibrations = []
    calibrate = channel.calibrate_normalization

    def counting_calibration(scenario, layout, *args, **kwargs):
        calibrations.append(layout)
        return calibrate(scenario, layout, *args, **kwargs)

    monkeypatch.setattr(channel, "sample_wave_blocks", counting)
    monkeypatch.setattr(channel, "calibrate_normalization", counting_calibration)
    compare_layouts(sc, _APERIODIC_8)
    assert streams[STREAM_EVAL] == sc.realizations * sc.K
    # one calibration per comparison, on the regular layout
    assert streams[STREAM_EVAL + 1] == channel.DEFAULT_CALIBRATION_DRAWS * sc.K
    assert len(calibrations) == 1
    np.testing.assert_array_equal(calibrations[0].positions, default_layout(sc).positions)

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    compare_layouts(sc, _APERIODIC_8, workers=2)
    assert len(pools) == 1
    assert len(calibrations) == 2


def test_worker_pool_is_capped_at_the_task_count(monkeypatch):
    """A forked pool starts every process at its first task, so a run asks for
    no more workers than it has blocks or calibration tasks."""
    pools = []

    class InProcessPool:
        """Records the pool size and maps in this process: starts nothing."""

        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    sc = _small_scenario(realizations=BLOCK + 1)
    report = run_simulation(sc, workers=10_000)
    calibration_tasks = -(-channel.DEFAULT_CALIBRATION_DRAWS // channel._CALIBRATION_TASK)
    assert pools == [calibration_tasks] == [20]
    _assert_same_report(report, run_simulation(sc))
    run_simulation(_small_scenario(realizations=20 * BLOCK + 1, M=2, K=1), workers=10_000)
    assert pools[1] == 21


def test_stream_past_the_counter_layout_raises_before_drawing(monkeypatch):
    # stream 15 would calibrate on kind 16, whose bits overflow the counter word
    calls = []
    monkeypatch.setattr(channel, "_philox4x32", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="stream kind"):
        run_simulation(_small_scenario(), stream=15)
    assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
def test_comparison_arms_equal_separate_runs(workers):
    # at L = 20 the field depends on the layout, but the norm does not: every
    # run calibrates on the regular layout, so both arms share its norm
    sc = _small_scenario(waves_per_ue=20, realizations=BLOCK + 123)
    comp = compare_layouts(sc, _APERIODIC_8, workers=workers)
    regular = run_simulation(sc, default_layout(sc))
    assert comp.aperiodic.norm == comp.regular.norm == regular.norm
    _assert_same_report(comp.aperiodic, run_simulation(sc, _APERIODIC_8))
    _assert_same_report(comp.regular, regular)


def test_invalid_comparison_warns_at_the_caller():
    # a 1e-3 wavelength aperture rejects 6 of 1000 draws: enough samples for the
    # gains, too many rejections for the budget
    sc = ScenarioConfig(M=2, K=2, realizations=1_000, master_seed=5, aperture=1e-3)
    with pytest.warns(RuntimeWarning, match="flagged invalid") as record:
        comp = compare_layouts(sc, ArrayLayout(np.array([0.0, 1e-3])))
    assert [r.filename for r in record] == [__file__, __file__]
    assert not comp.aperiodic.valid and not comp.regular.valid


def test_zero_synthesis_realizations_is_not_the_default():
    # 0 used to fall through an ``or`` to the 100 000-draw default
    sc = _small_scenario(M=4, K=2, realizations=1_200)
    with pytest.warns(RuntimeWarning, match="recommended"), \
            pytest.raises(ValueError, match="realizations"):
        reference_profile(sc, dense_oversampling=2, realizations=0)


def test_block_stats_memory_is_cache_sized():
    """One 4096-draw block of a dense synthesis reference (the 121 elements
    of the 16x2 L=20 comparison, the 505 of the 64x19 synthesis at L=1)
    holds no array of the whole block's draws: only its rate and power row
    buffers and a few sub-batch temporaries at a time (the field and each
    zero-forcing temporary of its size), with no (B, draws, K, L) phasor
    powers beyond them."""
    for m, k, waves in ((121, 2, 20), (505, 19, 1)):
        sc = ScenarioConfig(M=m, K=k, waves_per_ue=waves, realizations=BLOCK)
        layout = (default_layout(sc),)
        _block_stats((sc, layout, 1.0, 0, 16, STREAM_EVAL))  # first-call allocations
        tracemalloc.start()
        try:
            _block_stats((sc, layout, 1.0, 0, BLOCK, STREAM_EVAL))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = engine._reduce_rows(m) * (8 * (k + m) + 1)  # rate, power and ok rows
        # _sub_batch's 16-draw floor makes a 505x19 temporary 16 K M complex entries
        largest = max(channel._CACHE_ENTRIES, channel._sub_batch(k, m, waves) * k * m)
        assert peak <= buffers + 4 * 16 * largest, (m, peak / 2**20)


def test_block_stats_folds_row_chunks_in_index_order(monkeypatch, fixed_sub_batch):
    """The rate and power moments fold the block's rows in chunks of
    _reduce_rows(M) rows in index order, whatever the sub-batches: here
    7-draw sub-batches straddle 8-row chunks, the second chunk is wholly
    rejected, the third in part, and the last holds 3 rows."""
    sc = _small_scenario(K=3, waves_per_ue=2)
    layout = default_layout(sc)
    solve, solved = engine._zf_solve, []

    def rejecting(h):
        zf = solve(h)
        index = np.arange(sum(solved), sum(solved) + len(h))
        solved.append(len(h))
        return zf._replace(ok=zf.ok & ((index < 8) | (index >= 16)) & (index != 21))

    monkeypatch.setattr(engine, "_zf_solve", rejecting)
    monkeypatch.setattr(engine, "_reduce_rows", lambda m: 8)
    fixed_sub_batch(7)
    args = (sc, (layout,), 1.0, 0, 43, STREAM_EVAL)
    stats = _block_stats(args)[0]
    solved.clear()
    blk = gather_block(_simulate_block(*args))[0]
    ok = blk["ok"]
    assert np.flatnonzero(~ok).tolist() == [*range(8, 16), 21]
    rate, power = StreamingMoments(sc.K), StreamingMoments(sc.M)
    for s in range(0, 43, 8):
        rows = slice(s, s + 8)
        rate.merge(StreamingMoments.from_batch(np.log1p(blk["sinr"][rows]) / math.log(2.0),
                                               ok[rows]))
        power.merge(StreamingMoments.from_batch(blk["power"][rows], ok[rows]))
    expected = engine.BlockStats(SinrCdf().push_db(10.0 * np.log10(blk["sinr"][ok])),
                                 rate, power, 9, float(blk["residual"][ok].max()))
    _assert_same_stats(stats, expected)
    assert stats.power.count == 34
    np.testing.assert_allclose(stats.power.mean, blk["power"][ok].mean(axis=0), rtol=1e-12)


def test_block_stats_merge_folds_every_field():
    sc = _small_scenario(realizations=600)
    layout = default_layout(sc)
    whole = _block_stats((sc, (layout,), 1.0, 0, 600, STREAM_EVAL))[0]
    halves = _block_stats((sc, (layout,), 1.0, 0, 250, STREAM_EVAL))[0]
    halves.merge(_block_stats((sc, (layout,), 1.0, 250, 600, STREAM_EVAL))[0])
    np.testing.assert_array_equal(halves.cdf.counts, whole.cdf.counts)
    assert halves.rejected == whole.rejected
    assert halves.max_residual == whole.max_residual
    assert halves.rate.count == halves.power.count == 600 - whole.rejected
    np.testing.assert_allclose(halves.rate.mean, whole.rate.mean, rtol=1e-12)
    np.testing.assert_allclose(halves.power.mean, whole.power.mean, rtol=1e-12)
    np.testing.assert_allclose(halves.power.variance, whole.power.variance, rtol=1e-10)



# ------------------------------------------------------------ heap policy


class _CFunction:
    """Stand-in for a C function: records each call's arguments, returns ``result``."""

    def __init__(self, result):
        self.calls = []
        self.result = result

    def __call__(self, *args):
        self.calls.append(args)
        return self.result


class _Libc:
    """Stand-in for the C library's mallopt and malloc_trim."""

    def __init__(self, result=1):
        self.mallopt = _CFunction(result)
        self.malloc_trim = _CFunction(1)


@pytest.fixture
def fresh_heap_policy():
    engine._keep_freed_memory.cache_clear()
    yield
    engine._keep_freed_memory.cache_clear()


def test_heap_policy_set_once_per_process(monkeypatch, fresh_heap_policy):
    """M_MMAP_THRESHOLD (-3) at glibc's 32 MiB ceiling, then M_TRIM_THRESHOLD
    (-1) above it, on the first run only; every run trims the heap it freed."""
    libc = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    sc = _small_scenario(realizations=600)
    run_simulation(sc)
    assert libc.mallopt.calls == [(-3, 32 << 20), (-1, engine._TRIM_THRESHOLD)]
    assert engine._TRIM_THRESHOLD > 32 << 20
    compare_layouts(sc, default_layout(sc))
    assert engine._keep_freed_memory() is libc.malloc_trim
    assert len(libc.mallopt.calls) == 2
    assert libc.malloc_trim.calls == [(0,), (0,)]


def test_heap_policy_without_mallopt_is_a_no_op(monkeypatch, fresh_heap_policy):
    libc = _Libc()
    del libc.mallopt
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert engine._keep_freed_memory() is None
    run_simulation(_small_scenario(realizations=64))
    assert libc.malloc_trim.calls == []
    engine._keep_freed_memory.cache_clear()

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert engine._keep_freed_memory() is None


def test_heap_policy_stops_when_mallopt_fails(monkeypatch, fresh_heap_policy):
    libc = _Libc(result=0)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    report = run_simulation(_small_scenario(realizations=64))
    assert libc.mallopt.calls == [(-3, 32 << 20)]  # the trim threshold is not tried
    assert libc.malloc_trim.calls == []
    assert engine._keep_freed_memory() is None
    assert len(libc.mallopt.calls) == 1
    assert report.accepted_count + report.rejected_count == 64
