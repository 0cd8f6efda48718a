"""Deterministic, parallelizable Monte-Carlo orchestration.

A run is fully determined by (master seed, scenario, layout): every
realization owns random streams derived from the master seed and its own
index, so results are independent of execution order and of how many
worker processes share the load. Realizations are processed in fixed-size
blocks; each block reduces to one mergeable ``BlockStats`` record (integer
SINR histogram, mean/variance accumulators, rejection count, worst
residual) and the main process folds the records in index order, making
reports bit-reproducible for any worker count. Within a block, draws
stream through cache-sized sub-batches and the mean/variance accumulators
fold fixed chunks of rows whose size depends only on the element count,
so no array holds a per-draw value for the whole block. A comparison is one run
over two layouts: each sub-batch of draws is sampled once for both. The
channel normalization is a constant of the scenario, not of the layout:
wave phases are independent and uniform, so E|h_km|^2 = sum_l E|c_l|^2 at
every element position. A run therefore calibrates once, on the regular
layout, and every layout it evaluates shares that norm. More than one
worker forks one pool per run, for calibration, then the blocks.

Channels whose Gram matrix fails the conditioning/residual screen are
rejected and counted; a report whose rejection rate exceeds the budget
(0.1%) is flagged invalid rather than silently trusted.
"""

import contextlib
import ctypes
import functools
import math
import multiprocessing
import warnings
from dataclasses import dataclass

import numpy as np

from . import channel, metrics
from .arrays import ArrayLayout, regular_layout
from .beamform import _zf_solve
from .channel import STREAM_EVAL
from .metrics import SinrCdf, StreamingMoments

BLOCK = 4096  # accumulator granularity, fixed so worker count cannot matter
REJECTION_BUDGET = 1e-3
DEFAULT_REALIZATIONS = 100_000

_LN2 = math.log(2.0)

# glibc mallopt parameters: the largest mmap threshold it accepts on 64-bit
# systems, and a trim threshold well above one sub-batch's temporaries
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_CEILING = 32 << 20
_TRIM_THRESHOLD = 128 << 20

LINKS = ("uplink", "downlink")


@dataclass(frozen=True)
class ScenarioConfig:
    """One (array size, user count, environment, link) simulation setup.

    M: base-station element count, at least 2; K: simultaneous
    single-antenna users (K <= M); waves_per_ue: plane waves per user, 1
    (random line of sight) through 20 (rich multipath); aperture in
    wavelengths, default (M - 1); snr_db: average per-user SNR; link:
    which SINR definition the run evaluates. master_seed fully determines
    all randomness.
    """

    M: int
    K: int
    waves_per_ue: int = 1
    aperture: float = None
    snr_db: float = 0.0
    realizations: int = DEFAULT_REALIZATIONS
    master_seed: int = 1
    link: str = "uplink"

    def __post_init__(self):
        for name in ("M", "K", "waves_per_ue", "realizations", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.M < 2:
            raise ValueError(f"an array needs at least 2 elements, got M={self.M}")
        if self.K < 1:
            raise ValueError(f"K must be at least 1, got K={self.K}")
        if self.M < self.K:
            raise ValueError(
                f"need at least as many elements as users, got M={self.M} < K={self.K}"
            )
        if not 1 <= self.waves_per_ue <= channel.MAX_WAVES:
            raise ValueError(
                f"waves_per_ue must be in [1, {channel.MAX_WAVES}], "
                f"got {self.waves_per_ue}"
            )
        if self.realizations < 1:
            raise ValueError(
                f"realizations must be at least 1, got {self.realizations}"
            )
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must fit in 64 unsigned bits, got {self.master_seed}"
            )
        if self.link not in LINKS:
            raise ValueError(f"link must be one of {LINKS}, got {self.link!r}")
        if self.aperture is None:
            object.__setattr__(self, "aperture", float(self.M - 1))
        else:
            object.__setattr__(self, "aperture", float(self.aperture))
        if not math.isfinite(self.aperture):
            raise ValueError(f"aperture must be finite, got {self.aperture}")
        if self.aperture <= 0.0:
            raise ValueError(f"aperture must be positive, got {self.aperture}")
        object.__setattr__(self, "snr_db", float(self.snr_db))
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")

    @property
    def snr(self) -> float:
        """Linear average per-user SNR."""
        return 10.0 ** (self.snr_db / 10.0)


def default_layout(scenario: ScenarioConfig) -> ArrayLayout:
    """The regular (equispaced) layout for the scenario's M and aperture."""
    return regular_layout(scenario.M, scenario.aperture)


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated statistics of one (scenario, layout) run.

    ``power`` holds each element's mean and unbiased variance of the
    excitation power beta |sum_k W[m, k]|^2 over the accepted draws.
    """

    scenario: ScenarioConfig
    layout: ArrayLayout
    norm: float
    sinr_cdf: SinrCdf
    sum_rate: float
    power: StreamingMoments
    power_spread_db: float
    accepted_count: int
    rejected_count: int
    max_residual: float
    valid: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Aperiodic-versus-regular comparison on common random numbers."""

    scenario: ScenarioConfig
    sinrg_db: float
    psc_db: float
    sr_gain_fraction: float
    aperiodic: SimulationReport
    regular: SimulationReport


def _simulate_block(scenario, layouts, norm, start, stop, stream):
    """Raw per-realization results for indices [start, stop), one sub-batch at a time.

    Yields, for each cache-sized sub-batch of draws in index order, a list
    of one dict per layout. Each sub-batch is sampled once and then
    evaluated on every layout with the run's one norm, so the layouts see
    common random numbers. Regeneration contract: each realization's
    numbers depend only on (scenario, layout, norm, its index, stream),
    never on how realizations are grouped or which other layouts share the
    pass, so the yields of any block partition concatenate to identical
    numbers and ``next(_simulate_block(..., (layout,), norm, i, i + 1,
    ...))[0]`` replays realization i of a full run exactly. Each dict
    holds the sub-batch's linear "sinr" (n, K), per-element "power"
    beta |W 1|^2 (n, M) with W 1 = H^H (X 1) the weights summed over
    users, X = (H H^H)^-1 and beta = 1 / tr X, the certified or evaluated
    "residual" max|HW - I| (``beamform.ZfBatch``) and the acceptance mask
    "ok" (condition screen, residual gate and a positive noise gain).
    """
    k = scenario.K
    snr = scenario.snr
    sub = channel._sub_batch(k, scenario.M, scenario.waves_per_ue)
    for s in range(start, stop, sub):
        waves = channel.sample_wave_blocks(
            scenario.master_seed, stream, range(s, min(stop, s + sub)), k,
            scenario.waves_per_ue,
        )
        arms = []
        for layout in layouts:
            h = channel.wave_field(layout.positions, *waves, norm)
            zf = _zf_solve(h)
            if scenario.link == "uplink":
                sinr = snr / zf.noise_gain
            else:
                sinr = (zf.beta * snr)[:, None].repeat(k, axis=1)
            arms.append({
                "sinr": sinr,
                "power": zf.beta[:, None] * np.abs(zf.weight_sum) ** 2,
                "residual": zf.residual,
                "ok": zf.ok,
            })
            del h, zf  # free them before the next field is built, not after
        del waves
        yield arms
        del arms  # the caller's copy is its last reference


def _reduce_rows(m: int) -> int:
    """Rows per moment chunk of an M-element layout: the largest power of
    two whose (rows, M) power chunk fits metrics._CHUNK_ENTRIES, from 1 to BLOCK.

    A power of two divides BLOCK, so a full block splits into equal chunks;
    at M <= 32 a chunk is the whole block.
    """
    return min(BLOCK, 1 << max(0, (metrics._CHUNK_ENTRIES // m).bit_length() - 1))


@dataclass
class BlockStats:
    """Mergeable statistics of a run of realizations: the SINR histogram,
    per-user rate and per-element power moments, the rejected count and
    the largest accepted residual."""

    cdf: SinrCdf
    rate: StreamingMoments
    power: StreamingMoments
    rejected: int = 0
    max_residual: float = 0.0

    def merge(self, other: "BlockStats") -> "BlockStats":
        """Fold ``other`` into this record (the canonical, index-order merge)."""
        self.cdf.merge(other.cdf)
        self.rate.merge(other.rate)
        self.power.merge(other.power)
        self.rejected += other.rejected
        self.max_residual = max(self.max_residual, other.max_residual)
        return self


def _block_stats(args) -> list:
    """Reduce one block to one mergeable record per layout (runs inside workers).

    Each sub-batch that :func:`_simulate_block` yields is folded as it
    arrives: its rejections and residuals go into the counters, and its
    SINR and power rows are copied into one reusable buffer of
    :func:`_reduce_rows` rows per layout. Each full buffer, and the last
    partial one, pushes its accepted SINRs into the histogram at once and
    is reduced to rate and power moments with its rejected rows masked
    out, merged in index order. The chunk bounds depend only on M, so
    neither the sub-batch size nor the worker count moves a bit (histogram
    counts do not depend on grouping at all), and no (draws, M) array
    outlives its sub-batch.
    """
    scenario, layouts, _, start, stop, _ = args
    k, m = scenario.K, scenario.M
    rows = min(_reduce_rows(m), stop - start)
    stats = [BlockStats(SinrCdf(), StreamingMoments(k), StreamingMoments(m)) for _ in layouts]
    chunks = [(np.empty((rows, k)), np.empty((rows, m)), np.empty(rows, dtype=bool))
              for _ in layouts]

    def fold(n):
        for st, (sinr, power, ok) in zip(stats, chunks):
            sinr, power, ok = sinr[:n], power[:n], ok[:n]
            db = sinr[ok]
            np.log10(db, out=db)
            db *= 10.0
            st.cdf.push_db(db)
            # in place: the buffer is refilled before the next fold. A rejected
            # draw's SINR is 0, so its rate is 0 too
            rate = np.log1p(sinr, out=sinr)
            rate /= _LN2
            st.rate.merge(StreamingMoments.from_batch(rate, ok))
            st.power.merge(StreamingMoments.from_batch(power, ok))

    filled = 0
    for arms in _simulate_block(*args):
        for st, blk in zip(stats, arms):
            mask = blk["ok"]
            st.rejected += int(mask.size - np.count_nonzero(mask))
            st.max_residual = max(st.max_residual, float(blk["residual"][mask].max(initial=0.0)))
        n, s = len(arms[0]["ok"]), 0
        while s < n:
            e = min(n, s + rows - filled)
            part = slice(filled, filled + e - s)
            for blk, (sinr, power, ok) in zip(arms, chunks):
                sinr[part] = blk["sinr"][s:e]
                power[part] = blk["power"][s:e]
                ok[part] = blk["ok"][s:e]
            filled += e - s
            s = e
            if filled == rows:
                fold(rows)
                filled = 0
        del arms, blk, mask  # free this sub-batch before the next is drawn
    if filled:
        fold(filled)
    return stats


@functools.cache
def _keep_freed_memory():
    """Keep freed sub-batch temporaries on the heap; glibc only, once per process.

    glibc serves allocations above a moving threshold from fresh mappings
    and gives the top of the heap back to the kernel, so the ~2 MiB
    temporaries of every sub-batch were unmapped and faulted in again. Fixing
    the mmap threshold at its ceiling and raising the trim threshold lets
    the next sub-batch reuse them. Forked workers inherit the setting.
    Returns glibc's ``malloc_trim`` when both settings took, else None
    (without ``mallopt`` it does nothing); :func:`_run` calls it after its
    last block.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    if (mallopt(_M_MMAP_THRESHOLD, _MMAP_CEILING) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1):
        return trim
    return None


def _run(scenario, layouts, workers, stream) -> list:
    """One pass of every layout over the same draws: one report per layout.

    One calibration on the scenario's regular layout sets the norm of every
    layout. Each public entry point calls it directly, so its warnings name
    their caller.
    """
    for layout in layouts:
        if len(layout) != scenario.M:
            raise ValueError(
                f"layout has {len(layout)} elements but scenario.M={scenario.M}"
            )
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    total = scenario.realizations
    starts = range(0, total, BLOCK)
    # a forked pool starts all its processes at the first task: no more than
    # the larger of the block and calibration task counts
    calibration_tasks = -(-channel.DEFAULT_CALIBRATION_DRAWS // channel._CALIBRATION_TASK)
    workers = min(workers, max(len(starts), calibration_tasks))
    trim_heap = _keep_freed_memory()
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # ~20 ms: not at import

            ctx = multiprocessing.get_context("fork")
            mapper = stack.enter_context(ProcessPoolExecutor(workers, mp_context=ctx)).map
        norm = channel.calibrate_normalization(scenario, default_layout(scenario),
                                               kind=stream + 1, mapper=mapper)
        args = [(scenario, layouts, norm, s, min(s + BLOCK, total), stream) for s in starts]
        folded = [BlockStats(SinrCdf(), StreamingMoments(scenario.K), StreamingMoments(scenario.M))
                  for _ in layouts]
        # fold each block's records as they arrive, in index order: keeping every
        # record to the end held 1.7 MiB more at 100 000 draws of 16x8
        for arms in mapper(_block_stats, args):
            for stats, arm in zip(folded, arms):
                stats.merge(arm)
    if trim_heap is not None:
        # hand the freed temporaries back before the caller allocates: the
        # CLI's output text on top of the kept heap raised the 16x8 simulate peak 3 %
        trim_heap(0)
    reports = []
    for layout, stats in zip(layouts, folded):
        rejected = stats.rejected
        accepted = total - rejected
        sum_rate = float(stats.rate.mean.sum()) if accepted else math.nan
        if accepted >= 2:
            ps_db = metrics.power_spread(stats.power.mean, stats.power.variance)
        else:
            ps_db = math.nan
        valid = rejected <= REJECTION_BUDGET * total
        if not valid:
            warnings.warn(
                f"rejected {rejected} of {total} realizations, above the "
                f"{REJECTION_BUDGET:.1%} budget; report flagged invalid",
                RuntimeWarning,
                stacklevel=3,
            )
        reports.append(SimulationReport(
            scenario=scenario, layout=layout, norm=norm, sinr_cdf=stats.cdf,
            sum_rate=sum_rate, power=stats.power, power_spread_db=ps_db,
            accepted_count=accepted, rejected_count=rejected,
            max_residual=stats.max_residual, valid=valid,
        ))
    return reports


def run_simulation(
    scenario: ScenarioConfig,
    layout: ArrayLayout = None,
    workers: int = 1,
    stream: int = STREAM_EVAL,
) -> SimulationReport:
    """Calibrate, run all realizations, and fold statistics canonically.

    Evaluation draws come from stream kind ``stream`` and calibration draws
    from ``stream + 1``. The norm is calibrated on the regular layout
    whatever ``layout`` is: the ensemble channel power per element does not
    depend on where the element sits, so any layout estimates the same
    constant, and the regular one sums its field the cheapest. The report
    is bit-identical for any worker count:
    calibration chunks and blocks have fixed boundaries, each one's numbers
    depend only on its own indices, and the merge happens in index order on
    the calling process. ``workers > 1`` maps both through one forked
    ``ProcessPoolExecutor``, so a dead worker raises ``BrokenProcessPool``;
    the pool has at most as many processes as the run has blocks or
    calibration tasks, whichever is more.
    """
    if layout is None:
        layout = default_layout(scenario)
    return _run(scenario, (layout,), workers, stream)[0]


def compare_layouts(
    scenario: ScenarioConfig, aperiodic: ArrayLayout, workers: int = 1
) -> ComparisonReport:
    """The given aperiodic layout versus the regular one, in one pass.

    Each block of draws is sampled once and evaluated on both layouts
    (common random numbers), which shrinks the variance of the difference
    estimates. Both arms share one norm, calibrated once on the regular
    layout, so the gains carry no difference between two calibrations;
    ``workers > 1`` forks one pool for both. Each arm equals a separate
    :func:`run_simulation` of its layout bit for bit. The caller
    synthesizes the aperiodic layout.
    """
    rep_aper, rep_reg = _run(
        scenario, (aperiodic, default_layout(scenario)), workers, STREAM_EVAL
    )
    sinrg_db = metrics.sinr_gain(rep_aper.sinr_cdf, rep_reg.sinr_cdf)
    psc_db = metrics.psc(rep_reg.power_spread_db, rep_aper.power_spread_db)
    if rep_reg.sum_rate > 0.0:
        sr_gain = rep_aper.sum_rate / rep_reg.sum_rate - 1.0
    else:
        sr_gain = math.nan
    return ComparisonReport(
        scenario=scenario,
        sinrg_db=sinrg_db,
        psc_db=psc_db,
        sr_gain_fraction=sr_gain,
        aperiodic=rep_aper,
        regular=rep_reg,
    )
