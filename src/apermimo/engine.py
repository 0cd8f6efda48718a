"""Deterministic, parallelizable Monte-Carlo orchestration.

A run is fully determined by (master seed, scenario, layout): every
realization owns random streams derived from the master seed and its own
index, so results are independent of execution order and of how many
worker processes share the load. Realizations are processed in fixed-size
blocks; each block reduces to one mergeable ``BlockStats`` record (integer
SINR histogram, mean/variance accumulators, rejection count, worst
residual) and the main process folds the records in index order, making
reports bit-reproducible for any worker count. More than one worker forks
one process pool per run, for the calibration chunks and then the blocks.

Channels whose Gram matrix fails the conditioning/residual screen are
rejected and counted; a report whose rejection rate exceeds the budget
(0.1%) is flagged invalid rather than silently trusted.
"""

import contextlib
import dataclasses
import math
import multiprocessing
import warnings
from dataclasses import dataclass

import numpy as np

from . import channel, metrics, synthesis
from .arrays import ArrayLayout, regular_layout
from .beamform import _zf_solve
from .channel import STREAM_CALIBRATION, STREAM_EVAL
from .metrics import SinrCdf, StreamingMoments

BLOCK = 4096  # accumulator granularity, fixed so worker count cannot matter
REJECTION_BUDGET = 1e-3
DEFAULT_REALIZATIONS = 100_000

_LN2 = math.log(2.0)

LINKS = ("uplink", "downlink")


@dataclass(frozen=True)
class ScenarioConfig:
    """One (array size, user count, environment, link) simulation setup.

    M: base-station element count; K: simultaneous single-antenna users
    (K <= M); waves_per_ue: plane waves per user, 1 (random line of
    sight) through 20 (rich multipath); aperture in wavelengths, default
    (M - 1); snr_db: average per-user SNR; link: which SINR definition
    the run evaluates. master_seed fully determines all randomness.
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
        if self.M > 1 and self.aperture <= 0.0:
            raise ValueError(f"aperture must be positive, got {self.aperture}")
        if self.M == 1 and self.aperture != 0.0:
            raise ValueError("a single-element array has zero aperture")
        object.__setattr__(self, "snr_db", float(self.snr_db))
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")

    @property
    def snr(self) -> float:
        """Linear average per-user SNR."""
        return 10.0 ** (self.snr_db / 10.0)


def default_layout(scenario: ScenarioConfig) -> ArrayLayout:
    """The regular (equispaced) layout for the scenario's M and aperture."""
    if scenario.M == 1:
        return ArrayLayout(np.zeros(1))
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


@dataclass(frozen=True)
class SweepRow:
    M: int
    K: int
    crowdedness: float
    sinrg_db: float
    psc_db: float
    sr_gain_fraction: float
    valid: bool


def _simulate_block(scenario, layout, norm, start, stop, eval_stream):
    """Raw per-realization results for indices [start, stop).

    Regeneration contract: each realization's numbers depend only on
    (scenario, layout, norm, its index, eval_stream), never on how
    realizations are grouped, so any block partition yields identical
    numbers and ``_simulate_block(..., i, i + 1, ...)`` replays realization
    i of a full run exactly. Returns per-realization arrays: linear "sinr"
    (n, K), per-element "power" beta |sum_k W[:, k]|^2 (n, M) with
    beta = 1 / tr (H H^H)^-1, "residual" max|HW - I| and the acceptance
    mask "ok" (condition screen, residual gate and, on the uplink, a
    positive noise gain).
    """
    m_el = len(layout)
    k = scenario.K
    l = scenario.waves_per_ue
    n = stop - start
    snr = scenario.snr
    sinr = np.empty((n, k))
    power = np.empty((n, m_el))
    residual = np.empty(n)
    ok = np.empty(n, dtype=bool)
    sub = channel._sub_batch(k, l, m_el)
    for s in range(0, n, sub):
        e = min(n, s + sub)
        idx = range(start + s, start + e)
        aoa, amp, phase, pol = channel.sample_wave_blocks(
            scenario.master_seed, eval_stream, idx, k, l
        )
        h = channel.wave_field(layout.positions, aoa, amp, phase, pol, norm)
        zf = _zf_solve(h)
        ok_se = zf.ok
        if scenario.link == "uplink":
            # the inverse diagonal is positive for any trustworthy solve;
            # treat a nonpositive entry as one more reason to reject
            ok_se = ok_se & (zf.noise_gain.min(axis=-1) > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                sinr[s:e] = snr / zf.noise_gain
        else:
            sinr[s:e] = (zf.beta * snr)[:, None]
        # sum over users as one batched matrix-vector product, not a strided reduction
        power[s:e] = zf.beta[:, None] * np.abs(zf.weights @ np.ones(k)) ** 2
        residual[s:e] = zf.residual
        ok[s:e] = ok_se
    return {
        "sinr": sinr,
        "power": power,
        "residual": residual,
        "ok": ok,
    }


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


def _block_stats(args) -> BlockStats:
    """Reduce one block to mergeable statistics (runs inside workers)."""
    scenario, layout, norm, start, stop, eval_stream = args
    blk = _simulate_block(scenario, layout, norm, start, stop, eval_stream)
    mask = blk["ok"]
    sinr = blk["sinr"][mask]
    return BlockStats(
        cdf=SinrCdf().push_db(10.0 * np.log10(sinr)),
        rate=StreamingMoments.from_batch(np.log1p(sinr) / _LN2),
        power=StreamingMoments.from_batch(blk["power"][mask]),
        rejected=int((~mask).sum()),
        max_residual=float(blk["residual"][mask].max(initial=0.0)),
    )


def run_simulation(
    scenario: ScenarioConfig,
    layout: ArrayLayout = None,
    workers: int = 1,
    eval_stream: int = STREAM_EVAL,
    cal_stream: int = STREAM_CALIBRATION,
) -> SimulationReport:
    """Calibrate, run all realizations, and fold statistics canonically.

    The report is bit-identical for any worker count: calibration chunks
    and blocks have fixed boundaries, each one's numbers depend only on
    its own indices, and the merge happens in index order on the calling
    process. ``workers > 1`` maps both through one forked
    ``ProcessPoolExecutor``, so a dead worker raises ``BrokenProcessPool``.
    """
    if layout is None:
        layout = default_layout(scenario)
    if len(layout) != scenario.M:
        raise ValueError(
            f"layout has {len(layout)} elements but scenario.M={scenario.M}"
        )
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    total = scenario.realizations
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # ~20 ms: not at import

            ctx = multiprocessing.get_context("fork")
            mapper = stack.enter_context(ProcessPoolExecutor(workers, mp_context=ctx)).map
        norm = channel.calibrate_normalization(
            scenario, layout, kind=cal_stream, mapper=mapper
        )
        args = [
            (scenario, layout, norm, s, min(s + BLOCK, total), eval_stream)
            for s in range(0, total, BLOCK)
        ]
        # fold after the last block: merging between blocks fragments the
        # heap and raised the 505-element reference run's peak RSS by 10 %
        results = list(mapper(_block_stats, args))
    stats = BlockStats(SinrCdf(), StreamingMoments(scenario.K), StreamingMoments(scenario.M))
    for block in results:
        stats.merge(block)
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
            stacklevel=2,
        )
    return SimulationReport(
        scenario=scenario,
        layout=layout,
        norm=norm,
        sinr_cdf=stats.cdf,
        sum_rate=sum_rate,
        power=stats.power,
        power_spread_db=ps_db,
        accepted_count=accepted,
        rejected_count=rejected,
        max_residual=stats.max_residual,
        valid=valid,
    )


def compare_layouts(
    scenario: ScenarioConfig,
    aperiodic: ArrayLayout = None,
    workers: int = 1,
    dense_oversampling: int = synthesis.DEFAULT_OVERSAMPLING,
    synthesis_realizations: int = synthesis.DEFAULT_SYNTHESIS_REALIZATIONS,
) -> ComparisonReport:
    """Aperiodic versus regular array on the same scenario and random numbers.

    Synthesizes the aperiodic layout for the scenario's environment unless
    one is supplied. Both runs share the master seed (common random
    numbers), which shrinks the variance of the difference estimates.
    """
    regular = default_layout(scenario)
    if aperiodic is None:
        profile = synthesis.reference_profile(
            scenario,
            dense_oversampling=dense_oversampling,
            realizations=synthesis_realizations,
            workers=workers,
        )
        aperiodic = synthesis.density_taper(profile, scenario.M)
    rep_aper = run_simulation(scenario, aperiodic, workers=workers)
    rep_reg = run_simulation(scenario, regular, workers=workers)
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


def sweep_grid(bs_counts, crowdedness):
    """(M, K, fraction, feasible) of every sweep grid point, in row order.

    K = round(fraction * M); a point is feasible when 1 <= K <= M.
    """
    grid = [(int(m), int(round(f * m)), float(f)) for m in bs_counts for f in crowdedness]
    return [(m, k, f, 1 <= k <= m) for m, k, f in grid]


def sweep(
    base_scenario: ScenarioConfig,
    bs_counts,
    crowdedness,
    workers: int = 1,
    dense_oversampling: int = synthesis.DEFAULT_OVERSAMPLING,
    synthesis_realizations: int = None,
):
    """Comparison grid over array sizes and user crowdedness fractions.

    Each grid point runs base_scenario with M set to the element count,
    K = round(fraction * M), and aperture (M - 1); the aperiodic layout is
    re-synthesized per point so it stays matched to its own (M, K). By
    default the synthesis reuses the per-point realization count.
    Infeasible points (K < 1 or K > M) are skipped with a notice.
    """
    if synthesis_realizations is None:
        synthesis_realizations = base_scenario.realizations
    rows = []
    for m, k, frac, feasible in sweep_grid(bs_counts, crowdedness):
        if not feasible:
            warnings.warn(
                f"skipping infeasible sweep point M={m}, crowdedness={frac} (K={k})",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        scenario = dataclasses.replace(base_scenario, M=m, K=k, aperture=float(m - 1))
        comp = compare_layouts(
            scenario,
            workers=workers,
            dense_oversampling=dense_oversampling,
            synthesis_realizations=synthesis_realizations,
        )
        rows.append(SweepRow(M=m, K=k, crowdedness=frac, sinrg_db=comp.sinrg_db,
                             psc_db=comp.psc_db, sr_gain_fraction=comp.sr_gain_fraction,
                             valid=comp.aperiodic.valid and comp.regular.valid))
    return rows
