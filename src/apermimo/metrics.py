"""Streaming link statistics and comparative figures of merit.

Monte-Carlo runs reduce each fixed block of realizations to three
statistics of bounded size: a fixed-bin histogram of per-user SINR in dB
(for CDF/percentile queries), per-user mean of log2(1 + SINR) (for the
ergodic sum rate), and per-element mean/variance of the beamformer
excitation powers (for the amplifier power profile and power spread).
All of them merge associatively, so blocks can be processed in parallel
and combined in a canonical order for bit-reproducible results.

Comparative figures of merit: the SINR gain (5th-percentile SINR of one
array minus another, in dB, at 0 dB SNR) and the power spread compression
(power spread of the regular array minus the aperiodic one, in dB).
"""

import math
import warnings

import numpy as np

CDF_MIN_DB = -40.0
CDF_MAX_DB = 60.0
CDF_BIN_WIDTH_DB = 0.01
CDF_NUM_BINS = int(round((CDF_MAX_DB - CDF_MIN_DB) / CDF_BIN_WIDTH_DB))

MIN_GAIN_SAMPLES = 1_000
GAIN_PERCENTILE = 0.05


class InvalidStateError(RuntimeError):
    """An accumulator was queried before holding enough samples."""


class StreamingMoments:
    """Mergeable running mean and variance over fixed-length vectors.

    Batches enter via an exact two-pass computation (:meth:`from_batch`);
    accumulators combine with the parallel (Chan et al.) formula. Merging
    is associative in the sense that any split of a stream into ordered
    batches yields the same result up to floating-point roundoff, and
    merging into an empty accumulator reproduces the other operand
    bit-for-bit.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    @classmethod
    def from_batch(cls, samples) -> "StreamingMoments":
        """Exact two-pass moments of a (n, dim) batch."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        acc = cls(samples.shape[1])
        if samples.shape[0] == 0:
            return acc
        acc.count = samples.shape[0]
        acc.mean = samples.mean(axis=0)
        acc._m2 = np.square(samples - acc.mean).sum(axis=0)
        return acc

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold ``other`` into this accumulator (parallel combine)."""
        if other.mean.shape != self.mean.shape:
            raise ValueError("cannot merge accumulators of different dimension")
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self._m2 = other._m2.copy()
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / total)
        self._m2 = (
            self._m2
            + other._m2
            + np.square(delta) * (self.count * (other.count / total))
        )
        self.count = total
        return self

    @property
    def variance(self) -> np.ndarray:
        """Unbiased (n-1) variance; zeros when fewer than 2 samples."""
        if self.count < 2:
            return np.zeros_like(self._m2)
        return self._m2 / (self.count - 1)


class SinrCdf:
    """Fixed-bin histogram of SINR samples in dB with percentile queries.

    Bins span [-40, 60] dB at 0.01 dB width; samples outside the range are
    clamped into the edge bins so total mass always equals the number of
    accepted samples. Counts are integers, so merging is exact and
    order-independent.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = np.zeros(CDF_NUM_BINS, dtype=np.int64)

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    def push_db(self, values_db) -> "SinrCdf":
        values_db = np.asarray(values_db, dtype=float).ravel()
        if values_db.size == 0:
            return self
        if not np.all(np.isfinite(values_db)):
            raise ValueError("SINR samples must be finite in dB")
        idx = np.floor((values_db - CDF_MIN_DB) / CDF_BIN_WIDTH_DB).astype(np.int64)
        np.clip(idx, 0, CDF_NUM_BINS - 1, out=idx)
        self.counts += np.bincount(idx, minlength=CDF_NUM_BINS)
        return self

    def merge(self, other: "SinrCdf") -> "SinrCdf":
        self.counts += other.counts
        return self

    @property
    def bin_centers(self) -> np.ndarray:
        return CDF_MIN_DB + (np.arange(CDF_NUM_BINS) + 0.5) * CDF_BIN_WIDTH_DB

    @property
    def cdf(self) -> np.ndarray:
        n = self.count
        if n == 0:
            raise InvalidStateError("empty SINR histogram")
        return np.cumsum(self.counts) / n

    def percentile(self, p: float) -> float:
        """Smallest bin center whose cumulative mass reaches fraction p."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"percentile fraction must be in (0, 1), got {p}")
        n = self.count
        if n == 0:
            raise InvalidStateError("empty SINR histogram")
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, p * n, side="left"))
        idx = min(idx, CDF_NUM_BINS - 1)
        return float(CDF_MIN_DB + (idx + 0.5) * CDF_BIN_WIDTH_DB)


def power_spread(mu, sigma2) -> float:
    """Power spread max(mu + sigma2) / min(mu - sigma2), in dB.

    mu and sigma2 are each element's mean and variance of excitation
    power. 0 dB means ideal uniform, constant amplifier loading. When
    min(mu - sigma2) is nonpositive the ratio is undefined and +inf is
    returned with a warning (the profile is too spread for this figure).
    """
    hi = float(np.max(mu + sigma2))
    lo = float(np.min(mu - sigma2))
    if lo <= 0.0:
        warnings.warn(
            "power spread degenerate: min(mu - sigma2) <= 0, returning +inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return math.inf
    return 10.0 * math.log10(hi / lo)


def sinr_gain(cdf_aperiodic: SinrCdf, cdf_regular: SinrCdf) -> float:
    """SINR gain of one array over another, in dB.

    Difference of the 5th-percentile SINRs (both CDFs must be built from
    runs at 0 dB SNR for the standard figure of merit).
    """
    for name, cdf in (("aperiodic", cdf_aperiodic), ("regular", cdf_regular)):
        if cdf.count < MIN_GAIN_SAMPLES:
            raise InvalidStateError(
                f"{name} CDF has {cdf.count} samples, "
                f"need at least {MIN_GAIN_SAMPLES}"
            )
    return cdf_aperiodic.percentile(GAIN_PERCENTILE) - cdf_regular.percentile(
        GAIN_PERCENTILE
    )


def psc(ps_regular_db: float, ps_aperiodic_db: float) -> float:
    """Power spread compression: regular minus aperiodic power spread, dB.

    Positive when the aperiodic array loads its amplifiers more evenly.
    Returns NaN (undefined marker) when either spread is infinite.
    """
    if not (math.isfinite(ps_regular_db) and math.isfinite(ps_aperiodic_db)):
        warnings.warn(
            "power spread compression undefined for infinite power spread",
            RuntimeWarning,
            stacklevel=2,
        )
        return math.nan
    return ps_regular_db - ps_aperiodic_db
