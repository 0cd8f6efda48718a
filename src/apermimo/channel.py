"""Random propagation environments and downlink channel assembly.

Each user is illuminated by L plane waves with uniformly random angle of
arrival (within a 120 degree sector), amplitude, phase and linear
polarization orientation. L = 1 models a random line-of-sight (RLOS) link;
L in [10, 20] approaches rich isotropic multipath (RIMP). The channel row
of user k over elements at positions x_m (in wavelengths) is

    h[k, m] = (1 / norm) * sum_l a_l * exp(j phi_l) * cos(psi_l) * g(theta_l)
                                * exp(j 2 pi x_m sin(theta_l))

with g the Huygens element pattern and cos(psi) the scalar polarization
mismatch between the wave and a co-polarized array. A layout equispaced to
a few ulp is summed over a coarse[q] + fine[b] grid: ~2 sqrt(M) exps a wave.

All randomness comes from Philox4x32-10 keyed by the 64-bit master_seed
(low word, high word): call c of realization r, user k and stream kind has
counter (c, k, r mod 2^32, r >> 32 | kind << 28), so any realization can be
regenerated from its index alone and in any order.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayLayout, huygens_gain

SECTOR_HALF_ANGLE = np.pi / 3.0  # 120 degree cell sector
MAX_WAVES = 20
RIMP_MIN_WAVES = 10

# stream kinds keep evaluation, calibration and synthesis draws disjoint
STREAM_EVAL = 0
STREAM_CALIBRATION = 1
STREAM_SYNTHESIS = 2
STREAM_SYNTHESIS_CAL = 3

DEFAULT_CALIBRATION_DRAWS = 20_000


@dataclass(frozen=True)
class PlaneWave:
    """One incoming plane wave: angle of arrival, amplitude, phase, polarization."""

    aoa: float
    amplitude: float
    phase: float
    pol_angle: float

    def __post_init__(self):
        if not -SECTOR_HALF_ANGLE <= self.aoa <= SECTOR_HALF_ANGLE:
            raise ValueError(f"aoa {self.aoa} outside the 120 degree sector")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"amplitude {self.amplitude} outside [0, 1]")


@dataclass(frozen=True)
class WaveSet:
    """The waves illuminating one user."""

    waves: tuple

    def __post_init__(self):
        if not 1 <= len(self.waves) <= MAX_WAVES:
            raise ValueError(f"wave count {len(self.waves)} outside [1, {MAX_WAVES}]")

    def __len__(self) -> int:
        return len(self.waves)

    def as_arrays(self):
        """(aoa, amplitude, phase, pol_angle) arrays, each of length L."""
        aoa = np.array([w.aoa for w in self.waves])
        amp = np.array([w.amplitude for w in self.waves])
        phase = np.array([w.phase for w in self.waves])
        pol = np.array([w.pol_angle for w in self.waves])
        return aoa, amp, phase, pol


@dataclass(frozen=True)
class Environment:
    """Propagation environment on the RLOS-to-RIMP continuum."""

    waves_per_ue: int

    def __post_init__(self):
        if not 1 <= self.waves_per_ue <= MAX_WAVES:
            raise ValueError(
                f"waves_per_ue {self.waves_per_ue} outside [1, {MAX_WAVES}]"
            )

    @property
    def label(self) -> str:
        if self.waves_per_ue == 1:
            return "RLOS"
        if self.waves_per_ue >= RIMP_MIN_WAVES:
            return "RIMP"
        return f"intermediate({self.waves_per_ue})"


_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_PHILOX_CHUNK = 1 << 16  # uniforms per Philox pass: keeps temporaries in cache


def _philox4x32(counter, key):
    """Philox4x32-10 (SC'11) on 32-bit words held in broadcastable uint64 arrays."""
    c0, c1, c2, c3 = (np.array(c, dtype=np.uint64, order="C")
                      for c in np.broadcast_arrays(*counter))
    p0, p1 = np.empty_like(c0), np.empty_like(c0)
    for rnd in range(10):  # in place, to keep the working set small
        np.multiply(c0, _PHILOX_M[0], out=p0)
        np.multiply(c2, _PHILOX_M[1], out=p1)
        np.right_shift(p1, 32, out=c0)
        c0 ^= c1
        c0 ^= (key[0] + rnd * _PHILOX_W[0]) & 0xFFFFFFFF
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, 32, out=c2)
        c2 ^= c3
        c2 ^= (key[1] + rnd * _PHILOX_W[1]) & 0xFFFFFFFF
        np.bitwise_and(p0, _MASK32, out=c3)
    return c0, c1, c2, c3


def sample_wave_blocks(master_seed, kind, indices, num_users, num_waves):
    """Wave parameters for a range of realizations, as (n, K, L) arrays.

    Philox call c of (realization r, user k) has counter (c, k, r mod 2^32,
    r >> 32 | kind << 28) and key master_seed. Its words w0..w3 give uniforms
    2c and 2c + 1 as the 53-bit fractions (w0 >> 5, w1 >> 6), (w2 >> 5,
    w3 >> 6). Of each pair's 4L uniforms, L set the angles of arrival, then L
    each the amplitudes, phases and polarizations. Any (r, k) regenerates
    alone, so draws do not depend on how realizations are grouped.
    """
    r = np.asarray(indices, dtype=np.uint64).reshape(-1, 1, 1)
    ue = np.arange(num_users, dtype=np.uint64).reshape(-1, 1)
    calls = np.arange(2 * num_waves, dtype=np.uint64)
    key = (master_seed & 0xFFFFFFFF, master_seed >> 32)
    u = np.empty((len(r), num_users, 4 * num_waves))
    step = max(1, _PHILOX_CHUNK // u[0].size)
    for s in range(0, len(r), step):
        rs = r[s : s + step]
        w = _philox4x32((calls, ue, rs & _MASK32, (rs >> 32) | (kind << 28)), key)
        for h in range(2):
            bits = (w[2 * h] >> 5 << 26) | (w[2 * h + 1] >> 6)
            np.multiply(bits, 2.0**-53, out=u[s : s + step, :, h::2])
    L = num_waves
    aoa, amp, phase, pol = (u[..., i * L : (i + 1) * L] for i in range(4))
    return (2.0 * aoa - 1.0) * SECTOR_HALF_ANGLE, amp, 2.0 * np.pi * phase, np.pi * pol


def _sum_grid(positions):
    """Sum grid (coarse, fine) of the positions; see :func:`wave_field`."""
    m = positions.size
    b = int(np.ceil(np.sqrt(m)))
    step = (positions[-1] - positions[0]) / max(m - 1, 1)
    fine = np.arange(b) * step
    coarse = positions[0] + np.arange(-(-m // b)) * (b * step)
    error = np.abs((coarse[:, None] + fine).ravel()[:m] - positions).max()
    tol = 4.0 * np.finfo(float).eps * np.abs(positions).max()
    return (coarse, fine) if error <= tol else (positions, np.zeros(1))


def wave_field(positions, aoa, amplitude, phase, pol_angle, norm: float):
    """Sum plane-wave contributions onto array elements.

    The wave arrays share a trailing axis of length L; any leading axes
    broadcast, so (L,) inputs give one channel row of length M while
    (n, K, L) inputs give an (n, K, M) stack of channel matrices. Element
    q B + b sits at coarse[q] + fine[b]: B = ceil(sqrt(M)) equal spacings
    when they rebuild every position to within a few ulp of the aperture,
    else coarse = positions and fine = [0]. The wave coefficients ride on
    the fine phasors, and a batched (Q, L) @ (L, B) product sums the waves
    without an (L, M) phasor tensor.
    """
    coarse, fine = _sum_grid(np.asarray(positions, dtype=float))
    coeff = amplitude * np.exp(1j * phase) * np.cos(pol_angle) * huygens_gain(aoa) / norm
    kx = 2.0 * np.pi * np.sin(aoa)[..., None]
    h = np.exp(1j * kx * coarse).swapaxes(-1, -2) @ (coeff[..., None] * np.exp(1j * kx * fine))
    return h.reshape(*h.shape[:-2], -1)[..., : len(positions)]


def assemble_channel(layout: ArrayLayout, wavesets, norm: float) -> np.ndarray:
    """Assemble the K x M downlink channel matrix from per-user wave sets."""
    if len(wavesets) < 1:
        raise ValueError("need at least one wave set")
    if norm <= 0.0:
        raise ValueError(f"norm must be positive, got {norm}")
    rows = []
    for ws in wavesets:
        aoa, amp, phase, pol = ws.as_arrays()
        rows.append(wave_field(layout.positions, aoa, amp, phase, pol, norm))
    return np.stack(rows, axis=0)


def calibration_from_samples(mean_square_entries) -> float:
    """Calibration constant from per-realization mean-square channel entries."""
    vals = np.asarray(mean_square_entries, dtype=float)
    if vals.size == 0:
        raise ValueError("no calibration samples")
    return float(np.sqrt(np.mean(vals)))


def calibrate_normalization(
    scenario,
    layout: ArrayLayout,
    n_cal: int = DEFAULT_CALIBRATION_DRAWS,
    kind: int = STREAM_CALIBRATION,
) -> float:
    """Estimate the channel normalization constant for one scenario/layout.

    Returns c = sqrt(mean ||H0||_F^2 / (K M)) over n_cal raw realizations
    drawn from the dedicated calibration streams; dividing channels by c
    makes the ensemble-average per-element channel power 1. Deterministic
    for a fixed master seed.
    """
    if n_cal < 1_000:
        raise ValueError(f"n_cal must be at least 1000, got {n_cal}")
    vals = np.empty(n_cal)
    block = 4096
    for start in range(0, n_cal, block):
        idx = range(start, min(start + block, n_cal))
        aoa, amp, phase, pol = sample_wave_blocks(
            scenario.master_seed, kind, idx, scenario.K, scenario.waves_per_ue
        )
        h = wave_field(layout.positions, aoa, amp, phase, pol, 1.0)
        vals[idx.start : idx.stop] = np.mean(np.abs(h) ** 2, axis=(1, 2))
    return calibration_from_samples(vals)
