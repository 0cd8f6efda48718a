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
a few ulp is summed over a coarse[q] + fine[b] grid: each wave takes one
exponential per grid step, and the grid's phasors are their powers,
filled in by doubling.

All randomness comes from Philox4x32-10 keyed by the 64-bit master_seed
(low word, high word): call c of realization r, user k and stream kind has
counter (c, k, r mod 2^32, r >> 32 | kind << 28), so any realization can be
regenerated from its index alone and in any order.
"""

import numpy as np

from .arrays import ArrayLayout, huygens_gain

SECTOR_HALF_ANGLE = np.pi / 3.0  # 120 degree cell sector
MAX_WAVES = 20

# disjoint kinds for evaluation, calibration and synthesis draws; kind s calibrates on s + 1
STREAM_EVAL = 0
STREAM_CALIBRATION = 1
STREAM_SYNTHESIS = 2

DEFAULT_CALIBRATION_DRAWS = 20_000
_CALIBRATION_TASK = 1024  # draws per calibration task: ~20 tasks for 20 000 draws
_CACHE_ENTRIES = 1 << 17  # complex entries in one cache-sized temporary (2 MiB)


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
    alone, so draws do not depend on how realizations are grouped. The last
    counter word holds r >> 32 in 28 bits and kind in 4, so a kind outside
    [0, 16) or an index of 2^60 or more raises ValueError.
    """
    if not 0 <= kind < 16:
        raise ValueError(f"stream kind must be in [0, 16), got {kind}")
    r = np.asarray(indices, dtype=np.uint64).reshape(-1, 1, 1)
    if r.size and r.max() >= 1 << 60:
        raise ValueError(f"realization index {int(r.max())} is 2^60 or more")
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
    """(origin, spacing, B) of an equispaced layout (M >= 2), else None; see :func:`wave_field`."""
    m = positions.size
    b = int(np.ceil(np.sqrt(m)))
    step = (positions[-1] - positions[0]) / (m - 1)
    coarse = positions[0] + np.arange(-(-m // b)) * (b * step)
    error = np.abs((coarse[:, None] + np.arange(b) * step).ravel()[:m] - positions).max()
    tol = 4.0 * np.finfo(float).eps * np.abs(positions).max()
    return (positions[0], step, b) if error <= tol else None


def _powers(z, count):
    """z**0 ... z**(count - 1) on a new leading axis, by doubling.

    Step n fills out[n:2n] = out[:n] * z**n, one contiguous multiply over
    every entry of z, and squares z**n for the next step.
    """
    out = np.empty((count, *np.shape(z)), dtype=complex)
    out[0] = 1.0
    n, zn = 1, z
    while n < count:
        if n > 1:
            zn = zn * zn
        np.multiply(out[: min(n, count - n)], zn, out=out[n : 2 * n])
        n *= 2
    return out


def _phasors(kx, x):
    """exp(j kx x) for real kx and x, with one complex temporary."""
    z = kx * (1j * x)
    return np.exp(z, out=z)


def wave_field(positions, aoa, amplitude, phase, pol_angle, norm: float):
    """Sum plane-wave contributions onto array elements.

    The wave arrays share a trailing axis of length L; any leading axes
    broadcast, so (L,) inputs give one channel row of length M while
    (n, K, L) inputs give an (n, K, M) stack of channel matrices. When B =
    ceil(sqrt(M)) equal spacings d rebuild every position to within a few
    ulp of the aperture, element q B + b sits at x0 + q B d + b d and its
    phasor is exp(j kx x0) Z**q z**b, with Z = exp(j kx B d) and z =
    exp(j kx d): two exponentials a wave (three if x0 != 0), raised to
    powers by doubling; the wave coefficients ride on the fine phasors, and
    a batched (Q, L) @ (L, B) product sums the waves without an (L, M)
    phasor tensor. The coarse and fine powers are (Q, ..., L) and (B, ...,
    L) tensors, Q <= B: :func:`_sub_batch` sizes them to the cache, not
    only the field. Other layouts take one exponential per element and wave:
    their (L, M) phasors are built for runs of (draw, user) rows of about
    2**17 complex entries at a time, and each row's (M, L) @ (L, 1) product
    goes into one preallocated output, so the run length moves no bit.
    ``positions`` must hold at least 2 elements.
    """
    positions = np.asarray(positions, dtype=float)
    m = positions.size
    if m < 2:
        raise ValueError(f"positions must hold at least 2 elements, got {m}")
    coeff = amplitude * np.exp(1j * phase) * np.cos(pol_angle) * huygens_gain(aoa) / norm
    kx = np.broadcast_to(2.0 * np.pi * np.sin(aoa), coeff.shape)
    grid = _sum_grid(positions)
    if grid is None:
        lead, l = coeff.shape[:-1], coeff.shape[-1]
        coeff, kx = coeff.reshape(-1, l, 1), kx.reshape(-1, l, 1)
        h = np.empty((len(coeff), m, 1), dtype=complex)
        rows = max(1, _CACHE_ENTRIES // (l * m))
        for s in range(0, len(h), rows):
            # (M, L) view of each row's (L, M) phasors, which stay contiguous
            phasors = np.swapaxes(_phasors(kx[s : s + rows], positions), -1, -2)
            np.matmul(phasors, coeff[s : s + rows], out=h[s : s + rows])
        return h.reshape(*lead, m)
    origin, step, b = grid
    if origin:
        coeff = coeff * _phasors(kx, origin)
    coarse = _powers(_phasors(kx, b * step), -(-m // b))
    fine = _powers(_phasors(kx, step), b)
    fine *= coeff
    # grid index leading: both operands are strided views that BLAS reads in place
    h = np.moveaxis(coarse, 0, -2) @ np.moveaxis(fine, 0, -1)
    return h.reshape(*h.shape[:-2], -1)[..., :m]


def _sub_batch(k: int, m: int, l: int) -> int:
    """Realizations per :func:`wave_field` call for K users, M elements and L waves.

    Sized to the cache: the largest temporary of a sub-batch holds at most
    about 2**17 complex entries (2 MiB), with 16 to 4096 draws.
    Those are the (sub, K, M) field and each zero-forcing temporary of its
    size, and the (B, sub, K, L) coarse and fine phasor powers of the sum
    grid, B = ceil(sqrt(M)); the (sub, K, 4L) real uniforms take fewer
    bytes than the phasors for any M >= 2. :func:`wave_field` builds the
    phasors of non-regular layouts in runs of the same size. Every caller
    chunks by this one rule; draws do not depend on it.
    """
    b = int(np.ceil(np.sqrt(m)))
    return max(16, min(4096, _CACHE_ENTRIES // (k * max(m, l * b))))


def _calibration_chunk(args):
    """Per-draw ||H0||_F^2 / (K M) of calibration draws [start, stop) (runs inside workers).

    At L = 1 every element of user k's row has modulus |c_k|, the wave's
    coefficient, on any layout, so the value is the mean of |c_k|^2 over
    users: one draw call over the task and no field. Other L sum the
    field in cache-sized sub-batches.
    """
    seed, kind, k, l, positions, start, stop = args
    if l == 1:
        aoa, amp, _, pol = sample_wave_blocks(seed, kind, range(start, stop), k, 1)
        return np.mean((amp * np.cos(pol) * huygens_gain(aoa)) ** 2, axis=(1, 2))
    vals = np.empty(stop - start)
    sub = _sub_batch(k, len(positions), l)
    for s in range(start, stop, sub):
        e = min(stop, s + sub)
        aoa, amp, phase, pol = sample_wave_blocks(seed, kind, range(s, e), k, l)
        h = wave_field(positions, aoa, amp, phase, pol, 1.0)
        vals[s - start : e - start] = np.mean(np.abs(h) ** 2, axis=(1, 2))
    return vals


def calibrate_normalization(
    scenario,
    layout: ArrayLayout,
    n_cal: int = DEFAULT_CALIBRATION_DRAWS,
    kind: int = STREAM_CALIBRATION,
    mapper=map,
) -> float:
    """Estimate the channel normalization constant for one scenario/layout.

    Returns c = sqrt(mean ||H0||_F^2 / (K M)) over n_cal raw realizations
    drawn from the dedicated calibration streams; dividing channels by c
    makes the ensemble-average per-element channel power 1. The ensemble
    value is the same for every layout: wave phases are independent and
    uniform, so E|h_km|^2 = sum_l E|c_l|^2 wherever element m sits. The
    engine therefore calibrates each run once, on the regular layout, and
    shares that c across every layout it evaluates. At L = 1 (a single
    line-of-sight wave) even the estimate is layout-free: each draw's value
    comes from its wave coefficients alone, and no field is built.
    Deterministic for a fixed master seed, and bit-identical for any
    ``mapper`` (``map``, or an executor's ``map`` over worker processes):
    tasks are fixed-size runs of draws, and c is taken over the per-draw
    values in order.
    """
    if n_cal < 1_000:
        raise ValueError(f"n_cal must be at least 1000, got {n_cal}")
    k, l = scenario.K, scenario.waves_per_ue
    chunks = [(scenario.master_seed, kind, k, l, layout.positions, s,
               min(s + _CALIBRATION_TASK, n_cal))
              for s in range(0, n_cal, _CALIBRATION_TASK)]
    vals = np.concatenate(list(mapper(_calibration_chunk, chunks)))
    return float(np.sqrt(np.mean(vals)))
