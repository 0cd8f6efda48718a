"""Aperiodic array synthesis by density-tapering a reference power profile.

The synthesis runs in two steps: simulate a densely and regularly sampled
aperture in the target propagation environment to obtain the per-element
average excitation power mu(x), then place the M final elements so that
the local element density is proportional to mu. Concretely, with
i(x) = integral of mu from 0 to x and the equal mass step
dI = i(X_max) / (M - 1), element m sits at

    x_m = i^-1((m - 1) * dI),    m = 1 .. M,

so every pair of adjacent elements encloses the same amount of reference
power. The density is interpolated piecewise-linearly between its samples,
which makes i piecewise quadratic and the inversion closed-form.
"""

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayLayout, regular_layout
from .channel import STREAM_SYNTHESIS, STREAM_SYNTHESIS_CAL

# wavelengths, floor on adjacent element spacing; it holds to a few ulp of
# X_max, since fl(0.05) > 0.05 makes an exact floor impossible where
# (m - 1) * 0.05 = X_max
MIN_SEPARATION = 0.05
DEFAULT_OVERSAMPLING = 8  # dense reference elements per wavelength
DEFAULT_SYNTHESIS_REALIZATIONS = 100_000
MIN_RECOMMENDED_REALIZATIONS = 10_000


class DegenerateProfileError(ValueError):
    """Density profile carries no mass to taper against."""


@dataclass(frozen=True)
class DensityProfile:
    """Sampled nonnegative density on [0, X_max], piecewise-linear between nodes."""

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if pos.ndim != 1 or pos.size < 2 or pos.shape != val.shape:
            raise ValueError("need matching 1-D position/value arrays, length >= 2")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(val))):
            raise ValueError("profile samples must be finite")
        if pos[0] != 0.0 or not np.all(np.diff(pos) > 0.0):
            raise ValueError("positions must ascend strictly from 0")
        if np.any(val < 0.0):
            raise ValueError("density values must be nonnegative")
        if not np.any(val > 0.0):
            raise DegenerateProfileError("density is identically zero")
        pos = pos.copy()
        val = val.copy()
        pos.flags.writeable = False
        val.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", val)

    @property
    def x_max(self) -> float:
        return float(self.positions[-1])


def _pava_nondecreasing(z: np.ndarray) -> np.ndarray:
    """Least-squares projection onto nondecreasing sequences (pool adjacent violators)."""
    n = z.size
    level = z.astype(float).copy()
    weight = np.ones(n)
    length = 0  # active pools
    for i in range(n):
        level[length] = z[i]
        weight[length] = 1.0
        length += 1
        while length > 1 and level[length - 2] > level[length - 1]:
            w = weight[length - 2] + weight[length - 1]
            level[length - 2] = (
                weight[length - 2] * level[length - 2]
                + weight[length - 1] * level[length - 1]
            ) / w
            weight[length - 2] = w
            length -= 1
    out = np.empty(n)
    pos = 0
    for i in range(length):
        cnt = int(weight[i])
        out[pos : pos + cnt] = level[i]
        pos += cnt
    return out


def _enforce_min_separation(positions: np.ndarray, x_max: float) -> np.ndarray:
    """Spread clustered elements apart to the minimum spacing.

    Endpoints stay pinned at 0 and x_max. The spread is the least-squares
    monotone adjustment: clusters move symmetrically about their mean. The
    spread gaps come from adding i * MIN_SEPARATION in floating point, so
    one can land a few ulp of x_max short of the floor (density 0 -> 1 on
    [0, 1] at m = 12 gives 0.04999999999999993).
    """
    m = positions.size
    if m < 2 or np.all(np.diff(positions) >= MIN_SEPARATION):
        return positions
    if (m - 1) * MIN_SEPARATION > x_max:
        raise ValueError(
            f"cannot fit {m} elements with {MIN_SEPARATION} wavelength "
            f"separation into an aperture of {x_max}"
        )
    warnings.warn(
        "density taper produced elements closer than the minimum separation; "
        "spreading them apart",
        RuntimeWarning,
        stacklevel=3,
    )
    # In z = x - i*d coordinates the spacing constraint is monotonicity.
    z = positions - np.arange(m) * MIN_SEPARATION
    z = _pava_nondecreasing(z)
    z[0] = 0.0
    z = np.minimum(z, x_max - (m - 1) * MIN_SEPARATION)
    z = np.maximum(z, 0.0)
    out = z + np.arange(m) * MIN_SEPARATION
    out[0] = 0.0
    out[-1] = x_max
    return out


def density_taper(profile: DensityProfile, m: int) -> ArrayLayout:
    """Place m elements so each adjacent pair encloses equal reference mass.

    The first element sits at 0 and the last at X_max; the m - 2 interior
    elements are the closed-form preimages of equally spaced targets of the
    cumulative, solved together. On a flat (zero-density) plateau the
    leftmost preimage is taken.
    """
    if m < 2:
        raise ValueError(f"need at least 2 elements, got m={m}")
    pos, val = profile.positions, profile.values
    # exact cumulative at the nodes: trapezoids of the piecewise-linear density
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (val[:-1] + val[1:]) * np.diff(pos))))
    total = cum[-1]
    if total <= 0.0:
        raise DegenerateProfileError("density integrates to zero")
    targets = (np.arange(m) * total / (m - 1))[1:-1]
    # segment (j-1, j] holds each target: cum[j-1] < target <= cum[j], so
    # r > 0; only a target of 0 (an underflowed total / (m - 1)) has j = 0,
    # and it takes r = 0 in the first segment, whose start is its preimage
    j = np.maximum(np.searchsorted(cum, targets, side="left"), 1)
    r = targets - cum[j - 1]
    dx = pos[j] - pos[j - 1]
    mu0 = val[j - 1]
    slope = (val[j] - mu0) / dx
    # leftmost root of (slope/2) t^2 + mu0 t = r, stable for slope of any sign;
    # a target on the node where a falling segment reaches 0 has a zero
    # discriminant that round-off can push a few ulp negative
    disc = np.maximum(mu0 * mu0 + 2.0 * slope * r, 0.0)
    t = np.divide(2.0 * r, mu0 + np.sqrt(disc), out=np.zeros_like(r), where=r > 0.0)
    # the leftmost-preimage rule would stop short of X_max on a trailing
    # zero plateau; the aperture endpoint is pinned instead
    positions = np.concatenate(([0.0], pos[j - 1] + np.minimum(t, dx), [profile.x_max]))
    positions = _enforce_min_separation(positions, profile.x_max)
    return ArrayLayout(positions)


def reference_profile(
    scenario,
    dense_oversampling: int = DEFAULT_OVERSAMPLING,
    realizations: int = DEFAULT_SYNTHESIS_REALIZATIONS,
    workers: int = 1,
) -> DensityProfile:
    """Average-power profile of a densely sampled aperture in the scenario's environment.

    Runs the Monte-Carlo engine over a regular array with
    ``dense_oversampling`` elements per wavelength on the scenario's
    aperture (dedicated random streams, so evaluation draws stay
    untouched) and returns the per-element mean power as a density.
    """
    from . import engine  # deferred: engine imports this module

    if dense_oversampling < 2:
        raise ValueError(
            f"dense oversampling must be at least 2 elements per wavelength, "
            f"got {dense_oversampling}"
        )
    if realizations < MIN_RECOMMENDED_REALIZATIONS:
        warnings.warn(
            f"synthesis reference profile from only {realizations} realizations; "
            f"at least {MIN_RECOMMENDED_REALIZATIONS} recommended",
            RuntimeWarning,
            stacklevel=2,
        )
    num_dense = int(round(scenario.aperture * dense_oversampling)) + 1
    dense = regular_layout(num_dense, scenario.aperture)
    ref_scenario = dataclasses.replace(scenario, M=num_dense, realizations=realizations)
    report = engine.run_simulation(
        ref_scenario,
        dense,
        workers=workers,
        eval_stream=STREAM_SYNTHESIS,
        cal_stream=STREAM_SYNTHESIS_CAL,
    )
    return DensityProfile(positions=dense.positions, values=report.power.mean)

