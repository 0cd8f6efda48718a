"""Linear array geometry and the element field pattern."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYOUT_CSV_HEADER = "position_lambda"


@dataclass(frozen=True)
class ArrayLayout:
    """Element positions of a linear array, in wavelengths.

    Positions are anchored at the origin (first element at 0) and strictly
    ascending; the aperture is the span between the outermost elements.
    Instances are immutable and safe to share across workers.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float)).copy()
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if pos[0] != 0.0:
            raise ValueError("first element must sit at the origin")
        if pos.size > 1 and not np.all(np.diff(pos) > 0.0):
            raise ValueError("positions must be strictly ascending")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.size

    @property
    def aperture(self) -> float:
        return float(self.positions[-1] - self.positions[0])


def regular_layout(m: int, aperture: float) -> ArrayLayout:
    """Equispaced layout of ``m`` elements spanning ``aperture`` wavelengths.

    Element i sits at i * aperture / (m - 1), so the spacing is
    aperture / (m - 1).
    """
    if m < 2:
        raise ValueError(f"a regular layout needs at least 2 elements, got m={m}")
    if aperture <= 0.0:
        raise ValueError(f"aperture must be positive, got {aperture}")
    return ArrayLayout(np.arange(m) * aperture / (m - 1))


def huygens_gain(theta):
    """Normalized Huygens-source field pattern (1 + cos(theta)) / 2.

    ``theta`` is measured from array broadside, in radians; accepts scalars
    or arrays. Unit gain at broadside, null toward the back.
    """
    return 0.5 * (1.0 + np.cos(theta))


def layout_csv_text(layout: ArrayLayout) -> str:
    """A layout as CSV text: one shortest round-trip (bit-exact) position per line."""
    lines = [LAYOUT_CSV_HEADER]
    lines.extend(repr(float(x)) for x in layout.positions)
    return "\n".join(lines) + "\n"


def write_layout_csv(layout: ArrayLayout, path) -> None:
    """Write :func:`layout_csv_text` of a layout to ``path``."""
    Path(path).write_text(layout_csv_text(layout))


def read_layout_csv(path) -> ArrayLayout:
    """Read a layout written by :func:`write_layout_csv`."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != LAYOUT_CSV_HEADER:
        raise ValueError(f"{path}: expected header '{LAYOUT_CSV_HEADER}'")
    try:
        positions = np.array([float(x) for x in lines[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed position value ({exc})") from None
    return ArrayLayout(positions)
