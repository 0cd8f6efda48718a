import numpy as np
import pytest

from apermimo.arrays import (
    ArrayLayout,
    huygens_gain,
    layout_csv_text,
    read_layout_csv,
    regular_layout,
)


def test_regular_layout_spacing():
    lay = regular_layout(8, 7.0)
    np.testing.assert_array_equal(lay.positions, np.arange(8.0))
    assert len(lay) == 8
    assert lay.aperture == 7.0


def test_regular_layout_two_elements():
    lay = regular_layout(2, 3.5)
    np.testing.assert_allclose(lay.positions, [0.0, 3.5])


@pytest.mark.parametrize("aperture", [0.0, -1.0, np.nan, np.inf])
def test_regular_layout_rejects_bad_aperture(aperture):
    """A non-positive or non-finite aperture fails up front, without a warning."""
    with pytest.raises(ValueError, match="aperture must be positive and finite"):
        regular_layout(4, aperture)


def test_layout_requires_origin_anchor():
    with pytest.raises(ValueError):
        ArrayLayout(positions=np.array([0.5, 1.0]))


def test_layout_requires_ascending_positions():
    with pytest.raises(ValueError):
        ArrayLayout(positions=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        ArrayLayout(positions=np.array([0.0, 1.0, 1.0]))


def test_layout_rejects_empty():
    with pytest.raises(ValueError):
        ArrayLayout(positions=np.array([]))


def test_layout_positions_immutable():
    lay = regular_layout(4, 3.0)
    with pytest.raises((ValueError, RuntimeError)):
        lay.positions[0] = 5.0


def test_single_element_layout():
    # an array has at least 2 elements: one position (or a bare scalar) is refused
    for positions in (np.array([0.0]), 0.0):
        with pytest.raises(ValueError, match="at least 2"):
            ArrayLayout(positions=positions)


def test_huygens_gain_cardioid():
    # (1 + cos theta) / 2: unity broadside, half at the horizon, null behind
    assert huygens_gain(0.0) == 1.0
    np.testing.assert_allclose(huygens_gain(np.pi / 2), 0.5)
    np.testing.assert_allclose(huygens_gain(np.pi), 0.0, atol=1e-15)
    theta = np.linspace(-np.pi / 3, np.pi / 3, 11)
    np.testing.assert_allclose(huygens_gain(theta), 0.5 * (1 + np.cos(theta)))


def test_huygens_gain_even_symmetry():
    theta = np.linspace(0.0, np.pi / 3, 7)
    np.testing.assert_array_equal(huygens_gain(theta), huygens_gain(-theta))


def test_layout_csv_round_trip(tmp_path):
    # full-precision repr in the file so the round trip is bit exact
    lay = ArrayLayout(positions=np.array([0.0, 0.9182736455463728, 2.1, 7.0]))
    path = tmp_path / "layout.csv"
    path.write_text(layout_csv_text(lay))
    back = read_layout_csv(path)
    np.testing.assert_array_equal(back.positions, lay.positions)
    text = path.read_text()
    assert text.splitlines()[0] == "position_lambda"


def test_layout_csv_bytes(tmp_path):
    # the layout text the CLI emits, byte for byte
    lay = ArrayLayout(positions=np.array([0.0, 0.9182736455463728, 2.1, 7.0]))
    expected = b"position_lambda\n0.0\n0.9182736455463728\n2.1\n7.0\n"
    assert layout_csv_text(lay).encode() == expected
    path = tmp_path / "layout.csv"
    path.write_text(layout_csv_text(lay))
    assert path.read_bytes() == expected
