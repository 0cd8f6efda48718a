"""Shared pytest plumbing: the acceptance-criteria report section and a
fault-injecting patch of the zero-forcing rescue.

Acceptance tests register one human-readable line per criterion; the
lines are echoed after the run so pass/fail status and the measured
values are visible without -s.
"""

import pytest

from apermimo import beamform

ACCEPTANCE_LINES = {}


@pytest.fixture
def negated_rescue_gain(monkeypatch):
    """Make the QR rescue return a negative first noise gain for every slice
    it solves; yields the list of rescued batch sizes, one entry per call."""
    rescue = beamform._refine_inverse
    rescued = []

    def negative_gain(h_bad):
        noise_gain, w = rescue(h_bad)
        rescued.append(len(h_bad))
        noise_gain[:, 0] = -noise_gain[:, 0]
        return noise_gain, w

    monkeypatch.setattr(beamform, "_refine_inverse", negative_gain)
    return rescued


def register_criterion(number: int, line: str) -> None:
    ACCEPTANCE_LINES[number] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="=")
    for number in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(f"criterion {number:2d}: {ACCEPTANCE_LINES[number]}")
