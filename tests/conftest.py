"""Shared pytest plumbing: the acceptance-criteria report section, a
fault-injecting patch of the zero-forcing rescue, a fixed sub-batch size and
the concatenation of a block's sub-batches.

Acceptance tests register one human-readable line per criterion; the
lines are echoed after the run so pass/fail status and the measured
values are visible without -s, and each is kept in CRITERIA_FILE, so
that two runs' figures can be diffed (a criterion's elapsed time is
echoed but not kept, since it moves on unchanged code):

    cp .criteria/criteria.json before.json   # then change the code and rerun
    PYTHONPATH=src python3 tests/conftest.py before.json .criteria/criteria.json
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from apermimo import beamform, channel

ACCEPTANCE_LINES = {}
# git-ignored: the latest line of every criterion run here, keyed by number
CRITERIA_FILE = Path(__file__).resolve().parents[1] / ".criteria" / "criteria.json"


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


@pytest.fixture
def fixed_sub_batch(monkeypatch):
    """Call with a size to make every later sub-batch that many draws long;
    the call returns the list that collects each drawn sub-batch's length."""
    sample = channel.sample_wave_blocks

    def use(size):
        lengths = []

        def sized(k, m, l):
            return size

        def counted(seed, kind, indices, *rest):
            lengths.append(len(indices))
            return sample(seed, kind, indices, *rest)

        monkeypatch.setattr(channel, "_sub_batch", sized)
        monkeypatch.setattr(channel, "sample_wave_blocks", counted)
        return lengths

    return use


def gather_block(sub_batches) -> list:
    """One dict of whole-block arrays per layout, from the per-sub-batch
    lists of dicts that ``engine._simulate_block`` yields."""
    arms = list(zip(*sub_batches))
    return [{key: np.concatenate([blk[key] for blk in arm]) for key in arm[0]} for arm in arms]


def _read_criteria(path) -> dict:
    """{criterion number: line} of a criteria file; empty when it does not exist."""
    path = Path(path)
    if not path.exists():
        return {}
    return {int(number): line for number, line in json.loads(path.read_text()).items()}


def register_criterion(number: int, line: str, elapsed: float = None) -> None:
    """Echo ``line`` after the run, and keep it as criterion ``number``'s
    latest line in CRITERIA_FILE next to the other criteria's; ``elapsed``
    seconds, when given, are echoed after the line but not kept."""
    ACCEPTANCE_LINES[number] = line if elapsed is None else f"{line} [{elapsed:.1f}s]"
    lines = _read_criteria(CRITERIA_FILE)
    lines[number] = line
    CRITERIA_FILE.parent.mkdir(exist_ok=True)
    CRITERIA_FILE.write_text(json.dumps(dict(sorted(lines.items())), indent=1) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="=")
    for number in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(f"criterion {number:2d}: {ACCEPTANCE_LINES[number]}")


def _print_criteria_diff(before, after) -> int:
    """Print every criterion line of two criteria files, marking each that moved.

    A line that differs, or is in one file only, is printed from both
    files under a leading '*'. Returns the number of moved lines.
    """
    old, new = _read_criteria(before), _read_criteria(after)
    moved = 0
    for number in sorted(old.keys() | new.keys()):
        a, b = old.get(number, "(absent)"), new.get(number, "(absent)")
        if a == b:
            print(f"  criterion {number:2d}: {b}")
            continue
        moved += 1
        print(f"* criterion {number:2d}: {b}\n           was: {a}")
    print(f"{moved} of {len(old.keys() | new.keys())} criterion lines moved")
    return moved


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: PYTHONPATH=src python3 tests/conftest.py BEFORE.json AFTER.json")
    _print_criteria_diff(*sys.argv[1:])
