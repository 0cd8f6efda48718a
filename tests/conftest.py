"""Shared pytest plumbing: the acceptance-criteria report section, a
fault-injecting patch of the zero-forcing rescue, a count of the slices the
solve verifies through W, a fixed sub-batch size and the concatenation of a
block's sub-batches.

Acceptance tests register one human-readable line per criterion; the
lines are echoed after the run so pass/fail status and the measured
values are visible without -s, and each is kept in CRITERIA_FILE with the
criterion's figures (name, value, band, verdict), so that two runs can be
diffed line by line and every figure outside its band is marked (a
criterion's elapsed time is echoed but not kept, since it moves on
unchanged code):

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
# git-ignored: the latest line and figures of every criterion run here, keyed by number
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
def weights_path_slices(monkeypatch):
    """Count the slices the zero-forcing solve verifies through W, those its
    certificate does not clear; yields the list of batch sizes handed to
    ``beamform._weights_path``, one entry per call."""
    weights_path = beamform._weights_path
    sizes = []

    def counted(h, inv):
        sizes.append(len(h))
        return weights_path(h, inv)

    monkeypatch.setattr(beamform, "_weights_path", counted)
    return sizes


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


def figure(name: str, value, lo: float = None, hi: float = None) -> dict:
    """One figure of a criterion: its name and value, the band [lo, hi] the
    criterion holds it to (None for an open end; a bool is 1 or 0 against
    [1, 1]) and its verdict, "in" when the value lies in the band."""
    value = float(value)
    inside = (lo is None or value >= lo) and (hi is None or value <= hi)
    return {"name": name, "value": value, "band": [lo, hi], "verdict": "in" if inside else "out"}


def _read_criteria(path) -> dict:
    """{criterion number: {"line", "figures"}} of a criteria file; empty when
    it does not exist. A file that kept lines only reads with no figures."""
    path = Path(path)
    if not path.exists():
        return {}
    entries = json.loads(path.read_text()).items()
    return {int(number): entry if isinstance(entry, dict) else {"line": entry, "figures": []}
            for number, entry in entries}


def register_criterion(number: int, line: str, elapsed: float = None, figures=()) -> None:
    """Echo ``line`` after the run, and keep it with its ``figures`` (see
    :func:`figure`) as criterion ``number``'s latest entry in CRITERIA_FILE
    next to the other criteria's; ``elapsed`` seconds, when given, are
    echoed after the line but not kept."""
    ACCEPTANCE_LINES[number] = line if elapsed is None else f"{line} [{elapsed:.1f}s]"
    entries = _read_criteria(CRITERIA_FILE)
    entries[number] = {"line": line, "figures": list(figures)}
    CRITERIA_FILE.parent.mkdir(exist_ok=True)
    CRITERIA_FILE.write_text(json.dumps(dict(sorted(entries.items())), indent=1) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="=")
    for number in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(f"criterion {number:2d}: {ACCEPTANCE_LINES[number]}")


def _band(lo, hi) -> str:
    return f"[{'-inf' if lo is None else f'{lo:g}'}, {'inf' if hi is None else f'{hi:g}'}]"


def _print_criteria_diff(before, after) -> int:
    """Print every criterion line of two criteria files, marking each that
    moved, and every figure of the second that lies outside its band.

    A line that differs, or is in one file only, is printed from both
    files under a leading '*'. A figure outside its band is printed under a
    leading '!' with its band and where the first file had it. Returns the
    number of moved lines.
    """
    old, new = _read_criteria(before), _read_criteria(after)
    absent = {"line": "(absent)", "figures": []}
    moved = outside = 0
    for number in sorted(old.keys() | new.keys()):
        a, b = old.get(number, absent), new.get(number, absent)
        if a["line"] == b["line"]:
            print(f"  criterion {number:2d}: {b['line']}")
        else:
            moved += 1
            print(f"* criterion {number:2d}: {b['line']}\n           was: {a['line']}")
        was = {fig["name"]: fig["verdict"] for fig in a["figures"]}
        for fig in b["figures"]:
            if fig["verdict"] == "in":
                continue
            outside += 1
            where = {"in": "left its band", "out": "outside before too"}.get(
                was.get(fig["name"]), "not kept before")
            print(f"!   {fig['name']} = {fig['value']:.6g} outside {_band(*fig['band'])}: {where}")
    print(f"{moved} of {len(old.keys() | new.keys())} criterion lines moved; "
          f"figures outside their band: {outside}")
    return moved


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: PYTHONPATH=src python3 tests/conftest.py BEFORE.json AFTER.json")
    _print_criteria_diff(*sys.argv[1:])
