"""Correctness gate: decides whether one CLI operation succeeded.

An operation fails on a nonzero exit, on a manifest entry that does not
match the file on disk, on a non-finite headline figure, on an accepted
zero-forcing residual above 1e-9, on a channel normalization outside a
Monte-Carlo tolerance of its closed form, or, for ``synthesize``, on a
layout that is not M strictly ascending positions spanning the aperture.
A report flagged ``valid: false`` (too many rejected draws) is not a
failure: the rejection count is reported as a per-layer metric instead.
"""

import hashlib
import json
import math
from pathlib import Path

RESIDUAL_LIMIT = 1e-9
# Closed-form ensemble normalization: c^2 = L * E[a^2] E[cos^2 psi] E[g^2].
NORM_SQUARED_PER_WAVE = 0.1400306
# The CLI estimates c from 20000 calibration draws. At K >= 2 users the
# relative standard error of that estimate is below 0.4 %, so 2 % is more
# than five standard errors from any honest estimate.
NORM_REL_TOL = 0.02

_HEADLINES = {
    "simulate": ("sum_rate", "power_spread_db", "sinr_p05_db", "max_residual", "norm"),
    "compare": ("sinrg_db", "psc_db", "sr_gain_fraction"),
    "synthesize": ("min_spacing_lambda",),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_manifest(out: Path):
    manifest = json.loads((out / "manifest.json").read_text())
    for name, entry in sorted(manifest["outputs"].items()):
        path = out / name
        if not path.is_file():
            yield f"{name}: listed in manifest.json but missing"
        elif path.stat().st_size != entry["bytes"]:
            yield f"{name}: {path.stat().st_size} bytes on disk, manifest says {entry['bytes']}"
        elif _sha256(path) != entry["sha256"]:
            yield f"{name}: SHA-256 differs from manifest.json"


def _check_simulation(label, sim, waves_per_ue):
    if sim["max_residual"] > RESIDUAL_LIMIT:
        yield f"{label}max_residual {sim['max_residual']} above {RESIDUAL_LIMIT}"
    expected = math.sqrt(NORM_SQUARED_PER_WAVE * waves_per_ue)
    if abs(sim["norm"] / expected - 1.0) > NORM_REL_TOL:
        yield f"{label}norm {sim['norm']} outside {NORM_REL_TOL:.0%} of {expected:.6f}"


def _check_layout(out: Path, m: int, aperture: float):
    lines = (out / "layout.csv").read_text().split()
    if lines[:1] != ["position_lambda"]:
        yield "layout.csv: missing position_lambda header"
        return
    positions = [float(x) for x in lines[1:]]
    if len(positions) != m:
        yield f"layout.csv: {len(positions)} positions, expected M={m}"
    elif any(b <= a for a, b in zip(positions, positions[1:])):
        yield "layout.csv: positions not strictly ascending"
    elif positions[0] != 0.0 or positions[-1] != aperture:
        yield f"layout.csv: spans [{positions[0]}, {positions[-1]}], not [0, {aperture}]"


def check_operation(out_dir, exit_code: int, command: str) -> list:
    """Reasons the operation that wrote ``out_dir`` failed; empty if it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out = Path(out_dir)
    try:
        failures = list(_check_manifest(out))
        summary = json.loads((out / "summary.json").read_text())
        scenario = summary["scenario"]
        failures += [
            f"summary.json: {key} is {summary.get(key)!r}, not a finite number"
            for key in _HEADLINES[command]
            if not _finite(summary.get(key))
        ]
        if command == "simulate":
            sims = {"": summary}
        elif command == "compare":
            sims = {f"{k}.": summary[k] for k in ("aperiodic", "regular")}
            for label, sim in sims.items():
                failures += [
                    f"summary.json: {label}{key} is {sim.get(key)!r}, not a finite number"
                    for key in _HEADLINES["simulate"]
                    if not _finite(sim.get(key))
                ]
        else:
            sims = {}
            failures += _check_layout(out, scenario["M"], scenario["aperture"])
        if not failures:
            for label, sim in sims.items():
                failures += _check_simulation(label, sim, scenario["waves_per_ue"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return failures


def output_digests(out_dir) -> dict:
    """SHA-256 of every output except manifest.json, which carries timing."""
    out = Path(out_dir)
    return {
        p.name: _sha256(p)
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }
