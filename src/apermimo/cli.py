"""Command-line front-end: one key table in, one emission table out.

Four subcommands drive the engine: ``simulate`` runs one layout,
``synthesize`` emits an aperiodic layout plus its dense reference power
profile, ``compare`` evaluates aperiodic versus regular on common random
numbers, and ``sweep`` grids a comparison over array sizes and user
crowdedness.

In: one key table gives each key its flag, parser and help, and drives
both argparse and the key=value config file (scenario keys only; flags
win), so a value is validated the same way however it arrives.

Out: each command returns its result, and one runner times it, writes it
and prints one line. Field-name tuples (scenario, simulation report,
comparison, sweep row) form the emission table: ``_record`` turns a record
into JSON values and ``_csv`` writes columns, numbers at 9 significant
digits, so a rerun reproduces every file byte for byte (layout CSVs keep
full precision, to round-trip exactly). manifest.json lists each file's
SHA-256 digest and is the only file with wall-clock timing.

Exit codes: 0 success, 2 configuration errors, 3 runtime or I/O errors,
each with a machine-readable ``error:<category>:`` prefix on stderr.
"""

import argparse
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, engine, synthesis
from .arrays import layout_csv_text, read_layout_csv
from .channel import MAX_WAVES
from .engine import ScenarioConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _parse_int(name, low=None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"key '{name}': expected an integer, got {text!r}")
        if low is not None and value < low:
            raise ConfigError(f"key '{name}': must be at least {low}, got {value}")
        return value

    return parse


def _parse_float(name):
    def parse(text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"key '{name}': expected a number, got {text!r}")

    return parse


# key -> (flag, parser, help). The scenario keys are also the config-file
# keys and the scenario's emitted fields, in this order. Their parsers only
# convert text; ScenarioConfig checks the ranges.
_SCENARIO_KEYS = {
    "M": ("--M", _parse_int("M"), "base-station element count"),
    "K": ("--K", _parse_int("K"), "number of simultaneous users"),
    "waves_per_ue": ("--waves-per-ue", _parse_int("waves_per_ue"),
                     f"plane waves per user, 1..{MAX_WAVES}"),
    "aperture": ("--aperture", _parse_float("aperture"), "aperture in wavelengths"),
    "snr_db": ("--snr-db", _parse_float("snr_db"), "average per-user SNR in dB"),
    "realizations": ("--realizations", _parse_int("realizations"),
                     "Monte-Carlo repetitions"),
    "master_seed": ("--seed", _parse_int("master_seed"), "master seed (64-bit)"),
    "link": ("--link", str, "link direction: uplink or downlink"),
}
# Synthesis keys are named after the engine's keyword arguments, whose
# defaults apply when a flag is absent. No other code checks them before
# work starts, so their parsers keep the lower bounds.
_SYNTHESIS_KEYS = {
    "dense_oversampling": ("--oversampling", _parse_int("oversampling", 2),
                           "dense reference elements per wavelength (default "
                           f"{synthesis.DEFAULT_OVERSAMPLING})"),
    "synthesis_realizations": ("--synthesis-realizations",
                               _parse_int("synthesis_realizations", 1),
                               "realizations for the dense reference run"),
}


def config_values(text: str) -> dict:
    """Parse key=value configuration text into validated field values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _SCENARIO_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(_SCENARIO_KEYS))}"
            )
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _SCENARIO_KEYS[key][1](val)
    return values


def _build_scenario(values: dict) -> ScenarioConfig:
    for required in ("M", "K"):
        if required not in values:
            raise ConfigError(f"key '{required}' is required")
    try:
        return ScenarioConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_layout(ns, scenario: ScenarioConfig):
    """The --layout CSV, or None; refused unless it spans the scenario's aperture.

    The tolerance admits a synthesized layout, whose last position
    (n - 1) * a / (n - 1) can sit one ulp off a.
    """
    if not ns.layout:
        return None
    layout = read_layout_csv(ns.layout)
    if abs(layout.aperture - scenario.aperture) > 1e-9 * scenario.aperture:
        raise ConfigError(f"--layout: aperture {layout.aperture!r} differs from the "
                          f"scenario's {scenario.aperture!r}")
    return layout


def _flag_values(ns, table) -> dict:
    """Parsed values of the table's flags given on the command line."""
    return {key: parse(getattr(ns, key)) for key, (_, parse, _) in table.items()
            if getattr(ns, key, None) is not None}


def _scenario_values(ns) -> dict:
    """Scenario values from the config file, overridden by the flags."""
    if ns.workers < 1:
        raise ConfigError(f"--workers: must be at least 1, got {ns.workers}")
    values = {}
    if ns.config:
        path = Path(ns.config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        values.update(config_values(text))
    values.update(_flag_values(ns, _SCENARIO_KEYS))
    return values


# ---------------------------------------------------------------- emission


_SCENARIO_FIELDS = tuple(_SCENARIO_KEYS)
_REPORT_FIELDS = ("sum_rate", "power_spread_db", "accepted_count", "rejected_count",
                  "max_residual", "norm", "valid")
_COMPARISON_FIELDS = ("sinrg_db", "psc_db", "sr_gain_fraction")
_ROW_FIELDS = ("M", "K", "crowdedness", "sinrg_db", "psc_db", "sr_gain_fraction", "valid")


def _fmt(value) -> str:
    """Fixed 9-significant-digit text for CSV cells."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.9g}"


def _jnum(value):
    """JSON-safe value: a float rounded to 9 significant digits (text when not
    finite); ints, bools and strings as they are."""
    if not isinstance(value, float):
        return value
    if not math.isfinite(value):
        return _fmt(value)
    return float(f"{value:.9g}")


def _record(obj, names) -> dict:
    """The named fields of a record as JSON values."""
    return {name: _jnum(getattr(obj, name)) for name in names}


def _csv(header, *columns) -> str:
    """CSV text: the header names, then one ``_fmt`` line per row of the columns."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def _simulation_outputs(report: engine.SimulationReport, suffix: str = ""):
    """Summary fields and files of one simulation (one half of a comparison)."""
    cdf = report.sinr_cdf
    power = report.power
    summary = _record(report, _REPORT_FIELDS)
    summary["sinr_p05_db"] = _jnum(cdf.percentile(0.05))
    files = {
        f"cdf{suffix}.csv": _csv(("sinr_db", "cdf"), cdf.bin_centers, cdf.cdf),
        f"power{suffix}.csv": _csv(
            ("element_index", "position_lambda", "mu", "sigma2"),
            range(power.mean.size), report.layout.positions, power.mean, power.variance,
        ),
        f"layout{suffix}.csv": layout_csv_text(report.layout),
    }
    return summary, files


def _write_outputs(out_dir, command: str, scenario, summary: dict, files: dict,
                   elapsed: float):
    """Write summary.json, the other output files and a manifest of them all.

    summary.json and manifest.json share one header: the command, the
    scenario (``config`` in the manifest) and its master seed. The manifest
    adds each file's SHA-256 digest and size, and the wall-clock timing.
    """
    header = {"tool": "apermimo", "version": __version__, "command": command,
              "master_seed": scenario.master_seed}
    config = _record(scenario, _SCENARIO_FIELDS)
    summary = {**header, "scenario": config, **summary}
    files = {"summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
             **files}
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        inventory = {}
        for name, content in files.items():
            data = content.encode()
            (out / name).write_bytes(data)
            inventory[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        manifest = {**header, "config": config, "elapsed_seconds": round(elapsed, 3),
                    "outputs": inventory}
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from None
    return sorted([*files, "manifest.json"])


def emit_reports(report, out_dir, elapsed: float = 0.0):
    """Serialize a simulation or comparison report into out_dir.

    Writes the SINR CDF, power profile and layout CSVs (per layout for
    comparisons), a summary.json with the headline numbers and the exact
    master seed, and a manifest.json with SHA-256 digests of everything.
    """
    if isinstance(report, engine.ComparisonReport):
        command = "compare"
        summary, files = _record(report, _COMPARISON_FIELDS), {}
        for half in ("aperiodic", "regular"):
            summary[half], half_files = _simulation_outputs(getattr(report, half), f"_{half}")
            files.update(half_files)
    elif isinstance(report, engine.SimulationReport):
        command = "simulate"
        summary, files = _simulation_outputs(report)
    else:
        raise TypeError(f"cannot emit reports for {type(report).__name__}")
    return _write_outputs(out_dir, command, report.scenario, summary, files, elapsed)


# ---------------------------------------------------------------- commands
#
# Each command returns (result, stdout line). The result is a report for
# emit_reports, or the (scenario, summary, files) that _write_outputs takes.


def _cmd_simulate(ns):
    scenario = _build_scenario(_scenario_values(ns))
    layout = _read_layout(ns, scenario)
    report = engine.run_simulation(scenario, layout, workers=ns.workers)
    return report, f"simulate: wrote results to {ns.out}"


def _cmd_synthesize(ns):
    scenario = _build_scenario(_scenario_values(ns))
    syn = _flag_values(ns, _SYNTHESIS_KEYS)
    oversampling = syn.get("dense_oversampling", synthesis.DEFAULT_OVERSAMPLING)
    realizations = syn.get("synthesis_realizations", synthesis.DEFAULT_SYNTHESIS_REALIZATIONS)
    profile = synthesis.reference_profile(scenario, dense_oversampling=oversampling,
                                          realizations=realizations, workers=ns.workers)
    layout = synthesis.density_taper(profile, scenario.M)
    summary = {
        "dense_oversampling": oversampling,
        "synthesis_realizations": realizations,
        "num_dense_elements": int(profile.positions.size),
        "min_spacing_lambda": _jnum(np.diff(layout.positions).min()),
    }
    files = {
        "layout.csv": layout_csv_text(layout),
        "mu_profile.csv": _csv(("position_lambda", "mu"), profile.positions, profile.values),
    }
    return (scenario, summary, files), f"synthesize: wrote layout and profile to {ns.out}"


def _cmd_compare(ns):
    scenario = _build_scenario(_scenario_values(ns))
    syn = _flag_values(ns, _SYNTHESIS_KEYS)
    aperiodic = _read_layout(ns, scenario)
    report = engine.compare_layouts(scenario, aperiodic, workers=ns.workers, **syn)
    return report, (
        f"compare: SINRG {report.sinrg_db:+.2f} dB, PSC {report.psc_db:+.2f} dB, "
        f"SR gain {100 * report.sr_gain_fraction:+.1f}%; results in {ns.out}"
    )


def _parse_grid_list(text: str, kind, name: str):
    try:
        items = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--{name}: expected comma-separated values, got {text!r}")
    if not items:
        raise ConfigError(f"--{name}: needs at least one value")
    return items


# a sweep sets each point's size from the grid flags and its aperture to M - 1
_SWEEP_FIXED = {"M", "K", "aperture"}


def _cmd_sweep(ns):
    values = _scenario_values(ns)
    fixed = sorted(values.keys() & _SWEEP_FIXED)
    if fixed:
        raise ConfigError(f"sweep sets {'/'.join(fixed)} per grid point (M and K from "
                          "--bs-counts/--crowdedness, aperture M - 1)")
    bs_counts = _parse_grid_list(ns.bs_counts, int, "bs-counts")
    crowd = _parse_grid_list(ns.crowdedness, float, "crowdedness")
    for frac in crowd:
        if not 0.0 < frac <= 1.0:
            raise ConfigError(f"--crowdedness: fractions must be in (0, 1], got {frac}")
    syn = _flag_values(ns, _SYNTHESIS_KEYS)
    # the header scenario is the first feasible grid point; like every
    # point, it spans M - 1 wavelengths
    first = next(((m, k) for m, k, _, feasible in engine.sweep_grid(bs_counts, crowd)
                  if feasible), None)
    if first is None:
        raise ConfigError("no feasible (M, K) grid point in the sweep")
    base = _build_scenario({**values, "M": first[0], "K": first[1]})
    rows = engine.sweep(base, bs_counts, crowd, workers=ns.workers, **syn)
    summary = {"bs_counts": bs_counts, "crowdedness": [_jnum(f) for f in crowd],
               "rows": [_record(r, _ROW_FIELDS) for r in rows]}
    files = {"sweep.csv": _csv(_ROW_FIELDS, *([getattr(r, f) for r in rows] for f in _ROW_FIELDS))}
    return (base, summary, files), f"sweep: wrote {len(rows)} grid points to {ns.out}"


def _execute(ns) -> int:
    """Run one command, write its outputs with the elapsed time, print its line."""
    started = time.perf_counter()
    result, line = ns.func(ns)
    elapsed = time.perf_counter() - started
    if isinstance(result, tuple):
        _write_outputs(ns.out, ns.command, *result, elapsed)
    else:
        emit_reports(result, ns.out, elapsed)
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _add_flags(sub, table, skip=()):
    for key, (flag, _, help_text) in table.items():
        if key not in skip:
            sub.add_argument(flag, dest=key, help=help_text,
                             metavar=flag[2:].upper().replace("-", "_"))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes any negative float literal as a value.

    argparse reads only ``-3`` and ``-3.5`` as negative numbers, so
    ``--snr-db -1e-05`` would fail with "expected one argument".
    Subcommand parsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


_COMMANDS = (
    ("simulate", "evaluate one layout", _cmd_simulate),
    ("synthesize", "emit an aperiodic layout", _cmd_synthesize),
    ("compare", "aperiodic versus regular", _cmd_compare),
    ("sweep", "grid over sizes and crowdedness", _cmd_sweep),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apermimo",
        description="Monte-Carlo MU-MIMO link simulation and aperiodic array synthesis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, help_text, func in _COMMANDS:
        sub[name] = cmd = subs.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        _add_flags(cmd, _SCENARIO_KEYS, skip=_SWEEP_FIXED if name == "sweep" else ())
        cmd.add_argument("--config", help="key=value configuration file")
        cmd.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
        cmd.add_argument("--out", required=True, help="output directory")
        if name != "simulate":
            _add_flags(cmd, _SYNTHESIS_KEYS)
    sub["simulate"].add_argument("--layout", help="layout CSV to simulate (default regular)")
    sub["compare"].add_argument("--layout", help="use this aperiodic layout CSV instead "
                                "of synthesizing one")
    sub["sweep"].add_argument("--bs-counts", dest="bs_counts", required=True,
                              help="comma-separated element counts, e.g. 16,32,64")
    sub["sweep"].add_argument("--crowdedness", required=True,
                              help="comma-separated user fractions, e.g. 0.1,0.25,0.3")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return _execute(ns)
    except ConfigError as exc:
        print(f"error:config-error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error:io-error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, RuntimeError) as exc:
        print(f"error:engine-error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
