"""Command-line front-end: one key table in, one emission table out.

Four subcommands drive the engine: ``simulate`` runs one layout,
``synthesize`` emits an aperiodic layout plus its dense reference power
profile, ``compare`` evaluates aperiodic versus regular on common random
numbers, and ``sweep`` grids a comparison over array sizes and user
crowdedness. ``_synthesize`` tapers the dense reference profile for all
three; ``engine.compare_layouts`` only compares the layouts it is given.

In: every number the CLI reads goes through ``_parse_number``, so a
malformed one fails as ``key '<name>'`` however it arrives. One key table
gives each scenario and synthesis key its flag, parser and help, and drives
both argparse and the key=value config file (scenario keys only; flags
win); ``--workers`` and each comma-separated sweep grid value take the
same parser. A scenario that cannot be synthesized is refused before its
dense reference runs.

Out: each command returns its result, and one runner times it, writes it
and prints one line. Field-name tuples form the emission table: the
scenario, simulation report and comparison fields that ``_record`` turns
into JSON values, and ``_ROW_FIELDS``, the order of each sweep row tuple.
``_csv`` writes columns, each cell formatted by its column's dtype (floats
at 9 significant digits), so a rerun reproduces every file byte for byte
(layout CSVs keep full precision, to round-trip exactly). manifest.json
lists each file's SHA-256 digest and is the only file with wall-clock
timing.

Exit codes: 0 success, 2 configuration errors (argparse's own and an
unreadable or mismatched --layout among them), 3 runtime or I/O errors,
each with a machine-readable ``error:<category>:`` prefix on stderr.
"""

import argparse
import hashlib
import json
import math
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, engine, metrics, synthesis
from .arrays import layout_csv_text, read_layout_csv
from .channel import MAX_WAVES
from .engine import ScenarioConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _parse_number(convert, name, low=None):
    """A parser of one key's text through ``convert`` (int or float), at least ``low``."""
    expected = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise ConfigError(f"key '{name}': expected {expected}, got {text!r}")
        if low is not None and value < low:
            raise ConfigError(f"key '{name}': must be at least {low}, got {value}")
        return value

    return parse


# key -> (flag, parser, help). The scenario keys are also the config-file
# keys and the scenario's emitted fields, in this order. Their parsers only
# convert text; ScenarioConfig checks the ranges.
_SCENARIO_KEYS = {
    "M": ("--M", _parse_number(int, "M"), "base-station element count"),
    "K": ("--K", _parse_number(int, "K"), "number of simultaneous users"),
    "waves_per_ue": ("--waves-per-ue", _parse_number(int, "waves_per_ue"),
                     f"plane waves per user, 1..{MAX_WAVES}"),
    "aperture": ("--aperture", _parse_number(float, "aperture"), "aperture in wavelengths"),
    "snr_db": ("--snr-db", _parse_number(float, "snr_db"), "average per-user SNR in dB"),
    "realizations": ("--realizations", _parse_number(int, "realizations"),
                     "Monte-Carlo repetitions"),
    "master_seed": ("--seed", _parse_number(int, "master_seed"), "master seed (64-bit)"),
    "link": ("--link", str, "link direction: uplink or downlink"),
}
# Synthesis keys are also the synthesize summary's fields; _synthesis_settings
# puts the given flags over the defaults. Their parsers keep the lower bounds,
# so compare --layout, which synthesizes nothing, refuses a bad value too.
_SYNTHESIS_KEYS = {
    "dense_oversampling": ("--oversampling", _parse_number(int, "oversampling", 2),
                           "dense reference elements per wavelength (default "
                           f"{synthesis.DEFAULT_OVERSAMPLING})"),
    "synthesis_realizations": ("--synthesis-realizations",
                               _parse_number(int, "synthesis_realizations", 1),
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
    """The --layout CSV, or None; refused unless it reads as a layout with the
    scenario's element count and aperture.

    The tolerance admits a synthesized layout, whose last position
    (n - 1) * a / (n - 1) can sit one ulp off a.
    """
    if not ns.layout:
        return None
    try:
        layout = read_layout_csv(ns.layout)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--layout: {exc}") from None
    if len(layout) != scenario.M:
        raise ConfigError(f"--layout: {len(layout)} elements where the scenario "
                          f"has M={scenario.M}")
    if abs(layout.aperture - scenario.aperture) > 1e-9 * scenario.aperture:
        raise ConfigError(f"--layout: aperture {layout.aperture!r} differs from the "
                          f"scenario's {scenario.aperture!r}")
    return layout


def _flag_values(ns, table) -> dict:
    """Parsed values of the table's flags given on the command line."""
    return {key: parse(getattr(ns, key)) for key, (_, parse, _) in table.items()
            if getattr(ns, key, None) is not None}


def _scenario_values(ns) -> dict:
    """Scenario values from the config file, overridden by the flags (and
    ``ns.workers`` parsed in place, before any of them)."""
    ns.workers = _parse_number(int, "workers", 1)(ns.workers)
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


def _jnum(value):
    """JSON-safe value: a float rounded to 9 significant digits (text when not
    finite); ints, bools and strings as they are."""
    if not isinstance(value, float):
        return value
    text = f"{value:.9g}"
    return float(text) if math.isfinite(value) else text


def _record(obj, names) -> dict:
    """The named fields of a record as JSON values."""
    return {name: _jnum(getattr(obj, name)) for name in names}


# CSV cell format by dtype kind: floats at 9 significant digits ("nan",
# "inf", "-inf" when not finite), integers in full, booleans as words
_CELL_FORMATS = {"f": "%.9g", "i": "%d", "b": "%s"}


def _csv(header, *columns) -> str:
    """CSV text: the header names, then one line per row of the columns."""
    columns = [np.asarray(c) for c in columns]
    line = ",".join(_CELL_FORMATS[c.dtype.kind] for c in columns)
    cells = [np.where(c, "true", "false") if c.dtype.kind == "b" else c for c in columns]
    lines = [",".join(header)]
    lines.extend(line % row for row in zip(*(c.tolist() for c in cells)))
    return "\n".join(lines) + "\n"


def _simulation_outputs(report: engine.SimulationReport, suffix: str = ""):
    """Summary fields and files of one simulation (one half of a comparison)."""
    cdf = report.sinr_cdf
    power = report.power
    summary = _record(report, _REPORT_FIELDS)
    summary["sinr_p05_db"] = _jnum(cdf.percentile(metrics.GAIN_PERCENTILE))
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


def _synthesis_settings(ns, realizations=synthesis.DEFAULT_SYNTHESIS_REALIZATIONS):
    """The synthesis flags over their defaults (``realizations`` reference draws)."""
    return {"dense_oversampling": synthesis.DEFAULT_OVERSAMPLING,
            "synthesis_realizations": realizations, **_flag_values(ns, _SYNTHESIS_KEYS)}


def _synthesize(scenario, settings, workers):
    """The scenario's dense reference profile and its density taper to M
    elements, refused before the first draw when either cannot be made."""
    try:
        synthesis.dense_reference(scenario, settings["dense_oversampling"],
                                  settings["synthesis_realizations"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    profile = synthesis.reference_profile(scenario, settings["dense_oversampling"],
                                          settings["synthesis_realizations"], workers)
    return profile, synthesis.density_taper(profile, scenario.M)


def _cmd_synthesize(ns):
    scenario = _build_scenario(_scenario_values(ns))
    settings = _synthesis_settings(ns)
    profile, layout = _synthesize(scenario, settings, ns.workers)
    summary = {**settings, "num_dense_elements": int(profile.positions.size),
               "min_spacing_lambda": _jnum(np.diff(layout.positions).min())}
    files = {
        "layout.csv": layout_csv_text(layout),
        "mu_profile.csv": _csv(("position_lambda", "mu"), profile.positions, profile.values),
    }
    return (scenario, summary, files), f"synthesize: wrote layout and profile to {ns.out}"


def _cmd_compare(ns):
    scenario = _build_scenario(_scenario_values(ns))
    settings = _synthesis_settings(ns)  # checked even when --layout makes it unused
    aperiodic = _read_layout(ns, scenario)
    if aperiodic is None:
        aperiodic = _synthesize(scenario, settings, ns.workers)[1]
    report = engine.compare_layouts(scenario, aperiodic, workers=ns.workers)
    return report, (
        f"compare: SINRG {report.sinrg_db:+.2f} dB, PSC {report.psc_db:+.2f} dB, "
        f"SR gain {100 * report.sr_gain_fraction:+.1f}%; results in {ns.out}"
    )


def _parse_grid_list(text: str, parse, name: str):
    items = [parse(part) for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"--{name}: needs at least one value")
    if len(set(items)) < len(items):
        raise ConfigError(f"--{name}: repeats a value in {text!r}")
    return items


# a sweep sets each point's size from the grid flags and its aperture to M - 1
_SWEEP_FIXED = {"M", "K", "aperture"}


def _cmd_sweep(ns):
    values = _scenario_values(ns)
    fixed = sorted(values.keys() & _SWEEP_FIXED)
    if fixed:
        raise ConfigError(f"sweep sets {'/'.join(fixed)} per grid point (M and K from "
                          "--bs-counts/--crowdedness, aperture M - 1)")
    bs_counts = _parse_grid_list(ns.bs_counts, _parse_number(int, "bs_counts", 2), "bs-counts")
    crowd = _parse_grid_list(ns.crowdedness, _parse_number(float, "crowdedness"), "crowdedness")
    for frac in crowd:
        if not 0.0 < frac <= 1.0:
            raise ConfigError(f"--crowdedness: fractions must be in (0, 1], got {frac}")
    # every point's scenario (K = round(fraction * M), aperture M - 1) is
    # validated before the first draw; the first heads the outputs, and
    # fractions that round to one K at an M share one run
    grid, points = [], {}
    for m in bs_counts:
        for frac in crowd:
            k = int(round(frac * m))
            if k < 1:
                warnings.warn(f"skipping infeasible sweep point M={m}, crowdedness={frac} "
                              f"(K={k})", RuntimeWarning, stacklevel=2)
                continue
            if (m, k) not in points:
                points[m, k] = _build_scenario({**values, "M": m, "K": k})
            grid.append((m, k, frac))
    if not points:
        raise ConfigError("no feasible (M, K) grid point in the sweep")
    first = next(iter(points.values()))
    # the dense reference reuses the points' realization count unless one is given
    settings = _synthesis_settings(ns, first.realizations)
    results = {}
    for mk, scenario in points.items():
        aperiodic = _synthesize(scenario, settings, ns.workers)[1]
        comp = engine.compare_layouts(scenario, aperiodic, workers=ns.workers)
        results[mk] = (comp.sinrg_db, comp.psc_db, comp.sr_gain_fraction,
                       comp.aperiodic.valid and comp.regular.valid)
    rows = [(m, k, frac, *results[m, k]) for m, k, frac in grid]
    summary = {"bs_counts": bs_counts, "crowdedness": [_jnum(f) for f in crowd],
               "rows": [dict(zip(_ROW_FIELDS, map(_jnum, row))) for row in rows]}
    files = {"sweep.csv": _csv(_ROW_FIELDS, *zip(*rows))}
    return (first, summary, files), f"sweep: wrote {len(rows)} grid points to {ns.out}"


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
    """An ArgumentParser that takes any negative float literal as a value and
    reports its own errors (unknown flag, missing argument) as ConfigError.

    argparse reads only ``-3`` and ``-3.5`` as negative numbers, so
    ``--snr-db -1e-05`` would fail with "expected one argument".
    Subcommand parsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


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
        cmd.add_argument("--workers", default="1", help="worker processes (default 1)")
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
    try:
        return _execute(build_parser().parse_args(argv))
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
