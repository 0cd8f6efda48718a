"""Command-line front-end: scenario config, experiment execution, result emission.

Four subcommands drive the engine: ``simulate`` runs one layout,
``synthesize`` emits an aperiodic layout plus its dense reference power
profile, ``compare`` evaluates aperiodic versus regular on common random
numbers, and ``sweep`` grids a comparison over array sizes and user
crowdedness. Scenarios come from a key=value config file and/or flags
that mirror the config keys; flags win.

Outputs are plain CSV and JSON with numeric fields fixed at 9 significant
digits, so re-running a configuration reproduces files byte for byte
(layout CSVs use full precision instead, because they must round-trip
exactly). A manifest.json inventories every emitted file with its SHA-256
digest; it is the only file carrying wall-clock timing, so everything
else stays byte-stable across repeat runs.

Exit codes: 0 success, 2 configuration errors, 3 runtime or I/O errors,
each with a machine-readable ``error:<category>:`` prefix on stderr.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, engine, metrics, synthesis
from .arrays import layout_csv_text, read_layout_csv
from .engine import ScenarioConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


def _parse_positive_int(name, low=1, high=None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"key '{name}': expected an integer, got {text!r}")
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise ConfigError(f"key '{name}': must be {bound}, got {value}")
        return value

    return parse


def _parse_float(name):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"key '{name}': expected a number, got {text!r}")
        if not math.isfinite(value):
            raise ConfigError(f"key '{name}': must be finite, got {text!r}")
        return value

    return parse


def _parse_link(text: str) -> str:
    if text not in engine.LINKS:
        raise ConfigError(f"key 'link': must be one of {engine.LINKS}, got {text!r}")
    return text


_KEY_PARSERS = {
    "M": _parse_positive_int("M"),
    "K": _parse_positive_int("K"),
    "waves_per_ue": _parse_positive_int("waves_per_ue", 1, 20),
    "aperture": _parse_float("aperture"),
    "snr_db": _parse_float("snr_db"),
    "realizations": _parse_positive_int("realizations"),
    "master_seed": _parse_positive_int("master_seed", 0, 2**64 - 1),
    "link": _parse_link,
}


def config_values(text: str) -> dict:
    """Parse key=value configuration text into validated field values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _KEY_PARSERS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(_KEY_PARSERS))}"
            )
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _KEY_PARSERS[key](val)
    return values


def parse_config(text: str) -> ScenarioConfig:
    """Build a validated scenario from key=value configuration text."""
    values = config_values(text)
    return _build_scenario(values)


def _build_scenario(values: dict) -> ScenarioConfig:
    for required in ("M", "K"):
        if required not in values:
            raise ConfigError(f"key '{required}' is required")
    try:
        return ScenarioConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_SCENARIO_FLAGS = (
    "M",
    "K",
    "waves_per_ue",
    "aperture",
    "snr_db",
    "realizations",
    "link",
)


def _scenario_values_from_args(ns) -> dict:
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
    for key in _SCENARIO_FLAGS:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = _KEY_PARSERS[key](str(flag))
    if getattr(ns, "seed", None) is not None:
        values["master_seed"] = _KEY_PARSERS["master_seed"](str(ns.seed))
    return values


# ---------------------------------------------------------------- formatting


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
    """JSON-safe number rounded to 9 significant digits."""
    value = float(value)
    if not math.isfinite(value):
        return _fmt(value)
    return float(f"{value:.9g}")


def _scenario_dict(scenario: ScenarioConfig) -> dict:
    return {
        "M": scenario.M,
        "K": scenario.K,
        "waves_per_ue": scenario.waves_per_ue,
        "aperture": _jnum(scenario.aperture),
        "snr_db": _jnum(scenario.snr_db),
        "realizations": scenario.realizations,
        "master_seed": scenario.master_seed,
        "link": scenario.link,
    }


def _simulation_summary(report: engine.SimulationReport) -> dict:
    return {
        "sum_rate": _jnum(report.sum_rate),
        "power_spread_db": _jnum(report.power_spread_db),
        "sinr_p05_db": _jnum(report.sinr_cdf.percentile(0.05)),
        "accepted_count": report.accepted_count,
        "rejected_count": report.rejected_count,
        "max_residual": _jnum(report.max_residual),
        "norm": _jnum(report.norm),
        "valid": report.valid,
    }


def _cdf_csv(cdf: metrics.SinrCdf) -> str:
    centers = cdf.bin_centers
    cum = cdf.cdf
    lines = ["sinr_db,cdf"]
    lines.extend(
        f"{_fmt(centers[i])},{_fmt(cum[i])}" for i in range(centers.size)
    )
    return "\n".join(lines) + "\n"


def _power_csv(report: engine.SimulationReport) -> str:
    prof = report.power_profile
    lines = ["element_index,position_lambda,mu,sigma2"]
    lines.extend(
        f"{i},{_fmt(report.layout.positions[i])},{_fmt(prof.mu[i])},{_fmt(prof.sigma2[i])}"
        for i in range(prof.mu.size)
    )
    return "\n".join(lines) + "\n"


def _profile_csv(profile: synthesis.DensityProfile) -> str:
    lines = ["position_lambda,mu"]
    lines.extend(
        f"{_fmt(profile.positions[i])},{_fmt(profile.values[i])}"
        for i in range(profile.positions.size)
    )
    return "\n".join(lines) + "\n"


def _sweep_csv(rows) -> str:
    lines = ["M,K,crowdedness,sinrg_db,psc_db,sr_gain_fraction,valid"]
    lines.extend(
        f"{r.M},{r.K},{_fmt(r.crowdedness)},{_fmt(r.sinrg_db)},"
        f"{_fmt(r.psc_db)},{_fmt(r.sr_gain_fraction)},{_fmt(r.valid)}"
        for r in rows
    )
    return "\n".join(lines) + "\n"


def _write_outputs(out_dir, command: str, scenario, summary: dict, files: dict,
                   elapsed: float):
    """Write summary.json, the other output files and a manifest of them all.

    summary.json and manifest.json share one header: the command, the
    scenario (``config`` in the manifest) and its master seed. The manifest
    adds each file's SHA-256 digest and size, and the wall-clock timing.
    """
    header = {
        "tool": "apermimo",
        "version": __version__,
        "command": command,
        "master_seed": scenario.master_seed,
    }
    config = _scenario_dict(scenario)
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
            inventory[name] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
        manifest = {
            **header,
            "config": config,
            "elapsed_seconds": round(elapsed, 3),
            "outputs": inventory,
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
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
        summary = {
            "sinrg_db": _jnum(report.sinrg_db),
            "psc_db": _jnum(report.psc_db),
            "sr_gain_fraction": _jnum(report.sr_gain_fraction),
            "aperiodic": _simulation_summary(report.aperiodic),
            "regular": _simulation_summary(report.regular),
        }
        files = {
            "cdf_aperiodic.csv": _cdf_csv(report.aperiodic.sinr_cdf),
            "cdf_regular.csv": _cdf_csv(report.regular.sinr_cdf),
            "power_aperiodic.csv": _power_csv(report.aperiodic),
            "power_regular.csv": _power_csv(report.regular),
            "layout_aperiodic.csv": layout_csv_text(report.aperiodic.layout),
            "layout_regular.csv": layout_csv_text(report.regular.layout),
        }
    elif isinstance(report, engine.SimulationReport):
        command = "simulate"
        summary = _simulation_summary(report)
        files = {
            "cdf.csv": _cdf_csv(report.sinr_cdf),
            "power.csv": _power_csv(report),
            "layout.csv": layout_csv_text(report.layout),
        }
    else:
        raise TypeError(f"cannot emit reports for {type(report).__name__}")
    return _write_outputs(out_dir, command, report.scenario, summary, files, elapsed)


# ---------------------------------------------------------------- commands


def _cmd_simulate(ns) -> int:
    scenario = _build_scenario(_scenario_values_from_args(ns))
    layout = read_layout_csv(ns.layout) if ns.layout else None
    started = time.perf_counter()
    report = engine.run_simulation(scenario, layout, workers=ns.workers)
    emit_reports(report, ns.out, elapsed=time.perf_counter() - started)
    print(f"simulate: wrote results to {ns.out}")
    return EXIT_OK


def _cmd_synthesize(ns) -> int:
    scenario = _build_scenario(_scenario_values_from_args(ns))
    started = time.perf_counter()
    profile = synthesis.reference_profile(
        scenario,
        dense_oversampling=ns.oversampling,
        realizations=ns.synthesis_realizations
        or synthesis.DEFAULT_SYNTHESIS_REALIZATIONS,
        workers=ns.workers,
    )
    layout = synthesis.density_taper(profile, scenario.M)
    summary = {
        "dense_oversampling": ns.oversampling,
        "synthesis_realizations": ns.synthesis_realizations
        or synthesis.DEFAULT_SYNTHESIS_REALIZATIONS,
        "num_dense_elements": int(profile.positions.size),
        "min_spacing_lambda": _jnum(float(np.min(np.diff(layout.positions)))),
    }
    files = {
        "layout.csv": layout_csv_text(layout),
        "mu_profile.csv": _profile_csv(profile),
    }
    _write_outputs(ns.out, "synthesize", scenario, summary, files,
                   time.perf_counter() - started)
    print(f"synthesize: wrote layout and profile to {ns.out}")
    return EXIT_OK


def _cmd_compare(ns) -> int:
    scenario = _build_scenario(_scenario_values_from_args(ns))
    aperiodic = read_layout_csv(ns.layout) if ns.layout else None
    started = time.perf_counter()
    report = engine.compare_layouts(
        scenario,
        aperiodic=aperiodic,
        workers=ns.workers,
        dense_oversampling=ns.oversampling,
        synthesis_realizations=ns.synthesis_realizations,
    )
    emit_reports(report, ns.out, elapsed=time.perf_counter() - started)
    print(
        f"compare: SINRG {report.sinrg_db:+.2f} dB, PSC {report.psc_db:+.2f} dB, "
        f"SR gain {100 * report.sr_gain_fraction:+.1f}%; results in {ns.out}"
    )
    return EXIT_OK


def _parse_grid_list(text: str, kind, name: str):
    try:
        items = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--{name}: expected comma-separated values, got {text!r}")
    if not items:
        raise ConfigError(f"--{name}: needs at least one value")
    return items


def _cmd_sweep(ns) -> int:
    values = _scenario_values_from_args(ns)
    if "M" in values or "K" in values:
        raise ConfigError(
            "sweep takes sizes from --bs-counts/--crowdedness, not M/K"
        )
    bs_counts = _parse_grid_list(ns.bs_counts, int, "bs-counts")
    crowd = _parse_grid_list(ns.crowdedness, float, "crowdedness")
    for frac in crowd:
        if not 0.0 < frac <= 1.0:
            raise ConfigError(
                f"--crowdedness: fractions must be in (0, 1], got {frac}"
            )
    base = None
    for m in bs_counts:
        for frac in crowd:
            k = int(round(frac * m))
            if 1 <= k <= m:
                base = _build_scenario({**values, "M": int(m), "K": k})
                break
        if base:
            break
    if base is None:
        raise ConfigError("no feasible (M, K) grid point in the sweep")
    started = time.perf_counter()
    rows = engine.sweep(
        base,
        bs_counts,
        crowd,
        workers=ns.workers,
        dense_oversampling=ns.oversampling,
        synthesis_realizations=ns.synthesis_realizations,
    )
    summary = {
        "bs_counts": bs_counts,
        "crowdedness": [_jnum(f) for f in crowd],
        "rows": [
            {
                "M": r.M,
                "K": r.K,
                "crowdedness": _jnum(r.crowdedness),
                "sinrg_db": _jnum(r.sinrg_db),
                "psc_db": _jnum(r.psc_db),
                "sr_gain_fraction": _jnum(r.sr_gain_fraction),
                "valid": r.valid,
            }
            for r in rows
        ],
    }
    files = {"sweep.csv": _sweep_csv(rows)}
    _write_outputs(ns.out, "sweep", base, summary, files, time.perf_counter() - started)
    print(f"sweep: wrote {len(rows)} grid points to {ns.out}")
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _add_scenario_flags(sub, with_mk=True):
    if with_mk:
        sub.add_argument("--M", type=int, help="base-station element count")
        sub.add_argument("--K", type=int, help="number of simultaneous users")
    sub.add_argument("--waves-per-ue", dest="waves_per_ue", type=int,
                     help="plane waves per user, 1..20")
    sub.add_argument("--aperture", type=float, help="aperture in wavelengths")
    sub.add_argument("--snr-db", dest="snr_db", type=float,
                     help="average per-user SNR in dB")
    sub.add_argument("--realizations", type=int, help="Monte-Carlo repetitions")
    sub.add_argument("--link", choices=engine.LINKS, help="link direction")
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--seed", type=int, help="master seed (64-bit)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes (default 1)")
    sub.add_argument("--out", required=True, help="output directory")


def _add_synthesis_flags(sub):
    sub.add_argument("--oversampling", type=int,
                     default=synthesis.DEFAULT_OVERSAMPLING,
                     help="dense reference elements per wavelength")
    sub.add_argument("--synthesis-realizations", dest="synthesis_realizations",
                     type=int, default=None,
                     help="realizations for the dense reference run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apermimo",
        description="Monte-Carlo MU-MIMO link simulation and aperiodic "
        "array synthesis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="evaluate one layout")
    _add_scenario_flags(sim)
    sim.add_argument("--layout", help="layout CSV to simulate (default regular)")
    sim.set_defaults(func=_cmd_simulate)

    syn = subs.add_parser("synthesize", help="emit an aperiodic layout")
    _add_scenario_flags(syn)
    _add_synthesis_flags(syn)
    syn.set_defaults(func=_cmd_synthesize)

    cmp_ = subs.add_parser("compare", help="aperiodic versus regular")
    _add_scenario_flags(cmp_)
    _add_synthesis_flags(cmp_)
    cmp_.add_argument("--layout", help="use this aperiodic layout CSV instead "
                      "of synthesizing one")
    cmp_.set_defaults(func=_cmd_compare)

    swp = subs.add_parser("sweep", help="grid over sizes and crowdedness")
    _add_scenario_flags(swp, with_mk=False)
    _add_synthesis_flags(swp)
    swp.add_argument("--bs-counts", dest="bs_counts", required=True,
                     help="comma-separated element counts, e.g. 16,32,64")
    swp.add_argument("--crowdedness", required=True,
                     help="comma-separated user fractions, e.g. 0.1,0.25,0.3")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
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
