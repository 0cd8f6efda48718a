import hashlib
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apermimo
from apermimo import cli
from apermimo.arrays import ArrayLayout, layout_csv_text, read_layout_csv
from apermimo.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    main,
)
from apermimo.engine import LINKS, ScenarioConfig, run_simulation


def _run(argv):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(argv)


def _forbid_draws(monkeypatch, message):
    """Make any simulation run from now on fail the test with ``message``."""
    def no_draws(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(cli.engine, "run_simulation", no_draws)


def _read(path):
    return path.read_bytes()


def _parse_config(text):
    """A validated scenario from key=value configuration text."""
    return cli._build_scenario(cli.config_values(text))


# ---------------------------------------------------------------- config


def test_parse_config_basic():
    sc = _parse_config("M=8\nK=2\nwaves_per_ue=1")
    assert sc.M == 8 and sc.K == 2 and sc.waves_per_ue == 1
    assert sc.aperture == 7.0
    assert sc.snr_db == 0.0
    assert sc.realizations == 100_000


def test_parse_config_comments_and_blanks():
    sc = _parse_config("# setup\nM=4\n\nK=2  # two users\nsnr_db=-3.0\n")
    assert sc.M == 4 and sc.K == 2
    assert sc.snr_db == pytest.approx(-3.0)


def test_parse_config_too_many_users():
    with pytest.raises(ConfigError, match="M"):
        _parse_config("M=4\nK=8")


def test_parse_config_waves_out_of_range():
    with pytest.raises(ConfigError, match="waves_per_ue"):
        _parse_config("M=8\nK=2\nwaves_per_ue=50")


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="frequency"):
        _parse_config("M=8\nK=2\nfrequency=3.5")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        _parse_config("M=8\nM=9\nK=2")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match="line 2"):
        _parse_config("M=8\njunk line\nK=2")


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="K"):
        _parse_config("M=8")


# One valid scenario key set: M and K, plus any of the optional keys.
_OPTIONAL_KEYS = {
    "waves_per_ue": st.integers(1, 20),
    "aperture": st.floats(1e-3, 1e3),
    "snr_db": st.floats(-200.0, 200.0),
    "realizations": st.integers(1, 10**9),
    "master_seed": st.integers(0, 2**64 - 1),
    "link": st.sampled_from(LINKS),
}


@st.composite
def _key_sets(draw):
    m = draw(st.integers(2, 512))
    values = {"M": m, "K": draw(st.integers(1, m))}
    values.update(draw(st.fixed_dictionaries({}, optional=_OPTIONAL_KEYS)))
    return draw(st.permutations(list(values.items())))


def _config_text(items):
    return "".join(f"{key}={value}\n" for key, value in items)


def _scenario_from_flags(items):
    flags = [f"{cli._SCENARIO_KEYS[key][0]}={value}" for key, value in items]
    ns = cli.build_parser().parse_args(["simulate", *flags, "--out", "unused"])
    return cli._build_scenario(cli._scenario_values(ns))


@pytest.mark.parametrize("value", ["-1e-05", "-2E1", "-.5e1", "-3", "-0.25"])
def test_negative_flag_values_parse(value):
    """A negative value after its flag parses as with the flag=value form."""
    def scenario(*flags):
        ns = cli.build_parser().parse_args(["simulate", "--M", "4", "--K", "2", *flags,
                                            "--out", "unused"])
        return cli._build_scenario(cli._scenario_values(ns))

    sc = scenario("--snr-db", value)
    assert sc == scenario(f"--snr-db={value}")
    assert sc.snr_db == float(value)


@settings(max_examples=200, deadline=None)
@given(_key_sets())
def test_config_text_and_flags_parse_alike(items):
    from_text = _parse_config(_config_text(items))
    assert from_text == _scenario_from_flags(items)
    assert from_text == ScenarioConfig(**dict(items))


@settings(max_examples=100, deadline=None)
@given(_key_sets(), st.data())
def test_config_duplicate_key_is_rejected(items, data):
    key, value = data.draw(st.sampled_from(items))
    at = data.draw(st.integers(0, len(items)))
    with pytest.raises(ConfigError, match="duplicate key"):
        _parse_config(_config_text([*items[:at], (key, value), *items[at:]]))


@settings(max_examples=100, deadline=None)
@given(_key_sets(), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True), st.data())
def test_config_unknown_key_is_rejected(items, key, data):
    if key in cli._SCENARIO_KEYS:
        return
    at = data.draw(st.integers(0, len(items)))
    with pytest.raises(ConfigError, match="unknown key"):
        _parse_config(_config_text([*items[:at], (key, "1"), *items[at:]]))


# -------------------------------------------------------------- simulate


@pytest.fixture()
def sim_args():
    return [
        "simulate",
        "--M", "4", "--K", "2",
        "--waves-per-ue", "1",
        "--realizations", "1500",
        "--seed", "123",
    ]


def test_simulate_writes_outputs(tmp_path, sim_args, capsys):
    out = tmp_path / "run"
    assert _run(sim_args + ["--out", str(out)]) == EXIT_OK
    for name in ("summary.json", "cdf.csv", "power.csv", "layout.csv", "manifest.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["master_seed"] == 123
    assert summary["scenario"]["M"] == 4
    assert summary["command"] == "simulate"
    assert "sum_rate" in summary and "power_spread_db" in summary
    assert "wrote results" in capsys.readouterr().out


def test_cdf_csv_bytes(tmp_path, sim_args):
    """cdf.csv is the 9-digit cumulative histogram of the run, one line per bin."""
    out = tmp_path / "run"
    assert _run(sim_args + ["--out", str(out)]) == EXIT_OK
    sc = ScenarioConfig(M=4, K=2, waves_per_ue=1, realizations=1500, master_seed=123)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        counts = run_simulation(sc).sinr_cdf.counts
    cum = np.cumsum(counts) / counts.sum()
    centers = -40.0 + (np.arange(counts.size) + 0.5) * 0.01
    expected = "sinr_db,cdf\n" + "".join(
        f"{c:.9g},{f:.9g}\n" for c, f in zip(centers, cum)
    )
    assert _read(out / "cdf.csv") == expected.encode()


@pytest.mark.parametrize("snr_db", ["-60", "100"])
def test_percentile_in_a_clamped_edge_bin_reads_nan(tmp_path, sim_args, snr_db):
    """At -60 dB SNR the 5th percentile lies below the histogram's -40 dB
    floor, at 100 dB above its 60 dB ceiling: the edge bin's centre
    (-39.995 or 59.995) is a bound, not a measurement."""
    out = tmp_path / "run"
    assert _run(sim_args + ["--snr-db", snr_db, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sinr_p05_db"] == "nan"


def test_csv_cells_by_column_dtype():
    """Floats at 9 significant digits with nan and +-inf as words, integers in
    full, booleans as true/false; sweep rows arrive as tuples of Python values."""
    text = cli._csv(
        ("x", "n", "ok", "g"),
        np.array([np.nan, np.inf, -np.inf, 1 / 3]),
        range(2**40, 2**40 + 4),
        (True, False, np.True_, False),
        (float("nan"), -0.5, 2.0, 1e-12),
    )
    assert text == (
        "x,n,ok,g\n"
        "nan,1099511627776,true,nan\n"
        "inf,1099511627777,false,-0.5\n"
        "-inf,1099511627778,true,2\n"
        "0.333333333,1099511627779,false,1e-12\n"
    )


def test_manifest_digests_match_files(tmp_path, sim_args):
    out = tmp_path / "run"
    assert _run(sim_args + ["--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 123
    for name, entry in manifest["outputs"].items():
        data = _read(out / name)
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_rerun_is_byte_identical(tmp_path, sim_args):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert _run(sim_args + ["--out", str(out1)]) == EXIT_OK
    assert _run(sim_args + ["--out", str(out2)]) == EXIT_OK
    for name in ("summary.json", "cdf.csv", "power.csv", "layout.csv"):
        assert _read(out1 / name) == _read(out2 / name)
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]  # only timing may differ


def test_workers_do_not_change_outputs(tmp_path):
    base = [
        "simulate", "--M", "4", "--K", "2", "--realizations", "9000",
        "--seed", "9", "--waves-per-ue", "2",
    ]
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert _run(base + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
    assert _run(base + ["--workers", "2", "--out", str(out2)]) == EXIT_OK
    for name in ("summary.json", "cdf.csv", "power.csv", "layout.csv"):
        assert _read(out1 / name) == _read(out2 / name)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("M=4\nK=2\nrealizations=1500\nmaster_seed=77\n")
    out = tmp_path / "out"
    code = _run(["simulate", "--config", str(cfg), "--realizations", "1200",
                 "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"]["realizations"] == 1200  # flag wins
    assert summary["master_seed"] == 77


def test_simulate_with_layout_file(tmp_path):
    layout = ArrayLayout(np.array([0.0, 0.9, 2.2, 3.0]))
    path = tmp_path / "layout.csv"
    path.write_text(layout_csv_text(layout))
    out = tmp_path / "out"
    code = _run(["simulate", "--M", "4", "--K", "2", "--realizations", "1500",
                 "--aperture", "3", "--layout", str(path), "--out", str(out)])
    assert code == EXIT_OK
    echoed = read_layout_csv(out / "layout.csv")
    np.testing.assert_array_equal(echoed.positions, layout.positions)


# ---------------------------------------------------------- exit statuses


def test_config_error_exit_code(tmp_path, capsys):
    code = _run(["simulate", "--M", "2", "--K", "8",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "config-error" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    code = _run(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "config-error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--M", "4", "--K", "2", "--workers", "0"],
    ["synthesize", "--M", "4", "--K", "2", "--workers", "0"],
    ["compare", "--M", "4", "--K", "2", "--workers", "0"],
    ["sweep", "--bs-counts", "8", "--crowdedness", "0.25", "--workers", "-1"],
    ["simulate", "--M", "4", "--K", "2", "--workers", "x"],
    ["sweep", "--bs-counts", "8", "--crowdedness", "0.25", "--workers", "1.5"],
], ids=["simulate", "synthesize", "compare", "sweep", "not-a-number", "fraction"])
def test_workers_below_one_is_config_error(tmp_path, capsys, monkeypatch, argv):
    # a malformed count fails the same way, through the one number parser
    _forbid_draws(monkeypatch, "a run started with an invalid --workers")
    code = _run(argv + ["--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:config-error: key 'workers': " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flags", [
    ["--oversampling", "1"],
    ["--synthesis-realizations", "-5"],
    ["--synthesis-realizations", "0"],
], ids=["oversampling-1", "synthesis-realizations-negative", "synthesis-realizations-zero"])
@pytest.mark.parametrize("command", ["synthesize", "compare", "sweep"])
def test_synthesis_flags_are_validated(tmp_path, capsys, command, flags):
    # these used to fail inside the engine (exit 3) or, for 0, to run the
    # 100 000-draw default; now they are configuration errors, caught early
    sizes = (["--bs-counts", "4", "--crowdedness", "0.5"] if command == "sweep"
             else ["--M", "4", "--K", "2"])
    code = _run([command, *sizes, *flags, "--realizations", "1200",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:config-error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory\n")
    code = _run(["simulate", "--M", "4", "--K", "2", "--realizations", "1500",
                 "--out", str(blocker / "sub")])
    assert code == EXIT_RUNTIME
    assert "io-error" in capsys.readouterr().err


def test_engine_error_exit_code(tmp_path, capsys):
    # a valid layout, but 400 draws of 2 users are too few samples for a gain
    path = tmp_path / "four.csv"
    path.write_text(layout_csv_text(ArrayLayout(np.array([0.0, 0.9, 2.2, 3.0]))))
    code = _run(["compare", "--M", "4", "--K", "2", "--realizations", "400",
                 "--layout", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "error:engine-error: aperiodic CDF has 800 samples, need at least 1000" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--M", "4", "--K", "2", "--bogus", "1", "--out", "x"], "--bogus"),
    (["sweep", "--crowdedness", "0.5", "--out", "x"], "--bs-counts"),
    (["simulate", "--M", "4", "--K", "2"], "--out"),
    ([], "command"),
], ids=["unknown-flag", "missing-bs-counts", "missing-out", "no-command"])
def test_argparse_errors_are_config_errors(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:config-error: ") and named in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["--version"], ["sweep", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_single_element_array_is_config_error(tmp_path, capsys, command):
    code = _run([command, "--M", "1", "--K", "1", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:config-error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# A worker that dies mid-run: ``target`` (module, attribute) is replaced by
# a function that calls os._exit in any process but the one that ran main.
_DYING_WORKER = """
import os, sys
from apermimo import channel, cli, engine

parent = os.getpid()
owner = {"channel": channel, "engine": engine}[sys.argv[1]]
real = getattr(owner, sys.argv[2])

def dies_in_worker(*args, **kwargs):
    if os.getpid() != parent:
        os._exit(1)
    return real(*args, **kwargs)

setattr(owner, sys.argv[2], dies_in_worker)
sys.exit(cli.main(sys.argv[3:]))
"""


def _python(code, *args, timeout=60):
    """Run ``python -c code args`` with the package on its path; kill it and
    every worker it forked on timeout."""
    src = str(Path(apermimo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"python -c still running after {timeout} s")
    return proc.returncode, out, err


# calibration draws its waves on every path (at L = 1 it builds no field), and
# its tasks reach the pool before any block
@pytest.mark.parametrize("target", [("channel", "sample_wave_blocks"),
                                    ("engine", "_simulate_block")],
                         ids=["in-calibration", "in-block"])
def test_dead_worker_is_engine_error(tmp_path, target):
    code, _, err = _python(_DYING_WORKER, *target, "simulate", "--M", "4", "--K", "2",
                           "--realizations", "5000", "--workers", "2",
                           "--out", str(tmp_path / "x"))
    assert code == EXIT_RUNTIME, err
    assert "error:engine-error" in err
    assert "terminated abruptly" in err


def test_cli_import_does_not_load_the_process_pool():
    # concurrent.futures costs ~20 ms to import; only a forking run needs it
    code, out, err = _python("import sys, apermimo.cli; "
                             "print('concurrent.futures' in sys.modules)")
    assert (code, out) == (0, "False\n"), err


# -------------------------------------------------------------- synthesize


def test_synthesize_round_trip(tmp_path):
    out = tmp_path / "syn"
    code = _run(["synthesize", "--M", "4", "--K", "2", "--realizations", "1500",
                 "--seed", "11", "--oversampling", "2",
                 "--synthesis-realizations", "2000", "--out", str(out)])
    assert code == EXIT_OK
    layout = read_layout_csv(out / "layout.csv")
    assert len(layout) == 4
    assert layout.positions[0] == 0.0
    assert layout.positions[-1] == pytest.approx(3.0)
    # writing the parsed layout again reproduces the file byte-for-byte
    again = tmp_path / "again.csv"
    again.write_text(layout_csv_text(layout))
    assert _read(again) == _read(out / "layout.csv")
    profile = (out / "mu_profile.csv").read_text().splitlines()
    assert profile[0] == "position_lambda,mu"
    assert len(profile) == 1 + int(round(3.0 * 2)) + 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "synthesize"
    assert summary["num_dense_elements"] == 7


# ------------------------------------------------------------ layout files


def _write_layout(tmp_path, positions):
    path = tmp_path / "layout.csv"
    path.write_text(layout_csv_text(ArrayLayout(np.array(positions))))
    return path


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_layout_off_the_scenario_aperture_is_refused(tmp_path, capsys, command):
    # a 10-wavelength layout against the 3-wavelength default of M=4
    path = _write_layout(tmp_path, [0.0, 2.5, 7.0, 10.0])
    code = _run([command, "--M", "4", "--K", "2", "--realizations", "1200",
                 "--layout", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:config-error" in err and "--layout" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_layout_with_the_wrong_element_count_is_refused(tmp_path, capsys, command):
    # two elements on the scenario's 3-wavelength aperture, where M=4
    path = _write_layout(tmp_path, [0.0, 3.0])
    code = _run([command, "--M", "4", "--K", "2", "--realizations", "1200",
                 "--layout", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:config-error" in err and "2 elements" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", [None, "position_lambda\n0.0\nthree\n", "x\n0.0\n",
                                  "position_lambda\n", "position_lambda\n0.0\n2.0\n1.0\n",
                                  "position_lambda\n0.0\n"],
                         ids=["missing", "bad-number", "bad-header", "empty", "unsorted",
                              "one-element"])
def test_unreadable_layout_is_config_error(tmp_path, capsys, text):
    # simulate and compare read --layout through the same helper
    path = tmp_path / "layout.csv"
    if text is not None:
        path.write_text(text)
    code = _run(["simulate", "--M", "4", "--K", "2", "--realizations", "1200",
                 "--layout", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:config-error: --layout" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_synthesized_layout_is_accepted_back(tmp_path, command):
    # at 2.8 wavelengths and 2 elements per wavelength the dense reference
    # ends at 6 * 2.8 / 6 = 2.7999999999999994, and so does the layout
    scenario = ["--M", "4", "--K", "2", "--aperture", "2.8", "--realizations", "1200"]
    syn = tmp_path / "syn"
    assert _run(["synthesize", *scenario, "--oversampling", "2",
                 "--synthesis-realizations", "1200", "--out", str(syn)]) == EXIT_OK
    assert read_layout_csv(syn / "layout.csv").positions[-1] != 2.8
    code = _run([command, *scenario, "--layout", str(syn / "layout.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_OK


# ----------------------------------------------------------------- compare


def test_compare_with_explicit_layout(tmp_path):
    regular = ArrayLayout(np.arange(4.0))
    path = tmp_path / "reg.csv"
    path.write_text(layout_csv_text(regular))
    out = tmp_path / "cmp"
    code = _run(["compare", "--M", "4", "--K", "2", "--realizations", "1500",
                 "--seed", "21", "--layout", str(path), "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "compare"
    # the supplied layout is used verbatim, so the comparison is null
    assert summary["sinrg_db"] == 0.0
    assert summary["psc_db"] == 0.0
    echoed = read_layout_csv(out / "layout_aperiodic.csv")
    np.testing.assert_array_equal(echoed.positions, regular.positions)
    for name in ("cdf_aperiodic.csv", "cdf_regular.csv",
                 "power_aperiodic.csv", "power_regular.csv"):
        assert (out / name).exists()
    assert _read(out / "cdf_aperiodic.csv") == _read(out / "cdf_regular.csv")


def test_compare_runs_the_layout_that_synthesize_writes(tmp_path):
    # without --layout, compare synthesizes exactly as synthesize does
    flags = ["--M", "4", "--K", "1", "--waves-per-ue", "2", "--realizations", "1200",
             "--seed", "99", "--oversampling", "4", "--synthesis-realizations", "10000"]
    syn, cmp = tmp_path / "syn", tmp_path / "cmp"
    assert _run(["synthesize", *flags, "--out", str(syn)]) == EXIT_OK
    assert _run(["compare", *flags, "--out", str(cmp)]) == EXIT_OK
    assert _read(cmp / "layout_aperiodic.csv") == _read(syn / "layout.csv")


def test_compare_with_layout_still_checks_synthesis_flags(tmp_path, capsys):
    path = _write_layout(tmp_path, [0.0, 0.9, 2.2, 3.0])
    code = _run(["compare", "--M", "4", "--K", "2", "--realizations", "1200",
                 "--layout", str(path), "--oversampling", "1",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:config-error: key 'oversampling'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ------------------------------------------------------------------- sweep


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "swp"
    code = _run(["sweep", "--bs-counts", "4,6", "--crowdedness", "0.5",
                 "--realizations", "1200", "--synthesis-realizations", "1200",
                 "--oversampling", "2", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "M,K,crowdedness,sinrg_db,psc_db,sr_gain_fraction,valid"
    assert len(lines) == 3
    assert lines[1].startswith("4,2,")
    assert lines[2].startswith("6,3,")
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["rows"]) == 2
    assert summary["rows"][0]["M"] == 4


@pytest.mark.parametrize("argv", [
    ["simulate", "--M", "4", "--K", "2"],
    ["synthesize", "--M", "4", "--K", "2", "--oversampling", "2",
     "--synthesis-realizations", "1200"],
    ["compare", "--M", "4", "--K", "2", "--oversampling", "2",
     "--synthesis-realizations", "1200"],
    ["sweep", "--bs-counts", "4", "--crowdedness", "0.5", "--oversampling", "2",
     "--synthesis-realizations", "1200"],
], ids=["simulate", "synthesize", "compare", "sweep"])
def test_summary_and_manifest_share_header(tmp_path, argv):
    out = tmp_path / "out"
    assert _run(argv + ["--realizations", "1200", "--seed", "5", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert summary["command"] == manifest["command"] == argv[0]
    assert summary["master_seed"] == manifest["master_seed"] == 5
    assert summary["scenario"] == manifest["config"]
    assert summary["scenario"]["master_seed"] == 5


def test_sweep_rejects_explicit_mk(tmp_path, capsys):
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text("M=8\nK=2\n")
    code = _run(["sweep", "--bs-counts", "4", "--crowdedness", "0.5",
                 "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "config-error" in capsys.readouterr().err


def test_sweep_rejects_aperture(tmp_path, capsys):
    # every sweep point spans M - 1 wavelengths: neither the flag nor the
    # config key may set another aperture
    grid = ["sweep", "--bs-counts", "4", "--crowdedness", "0.5"]
    code = _run(grid + ["--aperture", "7", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:config-error" in err and "--aperture" in err
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("aperture=7\n")
    code = _run(grid + ["--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:config-error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_validates_crowdedness(tmp_path):
    code = _run(["sweep", "--bs-counts", "4", "--crowdedness", "1.5",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


_SMALL_SWEEP = ["--realizations", "1200", "--synthesis-realizations", "1200",
                "--oversampling", "2", "--seed", "3"]


def test_sweep_skips_infeasible_points(tmp_path):
    out = tmp_path / "swp"
    with pytest.warns(RuntimeWarning, match=r"skipping infeasible sweep point M=4, "
                      r"crowdedness=0\.01 \(K=0\)"), \
            pytest.warns(RuntimeWarning, match="recommended"):
        code = main(["sweep", "--bs-counts", "4", "--crowdedness", "0.01,0.5",
                     *_SMALL_SWEEP, "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert [(r["M"], r["K"], r["crowdedness"]) for r in summary["rows"]] == [(4, 2, 0.5)]
    assert (summary["scenario"]["M"], summary["scenario"]["K"]) == (4, 2)


def test_sweep_sets_k_by_rounding(tmp_path):
    out = tmp_path / "swp"
    code = _run(["sweep", "--bs-counts", "8,16", "--crowdedness", "0.3",
                 *_SMALL_SWEEP, "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["8", "2", "0.3"], ["16", "5", "0.3"]]


def test_sweep_builds_every_point_before_the_first_draw(tmp_path, capsys, monkeypatch):
    # M=1 at crowdedness 1.0 is K=1 on a single element: refused up front,
    # before the M=4 point's dense reference or comparison runs
    _forbid_draws(monkeypatch, "a sweep point ran before the grid was validated")
    code = _run(["sweep", "--bs-counts", "4,1", "--crowdedness", "1.0",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "error:config-error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _count_comparisons(monkeypatch):
    """The scenarios of every compare_layouts call the CLI makes from now on."""
    calls = []
    real = cli.engine.compare_layouts

    def counting(scenario, *args, **kwargs):
        calls.append(scenario)
        return real(scenario, *args, **kwargs)

    monkeypatch.setattr(cli.engine, "compare_layouts", counting)
    return calls


@pytest.mark.parametrize("grid, message", [
    (["--bs-counts", "4,4", "--crowdedness", "0.5"], "--bs-counts: repeats a value"),
    (["--bs-counts", "4", "--crowdedness", "0.5,0.50"], "--crowdedness: repeats a value"),
    (["--bs-counts", "4,x", "--crowdedness", "0.5"],
     "key 'bs_counts': expected an integer, got 'x'"),
    (["--bs-counts", "4", "--crowdedness", "0.5,y"],
     "key 'crowdedness': expected a number, got 'y'"),
    (["--bs-counts", "0,4", "--crowdedness", "0.5"], "key 'bs_counts': must be at least 2"),
], ids=["repeated-bs-counts", "repeated-crowdedness", "malformed-bs-counts",
        "malformed-crowdedness", "bs-counts-below-two"])
def test_sweep_refuses_a_bad_grid_value(tmp_path, capsys, monkeypatch, grid, message):
    _forbid_draws(monkeypatch, "a sweep point ran before the grid was validated")
    code = _run(["sweep", *grid, *_SMALL_SWEEP, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert f"error:config-error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("sizes, message", [
    (["--M", "20", "--K", "19", "--aperture", "2"],
     "dense reference of 17 elements (8 per wavelength over an aperture of 2.0): need "
     "at least as many elements as users, got M=17 < K=19"),
    (["--M", "40", "--K", "2", "--aperture", "1"],
     "cannot fit 40 elements with 0.05 wavelength separation into an aperture of 1.0"),
], ids=["dense-reference-below-k", "elements-do-not-fit"])
@pytest.mark.parametrize("command", ["synthesize", "compare"])
def test_synthesis_refused_before_the_first_draw(tmp_path, capsys, monkeypatch, command,
                                                 sizes, message):
    # both used to fail inside the engine (exit 3), the second only after
    # the whole dense reference run
    _forbid_draws(monkeypatch, "a run started for a scenario that cannot be synthesized")
    code = _run([command, *sizes, "--synthesis-realizations", "2000",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert f"error:config-error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_runs_a_shared_point_once(tmp_path, monkeypatch):
    # 0.25 and 0.3 of M=4 both round to K=1: one run, one row per fraction
    calls = _count_comparisons(monkeypatch)
    out = tmp_path / "swp"
    code = _run(["sweep", "--bs-counts", "4", "--crowdedness", "0.25,0.3,0.5",
                 *_SMALL_SWEEP, "--out", str(out)])
    assert code == EXIT_OK
    assert [(sc.M, sc.K) for sc in calls] == [(4, 1), (4, 2)]
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[:3] for row in rows] == [["4", "1", "0.25"], ["4", "1", "0.3"],
                                         ["4", "2", "0.5"]]
    assert rows[0][3:] == rows[1][3:]


# ------------------------------------------------------------ golden bytes

# SHA-256 of every file five small runs write; manifest.json is hashed as
# re-serialized without its one timing field. Taken with numpy 2.4.6 and
# OpenBLAS 0.3.31 on Python 3.11 (x86-64); the same bytes came out with one
# and with two BLAS threads. Another numpy or BLAS build may move the last
# bits of a figure, so a failure here on a different stack is not by itself
# a regression: compare against a run of the previous commit there.
# ``PYTHONPATH=src python3 tests/test_cli.py`` prints this table for the
# current code.
_GOLDEN_RUNS = {
    "simulate-los": (
        ["simulate", "--M", "6", "--K", "2", "--waves-per-ue", "3",
         "--realizations", "1500", "--seed", "11"],
        {
            "cdf.csv": "a46bd01f854eb0313a866c25dbd9c3c5b82c2d015f78ed701b4cf0ac12ad66ba",
            "layout.csv": "1302ae728be9b2ba7cc1f49cd0f3d46fb0aad6a88b9169729524aa1cf88e1241",
            "manifest.json": "fb0d2bded9243c16fd88cb5a2d19eda9e42d39e406f9df92f9ec379ae0f68b32",
            "power.csv": "24501610538498d8e3b391c8589683a4fa697b287c048e64ed5ffd89d82c101c",
            "summary.json": "e5c85c0aa1dc8833b68ba5e49f51cbcc96db85009d22569bc2a1241314638553",
        },
    ),
    "simulate-downlink": (
        ["simulate", "--M", "5", "--K", "2", "--aperture", "3.5", "--link", "downlink",
         "--snr-db", "10", "--realizations", "1200", "--seed", "12"],
        {
            "cdf.csv": "6e755670a0211557e7fca33c42b339bd93153d48efadf9d89ada1036e2f7d588",
            "layout.csv": "8c3585b2cb8eecf958e3038c2102cc2b543e73753777eb275f1d708beffa1e9c",
            "manifest.json": "25a6074c1e0fa15b7d9464450465bd265f2e0c302227854020cbcbd6d6412fb0",
            "power.csv": "0a1c577331cfb4aed1e4d8f9690a09f52e1302144edb6d52b149a2ad661595b6",
            "summary.json": "e2744a083f6f782aad976d0e9deb0ff9a91a812bd5bee11ef9e0413025154441",
        },
    ),
    "synthesize": (
        ["synthesize", "--M", "6", "--K", "2", "--oversampling", "2",
         "--synthesis-realizations", "1200", "--seed", "13"],
        {
            "layout.csv": "918dc5839f6f7fc7a9551c069061ab7a9abc07761da147729b2eadf59823a345",
            "manifest.json": "36b154d0381cc486df0a7890e0d402395b1f3941d42549c262df70ebae098a20",
            "mu_profile.csv": "29247b75082c2462e0843901dcbab882f1ec2e55470ea3a549e2735cc313e26a",
            "summary.json": "43726297d1c385e9157b05dcecedf0a76c33c8752627df220b9b57d34e3a4a8c",
        },
    ),
    "compare": (
        ["compare", "--M", "6", "--K", "2", "--waves-per-ue", "2", "--oversampling", "2",
         "--synthesis-realizations", "1200", "--realizations", "1200", "--seed", "14"],
        {
            "cdf_aperiodic.csv": "ea20d8fe92b197f1dcbfdb10de9f7bbd3d8c9273d3536ce40cd4986d433cf826",
            "cdf_regular.csv": "3a89017a788d6054896f3c94aa587a4570b9fea9485f4673214e114b3c9863ec",
            "layout_aperiodic.csv": "03f5e237fa7a8f83f92efcdf68a07114d206a9abef4b88b91bacc516d04727f9",
            "layout_regular.csv": "1302ae728be9b2ba7cc1f49cd0f3d46fb0aad6a88b9169729524aa1cf88e1241",
            "manifest.json": "954176d90d59aa58b817db255a0fdd576741cf2108c4ccf5a276f723daafa5ff",
            "power_aperiodic.csv": "a1b2b7f1c6ca94430f817cf51c032a1b090628b5220b9891ff768631a4470bb8",
            "power_regular.csv": "508e3dc4936968073fceddf56036925dd7b8c5a9e0765cfc59e7bd7c65f03f82",
            "summary.json": "3cd99c29ba5bf638de8d72da828f4ee761f41fa79ac5cbc57e0b9cb9f66fd535",
        },
    ),
    # the first grid point (M=2, 0.1) is infeasible: the header scenario is
    # (M=2, K=1), spanning M - 1 = 1 wavelength
    "sweep": (
        ["sweep", "--bs-counts", "2,4,6", "--crowdedness", "0.1,0.5",
         "--oversampling", "2", "--synthesis-realizations", "1200",
         "--realizations", "1200", "--seed", "15"],
        {
            "manifest.json": "c280dc6f34791a6350716553ef0f5fd77e9cb747e5bef5bd556889b61e39dc5c",
            "summary.json": "05428e3df1db3bedfc67ef15089cf2ab4c7f35c2e568c61ea1c1daecb83fcad0",
            "sweep.csv": "0522eda6ff73d71d8fb2b28d5d3c673c9046dc91686e6e5ce7210a87689422be",
        },
    ),
}


def _digests(out):
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["elapsed_seconds"]
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("run", sorted(_GOLDEN_RUNS))
def test_golden_output_bytes(tmp_path, run):
    argv, expected = _GOLDEN_RUNS[run]
    out = tmp_path / run
    assert _run(argv + ["--out", str(out)]) == EXIT_OK
    assert _digests(out) == expected
    if run == "sweep":
        scenario = json.loads((out / "summary.json").read_text())["scenario"]
        assert (scenario["M"], scenario["K"], scenario["aperture"]) == (2, 1, 1.0)


def _print_golden_table():
    """Print the _GOLDEN_RUNS digests of the current code, in the table's layout.

    Run as ``PYTHONPATH=src python3 tests/test_cli.py`` to re-record the
    table: paste each run's lines over its recorded digests. A comment
    above each run counts the files whose digest changed, and each
    changed line is marked.
    """
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for run, (argv, recorded) in sorted(_GOLDEN_RUNS.items()):
            out = Path(tmp) / run
            with contextlib.redirect_stdout(io.StringIO()):
                assert _run(argv + ["--out", str(out)]) == EXIT_OK
            digests = _digests(out)
            changed = [name for name, d in digests.items() if recorded.get(name) != d]
            print(f"    # {run}: {len(changed)} of {len(digests)} digests changed")
            for name, digest in digests.items():
                mark = "  # changed" if name in changed else ""
                print(f'            "{name}": "{digest}",{mark}')


if __name__ == "__main__":
    _print_golden_table()
