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
], ids=["simulate", "synthesize", "compare", "sweep"])
def test_workers_below_one_is_config_error(tmp_path, capsys, argv):
    code = _run(argv + ["--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "config-error" in capsys.readouterr().err
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
    # two elements where the scenario has four, on the scenario's aperture
    layout = ArrayLayout(np.array([0.0, 3.0]))
    path = tmp_path / "two.csv"
    path.write_text(layout_csv_text(layout))
    code = _run(["simulate", "--M", "4", "--K", "2", "--realizations", "1500",
                 "--layout", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_RUNTIME
    assert "engine-error" in capsys.readouterr().err


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


@pytest.mark.parametrize("target", [("channel", "wave_field"), ("engine", "_simulate_block")],
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
    with pytest.raises(SystemExit) as exc:
        _run(grid + ["--aperture", "7", "--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_CONFIG
    assert "--aperture" in capsys.readouterr().err
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
            "manifest.json": "bb2fa8fe0b9ae6e282ae6d1c5a1b04199383aee38fd682c2efa08f8deed394eb",
            "power.csv": "24501610538498d8e3b391c8589683a4fa697b287c048e64ed5ffd89d82c101c",
            "summary.json": "9e3b6d4e7c3ba936cecf2722bfa27bc43cd042529841d442ed0a7a431cd1c9b8",
        },
    ),
    "simulate-downlink": (
        ["simulate", "--M", "5", "--K", "2", "--aperture", "3.5", "--link", "downlink",
         "--snr-db", "10", "--realizations", "1200", "--seed", "12"],
        {
            "cdf.csv": "6e755670a0211557e7fca33c42b339bd93153d48efadf9d89ada1036e2f7d588",
            "layout.csv": "8c3585b2cb8eecf958e3038c2102cc2b543e73753777eb275f1d708beffa1e9c",
            "manifest.json": "5b8cf98349cec719572a32e4c8679e8619cfdd26b813a828acb901a0e88b5b2b",
            "power.csv": "0a1c577331cfb4aed1e4d8f9690a09f52e1302144edb6d52b149a2ad661595b6",
            "summary.json": "efa8da3bba5607b27ed2deb471d22af6a81f2392e539747bd8cc33f119e3cbed",
        },
    ),
    "synthesize": (
        ["synthesize", "--M", "6", "--K", "2", "--oversampling", "2",
         "--synthesis-realizations", "1200", "--seed", "13"],
        {
            "layout.csv": "f6ea5431cdcb8d7ad620553c816a34e5d91159bc22b2b071b26bd7b1b6cd1de3",
            "manifest.json": "64f22127611f66b728311d99af204815df2ab1c49f45b3acf6a443b061f963f2",
            "mu_profile.csv": "29247b75082c2462e0843901dcbab882f1ec2e55470ea3a549e2735cc313e26a",
            "summary.json": "43726297d1c385e9157b05dcecedf0a76c33c8752627df220b9b57d34e3a4a8c",
        },
    ),
    "compare": (
        ["compare", "--M", "6", "--K", "2", "--waves-per-ue", "2", "--oversampling", "2",
         "--synthesis-realizations", "1200", "--realizations", "1200", "--seed", "14"],
        {
            "cdf_aperiodic.csv": "65e374a5094b3adc6991daeb529f52357f306e8952919fe1d781eedb1dc4556b",
            "cdf_regular.csv": "3a89017a788d6054896f3c94aa587a4570b9fea9485f4673214e114b3c9863ec",
            "layout_aperiodic.csv": "393366c15d6a2122d94497fe2b6ad6a635c856f228a24e8030a02c7c02705e43",
            "layout_regular.csv": "1302ae728be9b2ba7cc1f49cd0f3d46fb0aad6a88b9169729524aa1cf88e1241",
            "manifest.json": "20b1b730e255e741adad8436b3e056610d39ce5ad24a93a22c9bdaae5332af28",
            "power_aperiodic.csv": "a1b2b7f1c6ca94430f817cf51c032a1b090628b5220b9891ff768631a4470bb8",
            "power_regular.csv": "508e3dc4936968073fceddf56036925dd7b8c5a9e0765cfc59e7bd7c65f03f82",
            "summary.json": "4f74372b057b6c8d56357b3e072ed25d46c758f12c9ab016c9f0a27ff55a68b6",
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
