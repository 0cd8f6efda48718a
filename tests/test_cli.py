import hashlib
import json

import numpy as np
import pytest

from apermimo.arrays import ArrayLayout, read_layout_csv, write_layout_csv
from apermimo.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    main,
    parse_config,
)


def _run(argv):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(argv)


def _read(path):
    return path.read_bytes()


# ---------------------------------------------------------------- config


def test_parse_config_basic():
    sc = parse_config("M=8\nK=2\nwaves_per_ue=1")
    assert sc.M == 8 and sc.K == 2 and sc.waves_per_ue == 1
    assert sc.aperture == 7.0
    assert sc.snr_db == 0.0
    assert sc.realizations == 100_000


def test_parse_config_comments_and_blanks():
    sc = parse_config("# setup\nM=4\n\nK=2  # two users\nsnr_db=-3.0\n")
    assert sc.M == 4 and sc.K == 2
    assert sc.snr_db == pytest.approx(-3.0)


def test_parse_config_too_many_users():
    with pytest.raises(ConfigError, match="M"):
        parse_config("M=4\nK=8")


def test_parse_config_waves_out_of_range():
    with pytest.raises(ConfigError, match="waves_per_ue"):
        parse_config("M=8\nK=2\nwaves_per_ue=50")


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="frequency"):
        parse_config("M=8\nK=2\nfrequency=3.5")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("M=8\nM=9\nK=2")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("M=8\njunk line\nK=2")


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="K"):
        parse_config("M=8")


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
    write_layout_csv(layout, path)
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


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory\n")
    code = _run(["simulate", "--M", "4", "--K", "2", "--realizations", "1500",
                 "--out", str(blocker / "sub")])
    assert code == EXIT_RUNTIME
    assert "io-error" in capsys.readouterr().err


def test_engine_error_exit_code(tmp_path, capsys):
    layout = ArrayLayout(np.array([0.0, 1.0]))
    path = tmp_path / "two.csv"
    write_layout_csv(layout, path)
    code = _run(["simulate", "--M", "4", "--K", "2", "--realizations", "1500",
                 "--layout", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_RUNTIME
    assert "engine-error" in capsys.readouterr().err


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
    write_layout_csv(layout, again)
    assert _read(again) == _read(out / "layout.csv")
    profile = (out / "mu_profile.csv").read_text().splitlines()
    assert profile[0] == "position_lambda,mu"
    assert len(profile) == 1 + int(round(3.0 * 2)) + 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "synthesize"
    assert summary["num_dense_elements"] == 7


# ----------------------------------------------------------------- compare


def test_compare_with_explicit_layout(tmp_path):
    regular = ArrayLayout(np.arange(4.0))
    path = tmp_path / "reg.csv"
    write_layout_csv(regular, path)
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


def test_sweep_rejects_explicit_mk(tmp_path, capsys):
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text("M=8\nK=2\n")
    code = _run(["sweep", "--bs-counts", "4", "--crowdedness", "0.5",
                 "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "config-error" in capsys.readouterr().err


def test_sweep_validates_crowdedness(tmp_path):
    code = _run(["sweep", "--bs-counts", "4", "--crowdedness", "1.5",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
