import csv
import dataclasses
import json

import numpy as np
import pytest

from cellfree.channel import ConfigError, SystemConfig
from cellfree.cli_io import (CSV_HEADER, dump_config, emit_results,
                             load_config, main, read_results)
from cellfree.pipeline import SweepRow
from cellfree.presets import PRESETS


def make_rows():
    return [
        SweepRow(scheme="MMSE+OPA+LS", axis_name="snr_grid", axis_value=5.0,
                 sum_rate_mean=0.1 + 0.2, sum_rate_se=0.0123456789012345,
                 min_sinr_db_mean=-3.21, min_sinr_db_se=0.5,
                 ber_mean=None, ber_se=None, trials=7, seed=42),
        SweepRow(scheme="ZF+UPA+NS", axis_name="snr_grid", axis_value=10.0,
                 sum_rate_mean=1.0 / 3.0, sum_rate_se=1e-300,
                 min_sinr_db_mean=12.0, min_sinr_db_se=0.0,
                 ber_mean=0.015625, ber_se=0.001, trials=7, seed=42),
    ]


# ------------------------------------------------------------- config files

def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert load_config(path) == SystemConfig()


def test_invalid_field_value_names_the_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_users = 0\n")
    with pytest.raises(ConfigError, match="num_users"):
        load_config(path)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("num_aps = 8\n\nnot a key value pair\n")
    with pytest.raises(ConfigError, match=":3:"):
        load_config(path)
    path.write_text("unknown_thing = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    # the total energy is fixed at E_tr = M rho_f, not a key
    path.write_text("num_aps = 8\ntotal_power_policy = M*rho_f\n")
    with pytest.raises(ConfigError, match=":2: unknown key 'total_power_policy'"):
        load_config(path)
    path.write_text("num_aps = banana\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_config(path)


def test_config_round_trip(tmp_path):
    cfg = dataclasses.replace(
        SystemConfig(), num_aps=24, antennas_per_ap=4, num_users=8,
        selected_aps=12, csi_quality=0.97, shadow_sigma_db=7.5,
        snr_grid_db=(0.0, 12.5, 25.0), rng_seed=987654321).validate()
    path = tmp_path / "round.cfg"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_comments_and_whitespace_are_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\nnum_aps = 48  # trailing\n\n  num_users=12\n")
    cfg = load_config(path)
    assert cfg.num_aps == 48 and cfg.num_users == 12


# ------------------------------------------------------------------ results

def test_results_header_and_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_results_are_standard_csv(tmp_path):
    path = tmp_path / "rows.csv"
    emit_results(make_rows(), path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == CSV_HEADER.split(",")
    assert len(parsed) == 3
    assert all(len(row) == 11 for row in parsed)
    assert parsed[1][7] == ""  # absent error-rate column stays empty


def test_write_read_write_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(make_rows(), p1)
    rows = read_results(p1)
    emit_results(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sidecar_provenance(tmp_path):
    path = tmp_path / "out.csv"
    emit_results(make_rows(), path, sidecar={"seed": 42, "config": {"k": 1}})
    side = json.loads((tmp_path / "out.csv.config.json").read_text())
    assert side["seed"] == 42


# ---------------------------------------------------------------------- CLI

def test_list_presets_prints_all_names(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(PRESETS)
    assert len(out) == 8


def test_every_shipped_preset_validates():
    base = SystemConfig()
    for preset in PRESETS.values():
        cfg = preset.resolve_config(base)
        assert cfg.validate() is cfg


def test_validate_subcommand(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    dump_config(SystemConfig(), good)
    assert main(["validate", "--config", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("selected_aps = 99\n")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "selected_aps" in err


@pytest.mark.parametrize("field, value", [
    ("symbol_power", "nan"), ("noise_temp_k", "inf"), ("carrier_freq_mhz", "inf"),
    ("shadow_sigma_db", "nan"), ("d1_m", "inf"), ("noise_figure_db", "nan"),
    ("area_side_m", "inf"), ("bandwidth_hz", "-inf")])
def test_validate_rejects_a_non_finite_float(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{field} = {value}\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert f"{field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    bad, out = tmp_path / "binary.cfg", tmp_path / "x.csv"
    bad.write_bytes(b"num_aps = 8\n\xff\n")
    with pytest.raises(ConfigError, match="binary.cfg"):
        load_config(bad)
    run = ["--preset", "fig-tiny-opa", "--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(bad)] + run) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err and "binary.cfg" in err
    assert not out.exists()


def test_unknown_preset_and_scheme_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--preset", "nope", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fig-learning" in err
    assert main(["run", "--preset", "fig-tiny-opa", "--out", str(out),
                 "--schemes", "FOO+OPA+LS"]) == 2
    err = capsys.readouterr().err
    assert "MMSE" in err and "ZF" in err and "CB" in err
    assert not out.exists()


@pytest.mark.parametrize("label", ["CB+APA+LS", "MMSE_CONV+APA+NS"])
def test_apa_without_the_mmse_precoder_is_a_usage_error(tmp_path, capsys, label):
    out = tmp_path / "x.csv"
    assert main(["run", "--preset", "fig-tiny-apa", "--out", str(out),
                 "--schemes", label]) == 2
    err = capsys.readouterr().err
    assert "APA" in err and "it takes: MMSE\n" in err
    assert "running preset" not in err
    assert not out.exists()
    assert not (tmp_path / "x.csv.config.json").exists()


def test_an_es_scheme_over_budget_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--preset", "fig-large-sumrate", "--trials", "1",
                 "--out", str(out), "--schemes", "MMSE+OPA+LS,MMSE+OPA+ES"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("cannot run: MMSE+OPA+ES: exhaustive selection")
    assert "C(128, 64)^16 = about 1e" in err[-1] and "budget of 1000000" in err[-1]
    assert not out.exists()
    assert not (tmp_path / "x.csv.config.json").exists()


@pytest.mark.parametrize("preset", ["fig-tiny-opa", "fig-learning"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_a_trial_count_below_one_is_a_usage_error(tmp_path, capsys, preset, trials):
    out = tmp_path / "x.csv"
    assert main(["run", "--preset", preset, "--trials", trials, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--trials must be at least 1, got {trials}" in err
    assert "running preset" not in err
    assert not out.exists()
    assert not (tmp_path / "x.csv.config.json").exists()


def test_missing_subcommand_is_a_usage_error():
    assert main([]) != 0


def test_main_calls_in_one_process_share_no_parsed_state(tmp_path, capsys):
    preset = PRESETS["fig-tiny-opa"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["run", "--preset", preset.name, "--out", str(first), "--trials", "1",
                 "--schemes", "MMSE+UPA+NS"]) == 0
    assert main(["run", "--preset", preset.name, "--out", str(second),
                 "--trials", "1"]) == 0
    assert {r.scheme for r in read_results(first)} == {"MMSE+UPA+NS"}
    assert {r.scheme for r in read_results(second)} == set(preset.schemes)

    assert main(["run", "--preset", preset.name, "--trials", "one"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["run", "--preset", preset.name, "--out", str(first), "--trials", "1",
                 "--schemes", "ZF+UPA+LS"]) == 0
    assert {r.scheme for r in read_results(first)} == {"ZF+UPA+LS"}


def test_run_learning_preset_writes_curve(tmp_path, capsys):
    out = tmp_path / "learn.csv"
    code = main(["run", "--preset", "fig-learning", "--out", str(out),
                 "--trials", "2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,cost_mean,cost_se,trials,seed"
    assert len(lines) == 7  # header + initial point + five iterations
    sidecar = json.loads((tmp_path / "learn.csv.config.json").read_text())
    assert sidecar["preset"] == "fig-learning"
    assert sidecar["config"]["num_aps"] == 24
    captured = capsys.readouterr()
    assert captured.out == ""  # progress goes to stderr only


def test_run_sweep_preset_with_overrides(tmp_path):
    out = tmp_path / "tiny.csv"
    code = main(["run", "--preset", "fig-tiny-opa", "--out", str(out),
                 "--trials", "2", "--seed", "777",
                 "--schemes", "MMSE+UPA+NS,ZF+OPA+LS"])
    assert code == 0
    rows = read_results(out)
    assert {r.scheme for r in rows} == {"MMSE+UPA+NS", "ZF+OPA+LS"}
    assert all(r.seed == 777 and r.trials == 2 for r in rows)
    assert len(rows) == 2 * 6  # two schemes, six grid points


def test_validate_missing_file_is_an_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_read_results_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_results(path)


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["run", "--preset", "fig-tiny-opa", "--out", str(out),
                 "--trials", "1", "--schemes", "MMSE+UPA+NS"])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_axis_presets_run_from_the_cli(tmp_path):
    out = tmp_path / "frac.csv"
    code = main(["run", "--preset", "fig-selection-fraction", "--out", str(out),
                 "--trials", "1"])
    assert code == 0
    rows = read_results(out)
    assert [r.axis_value for r in rows] == [1.0, 0.5, 0.25, 0.125, 0.0625]
    out2 = tmp_path / "split.csv"
    code = main(["run", "--preset", "fig-antenna-split", "--out", str(out2),
                 "--trials", "1"])
    assert code == 0
    assert [r.axis_value for r in read_results(out2)] == [1.0, 2.0, 4.0, 8.0]


def test_config_file_feeds_the_run(tmp_path):
    cfgfile = tmp_path / "base.cfg"
    cfgfile.write_text("rng_seed = 31337\n")
    out = tmp_path / "o.csv"
    code = main(["run", "--preset", "fig-tiny-opa", "--config", str(cfgfile),
                 "--out", str(out), "--trials", "1",
                 "--schemes", "MMSE+UPA+NS"])
    assert code == 0
    assert all(r.seed == 31337 for r in read_results(out))


def test_failed_trial_is_one_line_and_a_nonzero_exit(tmp_path, capsys, monkeypatch):
    preset = dataclasses.replace(
        PRESETS["fig-tiny-opa"], name="rank-deficient",
        config=dict(num_aps=8, antennas_per_ap=1, num_users=4, selected_aps=1,
                    snr_grid_db=(10.0,)),
        schemes=("ZF+OPA+LS",))
    monkeypatch.setitem(PRESETS, preset.name, preset)
    out = tmp_path / "zf.csv"
    code = main(["run", "--preset", preset.name, "--out", str(out), "--trials", "40"])
    assert code != 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("trial failed: ZF+OPA+LS at snr_grid=10, trial ")
    assert "seed 12345" in err[-1] and "rank-deficient" in err[-1]
    assert not out.exists()
