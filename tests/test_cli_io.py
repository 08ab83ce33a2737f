import csv
import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cellfree
from cellfree.channel import ConfigError, SystemConfig
from cellfree.cli_io import CSV_HEADER, emit_results, load_config, main, read_results
from cellfree.pipeline import SweepRow
from cellfree.presets import PRESETS
from reference import dump_config


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


def run_python(*args):
    """A fresh interpreter that imports this checkout's ``cellfree``."""
    src = str(Path(cellfree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_the_package_and_its_cli_import_no_scipy():
    # a fresh interpreter, so no other test's import of SciPy counts
    code = ("import sys, cellfree.cli_io\n"
            "assert cellfree.cli_io.main(['list-presets']) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert "fig-tiny-opa" in run.stdout


def test_the_package_runs_as_a_module():
    run = run_python("-m", "cellfree", "list-presets")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == list(PRESETS)
    assert run_python("-m", "cellfree").returncode == 2     # no subcommand


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
    # a key set twice is refused, not settled by the last line
    path.write_text("num_users = 4\nnum_aps = 8\n\n  num_users=6  # again\n")
    with pytest.raises(ConfigError, match=":4: key 'num_users' already set on line 1$"):
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
    # numpy integers, which SystemConfig accepts, are written as JSON ints
    emit_results(make_rows(), tmp_path / "np.csv",
                 sidecar={"seed": np.int64(42), "config": {"k": np.uint8(1)}})
    assert ((tmp_path / "np.csv.config.json").read_bytes()
            == (tmp_path / "out.csv.config.json").read_bytes())


def _long_and_short_writes():
    """Per writer, a call that writes a longer text and one that writes a
    shorter text to a path, and the file that holds it."""
    long_cfg = dataclasses.replace(
        SystemConfig(), snr_grid_db=tuple(i / 7 for i in range(40)),
        rng_seed=987654321).validate()
    return {
        "csv": (lambda path: emit_results(make_rows() * 3, path),
                lambda path: emit_results(make_rows()[:1], path), ""),
        "sidecar": (lambda path: emit_results([], path, sidecar={"config": list(range(60))}),
                    lambda path: emit_results([], path, sidecar={"seed": 1}), ".config.json"),
        "dump_config": (lambda path: dump_config(long_cfg, path),
                        lambda path: dump_config(SystemConfig(), path), ""),
    }


@pytest.mark.parametrize("writer", ["csv", "sidecar", "dump_config"])
def test_a_shorter_text_over_a_longer_file_equals_a_fresh_write(tmp_path, writer):
    write_long, write_short, suffix = _long_and_short_writes()[writer]
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    write_long(over)
    longer = Path(str(over) + suffix).stat().st_size
    write_short(over)
    write_short(fresh)
    written = Path(str(over) + suffix).read_bytes()
    assert written == Path(str(fresh) + suffix).read_bytes()
    assert 0 < len(written) < longer


def test_results_can_go_to_a_character_device():
    # os.devnull is not a regular file: it takes the bytes but refuses a truncate
    emit_results(make_rows(), os.devnull)


def test_a_new_file_gets_the_mode_open_w_gives(tmp_path):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        emit_results(make_rows(), tmp_path / "new.csv", sidecar={"seed": 1})
        dump_config(SystemConfig(), tmp_path / "new.cfg")
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert mode == 0o640
    for name in ("new.csv", "new.csv.config.json", "new.cfg"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def test_no_writer_truncates_on_open(tmp_path, monkeypatch):
    # truncating on open, as open(path, "w") and Path.write_text do, is what
    # made each rewrite of a results file slow on ext4
    opened, os_open = [], os.open
    def spy(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return os_open(path, flags, *args, **kwargs)
    monkeypatch.setattr(os, "open", spy)
    for write_long, write_short, _ in _long_and_short_writes().values():
        write_long(tmp_path / "new")
        write_short(tmp_path / "new")
    emit_results(make_rows(), tmp_path / "new.csv", sidecar={"seed": 1})
    assert {path for path, _ in opened} == {
        str(tmp_path / name) for name in ("new", "new.config.json", "new.csv",
                                          "new.csv.config.json")}
    assert not any(flags & os.O_TRUNC for _, flags in opened)


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
    assert err[-1].startswith("cannot run: exhaustive selection of 64 of 128 APs")
    assert "C(128, 64)^16 = about 1e" in err[-1] and "budget of 1000000" in err[-1]
    assert not out.exists()
    assert not (tmp_path / "x.csv.config.json").exists()


@pytest.mark.parametrize("preset", ["fig-tiny-opa", "fig-learning"])
def test_a_repeated_scheme_is_a_usage_error(tmp_path, capsys, preset):
    # each label would write its rows twice; " ZF+UPA+NS" parses to the label
    out = tmp_path / "x.csv"
    assert main(["run", "--preset", preset, "--out", str(out),
                 "--schemes", "MMSE+APA+LS,ZF+UPA+NS,MMSE+UPA+LS, ZF+UPA+NS"]) == 2
    err = capsys.readouterr().err
    assert "--schemes lists ZF+UPA+NS more than once" in err
    assert "running preset" not in err
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


def test_a_learning_preset_given_two_schemes_tracks_the_first(tmp_path, capsys):
    # a learning curve tracks one scheme: the run says which, and writes
    # that scheme's rows, as a run given only that scheme does
    both, first = tmp_path / "both.csv", tmp_path / "first.csv"
    assert main(["run", "--preset", "fig-learning", "--out", str(both), "--trials", "1",
                 "--schemes", "MMSE+APA+LS,MMSE+APA+NS"]) == 0
    assert "learning curves track one scheme; using MMSE+APA+LS" in capsys.readouterr().err
    assert main(["run", "--preset", "fig-learning", "--out", str(first), "--trials", "1",
                 "--schemes", "MMSE+APA+LS"]) == 0
    assert "track one scheme" not in capsys.readouterr().err
    assert both.read_bytes() == first.read_bytes()
    assert len(both.read_text().splitlines()) == 7  # header + initial point + five steps


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


def test_a_run_over_a_larger_presets_files_equals_a_run_to_a_fresh_path(tmp_path):
    def files(out):
        return [out, Path(str(out) + ".config.json")]
    over, fresh = tmp_path / "over.csv", tmp_path / "fresh.csv"
    assert main(["run", "--preset", "fig-tiny-opa", "--out", str(over), "--trials", "1"]) == 0
    sizes = [path.stat().st_size for path in files(over)]
    for out in (over, fresh):
        assert main(["run", "--preset", "fig-learning", "--out", str(out), "--trials", "1"]) == 0
    for written, was, wanted in zip(files(over), sizes, files(fresh)):
        assert written.read_bytes() == wanted.read_bytes()
        assert written.stat().st_size < was


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
