"""``scripts/preset_manifest.py``'s comparison, on hand-written manifests
and CSVs: the byte-identity gate of a change that must leave every preset's
output unchanged, and the row report of one meant to stay within rounding."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "preset_manifest.py"
_spec = importlib.util.spec_from_file_location("preset_manifest", SCRIPT)
preset_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_manifest)


def manifest(files, trials=3, seed=777):
    return {"trials": trials, "seed": seed, "files": dict(files)}


FILES = {"fig-ber.csv": "a1", "fig-ber.csv.config.json": "b2", "fig-learning.csv": "c3"}


def test_identical_manifests_match_file_by_file(capsys):
    assert preset_manifest.compare(manifest(FILES), manifest(FILES)) is True
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["identical", name] for name in sorted(FILES)]


def test_a_changed_hash_differs_and_is_named(capsys):
    changed = dict(FILES, **{"fig-ber.csv": "ff"})
    assert preset_manifest.compare(manifest(FILES), manifest(changed)) is False
    lines = capsys.readouterr().out.splitlines()
    assert "DIFFERS   fig-ber.csv" in lines
    assert sum(line.startswith("identical") for line in lines) == len(FILES) - 1


def test_a_file_on_one_side_only_is_missing(capsys):
    extra = dict(FILES, **{"fig-tiny-opa.csv": "d4"})
    for mine, theirs in ((FILES, extra), (extra, FILES)):
        assert preset_manifest.compare(manifest(mine), manifest(theirs)) is False
        assert "missing   fig-tiny-opa.csv" in capsys.readouterr().out.splitlines()


def test_runs_at_another_trial_count_or_seed_do_not_compare(capsys):
    for other in (manifest(FILES, trials=120), manifest(FILES, seed=778)):
        assert preset_manifest.compare(manifest(FILES), other) is False
        assert capsys.readouterr().out.startswith("run differs: trials/seed")


ROWS = ("scheme,axis_name,axis_value,sum_rate_mean,ber_mean\n"
        "MMSE+OPA+LS,snr_grid,0.0,2.0,\n"
        "MMSE+APA+LS,snr_grid,0.0,4.0,\n"
        "MMSE+APA+LS,snr_grid,5.0,8.0,\n")


def test_a_differing_csv_reports_its_rows_schemes_and_largest_change(tmp_path, capsys):
    mine, theirs = tmp_path / "mine", tmp_path / "theirs"
    for directory, text in ((mine, ROWS),
                            (theirs, ROWS.replace("4.0,", "5.0,").replace("8.0,", "8.5,"))):
        directory.mkdir()
        (directory / "fig-ber.csv").write_text(text)
    assert preset_manifest.row_differences(mine / "fig-ber.csv", theirs / "fig-ber.csv") == (
        2, 3, ["MMSE+APA+LS"], 0.2)
    changed = dict(FILES, **{"fig-ber.csv": "ff"})
    assert preset_manifest.compare(manifest(FILES), manifest(changed), (mine, theirs)) is False
    lines = capsys.readouterr().out.splitlines()
    detail = lines[lines.index("DIFFERS   fig-ber.csv") + 1].split()
    assert detail[:7] == ["2", "of", "3", "rows", "differ", "(MMSE+APA+LS);", "largest"]
    assert detail[-1] == "0.2"


def test_a_row_on_one_side_only_differs_without_bound(tmp_path):
    (tmp_path / "mine.csv").write_text(ROWS)
    (tmp_path / "theirs.csv").write_text(ROWS.rsplit("MMSE+APA+LS,snr_grid,5.0", 1)[0])
    rows, total, schemes, largest = preset_manifest.row_differences(
        tmp_path / "mine.csv", tmp_path / "theirs.csv")
    assert (rows, total, schemes, largest) == (1, 3, ["MMSE+APA+LS"], float("inf"))


def test_a_csv_without_a_scheme_column_names_no_scheme(tmp_path):
    (tmp_path / "mine.csv").write_text("iteration,cost_mean\n0,1.5\n1,1.25\n")
    (tmp_path / "theirs.csv").write_text("iteration,cost_mean\n0,1.5\n1,1.5\n")
    assert preset_manifest.row_differences(tmp_path / "mine.csv", tmp_path / "theirs.csv") == (
        1, 2, [], 0.25 / 1.5)
