"""``scripts/preset_manifest.py``'s comparison, on hand-written manifests:
the byte-identity gate of a change that must leave every preset's output
unchanged."""

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
