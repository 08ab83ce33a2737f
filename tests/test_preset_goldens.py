"""Every preset's CSV and config sidecar at 2 trials, against stored goldens.

The goldens in ``tests/goldens/`` were written by this module's ``__main__``
block (``PYTHONPATH=src python tests/test_preset_goldens.py``) before four
changes that reorder floating-point operations; ``__main__`` keeps every
stored row that still matches its new row as ``test_preset_matches_golden``
compares them, so a rerun rewrites only the rows a change moved past that
comparison, and the sidecars. The four changes: the chain stopped re-running
the precoder and allocation for MMSE with a scale-invariant allocator (OPA,
UPA); APA moved from the full K x K MSE gradient to its separable per-user
form (MMSE+APA rows and the fig-learning cost curve); the MMSE ridge
systems moved from a per-item Cholesky loop to one batched solve, with the
gain's squared norm an array sum, and later to one Gram eigendecomposition
per channel (every MMSE and MMSE_CONV row); and ZF moved from a per-item
Cholesky solve to an LU inverse of the Gram matrix (every ZF row). Those rows
may move by rounding only, so their ``*_mean`` and ``*_se`` columns are
compared to 1e-9 relative; every other row and column, and every sidecar,
must stay byte-identical.
"""

import math
from pathlib import Path

import pytest

from cellfree import cli_io
from cellfree.presets import PRESETS

GOLDEN_DIR = Path(__file__).parent / "goldens"
TRIALS = 2
REL_TOL = 1e-9
# rows whose floating-point order changed: by scheme prefix, and every row
# of a preset
ROUNDING_ONLY = ("MMSE+OPA+", "MMSE+UPA+", "MMSE+APA+", "MMSE_CONV+", "ZF+")
ROUNDING_ONLY_PRESETS = ("fig-learning",)


def run_preset(name, out_dir):
    out = Path(out_dir) / f"{name}.csv"
    assert cli_io.main(["run", "--preset", name, "--out", str(out),
                        "--trials", str(TRIALS)]) == 0
    return out


def rounding_only(name, want_line):
    """Whether the stored row ``want_line`` of preset ``name`` may move by
    rounding."""
    return name in ROUNDING_ONLY_PRESETS or want_line.startswith(ROUNDING_ONLY)


def assert_rows_match(header, got_line, want_line, rounding_only):
    if got_line == want_line:
        return
    assert rounding_only, f"{got_line!r} != {want_line!r}"
    got, want = got_line.split(","), want_line.split(",")
    assert len(got) == len(want) == len(header)
    for column, a, b in zip(header, got, want):
        if a == b:
            continue
        assert column.endswith(("_mean", "_se")) and a and b, (got_line, want_line)
        assert math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0), \
            (got_line, want_line)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_matches_golden(name, tmp_path, capsys):
    out = run_preset(name, tmp_path)
    want = (GOLDEN_DIR / out.name).read_text(encoding="utf-8").splitlines()
    got = out.read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    for got_line, want_line in zip(got[1:], want[1:]):
        assert_rows_match(header, got_line, want_line, rounding_only(name, want_line))
    sidecar = Path(str(out) + ".config.json")
    assert sidecar.read_bytes() == (GOLDEN_DIR / sidecar.name).read_bytes()


def merge_rows(name, got, want):
    """The new run's lines ``got`` of preset ``name``, with every row that
    matches its stored row in ``want`` kept as stored; all of ``got`` if the
    header or the row count changed."""
    if got[:1] != want[:1] or len(got) != len(want):
        return got
    header = got[0].split(",")
    merged = got[:1]
    for got_line, want_line in zip(got[1:], want[1:]):
        try:
            assert_rows_match(header, got_line, want_line, rounding_only(name, want_line))
        except AssertionError:
            merged.append(got_line)
        else:
            merged.append(want_line)
    return merged


def test_regeneration_keeps_every_stored_row_that_still_matches():
    # a rounding-only row that moved by 1e-12 relative stays as stored; a row
    # that must stay byte-identical and moved, and every row of a table whose
    # shape changed, are rewritten
    want = (GOLDEN_DIR / "fig-tiny-opa.csv").read_text(encoding="utf-8").splitlines()

    def nudged(line, factor):
        fields = line.split(",")
        fields[3] = repr(float(fields[3]) * factor)
        return ",".join(fields)

    got = list(want)
    got[1] = nudged(want[1], 1.0 + 1e-12)             # MMSE+OPA+NS: rounding only
    got[37] = nudged(want[37], 1.0 + 1e-12)           # CB+OPA+NS: byte-identical
    assert got[1] != want[1] and want[37].startswith("CB+OPA+NS")
    assert merge_rows("fig-tiny-opa", got, want) == want[:37] + [got[37]] + want[38:]
    assert merge_rows("fig-tiny-opa", got[:-1], want) == got[:-1]


if __name__ == "__main__":
    import shutil
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for preset in sorted(PRESETS):
            out = run_preset(preset, scratch)
            stored = GOLDEN_DIR / out.name
            want = (stored.read_text(encoding="utf-8").splitlines() if stored.exists()
                    else [])
            got = merge_rows(preset, out.read_text(encoding="utf-8").splitlines(), want)
            stored.write_text("\n".join(got) + "\n", encoding="utf-8")
            shutil.copyfile(str(out) + ".config.json", str(stored) + ".config.json")
