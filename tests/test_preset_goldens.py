"""Every preset's CSV and config sidecar at 2 trials, against stored goldens.

The goldens in ``tests/goldens/`` were written by this module's ``__main__``
block (``PYTHONPATH=src python tests/test_preset_goldens.py``) before three
changes that reorder floating-point operations: the chain stopped re-running
the precoder and allocation for MMSE with a scale-invariant allocator (OPA,
UPA); APA moved from the full K x K MSE gradient to its separable per-user
form (MMSE+APA rows and the fig-learning cost curve); and the MMSE ridge
systems moved from a per-item Cholesky loop to one batched solve, with the
gain's squared norm an array sum (every MMSE and MMSE_CONV row). Those rows
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
ROUNDING_ONLY = ("MMSE+OPA+", "MMSE+UPA+", "MMSE+APA+", "MMSE_CONV+")
ROUNDING_ONLY_PRESETS = ("fig-learning",)


def run_preset(name, out_dir):
    out = Path(out_dir) / f"{name}.csv"
    assert cli_io.main(["run", "--preset", name, "--out", str(out),
                        "--trials", str(TRIALS)]) == 0
    return out


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
        assert_rows_match(header, got_line, want_line,
                          name in ROUNDING_ONLY_PRESETS or want_line.startswith(ROUNDING_ONLY))
    sidecar = Path(str(out) + ".config.json")
    assert sidecar.read_bytes() == (GOLDEN_DIR / sidecar.name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for preset in sorted(PRESETS):
        run_preset(preset, GOLDEN_DIR)
