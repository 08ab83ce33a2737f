"""The statements of ``src/cellfree`` that no preset executes.

Runs all eight presets in this one process, each as ``python -m cellfree
run --preset <name> --trials 3 --seed 777`` would (the run of
``scripts/preset_manifest.py`` at its defaults), with OpenBLAS, OpenMP and
MKL on one thread and a line tracer (``sys.settrace``) on the package from
its import on. It then prints, per module of the package, each statement on
none of whose lines a line event came: its line number and first line.
Docstrings, ``def`` and ``class`` headers, imports, ``global`` and
``nonlocal`` are left out, and a compound statement counts by its header
alone, its body statements by their own lines.

    python scripts/unreached.py

A statement listed here is one that the presets' traffic never reaches; the
tests may still reach it. Any preset that does not exit 0 stops the run.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cellfree"
TRIALS, SEED = 3, 777
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# statements that run no code of their own, or whose header is not the code
LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)


def statements(source: str):
    """``(first line, last line)`` of each statement of ``source`` that
    counts: a compound statement spans its header, up to its body."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, LEFT_OUT):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue                                    # a docstring
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.append((node.lineno, last))
    return sorted(spans)


def traced_runs(out: Path):
    """The presets' names and ``{file name: lines with a line event}`` of
    the package's modules, from the package's import through one ``python
    -m cellfree run`` of each preset."""
    ran = collections.defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def lines(frame, event, _):
        if event == "line":
            ran[Path(frame.f_code.co_filename).name].add(frame.f_lineno)
        return lines

    def calls(frame, *_):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    argv = sys.argv
    sys.settrace(calls)
    try:
        from cellfree.presets import PRESETS
        for name in PRESETS:
            sys.argv = ["cellfree", "run", "--preset", name, "--out",
                        str(out / f"{name}.csv"), "--trials", str(TRIALS), "--seed", str(SEED)]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = 0
                try:
                    runpy.run_module("cellfree", run_name="__main__")
                except SystemExit as done:
                    code = done.code
            if code != 0:
                raise SystemExit(f"preset {name} exited {code}: {err.getvalue().strip()}")
    finally:
        sys.settrace(None)
        sys.argv = argv
    return list(PRESETS), ran


def main() -> int:
    os.environ.update(ONE_THREAD)          # before the package imports numpy
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        presets, ran = traced_runs(Path(tmp))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        missed = [(first, last) for first, last in statements(text)
                  if not ran[path.name] & set(range(first, last + 1))]
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} unreached")
        for first, _ in missed:
            print(f"  {first:5d}  {source[first - 1].strip()}")
    print(f"{total} statements unreached by {len(presets)} presets "
          f"at --trials {TRIALS} --seed {SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
