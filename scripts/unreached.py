"""The statements of ``src/cellfree`` that neither the presets nor the
benchmark execute, those that only the benchmark does, and those that the
tier-1 tests never execute.

Runs all eight presets in this one process, each as ``python -m cellfree
run --preset <name> --trials 3 --seed 777`` would (the run of
``scripts/preset_manifest.py`` at its defaults), with OpenBLAS, OpenMP and
MKL on one thread and a line tracer (``sys.settrace``) on the package from
its import on. Then, in the same process and trace, it makes the
benchmark's calls that no preset makes: each of ``bench/micro.py``'s cases
once at each of its sizes, and one unit of ``bench/workloads.py``'s
single-trial workload at seed 777 (``setup()``, then ``run_unit(0)``). It
reads those files and edits none of them. Last, under the same tracer and
with those hits set aside, it runs the tier-1 suite, ``tests/``, through
``pytest.main``: the package's modules are dropped from ``sys.modules``
first, so the tests import it afresh, as a run of their own would, and a
small plugin puts the tracer back before each test. The suite takes about
70 s under the tracer, against about 30 s without it. It prints, per
module of the package, each statement on none of whose lines a line event
came, then each statement that only the benchmark's calls reached, then
each statement that no tier-1 test reached: its line number and first
line. Docstrings, ``def`` and ``class`` headers, imports, ``global`` and
``nonlocal`` are left out, and a compound statement counts by its header
alone, its body statements by their own lines.

    python scripts/unreached.py

A statement in the first list is one that neither the presets' traffic nor
the benchmark's reaches; the tests may still reach it. A statement in the
third is one that no test checks. Any preset that does not exit 0, and a
tier-1 run that does not pass, stops the run. A test that runs code in a
subprocess (``tests/test_cli_io.py`` does) reaches nothing here.
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
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cellfree"
BENCH = ROOT / "bench"
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


def bench_calls():
    """The benchmark's calls that no preset makes: each of
    ``bench/micro.py``'s cases once at each of its sizes, then one unit of
    ``bench/workloads.py``'s single-trial workload."""
    sys.path.insert(0, str(BENCH))
    import micro
    import workloads
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # as micro.run does
        for m, k in micro.SIZES:
            for call in micro._cases(m, k).values():
                call()
    single = workloads.SingleTrialWorkload(SEED, None)
    single.setup()
    single.run_unit(0)


class Retrace:
    """A pytest plugin that installs ``tracer`` before each test, should an
    earlier test or a tool it ran have replaced it."""

    def __init__(self, tracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        sys.settrace(self.tracer)


def tier_one(tracer):
    """Run the tier-1 suite in this process under ``tracer``, its package
    imported afresh; stop the run if it does not pass."""
    for name in [name for name in sys.modules if name.partition(".")[0] == "cellfree"]:
        del sys.modules[name]
    with contextlib.redirect_stdout(io.StringIO()) as log:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"],
                           plugins=[Retrace(tracer)])
    if code != 0:
        raise SystemExit(f"tier-1 exited {code}:\n{log.getvalue()}")


def traced_runs(out: Path):
    """The presets' names, and ``{file name: lines with a line event}`` of
    the package's modules three times: from the package's import through
    one ``python -m cellfree run`` of each preset, over ``bench_calls``,
    and over ``tier_one``."""
    ran = [collections.defaultdict(set)]
    prefix = str(PACKAGE) + os.sep

    def lines(frame, event, _):
        if event == "line":
            ran[-1][frame.f_code.co_filename].add(frame.f_lineno)
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
        ran.append(collections.defaultdict(set))
        bench_calls()
        ran.append(collections.defaultdict(set))
        tier_one(calls)
    finally:
        sys.settrace(None)
        sys.argv = argv
    return list(PRESETS), *(collections.defaultdict(
        set, {Path(path).name: lines for path, lines in hits.items()}) for hits in ran)


def report(keep, what: str) -> int:
    """Print, per module, each statement whose lines ``keep(file name,
    lines)`` holds for, under ``what``; returns how many there were."""
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        listed = [first for first, last in statements(text)
                  if keep(path.name, set(range(first, last + 1)))]
        total += len(listed)
        print(f"{path.relative_to(ROOT)}: {len(listed)} {what}")
        for first in listed:
            print(f"  {first:5d}  {source[first - 1].strip()}")
    return total


def main() -> int:
    os.environ.update(ONE_THREAD)          # before the package imports numpy
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        presets, by_presets, by_bench, by_tests = traced_runs(Path(tmp))
    missed = report(lambda name, lines: not (by_presets[name] | by_bench[name]) & lines,
                    "unreached")
    print(f"{missed} statements unreached by {len(presets)} presets "
          f"at --trials {TRIALS} --seed {SEED} or by the benchmark's calls\n")
    only = report(lambda name, lines: bool(by_bench[name] & lines)
                  and not by_presets[name] & lines, "reached only by the benchmark")
    print(f"{only} statements reached only by the benchmark's calls\n")
    untested = report(lambda name, lines: not by_tests[name] & lines, "unreached by tier-1")
    print(f"{untested} statements unreached by the tier-1 tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
