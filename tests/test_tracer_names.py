"""The benchmark tracer's function names, checked against the package.

``bench/tracer.py`` wraps each function it lists in ``LAYERS`` by name and
skips a name that no longer resolves, so a renamed or deleted function
would read 0 in every traced metric of it instead of failing. This test
imports the tracer as it stands and names every stale entry.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# removed from the package; the tracer still lists them until it is repaired
STALE = {"selection.es_aps", "selection.full_mask", "precoding.conventional_mmse_precoder"}


def test_every_traced_name_resolves_but_the_known_stale_ones():
    missing = {f"{layer}.{name}" for layer, names in tracer.LAYERS.items() for name in names
               if not callable(getattr(importlib.import_module(f"cellfree.{layer}"), name,
                                       None))}
    assert missing == STALE
