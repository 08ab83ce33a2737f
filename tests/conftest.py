"""Pin BLAS to one thread before numpy is first imported, as ``bench/run.py``
does: a second BLAS thread slows the small matrices of this simulator and
makes the suite's timings erratic. pytest and hypothesis do not import numpy,
so this file, which pytest loads before any test module, runs first. A
setting already in the environment is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
