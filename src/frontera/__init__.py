"""Minimum-variance portfolio analytics over configurable date windows."""

import os

# One BLAS thread unless the caller set a count: at a few hundred assets more
# threads spin and stall. Read once, when numpy loads; children inherit them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
