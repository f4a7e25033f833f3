"""Test-session set-up that must run before numpy is imported.

Multithreaded BLAS slows the small dense factorizations the programs run (a
reduced gram SDP at n = 10 took 1.0 s with the default OpenBLAS threads
against 0.27 s on one thread, on a 2-CPU virtual machine), so the suite
defaults to one BLAS thread. A value already set in the environment wins.
"""

import os
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; BLAS keeps its thread count")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
