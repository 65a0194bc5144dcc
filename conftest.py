"""Test-session header: the BLAS thread counts in effect.

numpy and scipy each bundle an OpenBLAS; the count of each is read from
the library itself with ctypes, or reported as "unknown" when the library
or its query function is absent.  Nothing is pinned.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
import scipy
import scipy.linalg  # loads scipy's OpenBLAS, so the query reads that copy

OPENBLAS = {
    "numpy": (np, "libscipy_openblas64_*.so",
              "scipy_openblas_get_num_threads64_"),
    "scipy": (scipy, "libscipy_openblas-*.so",
              "scipy_openblas_get_num_threads"),
}


def openblas_threads(package, pattern: str, symbol: str):
    """Thread count of the OpenBLAS bundled in ``package``'s .libs folder."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, pattern))):
        try:
            query = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        query.argtypes = []
        query.restype = ctypes.c_int
        return int(query())
    return "unknown"


def pytest_report_header(config):
    counts = ", ".join(f"{name} {openblas_threads(*lib)}"
                       for name, lib in OPENBLAS.items())
    return f"OpenBLAS threads in effect: {counts}"
