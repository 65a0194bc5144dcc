"""Machine context recorded with every run."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy


def openblas_threads():
    """Thread count OpenBLAS is using, read from numpy's bundled library.

    Returns "unknown" when the library or its query function is absent.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs,
                                              "libscipy_openblas64_*.so"))):
        try:
            query = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.argtypes = []
        query.restype = ctypes.c_int
        return int(query())
    return "unknown"


def context(threads_requested: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown")},
        "blas_threads_requested": threads_requested,
        "blas_threads_in_effect": openblas_threads(),
    }
