"""Test-session BLAS threads: each test's OpenBLAS thread count is pinned.

numpy and scipy each bundle an OpenBLAS.  Every test runs with both at one
thread, where the small dense solves most tests make are fastest; the tests
in ``TWO_THREAD_TESTS``, whose n = 1024 SVDs gain from a second thread, run
at two.  Each library is reached with ctypes through its query and setter
functions, found by the lookup that torusop's run manifest reads its thread
counts with; a library or function that is absent is reported as "unknown"
and left as it is.  The session header prints the counts in effect when the
session starts and the pin.
"""

from __future__ import annotations

import ctypes

import pytest

from torusop.cli import OPENBLAS, openblas_function, openblas_threads

# node ids of the tests that run at two OpenBLAS threads
TWO_THREAD_TESTS = frozenset({
    "tests/test_acceptance.py::test_criterion_02_filtered_algebra_orders",
})


def set_openblas_threads(n: int) -> None:
    """Set every bundled OpenBLAS that exports its setter to n threads.

    Each library's setter is named like its query, with "set" for "get".
    """
    for package, pattern, symbol in OPENBLAS.values():
        assign = openblas_function(package, pattern,
                                   symbol.replace("_get_", "_set_"))
        if assign is not None:
            assign.argtypes = [ctypes.c_int]
            assign.restype = None
            assign(n)


@pytest.fixture(autouse=True)
def _pinned_blas_threads(request):
    set_openblas_threads(2 if request.node.nodeid in TWO_THREAD_TESTS else 1)


def pytest_report_header(config):
    counts = ", ".join(f"{name} {openblas_threads(*lib)}"
                       for name, lib in OPENBLAS.items())
    return (f"OpenBLAS threads in effect: {counts}; each test pinned to 1, "
            f"and to 2 for {', '.join(sorted(TWO_THREAD_TESTS))}")
