import importlib.util
import os
import re

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "root_conftest",
    os.path.join(os.path.dirname(__file__), os.pardir, "conftest.py"))
root_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(root_conftest)


def test_header_names_each_bundled_openblas_thread_count():
    header = root_conftest.pytest_report_header(None)
    match = re.fullmatch(r"OpenBLAS threads in effect: numpy (\w+), "
                         r"scipy (\w+); each test pinned to 1, and to 2 for "
                         r"(\S+)", header)
    assert match, header
    for count in match.groups()[:2]:
        assert count == "unknown" or int(count) >= 1
    assert match[3] == ("tests/test_acceptance.py::"
                        "test_criterion_02_filtered_algebra_orders")


def test_each_test_runs_at_one_openblas_thread():
    for lib in root_conftest.OPENBLAS.values():
        assert root_conftest.openblas_threads(*lib) in (1, "unknown")


def test_thread_count_is_unknown_without_the_library_or_its_query():
    _np, pattern, symbol = root_conftest.OPENBLAS["numpy"]
    assert root_conftest.openblas_threads(np, "no-such-lib*.so",
                                          symbol) == "unknown"
    assert root_conftest.openblas_threads(np, pattern,
                                          "no_such_query") == "unknown"
