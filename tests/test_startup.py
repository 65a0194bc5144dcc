"""The start-up contract: a run loads scipy.linalg and scipy.special only
when it calls into them.

torusop's modules import the top-level ``scipy`` package alone and reach
``scipy.linalg.eigh`` and ``scipy.special.sici`` as attributes, which
scipy's module ``__getattr__`` imports on first access.  The scenarios
built on the numpy calculus (quantize, compose, parametrix, Sobolev norms)
then never pay for either subpackage.  The check runs in a fresh
interpreter, because the test process has both loaded already.
"""

import json
import os
import subprocess
import sys

import torusop

NUMPY_ONLY = ("symbol-check", "compose-check", "parametrix", "funcalc-defect")

_CHILD = """
import json, sys
from torusop import cli

def loaded():
    return sorted(m for m in ("scipy.linalg", "scipy.special")
                  if m in sys.modules)

seen = {"import": loaded()}
for scenario in sys.argv[2:]:
    assert cli.run(scenario, out=f"{sys.argv[1]}/{scenario}") == 0, scenario
    seen[scenario] = loaded()
print(json.dumps(seen))
"""


def test_numpy_only_scenarios_load_neither_subpackage(tmp_path):
    src = os.path.dirname(os.path.dirname(torusop.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), *NUMPY_ONLY,
         "elliptic-estimate"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import",) + NUMPY_ONLY:
        assert seen[step] == [], (step, seen)
    # the control: the elliptic estimate's eigh loads scipy.linalg
    assert "scipy.linalg" in seen["elliptic-estimate"], seen
