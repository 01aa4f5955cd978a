"""Importing the serving stack must not pull in scipy or networkx.

Both are used by one function each (Stassuij's NumPy reference and the
kernel dependence graph) and together cost every process tens of
megabytes of resident memory, so they are imported where they are used.
A fresh interpreter is needed: the test process has long imported both.
Both users keep their own tests (``tests/datausage/test_liveness.py``,
``tests/workloads/test_functional.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro
import repro.daemon.server
import repro.sweep
import repro.surrogate.engine
print(",".join(sorted(m for m in ("scipy", "networkx") if m in sys.modules)))
"""


def test_serving_imports_leave_scipy_and_networkx_out():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert result.stdout.strip() == ""

