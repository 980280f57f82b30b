"""Let subprocesses started by tests import nvsense from the source tree.

pyproject.toml puts src/ on sys.path for the test process itself; the
command-line runs in test_acceptance.py need it on PYTHONPATH too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
