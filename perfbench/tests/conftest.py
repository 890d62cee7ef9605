"""Make the harness and the program importable, with the program's
environment cleared as ``perfbench/run.py`` clears it."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

for key in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[key]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
