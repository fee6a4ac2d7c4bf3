"""One cold start: import hyperband, then read a workload's input documents.

    python3 bench/setup_probe.py MANIFEST

bench/run.py times this whole process, interpreter start included, so work
that moves into import time or into the readers shows up in setup_s.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hyperband  # noqa: E402

with open(sys.argv[1], "r", encoding="utf-8") as fh:
    documents = json.load(fh)["documents"]
for doc in documents:
    getattr(hyperband, doc["reader"])(ROOT / doc["path"])
