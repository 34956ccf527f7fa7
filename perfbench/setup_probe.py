"""Set-up probe: a fresh interpreter imports posflow and parses scenarios.

Usage: python3 perfbench/setup_probe.py SCENARIO.yaml [...]

Prints one JSON line with the system-wide monotonic clock at the moment the
last scenario is parsed, so the parent can time set-up from the moment it
started this process, and the time spent in ``parse_scenario`` alone.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import posflow  # noqa: E402,F401
from posflow.scenario import parse_scenario  # noqa: E402

start = time.perf_counter()
for path in sys.argv[1:]:
    parse_scenario(path)
parse_s = time.perf_counter() - start
print(json.dumps({"parsed_at": time.monotonic(), "parse_s": parse_s}))
