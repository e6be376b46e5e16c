"""Set-up probe, run in a fresh interpreter: import fibmachine, load configs.

Usage: python3 setup_probe.py ROOT PANELS [CONFIG ...]

Imports fibmachine from ROOT/src, loads committed panels 1..PANELS through
`figures.panel_config` and each CONFIG through `config.load_config`, then
prints one JSON line with the import time and the mean time per load.
"""

import sys
from time import perf_counter

t0 = perf_counter()
root, panels, paths = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
sys.path.insert(0, root + "/src")
import fibmachine  # noqa: E402
from fibmachine import config, figures  # noqa: E402

t1 = perf_counter()
for number in range(1, panels + 1):
    figures.panel_config(number)
t2 = perf_counter()
for path in paths:
    config.load_config(path)
t3 = perf_counter()

import json  # noqa: E402  (already loaded by fibmachine)

print(json.dumps({
    "import_s": t1 - t0,
    "panel_config_ms": (t2 - t1) * 1e3 / panels if panels else None,
    "load_config_ms": (t3 - t2) * 1e3 / len(paths) if paths else None,
    "module": fibmachine.__file__,
}))
