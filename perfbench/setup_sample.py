"""Time the start of a CLI job in a fresh interpreter.

Usage: python setup_sample.py SRC_DIR CONFIG.json [CONFIG.json ...]

Prints one JSON object with the seconds spent importing numpy, importing
cpfsim.cli from SRC_DIR and parsing each config, and the time of the speed
probe run in the same process right after.  Nothing is imported before the
first clock read except what the interpreter itself loads.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cpfsim.cli  # noqa: E402

t2 = time.perf_counter()
for path in sys.argv[2:]:
    cpfsim.cli.load_config(path)
t3 = time.perf_counter()

import json  # noqa: E402

import speed  # noqa: E402

print(json.dumps({
    "numpy_import_s": t1 - t0,
    "cpfsim_import_s": t2 - t1,
    "parse_s": t3 - t2,
    "probe_s": speed.probe_median(3),
    "cpfsim_file": cpfsim.__file__,
}))
