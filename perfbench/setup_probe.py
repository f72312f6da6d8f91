"""Set-up probe: import datosc from the source tree given as the only
argument, build the default link (prior calibration included) and load the
packaged FER table, then print "ready". run.py times it from process start.
"""

import sys

sys.path.insert(0, sys.argv[1])

from datosc import harness  # noqa: E402
from datosc.allocator import default_fer_table  # noqa: E402

harness.build_link(harness.ExperimentConfig())
default_fer_table()
print("ready", flush=True)
