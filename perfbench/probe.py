"""Set-up probe: import the package from src and print the monotonic clock.

run.py spawns this in a fresh interpreter and takes the time from the spawn
to the printed reading as one sample of setup_s. It imports nothing else, so
that the sample is the interpreter's start plus the package's import.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import narayana_lab.cli  # noqa: E402,F401

print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
