"""Fresh-process probe: import a package and make one CLI call, nothing else.

Usage: python3 probe.py <directory> <package> <CLI arguments...>

Imports ``<package>.cli`` from ``<directory>`` (``poolstream`` from src/, or
the frozen reference copy) and runs the CLI once.  Prints one JSON object:
the CLI's exit code, the seconds from just before the import to the end of
the call (nothing but ``sys``, ``time`` and ``importlib`` is imported before
the clock starts) and the process's peak resident memory (the kernel's
VmHWM) in MB.  The process makes no other call, so that peak is the call's.
"""

import importlib
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
cli = importlib.import_module(f"{sys.argv[2]}.cli")
code = cli.main(sys.argv[3:])
elapsed = time.perf_counter() - start
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"{sys.argv[2]} imported from {cli.__file__}, not {sys.argv[1]}")

import json  # noqa: E402  (after the clock, so it is not timed)

with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "seconds": elapsed, "peak_rss_mb": hwm_kb / 1024}))
