"""Run ``geocausal`` as ``python -m geocausal`` does, then write this
process's peak resident set size in KiB (``VmHWM``) to a file.

    python3 bench/cli_child.py RSS_FILE ARG...

The benchmark starts every CLI command this way because a child's
``ru_maxrss`` from ``wait4`` is no measure of the child alone: Linux
carries the resident size of the address space the child leaves at
``exec`` (its parent's) into it, so it reads at least the benchmark's own
size. ``VmHWM`` belongs to the address space made at ``exec``.
"""

import os
import runpy
import sys

rss_path = sys.argv.pop(1)
sys.path[0] = os.getcwd()  # as under ``-m``; this script's directory is not searched
try:
    runpy.run_module("geocausal", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(rss_path, "w", encoding="ascii") as out:
        out.write(peak)
