"""Set up one workload in a fresh process and say "ready"; run.py times spawn to ready.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
