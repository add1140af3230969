"""Import what an in-process workload needs, then exit.

``python perfbench/setup_probe.py <workload>``: the wall time of this
process, from spawn to exit, is one set-up sample of the ``runtime``
workload (interpreter start plus the program's imports).
"""

import sys

MODULES = {
    "runtime": ("repro.edr.system", "repro.edr.coordinator",
                "repro.experiments.fig6_fig7", "repro.experiments.fig9",
                "repro.experiments.scenarios"),
}

if __name__ == "__main__":
    for name in MODULES[sys.argv[1]]:
        __import__(name)
