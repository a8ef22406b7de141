"""Set-up probe: import stocond from the checkout, build one workload's
seeded inputs and exit.  ``run.py`` times several of these processes and
reports the median as ``setup_s``.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

from run import setup

if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
