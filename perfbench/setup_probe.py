"""One set-up of a workload in a fresh interpreter: import csaloha, build the
workload's inputs and run its warm-up, then exit. run.py times this script
end to end several times per run and reports the median as setup_s.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    wl = WORKLOADS[sys.argv[1]]
    wl.warm_up(wl.inputs(0))
