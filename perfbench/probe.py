"""One fresh start of an in-process workload, timed by its parent: import
the platform, run the workload's warm-up op, exit.

    python3 perfbench/probe.py sweep-large|campaign-tiny WORKDIR
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    if workload == "sweep-large":
        import sweep_large as module
    else:
        import campaign_tiny as module
    module.warmup(workdir)
