#!/usr/bin/env python3
"""Time one benchmark set-up in a fresh process: the package import plus
the workload's input preparation, scaled to nominal host speed by the
reference loops run just before and after it.

Usage: python3 bench/setup_probe.py WORKLOAD SEED   (prints seconds)
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import calibrate

    before = calibrate.time_reference()
    start = perf_counter()
    import workloads

    workloads.WORKLOADS[name]().prepare(seed)
    elapsed = perf_counter() - start
    after = calibrate.time_reference()
    print(elapsed * 2 * calibrate.REFERENCE_S / (before + after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
