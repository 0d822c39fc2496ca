"""Outcomes of the workloads' operations on the inputs the workloads leave out.

    python3 perfbench/known_defects.py --seed 1 --blocks 6

The benchmark's workloads keep to inputs on which every operation of the
library succeeds. This script builds the same operations, with the same
checks, on a wider grid that holds the inputs they leave out (transport
on the unit cube, at d = 1, at p = 8 and with weighted marginals; ray
schedules at p >= 3) and prints how many were ok, failed or wrong per
input class. Once a fix brings a class to all ok, the workloads can take
it in. It writes only under ``perfbench/out/`` and removes what it wrote.
"""

import argparse
import os
import shutil
import sys
from collections import Counter

from run import OUT, import_library

WIDE_TRANSPORT_DIMS = (1, 2, 3)
WIDE_TRANSPORT_EXPONENTS = (1.5, 2.0, 3.0, 8.0)
WIDE_TRANSPORT_MARGINALS = ("uniform", "weighted")
WIDE_TRANSPORT_BOX = 1.0
WIDE_RAY_EXPONENTS = (3.0, 4.0, 8.0, 16.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=6)
    args = parser.parse_args(argv)
    import_library()
    from workloads import FAILED, OK, WRONG, RaySchedules, Transport

    class WideTransport(Transport):
        dims = WIDE_TRANSPORT_DIMS
        exponents = WIDE_TRANSPORT_EXPONENTS
        marginals = WIDE_TRANSPORT_MARGINALS
        box = WIDE_TRANSPORT_BOX

    class WideRays(RaySchedules):
        exponents = WIDE_RAY_EXPONENTS

    workdir = OUT / f"known-defects-s{args.seed}-p{os.getpid()}"
    counts = Counter()
    try:
        for workload in (WideTransport(args.seed, workdir), WideRays(args.seed, workdir)):
            for b in range(args.blocks):
                for op in workload.block(b):
                    try:
                        outcome = op.check(op.run())
                    except Exception:  # a raising operation counts as failed
                        outcome = FAILED
                    counts[(workload.name, op.kind, op.label, outcome)] += 1
                workload.release(b)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    classes = sorted({key[:3] for key in counts})
    print(f"{'workload':<14} {'op':<9} {'inputs':<22} {OK:>4} {FAILED:>7} {WRONG:>6}")
    for cls in classes:
        ok, failed, wrong = (counts[cls + (o,)] for o in (OK, FAILED, WRONG))
        print(f"{cls[0]:<14} {cls[1]:<9} {cls[2]:<22} {ok:>4} {failed:>7} {wrong:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
