#!/usr/bin/env python3
"""Print the fronthaul load table for every method and AP-count sweep.

Per-link real-symbol counts are measured from actual chain traversals and
cross-checked against the closed-form expressions inside load_report.
"""

import argparse
import sys

from oossim.experiments import METHODS, load_table
from oossim.scenario import SystemConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--detector", default="distributed_zf",
                        choices=("sequential_ls", "distributed_zf", "centralized_zf"))
    parser.add_argument("--ap-counts", type=int, nargs="+", default=[2, 4, 8, 16])
    args = parser.parse_args()

    for L in args.ap_counts:
        cfg = SystemConfig(L=L, ap_order=tuple(range(L, 0, -1)))
        table = load_table(cfg, detector=args.detector)
        print(f"\nL = {L} APs (per-link real symbols)")
        print(f"  {'method':<20}{'phase':<20}{'per link':>10}")
        for method in METHODS:
            phases = table[method]
            if phases is None:
                print(f"  {method:<20}{'(undefined for this config)':<20}")
                continue
            if not phases:
                print(f"  {method:<20}{'(no chain traffic)':<20}")
            for phase, load in phases.items():
                print(f"  {method:<20}{phase:<20}{load:>10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
