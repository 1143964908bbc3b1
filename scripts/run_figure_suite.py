#!/usr/bin/env python3
"""Reproduce the full reference-figure dataset and print the scalar summary.

Usage: python scripts/run_figure_suite.py [OUT_DIR]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from plasmon_cqed.scenario import load_scenario
from plasmon_cqed.tasks import run_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="out/figure_suite")
    args = parser.parse_args()

    config = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "figure_suite.json")
    scenario = load_scenario(config)
    writer = run_scenario(scenario, out_dir=args.out_dir)
    with open(writer.path("summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    for key, entry in sorted(summary.items()):
        if isinstance(entry, dict):
            status = "PASS" if entry["pass"] else "FAIL"
            print(f"[{status}] {key}: {entry['value']:.4g} "
                  f"(reference {entry['reference']}, "
                  f"tol {entry['tolerance']:.0%})")
    print("all reference scalars pass" if summary["all_pass"]
          else "some reference scalars FAILED")
    return 0 if summary["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
