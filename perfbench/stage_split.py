"""Check the traced `estimate` stage split against direct calls of the tables.

    python3 perfbench/stage_split.py [--baseline perfbench/baseline.json]

Calls k_plain_table, k_max_table and k_min_table directly and untraced, in
this process, for each command of the `estimate` workload with its exact
arguments, and prints each stage's share of their sum next to the share of
complexity.plain_scan_s / .max_scan_s / .min_scan_s in the traced estimate
run recorded in the baseline file. Shares are compared because tracing
inflates each stage by a different amount of wrapper work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from kposet import cli, complexity  # noqa: E402
from kposet.posets import parse_poset_spec  # noqa: E402

STAGES = (("plain", complexity.k_plain_table), ("max", complexity.k_max_table),
          ("min", complexity.k_min_table))


def direct_split() -> dict[str, float]:
    seconds = {name: 0.0 for name, _ in STAGES}
    for command in workloads.commands("estimate", 0, HERE):
        args = cli.build_parser().parse_args(command.argv)
        p = parse_poset_spec(args.poset)
        budget = complexity.Budget(args.max_len, args.fuel, args.t_budget, args.window)
        for name, table in STAGES:
            start = time.perf_counter()
            table(p, args.ranks, budget)
            seconds[name] += time.perf_counter() - start
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    direct = direct_split()
    with open(args.baseline) as handle:
        traced_metrics = json.load(handle)["workloads"]["estimate"]["traced"]["result"]["metrics"]
    traced = {name: traced_metrics[f"complexity.{name}_scan_s"]["value"] for name, _ in STAGES}
    for label, split in (("direct, untraced", direct), ("traced run", traced)):
        total = sum(split.values())
        print(f"{label:17s} " + "  ".join(
            f"{name} {seconds:.3f} s ({100 * seconds / total:.1f}%)" for name, seconds in split.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
