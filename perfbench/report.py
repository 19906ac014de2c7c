"""Run the benchmark over several seeds and summarise every workload.

    python3 perfbench/report.py [--workloads estimate,orders,enumerators]
        [--seeds 10] [--seconds 36] [--traced] [--out FILE]

Each (workload, seed) pair is one `run.py --trace 0` run. For each
end-to-end metric the table gives the median of the runs, the first and
third quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and the number of runs, plus fail_ratio = failed / attempted commands.
--traced adds one `run.py --trace 1` run per workload at the first seed.
--out writes every run's result object and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "notes": lines[:-1], "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "samples": len(values),
        }
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    summary["fail_ratio"] = {"unit": "ratio", "median": failed / attempted,
                             "failed": failed, "attempted": attempted}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "platform": platform.platform()},
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run_once(workload, s, args.seconds, False) for s in seeds]
        entry = {"runs": runs, "summary": summarise(runs)}
        if args.traced:
            entry["traced"] = run_once(workload, args.first_seed, args.seconds, True)
        report["workloads"][workload] = entry
        print(f"{workload}:")
        for name, s in entry["summary"].items():
            if name == "fail_ratio":
                print(f"  {name:12s} {s['median']:.4f} ({s['failed']}/{s['attempted']} commands)")
            else:
                print(f"  {name:12s} median {s['median']:.4f} {s['unit']}  q1 {s['q1']:.4f}"
                      f"  q3 {s['q3']:.4f}  spread {100 * s['spread']:.2f}%  runs {s['samples']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
