"""The kposet benchmark: drive the CLI and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's commands one at a time, each in a fresh
interpreter (a closed loop; `automata` keeps a process-wide enumeration
cache that a CLI user never carries from one command to the next). With
--trace 0 the whole sequence repeats until S seconds are used and the
end-to-end metrics are medians over the repetitions:

  wall_s       wall time of the whole command sequence
  setup_s      interpreter start, `import kposet.cli` and argument parsing up
               to the subcommand handler, summed over the sequence
  peak_rss_mb  largest peak RSS of any command in the sequence

Times are reported in normalised seconds. The speed of a CPU-bound process
on the shared host this benchmark was built on swings by up to 2x within a
minute, so each command's process times the fixed calibrate.py reference
just before and right after the command, and the command's wall and set-up
times are scaled by calibrate.NOMINAL_S / (the mean reference time). The raw wall seconds and
the reference times are printed in the '#' lines.

With --trace 1 the sequence runs once with every layer wrapped (see
tracer.py) and once without, and the per-layer metrics come from the traced
pass; trace.overhead_s is the difference of the two normalised wall times.

Every report is checked (checks.py). The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}; lines
before it starting with '#' summarise the run for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
COMMAND_TIMEOUT_S = 60


class Outcome:
    """One command execution as the parent saw it."""

    def __init__(self, command, error=None, wall_s=0.0, sidecar=None, text=None):
        self.command = command
        self.error = error  # why the command failed before its checks, or None
        self.wall_s = wall_s  # spawn to exit, without the calibration runs
        self.sidecar = sidecar
        self.text = text

    @property
    def speed(self) -> float:
        """Factor from this command's wall seconds to normalised seconds."""
        return calibrate.NOMINAL_S / self.sidecar["reference_s"]

    @property
    def setup_s(self) -> float:
        return self.sidecar["setup_s"]


def run_command(command, workdir: str, trace: bool) -> Outcome:
    out_path = os.path.join(workdir, f"out-{command.label}.txt")
    sidecar_path = os.path.join(workdir, f"sidecar-{command.label}.json")
    for path in (out_path, sidecar_path):
        if os.path.exists(path):
            os.unlink(path)
    argv = [sys.executable, CHILD, sidecar_path, "1" if trace else "0", "--",
            *command.argv, "--threads", "1", "--out", out_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(command, "timed out")
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        message = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return Outcome(command, f"exit {proc.returncode} {message}")
    with open(sidecar_path) as handle:
        sidecar = json.load(handle)
    sidecar["setup_s"] = sidecar["setup_end"] - start - sidecar["calibration_before_s"]
    with open(out_path, encoding="utf-8") as handle:
        text = handle.read()
    return Outcome(command, None, wall_s - sidecar["calibration_s"], sidecar, text)


def run_sequence(commands, workdir: str, trace: bool) -> list[Outcome]:
    return [run_command(c, workdir, trace) for c in commands]


def count_failures(outcomes, seed: int, log) -> int:
    """Check every report; a distinct report text is checked once."""
    verdicts: dict[tuple[str, str], list[str]] = {}
    failed = 0
    for o in outcomes:
        if o.error is not None:
            log(f"# FAIL {o.command.label}: {o.error}")
            failed += 1
            continue
        key = (o.command.label, o.text)
        if key not in verdicts:
            verdicts[key] = checks.problems(o.command, o.text, seed)
            for problem in verdicts[key]:
                log(f"# FAIL {o.command.label}: {problem}")
        failed += bool(verdicts[key])
    return failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timed_run(commands, workdir, seed, seconds, log):
    deadline = time.monotonic() + seconds
    series = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "raw_wall_s": [], "reference_s": []}
    outcomes = []
    while True:
        start = time.monotonic()
        seq = run_sequence(commands, workdir, trace=False)
        elapsed = time.monotonic() - start
        outcomes.extend(seq)
        if all(o.error is None for o in seq):
            series["wall_s"].append(sum(o.wall_s * o.speed for o in seq))
            series["setup_s"].append(sum(o.setup_s * o.speed for o in seq))
            series["peak_rss_mb"].append(max(o.sidecar["maxrss_kb"] for o in seq) / 1024)
            series["raw_wall_s"].append(sum(o.wall_s for o in seq))
            series["reference_s"].extend(o.sidecar["reference_s"] for o in seq)
        if time.monotonic() + elapsed > deadline:
            break
    failed = count_failures(outcomes, seed, log)
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for name, values in series.items():
        if not values:
            continue
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        log(f"# {name}: median {median:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, samples {len(values)}")
        if name in units:
            metrics[name] = {"value": median, "unit": units[name]}
    log(f"# fail_ratio: {failed}/{len(outcomes)} commands")
    return outcomes, failed, metrics


def _scaled(outcome) -> dict:
    """The span records of one traced command, in normalised seconds."""
    speed = outcome.speed
    spans = {name: [calls, total * speed, self_s * speed]
             for name, (calls, total, self_s) in outcome.sidecar["spans"].items()}
    return {"spans": spans, "counters": outcome.sidecar["counters"]}


def traced_run(commands, workdir, seed, log):
    traced = run_sequence(commands, workdir, trace=True)
    plain = run_sequence(commands, workdir, trace=False)
    outcomes = traced + plain
    failed = count_failures(outcomes, seed, log)
    for t, p in zip(traced, plain):
        if t.error is None and p.error is None and t.text != p.text:
            log(f"# FAIL {t.command.label}: traced report differs from untraced report")
            failed += 1
    merged = tracer.merge(_scaled(o) for o in traced if o.error is None)
    values = tracer.layer_metrics(merged)
    traced_wall = sum(o.wall_s * o.speed for o in traced if o.error is None)
    plain_wall = sum(o.wall_s * o.speed for o in plain if o.error is None)
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    by_layer = tracer.self_time_by_layer(merged)
    traced_self = sum(by_layer.values()) or 1.0
    log("# traced self time by layer: " + ", ".join(
        f"{layer} {100 * s / traced_self:.1f}%" for layer, s in by_layer.items()))
    log(f"# traced wall {traced_wall:.3f} s, untraced wall {plain_wall:.3f} s (normalised)")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return outcomes, failed, metrics


def warm_up() -> None:
    """Compile kposet's bytecode once, as an installed package would have it."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src');"
                    " import kposet.cli"], cwd=ROOT, check=True, timeout=COMMAND_TIMEOUT_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kposet", "cli.py")):
        print("perfbench: no kposet sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    def log(line):
        print(line, flush=True)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        commands = workloads.commands(args.workload, args.seed, workdir)
        warm_up()
        log(f"# workload {args.workload}, seed {args.seed}, {len(commands)} commands per sequence")
        if args.trace:
            outcomes, failed, metrics = traced_run(commands, workdir, args.seed, log)
        else:
            outcomes, failed, metrics = timed_run(commands, workdir, args.seed, args.seconds, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
