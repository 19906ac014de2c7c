"""Run one kposet CLI command in this fresh interpreter and write a sidecar.

    python3 perfbench/child.py SIDECAR TRACE -- <kposet arguments>

SIDECAR receives a JSON object with the exit code, the CLOCK_MONOTONIC time
at which the subcommand handler was entered (the end of set-up: interpreter
start, `import kposet.cli` and argument parsing), the peak resident set size
and, with TRACE=1, the span records of every layer. With TRACE=0 nothing is
wrapped except the handler entry, which is timed once per command.

Before importing kposet and after the command returns, this process runs
the calibrate.py reference once. It records their mean, which measures the
speed this CPU ran at around the command, and how long the calibration took
before set-up and in all, which the parent subtracts from the command's
set-up and wall times.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    sidecar, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py SIDECAR 0|1 -- <kposet arguments>")
    started = time.monotonic()
    import calibrate

    before_s = calibrate.reference_run()
    calibration_before_s = time.monotonic() - started
    import kposet.cli as cli

    tracer = None
    entry = cli.main
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap(f"cli.{argv[0]}", cli.main)

    marks = []

    def marked(handler):
        def enter(args):
            if not marks:
                marks.append(time.monotonic())
            return handler(args)

        return enter

    handlers = [name for name in vars(cli) if name.startswith("cmd_")]
    if not handlers:
        raise SystemExit("kposet.cli defines no cmd_* subcommand handlers")
    for name in handlers:
        setattr(cli, name, marked(getattr(cli, name)))

    code = entry(argv)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.monotonic()
    after_s = calibrate.reference_run()
    result = {
        "rc": code,
        "setup_end": marks[0] if marks else None,
        "maxrss_kb": maxrss_kb,
        "reference_s": (before_s + after_s) / 2,
        "calibration_before_s": calibration_before_s,
        "calibration_s": calibration_before_s + time.monotonic() - started,
    }
    if tracer is not None:
        result.update(tracer.snapshot())
    with open(sidecar, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
