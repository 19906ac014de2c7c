"""The benchmark's commands, run in-process, pass the benchmark's own output
checks: a drift from perfbench/expected/ shows here, before a benchmark run.
Only reads perfbench/."""

import importlib.util
import os
import sys

import pytest

from kposet.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    """perfbench/<name>.py as a module, without writing its bytecode there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses reads it
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


checks = _load("checks")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_commands_pass_their_checks(tmp_path, capsys, workload):
    seed = checks.DEFAULT_SEED
    for cmd in workloads.commands(workload, seed, str(tmp_path)):
        out = tmp_path / f"{cmd.label}.out"
        code = main([*cmd.argv, "--threads", "1", "--out", str(out)])
        assert (code, capsys.readouterr()) == (0, ("", "")), cmd.label
        assert checks.problems(cmd, out.read_text(encoding="utf-8"), seed) == [], cmd.label
