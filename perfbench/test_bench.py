"""Self-test of the benchmark: python3 -m pytest perfbench/test_bench.py

It takes about a minute: every workload runs twice traced and once untraced.
"""

import json
import os
import sys
import tempfile

import pytest

import checks
import run
import tracer
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))


def _counts(snapshots):
    metrics = tracer.layer_metrics(tracer.merge(snapshots))
    return {name: value for name, (value, unit) in metrics.items() if unit in ("count", "ratio")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_reports_match(workload):
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as workdir:
        commands = workloads.commands(workload, checks.DEFAULT_SEED, workdir)
        passes = [run.run_sequence(commands, workdir, trace=True) for _ in range(2)]
        plain = run.run_sequence(commands, workdir, trace=False)
    for outcomes in passes + [plain]:
        assert [o.error for o in outcomes] == [None] * len(commands)
    first, second = ([o.sidecar for o in outcomes] for outcomes in passes)
    assert _counts(first) == _counts(second)
    assert any(_counts(first).values())
    for traced, untraced in zip(passes[0], plain):
        assert traced.text == untraced.text, traced.command.label


def _expected(label):
    with open(os.path.join(checks.EXPECTED_DIR, label + ".txt"), encoding="utf-8") as handle:
        return handle.read()


def _command(workload, label, workdir):
    return next(c for c in workloads.commands(workload, checks.DEFAULT_SEED, workdir)
                if c.label == label)


def test_checks_reject_a_witness_that_does_not_replay(tmp_path):
    command = _command("estimate", "estimate-nat", str(tmp_path))
    config = '# config: {"command": "estimate", "fuel": 4096, "poset": "nat"}\n'
    good = config + _expected("estimate-nat")
    assert checks.problems(command, good, checks.DEFAULT_SEED) == []
    bad = good.replace("1,1,6,,,000111,", "1,1,6,,,000110,")
    assert any("does not replay" in p for p in checks.problems(command, bad, 1))


def test_checks_reject_a_comparable_pair_in_an_antichain(tmp_path):
    command = _command("orders", "dilworth-0", str(tmp_path))
    with open(command.argv[-1]) as handle:
        order = json.load(handle)
    assert checks.problems(command, _expected("dilworth-0"), checks.DEFAULT_SEED) == []
    report = json.loads(_expected("dilworth-0"))
    low, high = order["lt"][0]
    report["antichain"][:2] = [order["elements"][low], order["elements"][high]]
    assert "antichain has comparable elements" in checks.problems(command, json.dumps(report), 1)


def test_checks_reject_a_wrong_quotient(tmp_path):
    command = _command("enumerators", "quotient", str(tmp_path))
    good = _expected("quotient")
    assert checks.problems(command, good, checks.DEFAULT_SEED) == []
    bad = good.replace("\n0,", "\n0,a+", 1)
    assert any("wrong on" in p for p in checks.problems(command, bad, 1))
