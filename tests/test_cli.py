import contextlib
import importlib.util
import io
import json
import os
import pkgutil
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kposet
from kposet import busy_beaver, cli
from kposet.cli import build_parser, main
from kposet.errors import ConfigError
from kposet.posets import parse_poset_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_writes_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(
        capsys, "estimate", "--poset", "nat", "--max-len", "12",
        "--fuel", "256", "--t-budget", "256", "--window", "4",
        "--ranks", "8", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[2].startswith("rank,")
    data_rows = lines[3:]
    assert len(data_rows) == 8  # one row per requested rank
    assert any(row.endswith("ok") for row in data_rows)
    # byte identical rerun
    out2 = tmp_path / "t2.csv"
    run(
        capsys, "estimate", "--poset", "nat", "--max-len", "12",
        "--fuel", "256", "--t-budget", "256", "--window", "4",
        "--ranks", "8", "--out", str(out2),
    )
    assert out2.read_text() == text


def test_estimate_threads_recorded_not_used(capsys):
    # the default does not depend on the machine, and the flag is only
    # recorded: the report body is the same whatever it says
    argv = ("estimate", "--poset", "nat", "--max-len", "12", "--fuel", "256",
            "--t-budget", "256", "--window", "4", "--ranks", "8")
    bodies = {}
    for extra in ((), ("--threads", "1"), ("--threads", "4")):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        config_line, body = out.split("\n", 1)
        config = json.loads(config_line[len("# config: "):])
        assert config["threads"] == (int(extra[1]) if extra else 1)
        bodies[extra] = body
    assert len(set(bodies.values())) == 1


_PROGRAM = "000110000000110111"  # the README's cardre/interact program


@pytest.mark.parametrize("argv, config", [
    (("estimate", "--poset", "nat", "--max-len", "8", "--fuel", "64",
      "--t-budget", "64", "--window", "4", "--ranks", "2"),
     {"command": "estimate", "poset": "nat", "max_len": 8, "fuel": 64, "t_budget": 64,
      "window": 4, "ranks": 2, "threads": 1}),
    (("quotient", "--regex", "a·b", "--alphabet", "ab", "--m-words", "a,b"),
     {"command": "quotient", "regex": "a·b", "alphabet": "ab", "m_words": ["a", "b"],
      "threads": 1}),
    (("conditions", "--pair", "prefix:ab/lexico:a<b", "--k", "2", "--fragment", "6",
      "--threads", "2"),
     {"command": "conditions", "pair": "prefix:ab/lexico:a<b", "k": 2, "condition": "star",
      "fragment": 6, "threads": 2}),
    (("dilworth", "--file", "ORDER"),
     {"command": "dilworth", "file": "order.json", "threads": 1}),
    (("diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "1", "--fuel", "64",
      "--t-budget", "64", "--window", "4"),
     {"command": "diagonal", "pair": "prefix:ab/lexico:a<b", "fuel": 64, "t_budget": 64,
      "window": 4, "i": 1, "threads": 1}),
    (("bb", "--states", "1", "--t-max", "5"),
     {"command": "bb", "states": 1, "t_max": 5, "threads": 1}),
    (("cardre", "--program", _PROGRAM, "--t-max", "5"),
     {"command": "cardre", "index": 286774, "t_max": 5, "threads": 1}),
    (("interact", "--mode", "cap", "--index", "7", "--x", "2,1", "--t-budget", "5",
      "--window", "2"),
     {"command": "interact", "mode": "cap", "index": 7, "x": [1, 2], "t_budget": 5,
      "window": 2, "threads": 1}),
], ids=["estimate", "quotient", "conditions", "dilworth", "diagonal", "bb", "cardre",
        "interact"])
def test_report_config(tmp_path, capsys, argv, config):
    # the exact configuration each command records: its keys, which are the
    # command and its parser's options less --out and --program, and values
    order = tmp_path / "order.json"
    order.write_text(json.dumps({"elements": ["a", "b"], "lt": [[0, 1]]}))
    argv = [str(order) if a == "ORDER" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if out.startswith("# config: "):
        recorded = json.loads(out.split("\n", 1)[0][len("# config: "):])
    else:
        recorded = json.loads(out)["config"]
    flags = cli._SUBCOMMANDS[argv[0]][1]
    dests = {flag[2:].replace("-", "_") for flag in flags} - {"out", "program"}
    assert set(recorded) == {"command"} | dests
    assert recorded == config


@pytest.mark.parametrize("argv", [
    ("estimate", "--poset", "nat", "--ranks", "2", "--seed", "3"),
    ("diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "1", "--alpha-shift", "2"),
], ids=["seed", "alpha-shift"])
def test_removed_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main(list(argv))
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


def test_estimate_zero_ranks(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code, _, _ = run(
        capsys, "estimate", "--poset", "nat", "--max-len", "6",
        "--fuel", "64", "--t-budget", "64", "--window", "2",
        "--ranks", "0", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[-1].startswith("rank,")  # header only, no data rows


def test_estimate_bad_poset(capsys):
    code, _, err = run(capsys, "estimate", "--poset", "weird", "--ranks", "2")
    assert code == 2
    assert "weird" in err


def test_quotient_identity(capsys):
    code, out, _ = run(
        capsys, "quotient", "--regex", "(a+b)*·b", "--alphabet", "ab",
        "--m-words", "a",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "t,quotient"
    final = lines[-1].split(",")[1]
    assert final == lines[2].split(",")[1]


def test_quotient_epsilon_identity(capsys):
    code, out, _ = run(
        capsys, "quotient", "--regex", "a·b", "--alphabet", "ab",
        "--m-words", "",
    )
    assert code == 0
    final = out.strip().split("\n")[-1].split(",", 1)[1]
    assert final == "a·b"


def test_quotient_trace_length_bound(capsys):
    code, out, _ = run(
        capsys, "quotient", "--regex", "(a+b)*·b", "--alphabet", "ab",
        "--m-words", "a,ab,aab,b,ba",
    )
    assert code == 0
    lines = out.strip().split("\n")[2:-1]
    values = []
    for line in lines:
        v = line.split(",", 1)[1]
        if not values or values[-1] != v:
            values.append(v)
    # distinct values bounded by state count + 1
    assert len(values) <= 5


def test_quotient_bad_regex(capsys):
    code, _, err = run(
        capsys, "quotient", "--regex", "((", "--alphabet", "ab", "--m-words", "a"
    )
    assert code == 2
    assert "well-formed" in err


@pytest.mark.parametrize("alphabet", ["", "aa"])
def test_quotient_bad_alphabet(capsys, alphabet):
    with pytest.raises(ConfigError) as exc:
        parse_poset_spec(f"reg:{alphabet}")
    code, out, err = run(
        capsys, "quotient", "--regex", "a", "--alphabet", alphabet, "--m-words", "a"
    )
    assert code == 2
    assert out == ""
    assert err == f"kposet: {exc.value}\n"


@pytest.mark.parametrize("argv, err", [
    (("interact", "--program", "00011010111110", "--mode", "cap", "--x=-1,2"),
     "kposet: not a sorted duplicate-free tuple of naturals: (-1, 2)\n"),
    (("quotient", "--regex", "a", "--alphabet", "", "--m-words", "a"),
     "kposet: alphabet must not be empty\n"),
    (("quotient", "--regex", "a", "--alphabet", "aa", "--m-words", "a"),
     "kposet: alphabet has repeated symbols: 'aa'\n"),
], ids=["interact-negative-member", "quotient-empty-alphabet", "quotient-repeated-alphabet"])
def test_member_and_alphabet_errors_keep_their_text(capsys, argv, err):
    # interact and quotient make these checks without loading posets
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize("regex", [
    "(" * 247 + "a" + ")" * 247,
    "a" + "*" * 1000,
    "·".join(["a"] * 1000),
], ids=["parentheses", "stars", "concatenation"])
def test_quotient_nested_too_deeply_exits_3(capsys, regex):
    # the parser (parentheses) or the compiler (a star or concatenation
    # chain) recurses once per level, past the interpreter's limit here
    code, out, err = run(capsys, "quotient", "--regex", regex, "--alphabet", "a", "--m-words", "a")
    assert code == 3 and out == ""
    assert err == f"kposet: expression of {len(regex)} characters nests too deeply to evaluate\n"


def test_quotient_long_union_within_the_limit_exits_0():
    # as long as the refused expressions above but shallow enough for a
    # fresh process: no length ceiling refuses it
    regex = "+".join(["a"] * 991)
    proc = subprocess.run(
        [sys.executable, "-m", "kposet.cli", "quotient", "--regex", regex, "--alphabet", "a",
         "--m-words", "a"],
        capture_output=True, text=True, env=_kposet_env(PYTHONUTF8="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("final,()\n")


def test_conditions_star(capsys):
    code, out, _ = run(
        capsys, "conditions", "--pair", "prefix:ab/lexico:a<b", "--k", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == ["aa", "ab", "b"]


def test_conditions_dagger_absent(capsys):
    code, out, _ = run(
        capsys, "conditions", "--pair", "lexico:a<b/lexico:a<b", "--k", "1",
        "--condition", "dagger", "--fragment", "6",
    )
    assert code == 0
    assert json.loads(out)["witness"] is None


def test_conditions_bad_pair(capsys):
    code, _, _ = run(capsys, "conditions", "--pair", "nat", "--k", "2")
    assert code == 2


def test_conditions_fragment_ceiling(capsys):
    # 17 is the first fragment size above SUBSET_SEARCH_BOUND; a million
    # would take weeks to build, so it shows the ceiling comes first
    for fragment in ("17", "20", "1000000"):
        for condition in ("star", "dagger"):
            start = time.perf_counter()
            code, _, err = run(
                capsys, "conditions", "--pair", "prefix:ab/lexico:a<b", "--k", "2",
                "--condition", condition, "--fragment", fragment,
            )
            assert code == 3
            assert "subset search" in err
            assert time.perf_counter() - start < 5


def test_diagonal_byte_identical(capsys):
    argv = [
        "diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "2",
        "--fuel", "128", "--t-budget", "128", "--window", "4",
    ]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_diagonal_padded_pair_audits_the_same_family(capsys):
    # the family is picked from the parsed specs, so padding around them
    # changes only the echoed --pair
    argv = ["--i", "2", "--fuel", "128", "--t-budget", "128", "--window", "4"]
    reports = []
    for pair in ("prefix:ab/lexico:a<b", " prefix:ab / lexico:a<b"):
        code, out, _ = run(capsys, "diagonal", "--pair", pair, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["config"].pop("pair") == pair
        reports.append(data)
    assert reports[0] == reports[1]
    assert reports[0]["audit"]["passed"] is True
    assert (reports[0]["f"], reports[0]["g"]) == ("a" * 15 + "b", "b")


def test_estimate_length_ceiling(capsys):
    # 25 is the first length above MAX_PROG_LEN; 40 would never end, so it
    # shows that the ceiling comes before either walk
    for max_len in ("25", "40"):
        start = time.perf_counter()
        code, out, err = run(capsys, "estimate", "--poset", "nat", "--max-len", max_len)
        assert code == 3
        assert out == ""
        assert "ceiling of 24 bits" in err
        assert time.perf_counter() - start < 5


def test_diagonal_alpha_cap(capsys):
    # --i 11 is alpha(i) = 12, the first above DIAGONAL_ALPHA_CAP
    start = time.perf_counter()
    code, out, err = run(capsys, "diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "11")
    assert code == 3
    assert out == ""
    assert "alpha(i) = 12 exceeds the desk-scale cap of 11" in err
    assert time.perf_counter() - start < 5


def test_diagonal_at_i_7(capsys):
    # alpha(i) = 8: a family of 512 words, each prefix-incomparable with the rest
    code, out, _ = run(capsys, "diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "7")
    assert code == 0
    data = json.loads(out)
    audit = data["audit"]
    assert (audit["z_size"], audit["programs_considered"], audit["passed"]) == (512, 247, True)
    assert (data["f"], data["g"]) == ("a" * 511 + "b", "b")


def test_diagonal_at_the_alpha_cap(capsys):
    # --i 10 is alpha(i) = 11 = DIAGONAL_ALPHA_CAP: a family of 4096 words
    code, out, _ = run(capsys, "diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "10")
    assert code == 0
    audit = json.loads(out)["audit"]
    assert (audit["alpha_i"], audit["z_size"], audit["passed"]) == (11, 4096, True)


def test_dilworth(tmp_path, capsys):
    f = tmp_path / "butterfly.json"
    f.write_text(json.dumps({
        "elements": ["a", "b", "c", "d"],
        "lt": [[0, 2], [0, 3], [1, 2], [1, 3]],
    }))
    code, out, _ = run(capsys, "dilworth", "--file", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["antichain_size"] == 2
    assert data["cover_size"] == 2
    assert data["dilworth_equal"] is True
    assert sorted(e for chain in data["chains"] for e in chain) == ["a", "b", "c", "d"]


def test_dilworth_runs_one_full_matching(tmp_path, capsys, monkeypatch):
    # the width and the chains come from one matching of the whole order
    from kposet import analysis

    n = analysis.N_BOUND
    f = tmp_path / "chain.json"
    f.write_text(json.dumps({
        "elements": [str(i) for i in range(n)],
        "lt": [[i, i + 1] for i in range(n - 1)],
    }))
    full_rows = analysis.FinitePoset(n, frozenset((i, i + 1) for i in range(n - 1))).rows
    full_calls = []
    matching = analysis._max_matching

    def counting(rows):
        if tuple(rows) == full_rows:
            full_calls.append(1)
        return matching(rows)

    monkeypatch.setattr(analysis, "_max_matching", counting)
    code, out, _ = run(capsys, "dilworth", "--file", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["antichain"] == ["0"]
    assert data["chains"] == [[str(i) for i in range(n)]]
    assert len(full_calls) == 1


def test_dilworth_huge_order_refused_before_closure(tmp_path, capsys):
    # the ceiling comes before the quadratic closure, so this is fast
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({
        "elements": [str(i) for i in range(100_000)],
        "lt": [[i, i + 1] for i in range(99_999)],
    }))
    start = time.perf_counter()
    code, _, err = run(capsys, "dilworth", "--file", str(f))
    assert code == 3
    assert "exact search" in err
    assert time.perf_counter() - start < 5


def test_dilworth_missing_file(capsys):
    code, _, _ = run(capsys, "dilworth", "--file", "/nonexistent.json")
    assert code == 2


def test_dilworth_file_not_utf8(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b"\xe9")  # 'é' in Latin-1
    code, out, err = run(capsys, "dilworth", "--file", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"kposet: cannot read {str(f)!r}: 'utf-8' codec can't decode")


def test_dilworth_malformed_order(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"elements": ["a", "b"], "lt": [["0", 1]]}))
    code, _, err = run(capsys, "dilworth", "--file", str(f))
    assert code == 2
    assert "bad lt pair" in err


def test_dilworth_duplicate_names_refused(tmp_path, capsys):
    # 1 and "1" are both named "1", so a chain ["1", "1"] would be ambiguous
    f = tmp_path / "dup.json"
    f.write_text(json.dumps({"elements": [1, "1"], "lt": [[0, 1]]}))
    code, out, err = run(capsys, "dilworth", "--file", str(f))
    assert code == 2 and out == ""
    assert err == "kposet: duplicate element name '1'\n"


def test_diagonal(capsys):
    argv = ["diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "1",
            "--fuel", "128", "--t-budget", "128", "--window", "4"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["audit"]["passed"] is True
    assert data["audit"]["z_size"] == 8
    # the audit reads no program length, so it takes and records none
    assert "max_len" not in data["config"]
    with pytest.raises(SystemExit) as caught:
        main(argv + ["--max-len", "8"])
    assert caught.value.code == 2
    assert "--max-len" in capsys.readouterr().err


def test_diagonal_considers_every_padded_word(capsys):
    # alpha(5) = 6: every word of at most 5 bits that contains a 1 addresses
    # a machine, including the words whose machine does not parse
    code, out, _ = run(capsys, "diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "5")
    assert code == 0
    audit = json.loads(out)["audit"]
    assert audit["programs_considered"] == sum(2**length - 1 for length in range(6)) == 57


def test_estimate_censors_wrapped_runs_past_the_horizon(capsys):
    # the wrapped rank-3 witness emits at step 3, past the horizon of 2: its
    # row is left out of the wrap constant, not reported as a wrapper bug
    code, out, err = run(capsys, "estimate", "--poset", "nat", "--max-len", "14",
                         "--ranks", "8", "--t-budget", "2", "--window", "1")
    assert (code, err) == (0, "")
    lines = out.split("\n")
    assert json.loads(lines[1][len("# summary: "):])["c_wrap"] is not None
    assert lines[6] == "3,3,12,,,000000000111,,,,ok"


def test_bb_table(capsys):
    code, out, _ = run(capsys, "bb", "--states", "1", "--t-max", "20")
    assert code == 0
    lines = out.strip().split("\n")
    rows = [line.split(",") for line in lines[2:]]
    by_n = {}
    for n, t, v in rows:
        by_n.setdefault(int(n), []).append(int(v))
    for n, vals in by_n.items():
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert set(by_n) == {0, 1}


def _no_walk(*_):
    raise AssertionError("the walk started")


def test_bb_resource_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(busy_beaver, "_halting_leaves", _no_walk)
    for states in ("4", "9"):
        code, out, err = run(capsys, "bb", "--states", states, "--t-max", "5")
        assert code == 3
        assert out == ""
        assert err == "kposet: busy beaver enumeration is bounded at n <= 3\n"


@pytest.mark.parametrize("states", ["0", "2", "3"])
def test_bb_step_ceiling(capsys, monkeypatch, states):
    # the first t_max above the ceiling of n = states (256 up to 2, 80 at
    # 3) exits before any walk starts
    ceiling = 80 if states == "3" else 256
    monkeypatch.setattr(busy_beaver, "_halting_leaves", _no_walk)
    code, out, err = run(capsys, "bb", "--states", states, "--t-max", str(ceiling + 1))
    assert code == 3
    assert out == ""
    assert err == f"kposet: busy beaver t_max={ceiling + 1} exceeds the desk-scale ceiling of {ceiling} steps\n"


@pytest.mark.parametrize("argv", [
    ("bb", "--states", "-1", "--t-max", "5"),
    ("bb", "--states", "1", "--t-max", "-1"),
    ("cardre", "--program", "00011010111110", "--t-max", "-1"),
    ("interact", "--program", "00011010111110", "--mode", "cap", "--x", "1,2",
     "--t-budget", "-1"),
    ("diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "-1"),
    ("estimate", "--poset", "nat", "--ranks", "-1"),
    ("interact", "--program", "00011010111110", "--mode", "cap", "--x", "1,-2"),
])
def test_negative_sizes_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "natural" in err


def test_cardre(capsys):
    from kposet.codec import b_index
    from kposet.vm import assemble

    prog = assemble(["INC_A", "OUT", "INC_A", "OUT", "HALT"])
    code, out, _ = run(
        capsys, "cardre", "--program", prog, "--t-max", "10",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[2:]]
    counts = [int(v) for _, v in rows]
    assert counts[-1] == 2
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_interact(capsys):
    from kposet.vm import assemble

    prog = assemble(["INC_A", "OUT", "INC_A", "INC_A", "OUT", "HALT"])
    code, out, _ = run(
        capsys, "interact", "--mode", "cap", "--program", prog,
        "--x", "1,2", "--t-budget", "32",
    )
    assert code == 0
    data = json.loads(out)
    assert data["limit"] == [1]
    assert data["status"] == "stabilized-within-budget"
    code, out, _ = run(
        capsys, "interact", "--mode", "setminus", "--program", prog,
        "--x", "1,2", "--t-budget", "32",
    )
    assert json.loads(out)["limit"] == [2]


def test_interact_bad_window_exits_before_the_walk(capsys):
    # the window is checked first, before the run and the step ceiling
    start = time.perf_counter()
    code, out, err = run(
        capsys, "interact", "--program", "00011010111110", "--mode", "cap", "--x", "1,2",
        "--t-budget", "10000000", "--window", "0",
    )
    assert (code, out, err) == (2, "", "kposet: window must be >= 1, got 0\n")
    assert time.perf_counter() - start < 1


@pytest.fixture
def no_machine_run(monkeypatch):
    """Fail the test if the machine kernel runs."""
    from kposet import enumerable, vm

    def no_run(*args):
        raise AssertionError("the machine ran")

    for module in (vm, enumerable):  # enumerable binds the kernel by name
        monkeypatch.setattr(module, "_execute", no_run)


@pytest.mark.parametrize("argv, err", [
    (("cardre", "--t-max", "1000001"),
     "kposet: cardre t_max=1000001 exceeds the desk-scale ceiling of 1000000 steps\n"),
    (("interact", "--mode", "minus", "--x", "1,2", "--t-budget", "1000001"),
     "kposet: interact t_budget=1000001 exceeds the desk-scale ceiling of 1000000 steps\n"),
], ids=["cardre", "interact"])
def test_run_steps_ceiling(capsys, no_machine_run, argv, err):
    # 1000001 is the first value above RUN_STEPS_CEILING; it exits 3 before any run
    code, out, got = run(capsys, *argv, "--program", "00011010111110")
    assert (code, out, got) == (3, "", err)


@pytest.mark.parametrize("budget", ["10000", "1000000"])
def test_interact_trace_ceiling(capsys, budget):
    # minus with a large member lists ~i members at its i-th point, so the
    # trace grows with the square of the emissions; it stops at the ceiling
    # of listed members (4226 is the step reached, whatever the budget)
    start = time.perf_counter()
    code, out, err = run(capsys, "interact", "--program", "00011010111110", "--mode", "minus",
                         "--x", "0,5,1000000000", "--t-budget", budget)
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err == "kposet: interaction trace exceeds the desk-scale ceiling of 1000000 listed members at t=4226\n"


def test_interact_trace_ceiling_counts_only_the_budget(tmp_path, capsys):
    # 5,000 members 100 apart: each emission adds 5,000 members to minus, so
    # the 10 emissions before t=30 list 275,000 in all, and the 21 before
    # t=64 would pass the ceiling; points past the budget do not count
    xs = ",".join(str(10**6 + 100 * i) for i in range(5000))
    out = tmp_path / "minus.json"
    code, _, err = run(capsys, "interact", "--program", "00011010111110", "--mode", "minus",
                       "--x", xs, "--t-budget", "30", "--out", str(out))
    assert (code, err) == (0, "")
    trace = json.loads(out.read_text())["trace"]
    assert [t for t, _ in trace] == [0] + [3 * j - 1 for j in range(1, 11)]
    assert len(trace[-1][1]) == 50000


def test_interact_minus_skips_emissions_once_the_answer_is_whole(capsys):
    # X = 0..19999: the first emission, 1, makes the answer 0..19998, and a
    # later emission v can add only x - v <= 19999 - v, all in already; so
    # the ~10,000 emissions before t = 30000 are skipped, not O(|X|) each
    xs = ",".join(str(m) for m in range(20000))
    start = time.perf_counter()
    code, out, err = run(capsys, "interact", "--program", "00011010111110", "--mode", "minus",
                         "--x", xs, "--t-budget", "30000")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["trace"] == [[0, []], [2, list(range(19999))]]
    assert (data["limit"], data["status"]) == (list(range(19999)), "stabilized-within-budget")


@pytest.mark.parametrize("budget, err", [
    (("--t-budget", "-1"), "kposet: t_budget and fuel must be natural numbers, got -1 and -1\n"),
    (("--t-budget", "-1", "--window", "0"),
     "kposet: t_budget and fuel must be natural numbers, got -1 and -1\n"),
    (("--window", "0"), "kposet: window must be >= 1, got 0\n"),
    (("--t-budget", "1000001", "--window", "0"), "kposet: window must be >= 1, got 0\n"),
])
def test_interact_budget_errors_come_before_any_run(capsys, no_machine_run, budget, err):
    # budgeted_limit's messages, checked before the machine runs
    code, out, got = run(capsys, "interact", "--program", "00011010111110", "--mode", "cap",
                         "--x", "1,2", *budget)
    assert (code, out, got) == (2, "", err)


@pytest.mark.parametrize("t_max, status, err", [
    ("-1", 2, "kposet: --t-max must be a natural number\n"),
    ("1000001", 3, "kposet: cardre t_max=1000001 exceeds the desk-scale ceiling of 1000000 steps\n"),
    ("3", 2, "kposet: b_word needs a natural number, got -1\n"),
])
def test_cardre_checks_t_max_before_the_program(capsys, no_machine_run, t_max, status, err):
    # --t-max's two checks come first, then the index, all before any run
    code, out, got = run(capsys, "cardre", "--index", "-1", "--t-max", t_max)
    assert (code, out, got) == (status, "", err)


def test_interact_needs_program(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["interact", "--mode", "cap", "--x", "1"])
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(
        "kposet interact: error: one of the arguments --index --program is required\n"
    )


@pytest.mark.parametrize("argv", [
    ("cardre", "--t-max", "5"),
    ("interact", "--mode", "cap", "--x", "1", "--t-budget", "5"),
], ids=["cardre", "interact"])
def test_index_and_program_are_exclusive(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--index", "5", "--program", "01"])
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(
        f"kposet {argv[0]}: error: argument --program: not allowed with argument --index\n"
    )


_BASE = {"cli", "errors", "posets"}
_REPORT = _BASE | {"codec", "limits", "vm", "complexity"}
_SETS = {"cli", "errors", "codec", "limits", "vm", "enumerable"}  # no posets

# Run one command in a fresh interpreter and print the kposet modules it loaded.
_PROBE = """
import json, sys
from kposet.cli import main
code = main(sys.argv[1:])
loaded = sorted(m[len("kposet."):] for m in sys.modules if m.startswith("kposet."))
heavy = sorted(m for m in ("dataclasses", "inspect", "argparse", "gettext", "locale")
               if m in sys.modules)
print(json.dumps([code, loaded, heavy, "csv" in sys.modules]))
"""


# A command line of each kind and the kposet modules it loads.
_COMMAND_LAYERS = [
    (("estimate", "--poset", "nat", "--max-len", "6", "--ranks", "2"), _REPORT),
    (("estimate", "--poset", "prefix:ab", "--max-len", "6", "--ranks", "2"), _REPORT),
    (("estimate", "--poset", "finsets", "--max-len", "6", "--ranks", "2"), _REPORT),
    (("estimate", "--poset", "reg:ab", "--max-len", "6", "--ranks", "2"),
     _REPORT | {"automata"}),
    (("estimate", "--poset", "lexico:a<b", "--max-len", "6", "--ranks", "2"),
     _REPORT | {"analysis"}),
    (("diagonal", "--pair", "prefix:ab/lexico:a<b", "--i", "1",
      "--fuel", "64", "--t-budget", "64", "--window", "4"), _REPORT | {"analysis", "diagonal"}),
    (("diagonal", "--pair", "discrete(nat)/nat", "--i", "1",
      "--fuel", "64", "--t-budget", "64", "--window", "4"),
     _REPORT | {"analysis", "diagonal", "conditions"}),
    (("conditions", "--pair", "prefix:ab/lexico:a<b", "--k", "2", "--fragment", "6"),
     _BASE | {"analysis", "conditions"}),
    (("dilworth", "--file", "ORDER"), {"cli", "errors", "analysis"}),
    (("bb", "--states", "1", "--t-max", "5"), {"cli", "errors", "busy_beaver"}),
    (("cardre", "--program", "00011010111110", "--t-max", "5"), _SETS),
    (("interact", "--program", "00011010111110", "--mode", "cap", "--x", "1,2",
      "--t-budget", "5"), _SETS),
    (("quotient", "--regex", "a·b", "--alphabet", "ab", "--m-words", "a"),
     {"cli", "errors", "automata"}),
]


@pytest.mark.parametrize("argv, layers", _COMMAND_LAYERS, ids=[
    "estimate-nat", "estimate-prefix", "estimate-finsets", "estimate-reg", "estimate-lexico",
    "diagonal", "diagonal-family-search", "conditions", "dilworth", "bb", "cardre",
    "interact", "quotient"])
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    order = tmp_path / "order.json"
    order.write_text(json.dumps({"elements": ["a", "b"], "lt": [[0, 1]]}))
    argv = [str(order) if a == "ORDER" else a for a in argv]
    src = os.path.dirname(os.path.dirname(kposet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    code, loaded, heavy, csv_loaded = json.loads(proc.stdout)
    assert code == 0
    assert set(loaded) == layers
    # records are namedtuples, so no dataclass machinery at start-up, and a
    # well-formed command line is parsed without argparse
    assert heavy == []
    if argv[0] in ("conditions", "dilworth", "interact"):  # JSON reports: no layer writes CSV
        assert not csv_loaded


def test_every_package_module_is_loaded_by_some_command():
    # the package is what its commands run; code that only tests run lives in tests/
    loaded = set().union(*(layers for _, layers in _COMMAND_LAYERS))
    assert loaded == {m.name for m in pkgutil.iter_modules(kposet.__path__)}


def test_interact_mode_choices_match_enumerable():
    from kposet.enumerable import INTERACTION_MODES

    _, _, _, choices, _ = cli._SUBCOMMANDS["interact"][1]["--mode"]
    assert choices == INTERACTION_MODES


# The smallest argv that parses, per subcommand; the handler itself is replaced.
_MINIMAL_ARGV = {
    "estimate": ("--poset", "nat"),
    "quotient": ("--regex", "a", "--alphabet", "a", "--m-words", "a"),
    "conditions": ("--pair", "nat/nat", "--k", "1"),
    "dilworth": ("--file", "order.json"),
    "diagonal": ("--pair", "nat/nat", "--i", "0"),
    "bb": ("--states", "0", "--t-max", "0"),
    "cardre": ("--index", "0", "--t-max", "0"),
    "interact": ("--mode", "cap", "--index", "0", "--x", "1"),
}


def test_handlers_are_the_cmd_attributes_of_cli():
    # perfbench/child.py times set-up by wrapping every cmd_* attribute
    names = list(cli._SUBCOMMANDS)
    assert sorted(names) == sorted(_MINIMAL_ARGV)
    assert sorted(f"cmd_{name}" for name in names) == sorted(
        attr for attr in vars(cli) if attr.startswith("cmd_"))


@pytest.mark.parametrize("name", sorted(_MINIMAL_ARGV))
def test_main_calls_the_handler_through_the_module_attribute(monkeypatch, capsys, name):
    calls = []
    monkeypatch.setattr(cli, f"cmd_{name}", lambda args: calls.append(args.command) or "done")
    assert run(capsys, name, *_MINIMAL_ARGV[name]) == (0, "done\n", "")
    assert calls == [name]


def _exit(capsys, parse, argv):
    """The exit code, stdout and stderr of an argv that parse ends in SystemExit."""
    with pytest.raises(SystemExit) as caught:
        parse(argv)
    out, err = capsys.readouterr()
    return caught.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["-h"],
    [],
    ["frobnicate", "--poset", "nat"],
    ["-x", "bb", "--states", "1", "--t-max", "2"],
    *([name, "-h"] for name in cli._SUBCOMMANDS),
    ["bb", "--states", "1", "-h"],
    ["bb", "--states", "1"],
    ["bb", "--states", "one", "--t-max", "2"],
    ["cardre", "--t-max", "5"],
    ["interact", "--program", "01", "--mode", "union", "--x", "1"],
    ["estimate", "--poset", "nat", "--seed", "1"],
    ["cardre", "--index", "1", "--program", "01", "--t-max", "3"],
    ["bb", "--states", "1", "--t-max"],
    ["estimate", "--poset=nat", "--bogus", "1"],
], ids=lambda argv: " ".join(argv) or "bare")
def test_help_and_usage_match_the_full_parser(capsys, argv):
    # main parses a well-formed argv without argparse; the argv it must leave
    # to argparse print the same and exit with the same code as the full parser
    assert _exit(capsys, main, argv) == _exit(capsys, build_parser().parse_args, argv)


# Values that int() may or may not take, and values argparse may or may not
# read as an option; the strict parser must agree with argparse on each.
_ODD_VALUES = ("", "one", "1.5", "0x1", "1e3", " 7", "+3", "1_0", "\u0663", "a b", "=",
               "-1", "-x", "-", "--", "-h", "--out", "-a b", "-1,2")
_PERTURBATIONS = ("none", "abbreviate", "equals", "repeat", "dash", "unknown", "help",
                  "non-integer", "bad choice", "drop", "both", "lone flag", "extra")


@st.composite
def _argvs(draw):
    """A well-formed argv built from the option table, with at most one
    perturbation; and whether it has one."""
    command = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    options = cli._SUBCOMMANDS[command][1]

    def valid(flag):
        kind, _, _, choices, _ = options[flag]
        if choices is not None:
            return draw(st.sampled_from(choices))
        if kind is int:
            return str(draw(st.integers(0, 10**6)))
        return draw(st.text("ab01,:/<()", max_size=6))

    one_of = [flag for flag, option in options.items() if option[2] is cli._ONE_OF]
    chosen = draw(st.sampled_from(one_of)) if one_of else None
    pairs = draw(st.permutations([
        [flag, valid(flag)] for flag, option in options.items()
        if option[2] is True or flag == chosen or option[2] is False and draw(st.booleans())]))
    kind = draw(st.sampled_from(_PERTURBATIONS))
    at = draw(st.integers(0, len(pairs)))  # where an inserted pair goes
    i = draw(st.integers(0, len(pairs) - 1))  # the pair a perturbation changes
    flag = pairs[i][0]

    def put(flag, value):  # flag's value, added at `at` if the argv lacks the flag
        pair = next((p for p in pairs if p[0] == flag), None)
        if pair is None:
            pairs.insert(at, [flag, value])
        else:
            pair[1] = value

    with_choices = [flag for flag, option in options.items() if option[3] is not None]
    if kind == "abbreviate":
        pairs[i][0] = flag[:draw(st.integers(1, len(flag) - 1))]
    elif kind == "equals":
        pairs[i] = [f"{flag}={pairs[i][1]}"]
    elif kind == "repeat":  # argparse converts and checks every value it reads
        again = draw(st.one_of(st.just(valid(flag)), st.sampled_from(_ODD_VALUES)))
        pairs.insert(i, [flag, again])
    elif kind == "dash":
        pairs[i][1] = draw(st.sampled_from([v for v in _ODD_VALUES if v.startswith("-")]))
    elif kind == "unknown":
        pairs.insert(at, [draw(st.sampled_from(["--bogus", "--seed", "--poset", "--h"])), "1"])
    elif kind == "help":
        pairs.insert(at, [draw(st.sampled_from(["-h", "--help"]))])
    elif kind == "non-integer":
        put(draw(st.sampled_from([f for f, option in options.items() if option[0] is int])),
            draw(st.sampled_from(_ODD_VALUES)))
    elif kind == "bad choice" and with_choices:
        put(draw(st.sampled_from(with_choices)),
            draw(st.sampled_from(["union", "STAR", "", "sta"])))
    elif kind == "drop":
        del pairs[i]
    elif kind == "both" and one_of:
        pairs = [p for p in pairs if p[0] not in one_of]
        pairs[at:at] = [[f, valid(f)] for f in one_of if draw(st.booleans())]
    elif kind == "lone flag":
        del pairs[i][1]
    elif kind == "extra":
        pairs.insert(at, [draw(st.sampled_from(["x", "1", command]))])
    return [command, *(token for pair in pairs for token in pair)], kind != "none"


@settings(max_examples=1000, deadline=None)
@given(case=_argvs())
def test_strict_parser_is_argparse_where_it_parses(case):
    # the strict parser is a partial function that equals argparse wherever
    # it is defined, and it is defined on every well-formed argv
    argv, perturbed = case
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(argv))
    except SystemExit:
        expected = None
    got = cli._parse_strict(argv)
    assert got is not None or perturbed
    assert got is None or vars(got) == expected


def test_strict_parser_takes_every_benchmark_command(tmp_path):
    # perfbench/workloads.py, loaded by path as test_benchmark_checks.py does
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = written
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 0, str(tmp_path)):
            argv = [*cmd.argv, "--threads", "1", "--out", str(tmp_path / f"{cmd.label}.out")]
            got = cli._parse_strict(argv)
            assert got is not None, cmd.label
            assert vars(got) == vars(build_parser().parse_args(argv)), cmd.label


def _kposet_env(**locale):
    """The environment of a fresh kposet process under the given locale settings."""
    src = os.path.dirname(os.path.dirname(kposet.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8", "PYTHONCOERCE"))}
    return {**env, "PYTHONPATH": src, **locale}


_C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_reports_do_not_depend_on_the_locale(tmp_path):
    # the regex column holds '·', which an ASCII locale cannot encode
    argv = ["estimate", "--poset", "reg:ab", "--max-len", "12", "--ranks", "70"]
    reports = {}
    for name, locale in (("c", _C_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run([sys.executable, "-m", "kposet.cli", *argv, "--out", str(out)],
                              capture_output=True, env=_kposet_env(**locale))
        assert proc.returncode == 0, proc.stderr
        reports[name] = out.read_bytes()
    assert "·".encode() in reports["utf8"]
    assert reports["c"] == reports["utf8"]

    order = tmp_path / "order.json"
    order.write_bytes(json.dumps({"elements": ["é", "b"], "lt": [[0, 1]]},
                                 ensure_ascii=False).encode("utf-8"))
    proc = subprocess.run([sys.executable, "-m", "kposet.cli", "dilworth", "--file", str(order)],
                          capture_output=True, text=True, env=_kposet_env(**_C_LOCALE))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["chains"] == [["é", "b"]]


@pytest.mark.parametrize("argv", [
    ["estimate", "--poset", "reg:ab", "--max-len", "12", "--ranks", "70"],
    ["quotient", "--regex", "a*+b*", "--alphabet", "ab", "--m-words", "a,b"],
    ["quotient", "--regex", "(a+b)*·b", "--alphabet", "ab", "--m-words", "a"],
], ids=["estimate", "quotient", "quotient-argv"])
def test_stdout_does_not_depend_on_the_locale(argv):
    # stdout carries the UTF-8 bytes of an --out file, even where the
    # locale's encoding cannot hold the '·' of the regex column; arguments
    # are read as UTF-8 too, so a '·' in --regex parses under any locale
    stdout = {}
    for name, locale in (("c", _C_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        proc = subprocess.run([sys.executable, "-m", "kposet.cli", *argv],
                              capture_output=True, env=_kposet_env(**locale))
        assert proc.returncode == 0, proc.stderr
        stdout[name] = proc.stdout
    assert "·".encode() in stdout["utf8"]
    assert stdout["c"] == stdout["utf8"]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_out_file_mode_follows_the_umask(tmp_path, capsys, umask):
    out = tmp_path / "bb.csv"
    previous = os.umask(umask)
    try:
        code, _, _ = run(capsys, "bb", "--states", "1", "--t-max", "5", "--out", str(out))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


_DEEP_SPEC = "rev(" * 990 + "nat" + ")" * 990  # parses; the walk's nested leq calls overflow
_HOSTILE_PROGRAM = ("--program", "00011010111110")


@pytest.mark.parametrize("argv, code", [
    (("estimate", "--poset", _DEEP_SPEC, "--max-len", "6", "--ranks", "2"), 3),
    (("dilworth", "--file", "DEEP"), 3),
    (("interact", *_HOSTILE_PROGRAM, "--mode", "cap", "--x", "1,-2"), 2),
    (("interact", *_HOSTILE_PROGRAM, "--mode", "cap", "--x", "1,b"), 2),
    (("interact", *_HOSTILE_PROGRAM, "--mode", "cap", "--x", "1", "--t-budget", "-1"), 2),
    (("interact", *_HOSTILE_PROGRAM, "--mode", "cap", "--x", "1", "--window", "0"), 2),
    (("interact", *_HOSTILE_PROGRAM, "--mode", "minus", "--x", "1", "--t-budget", "1000001"), 3),
    (("interact", "--program", "012", "--mode", "cap", "--x", "1"), 2),
    (("cardre", *_HOSTILE_PROGRAM, "--t-max", "-1"), 2),
    (("cardre", *_HOSTILE_PROGRAM, "--t-max", "1000001"), 3),
    (("cardre", "--index", "-1", "--t-max", "3"), 2),
    (("quotient", "--regex", "((", "--alphabet", "ab", "--m-words", "a"), 2),
    (("quotient", "--regex", "a", "--alphabet", "aa", "--m-words", "a"), 2),
    (("quotient", "--regex", "a", "--alphabet", "", "--m-words", "a"), 2),
    (("quotient", "--regex", "a", "--alphabet", "ab", "--m-words", "a,c"), 2),
    (("quotient", "--regex", "(" * 1200 + "a" + ")" * 1200, "--alphabet", "a", "--m-words", "a"), 3),
], ids=["estimate-deep-spec", "dilworth-deep-json", "interact-negative-member",
        "interact-non-number", "interact-negative-budget", "interact-window", "interact-ceiling",
        "interact-non-binary", "cardre-negative", "cardre-ceiling", "cardre-index",
        "quotient-regex", "quotient-repeated-alphabet", "quotient-empty-alphabet",
        "quotient-word", "quotient-deep-regex"])
def test_hostile_input_exits_with_one_error_line(tmp_path, argv, code):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = [str(deep) if a == "DEEP" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "kposet.cli", *argv],
                          capture_output=True, text=True, env=_kposet_env(PYTHONUTF8="1"))
    assert (proc.returncode, proc.stdout) == (code, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("kposet: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_input_nested_too_deeply_names_its_command(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(capsys, "dilworth", "--file", str(deep)) == (
        3, "", "kposet: dilworth input nests too deeply to evaluate\n")


# Run interact in a fresh interpreter; print its exit code and peak RSS in MB
# (VmHWM: ru_maxrss can carry the RSS of the forking test process over exec).
_RSS_PROBE = """
import json, sys
from kposet.cli import main
code = main(sys.argv[1:])
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(json.dumps([code, int(hwm.split()[1]) // 1024]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("member", [10**9, 10**20])
def test_interact_huge_member_builds_no_bit_mask(tmp_path, member):
    # the members are checked one by one: a bit mask of 2**member bits would
    # take ~250 MB at 10**9 and overflow at 10**20
    out = tmp_path / "interact.json"
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, "interact", *_HOSTILE_PROGRAM, "--mode", "cap",
         "--x", f"0,5,{member}", "--t-budget", "300", "--out", str(out)],
        capture_output=True, text=True, env=_kposet_env(PYTHONUTF8="1"),
    )
    assert proc.stderr == ""
    code, rss_mb = json.loads(proc.stdout)
    assert code == 0 and rss_mb < 100
    assert json.loads(out.read_text())["config"]["x"] == [0, 5, member]


def test_quotient_renders_once_per_change_point(monkeypatch, capsys):
    from kposet import automata

    rendered = []
    render = automata.canonical_regex
    monkeypatch.setattr(automata, "canonical_regex", lambda d: rendered.append(d) or render(d))
    words = ["a", "ab", "aab", "b", "ba", "bb"]
    code, out, _ = run(capsys, "quotient", "--regex", "(a+b)*·b", "--alphabet", "ab",
                       "--m-words", ",".join(words))
    assert code == 0
    lang = automata.to_canonical_dfa(automata.parse_regex("(a+b)*·b", "ab"), "ab")
    trace = automata.quotient_trace(lang, words)
    assert rendered == [d for _, d in trace] and len(rendered) == 2
    assert len(out.strip().split("\n")) == 2 + len(words) + 1  # config, header, rows, final
