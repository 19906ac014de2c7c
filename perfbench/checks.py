"""Output checks: the benchmark counts a command as failed when one fails.

Two kinds of check apply:

* an expected output committed under expected/, compared after dropping the
  `# config:` line of CSV reports and the `config` key of JSON reports (they
  record options, not results). Commands with seeded inputs are compared
  only at the default seed, for which the files were made;
* invariants that need no expected file and hold at every seed: plain
  witnesses replay through `vm.run_emitting`, dilworth answers are a true
  antichain and chain partition of equal size, the diagonal audit passes,
  bb rows are monotone in t, and the cardre, interact and quotient outputs
  agree with independent oracles written here.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
DEFAULT_SEED = 0


def comparable(text: str) -> str:
    """The report without the options it records."""
    if text.startswith("{"):
        data = json.loads(text)
        data.pop("config", None)
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    return "".join(line for line in text.splitlines(True) if not line.startswith("# config:"))


def _config(text: str) -> dict:
    if text.startswith("{"):
        return json.loads(text)["config"]
    for line in text.splitlines():
        if line.startswith("# config:"):
            return json.loads(line[len("# config:"):])
    raise ValueError("report has no config")


def _csv_rows(text: str) -> list[dict]:
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


# ------------------------------------------------------------- invariants


def _check_estimate(argv, text):
    from kposet.posets import parse_poset_spec
    from kposet.vm import run_emitting

    cfg = _config(text)
    p = parse_poset_spec(cfg["poset"])
    for row in _csv_rows(text):
        w = row["witness_plain"]
        if not row["k_plain"]:
            continue
        res = run_emitting(p, w, 0, cfg["fuel"])
        if not (res.halted and res.reg_a == int(row["rank"]) and len(w) == int(row["k_plain"])):
            yield f"plain witness {w!r} does not replay to rank {row['rank']}"


def _check_diagonal(argv, text):
    if json.loads(text)["audit"]["passed"] is not True:
        yield "diagonal audit did not pass"


def _check_dilworth(argv, text):
    with open(_arg(argv, "--file")) as handle:
        order = json.load(handle)
    names = order["elements"]
    n = len(names)
    above = [[False] * n for _ in range(n)]
    for i, j in order["lt"]:
        above[i][j] = True
    for k, i, j in itertools.product(range(n), repeat=3):  # Warshall, k outermost
        if above[i][k] and above[k][j]:
            above[i][j] = True
    index = {name: i for i, name in enumerate(names)}
    out = json.loads(text)
    anti = [index[x] for x in out["antichain"]]
    chains = [[index[x] for x in chain] for chain in out["chains"]]
    if out["dilworth_equal"] is not True or len(anti) != len(chains):
        yield "antichain and chain cover differ in size"
    if any(above[a][b] or above[b][a] for a, b in itertools.combinations(anti, 2)):
        yield "antichain has comparable elements"
    if sorted(x for chain in chains for x in chain) != list(range(n)):
        yield "chains do not partition the elements"
    if any(not above[a][b] for chain in chains for a, b in zip(chain, chain[1:])):
        yield "a chain is not ascending"


def _check_bb(argv, text):
    rows: dict[str, list[int]] = {}
    for row in _csv_rows(text):
        rows.setdefault(row["n"], []).append(int(row["bb"]))
    if any(a > b for values in rows.values() for a, b in zip(values, values[1:])):
        yield "a bb row decreases in t"


def _emitted(t: int, up_to: int) -> set[int]:
    """Values the fixed workload program has emitted before step t."""
    return {j for j in range(1, up_to + 1) if 3 * j - 2 < t}


def _check_cardre(argv, text):
    for row in _csv_rows(text):
        t = int(row["t"])
        if int(row["count"]) != len(_emitted(t, t)):
            yield f"cardre count wrong at t={t}"
            return


def _check_interact(argv, text):
    mode = _arg(argv, "--mode")
    xs = {int(v) for v in _arg(argv, "--x").split(",")}
    t_budget = int(_arg(argv, "--t-budget"))
    cfg_window = _config(text)["window"]
    trace, prev, last_change = [], None, 0
    for t in range(t_budget + 1):
        es = _emitted(t, max(xs))
        if mode == "cap":
            value = xs & es
        elif mode == "minus":
            value = {x - y for x in xs for y in es if x >= y}
        else:
            value = xs - es
        value = sorted(value)
        if value != prev:
            trace.append([t, value])
            prev, last_change = value, t
    out = json.loads(text)
    status = ("stabilized-within-budget" if t_budget - last_change + 1 >= cfg_window
              else "still-changing")
    if out["trace"] != trace or out["limit"] != prev or out["status"] != status:
        yield f"interact {mode} disagrees with the oracle"


def _python_regex(text: str) -> str | None:
    if text == "(":  # the designated empty-language text
        return None
    return text.replace("+", "|").replace("·", "")


def _check_quotient(argv, text):
    words = _arg(argv, "--m-words").split(",")
    language = re.compile(_python_regex(_arg(argv, "--regex")))
    probes = ["".join(w) for k in range(6) for w in itertools.product("ab", repeat=k)]
    rows = _csv_rows(text)
    if len(rows) != len(words) + 1 or rows[-1]["quotient"] != rows[-2]["quotient"]:
        yield "quotient rows malformed"
        return
    for row in rows[:-1]:
        t = int(row["t"])
        pattern = _python_regex(row["quotient"])
        got = re.compile(pattern) if pattern is not None else None
        for v in probes:
            want = any(language.fullmatch(m + v) for m in words[: t + 1])
            if want != bool(got and got.fullmatch(v)):
                yield f"quotient at t={t} wrong on {v!r}"
                return


INVARIANTS = {
    "estimate": _check_estimate,
    "diagonal": _check_diagonal,
    "dilworth": _check_dilworth,
    "bb": _check_bb,
    "cardre": _check_cardre,
    "interact": _check_interact,
    "quotient": _check_quotient,
}


def problems(command, text: str, seed: int) -> list[str]:
    """Every check `command`'s report fails; empty when it is correct."""
    found = []
    if not command.seeded or seed == DEFAULT_SEED:
        path = os.path.join(EXPECTED_DIR, command.label + ".txt")
        with open(path, encoding="utf-8") as handle:
            if comparable(text) != handle.read():
                found.append(f"differs from expected/{command.label}.txt")
    check = INVARIANTS.get(command.argv[0])
    if check is not None:
        found.extend(check(command.argv, text))
    return found
