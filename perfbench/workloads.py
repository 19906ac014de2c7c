"""The benchmark's workloads: fixed kposet command sequences plus seeded inputs.

Each workload is a list of commands run one after another, each in a fresh
interpreter with `--threads 1` (one client, closed loop). The seed only
generates inputs -- the `dilworth` orders, the `interact` sets and the
`quotient` words -- and the program receives nothing but the generated
files and flags. Seeded inputs keep their size at every seed (20-element
orders, 4-element sets, 4 words), so the work per run does not depend on
the seed. Commands that take no seeded input are the same at every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

PAIR = "prefix:ab/lexico:a<b"
# INC_A; OUT; JZ_B -2: emits 1, 2, 3, ... (value j at step 3j-2), never halts
PROGRAM = "00011010111110"
QUOTIENT_REGEX = "(a+b)*·b·(a+b)"
WORKLOADS = ("estimate", "orders", "enumerators")


@dataclass(frozen=True)
class Command:
    label: str  # names the expected-output file
    argv: tuple[str, ...]  # kposet arguments, without --out and --threads
    seeded: bool = False  # its input comes from the workload seed


def _dilworth_order(rng: random.Random, n: int, density: float) -> dict:
    """A random strict order on n elements: edges only go up a hidden shuffle."""
    perm = list(range(n))
    rng.shuffle(perm)
    lt = [
        [perm[i], perm[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return {"elements": [f"e{i}" for i in range(n)], "lt": lt}


def _finite_set(rng: random.Random) -> str:
    return ",".join(str(v) for v in sorted(rng.sample(range(12), 4)))


def commands(workload: str, seed: int, workdir: str) -> list[Command]:
    """The command sequence of `workload`; seeded input files go to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "estimate":
        return [
            Command(f"estimate-{spec.replace(':', '-')}",
                    ("estimate", "--poset", spec, "--max-len", "14", "--ranks", "32"))
            for spec in ("nat", "prefix:ab", "finsets")
        ]
    if workload == "orders":
        cmds = [
            Command("diagonal", ("diagonal", "--pair", PAIR, "--i", "5")),
            Command("conditions-dagger", ("conditions", "--pair", PAIR, "--condition", "dagger",
                                          "--k", "15", "--fragment", "15")),
            Command("conditions-star", ("conditions", "--pair", PAIR, "--condition", "star",
                                        "--k", "3", "--fragment", "15")),
        ]
        for i, density in enumerate((0.08, 0.12, 0.16)):
            path = os.path.join(workdir, f"order{i}.json")
            with open(path, "w") as handle:
                json.dump(_dilworth_order(rng, 20, density), handle)
            cmds.append(Command(f"dilworth-{i}", ("dilworth", "--file", path), seeded=True))
        return cmds
    if workload == "enumerators":
        cmds = [
            Command("estimate-reg-ab", ("estimate", "--poset", "reg:ab", "--max-len", "12",
                                        "--ranks", "70")),
            Command("bb", ("bb", "--states", "1", "--t-max", "60")),
            Command("cardre", ("cardre", "--program", PROGRAM, "--t-max", "800")),
        ]
        for mode in ("cap", "minus", "setminus"):
            cmds.append(Command(f"interact-{mode}", (
                "interact", "--program", PROGRAM, "--mode", mode, "--x", _finite_set(rng),
                "--t-budget", "3000"), seeded=True))
        words = ",".join("".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                         for _ in range(4))
        cmds.append(Command("quotient", ("quotient", "--regex", QUOTIENT_REGEX, "--alphabet", "ab",
                                         "--m-words", words), seeded=True))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
