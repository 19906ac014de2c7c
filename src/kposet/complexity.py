"""Budgeted program-size tables: the builder, their replay, the wrap
constant and the CSV report.

One table, three columns over one machine, each mapping a rank to the
witness bit string whose length is the table value:

  plain  phi(p) = element of rank reg_a when p halts (no input)
  k_max  U(0^n 1 p) = stabilized budgeted limit of machine b_word(n) run on
         input p under the kept-emission filter
  k_min  the same over reverse(p)

Every reported value is an upper bound relative to this machine and budget;
no optimality constant is ever claimed. Only stabilized-within-budget limits
enter the max/min columns; ranks seen only through still-changing runs are
recorded as censored. Witnesses are the exact program/padded-program bit
strings and every table entry replays (verify_table re-checks this).

Each column's witnesses are the words of one Addressing, which reads a
word as a machine and its input: RAW (the word is the program, on input 0)
for the plain column, PADDED (0^n 1 p is machine b_word(n) on input
b_index(p)) for the max and min columns and the wrap constant, and for
`diagonal`'s audit, which lives apart so that `estimate` does not compile
it, and the paired decompressor in the tests' `constructions` module, which
no command runs. complexity_table is the one builder. Each walk generates
only what can run, in the witness tie-break order of iter_words: RAW the
programs that contain HALT, PADDED the addresses of machines that contain
OUT (no other program can halt or emit). One run per address feeds both
orders, and the limit side applies each order's kept filter once per
distinct run.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from typing import Iterable, Optional

from .codec import b_index, b_word, decode_padded, encode_pair
from .errors import ConfigError, ResourceError, VerificationError
from .limits import STABILIZED, limit_report_from_trace
from .posets import PosetInstance, reverse
from .vm import (
    _execute,
    assemble,
    iter_programs,
    kept_trace,
    parse_program,
    run_emitting,
)

__all__ = [
    "Budget",
    "ComplexityTable",
    "Addressing",
    "RAW",
    "PADDED",
    "iter_words",
    "complexity_table",
    "verify_table",
    "wrap_program",
    "measure_wrap_constant",
    "hierarchy_report",
    "MAX_PROG_LEN",
]

MAX_PROG_LEN = 24  # longest program the plain and limit walks accept (bits)
HALT, OUT = ("HALT", None), ("OUT", None)


class Budget(namedtuple("Budget", "max_prog_len fuel t_budget window")):
    __slots__ = ()

    def __new__(cls, max_prog_len: int, fuel: int, t_budget: int, window: int):
        self = super().__new__(cls, max_prog_len, fuel, t_budget, window)
        for name in cls._fields:
            if getattr(self, name) < 1:
                raise ConfigError(f"budget field {name} must be positive")
        return self

    @property
    def horizon(self) -> int:
        """The step bound of every limit walk and of its replay."""
        return min(self.t_budget, self.fuel)


class ComplexityTable:
    """The plain, max and min columns under one budget. Each column maps a
    rank to its witness bit string, whose length is the table value; ranks
    that a side saw only through still-changing runs, and never tabled, are
    censored."""

    __slots__ = ("budget", "plain", "k_max", "k_min", "censored")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.plain: dict[int, str] = {}
        self.k_max: dict[int, str] = {}
        self.k_min: dict[int, str] = {}
        self.censored: set[int] = set()


def iter_words(max_len: int) -> Iterable[str]:
    """All binary words of length <= max_len, shortest first, numerically
    ascending within a length (the tie-break order for witnesses)."""
    yield ""
    for length in range(1, max_len + 1):
        for v in range(1 << length):
            yield format(v, f"0{length}b")


class Addressing(namedtuple("Addressing", "walk decode wrap_len")):
    """How a word addresses a machine and the input it runs on.

    walk(max_len, needs) yields (word, instrs, input) for the words of length
    <= max_len in iter_words order, skipping every word whose machine does
    not parse or (unless needs is None) lacks the instruction `needs`;
    decode(word) is (code, input), None outside the coding's range;
    wrap_len(code) is the length of the word that addresses code on input 0.
    """

    __slots__ = ()


RAW = Addressing(walk=iter_programs, decode=lambda word: (word, 0), wrap_len=len)


def _padded_walk(max_len: int, needs):
    """Within a length n descends, and each machine b_word(n) is parsed once.
    The word 0^n 1 p read in binary is 2^|p| + p, one more than its input
    b_index(p) = 2^|p| - 1 + p, so a block's words are a run of integers."""
    machines = [parse_program(b_word(n)) for n in range(max_len)]
    for length in range(1, max_len + 1):
        for n in range(length - 1, -1, -1):
            instrs = machines[n]
            if instrs is not None and (needs is None or needs in instrs):
                m = length - n - 1
                for v in range(1 << m, 2 << m):
                    yield format(v, f"0{length}b"), instrs, v - 1


def _padded_decode(word: str):
    dec = decode_padded(word)
    return None if dec is None else (b_word(dec[0]), b_index(dec[1]))


PADDED = Addressing(
    walk=_padded_walk, decode=_padded_decode, wrap_len=lambda code: b_index(code) + 1
)


def complexity_table(p: PosetInstance, ranks: int, b: Budget) -> ComplexityTable:
    """The plain column from the RAW walk of the programs that contain HALT,
    then the max column over p and the min column, the same over reverse(p),
    from one PADDED walk of the machines that contain OUT: run each address
    once, keep stabilized limits. A run's limit report depends only on its
    first-occurrence emissions, so one outcome per order is kept per
    distinct raw_first."""
    if b.max_prog_len > MAX_PROG_LEN:
        raise ResourceError(
            f"max program length {b.max_prog_len} exceeds the desk-scale ceiling of {MAX_PROG_LEN} bits"
        )
    table = ComplexityTable(b)
    plain = table.plain
    for w, instrs, x in RAW.walk(b.max_prog_len, HALT):
        _, halted, _, reg_a, _ = _execute(instrs, x, b.fuel)
        if halted and reg_a < ranks and reg_a not in plain:
            plain[reg_a] = w
    orders = (p, reverse(p))
    sides = ((table.k_max, set()), (table.k_min, set()))  # (column, censored) per order
    horizon = b.horizon
    outcomes: dict[tuple, tuple] = {}  # raw_first -> per order, None or (rank, stabilized)
    for w, instrs, x in PADDED.walk(b.max_prog_len, OUT):
        raw_first = _execute(instrs, x, b.fuel)[0]
        per_order = outcomes.get(raw_first)
        if per_order is None:
            per_order = outcomes[raw_first] = tuple(
                _limit_rank(order, kept_trace(raw_first, order.unrank, order.leq), horizon, b.window)
                for order in orders
            )
        for (found, censored), outcome in zip(sides, per_order):
            if outcome is None or outcome[0] >= ranks:
                continue
            rank, stabilized = outcome
            if not stabilized:
                censored.add(rank)
            elif rank not in found:
                found[rank] = w
    for found, censored in sides:
        table.censored |= censored - found.keys()
    return table


def _limit_rank(order: PosetInstance, trace, horizon: int, window: int):
    """(rank, stabilized) of a kept trace's limit under `order`, or None
    when the trace has no limit value."""
    report = limit_report_from_trace(trace, horizon, window)
    if report.current is None:
        return None
    return order.rank(report.current), report.status == STABILIZED


def verify_table(p: PosetInstance, table: ComplexityTable) -> None:
    """Replay every witness through its column's addressing under its
    claimed semantics; VerificationError on the first mismatch."""
    b = table.budget
    columns = (("plain", p, RAW), ("k_max", p, PADDED), ("k_min", reverse(p), PADDED))
    for attr, order, addressing in columns:
        for rank, w in getattr(table, attr).items():
            dec = addressing.decode(w)
            if dec is None:
                raise VerificationError(f"{attr} witness for rank {rank} addresses no machine")
            res = run_emitting(order, *dec, b.fuel)
            if attr == "plain":
                ok = res.halted and res.reg_a == rank
            else:
                ok = _limit_rank(order, res.trace, b.horizon, b.window) == (rank, True)
            if not ok:
                raise VerificationError(f"{attr} witness for rank {rank} does not replay")


# ------------------------------------------------------------ wrap constant


def wrap_program(code: str) -> str:
    """Rewrite a halting program into an emit-then-halt program computing the
    same value under the max filter: HALT becomes OUT,HALT; pre-existing OUT
    becomes the no-op INC_A,DEC_A (stray emissions could defeat the filter);
    relative jump offsets are recomputed, out-of-range targets keep falling
    off the end."""
    instrs = parse_program(code)
    if instrs is None:
        raise ConfigError("cannot wrap a program that does not parse")
    old_n = len(instrs)
    newpos = []
    cursor = 0
    for op, _ in instrs:
        newpos.append(cursor)
        cursor += 2 if op in ("HALT", "OUT") else 1
    newpos.append(cursor)
    new_len = cursor
    out: list[tuple[str, Optional[int]] | str] = []
    for i, (op, arg) in enumerate(instrs):
        if op == "HALT":
            out.extend(["OUT", "HALT"])
        elif op == "OUT":
            out.extend(["INC_A", "DEC_A"])
        elif op in ("JZ_A", "JZ_B"):
            target = i + arg
            new_target = newpos[target] if 0 <= target <= old_n else new_len
            offset = new_target - newpos[i]
            if not -16 <= offset <= 15:
                raise ResourceError("wrapped jump offset overflows the 5-bit field")
            out.append((op, offset))
        else:
            out.append(op)
    return assemble(out)


def measure_wrap_constant(p: PosetInstance, table: ComplexityTable) -> Optional[int]:
    """max over plain rows of PADDED.wrap_len(wrap(w)) - |w|, verifying that
    each wrapped witness replays to the plain rank as a max-limit. The unary
    machine index makes this constant large; it is a diagnostic, not a
    claimed optimality bound.

    Rows whose wrapped run emits nothing within the horizon or the fuel, or
    does not stabilize within the table's own budget, are censored out of
    the measurement (None when none stabilize); a run that emits a value
    other than the plain rank is a genuine wrapper bug and raises.
    """
    b = table.budget
    c_wrap = None
    for rank, w in sorted(table.plain.items()):
        wrapped = wrap_program(w)
        res = run_emitting(p, wrapped, 0, b.fuel)
        outcome = _limit_rank(p, res.trace, b.horizon, b.window)
        if outcome is None:
            continue
        if outcome[0] != rank:
            raise VerificationError(
                f"wrapped witness for rank {rank} does not replay to its value"
            )
        if outcome[1]:
            c_wrap = max(c_wrap or 0, PADDED.wrap_len(wrapped) - len(w))
    return c_wrap


# ----------------------------------------------------------------- report


def hierarchy_report(p: PosetInstance, ranks: int, b: Budget) -> str:
    """CSV of the plain, max and min columns with summary constants.

    Columns: rank, element, k_plain, k_max, k_min, witness_plain,
    witness_max, witness_min, pair_len, status. A header comment line
    carries the measured diagnostics c1 = max(k_max - k_plain), c2 =
    max(k_min - k_plain) and the wrap constant; pair_len is the
    composite-program length |c(max_witness, min_witness)| of the paired
    decompressor. Byte-identical across reruns with the same inputs.
    """
    if ranks < 0:
        raise ConfigError(f"ranks must be a natural number, got {ranks}")
    table = complexity_table(p, ranks, b)
    verify_table(p, table)
    c_wrap = measure_wrap_constant(p, table)
    plain = table.plain
    c1 = max((len(w) - len(plain[r]) for r, w in table.k_max.items() if r in plain), default=None)
    c2 = max((len(w) - len(plain[r]) for r, w in table.k_min.items() if r in plain), default=None)
    buf = io.StringIO()
    buf.write(
        "# summary: "
        + json.dumps({"c1": c1, "c2": c2, "c_wrap": c_wrap}, sort_keys=True)
        + "\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "rank", "element", "k_plain", "k_max", "k_min",
            "witness_plain", "witness_max", "witness_min", "pair_len", "status",
        ]
    )
    for rank in range(ranks):
        witnesses = [column.get(rank) for column in (plain, table.k_max, table.k_min)]
        _, w_max, w_min = witnesses
        pair_len = ""
        if w_max is not None and w_min is not None:
            pair_len = len(encode_pair(w_max, w_min))
        if rank in table.censored:
            status = "censored"
        elif any(w is not None for w in witnesses):
            status = "ok"
        else:
            status = ""
        writer.writerow(
            [rank, p.format_elem(p.unrank(rank))]
            + ["" if w is None else len(w) for w in witnesses]  # k_plain, k_max, k_min
            + ["" if w is None else w for w in witnesses]
            + [pair_len, status]
        )
    return buf.getvalue()
