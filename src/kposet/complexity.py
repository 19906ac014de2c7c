"""Budgeted program-size tables: the builder, their replay, the wrap
constant and the report's summary and rows, which `cli` writes as CSV.

One table, three columns over one machine, each mapping a rank to the
witness bit string whose length is the table value:

  plain  phi(p) = element of rank reg_a when p halts (no input)
  k_max  U(0^n 1 p) = stabilized budgeted limit of machine b_word(n) run on
         input p under the kept-emission filter
  k_min  the same over reverse(p)

The plain column is exact up to MAX_PROG_LEN, and in closed form: the first
witness of rank r is INC_A^r HALT (3r + 3 bits, r + 1 steps, assembled from
vm.OPCODES), so rank r is filled exactly when r < ranks, r < fuel and
3r + 3 <= max_prog_len. The reason, argued but not proven: the machine has
no jump-if-nonzero, so a backward jump needs the counter it tests at 0, and a
loop cannot carry a count across its iterations. By exhaustion (the
program-tree walk, kept as the tests' oracle), up to 24 bits no halting
program's reg_a exceeds its number of INC_A instructions, and no halting
run takes more than 8 steps. So a value r needs r INC_A and a HALT, and
INC_A^r HALT is the one program of that length with value r. The bound
first fails at 25 bits, where JZ_B 2; INC_B; INC_A; JZ_B -2; HALT halts
with 2 from one INC_A in 7 steps, so a raise of MAX_PROG_LEN must first
re-run that walk at the new cap.

The wrap constant is a closed form too. A halting program becomes a
one-point max process when its HALT becomes OUT,HALT; as every plain
witness is INC_A^r HALT, its wrap is INC_A^r OUT HALT, assembled from the
rank and replayed like any witness. The general rewriter, which also
turns stray OUTs into no-ops and refits jump offsets, is the tests'
oracle (reference_impl.wrap_program_ref).

The max and min values are upper bounds relative to this machine and
budget; no optimality constant is ever claimed. Only limits stabilized
within the budget enter them; ranks seen only through still-changing runs
are recorded as censored. Witnesses are the exact program/padded-program
bit strings and every table entry replays (verify_table re-checks this).

Each column's witnesses are the words of one Addressing, which reads a
word as a machine and its input: RAW (the word is the program, on input 0)
for the plain column, PADDED (0^n 1 p is machine b_word(n) on input
b_index(p)) for the max and min columns and the wrap constant, and for
`diagonal`'s audit, which lives apart so that `estimate` does not compile
it, and the paired decompressor in the tests' `constructions` module, which
no command runs. complexity_table is the one builder; it fills the columns
and returns the table as a value. The report's pair_len is the length of
the pairing c(max witness, min witness), in closed form from the two
witness lengths (codec.pair_len); the pairing's bits are never built.

limit_corpus groups the PADDED words whose machine contains OUT (no other
program can emit) by their run's raw_first, as (first word, count): the
max/min columns read each run's first word, the audit its count. Below 70
bits that is one run, in closed form. The 4- and 5-bit words never parse,
and below index 69 (b_word(69) = 000110) the only machine with OUT is
b_word(13) = 110 = OUT, which emits 0 at step 0 on any input. A word
0^n 1 p has at least n + 1 bits, so up to 69 bits the run's words are
0^13 1 p: 2^(L - 13) - 1 of them, none below 14 bits. The tests keep the
walk of every PADDED word as the oracle, and hold MAX_PROG_LEN and the
audit's cap below 70.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Optional

from .codec import b_index, b_word, decode_padded, pair_len
from .errors import ConfigError, ResourceError, VerificationError
from .limits import STABILIZED, limit_report_from_trace
from .posets import PosetInstance, reverse
from .vm import _execute, assemble, kept_trace, parse_program, run_emitting

__all__ = [
    "Budget",
    "ComplexityTable",
    "Addressing",
    "RAW",
    "PADDED",
    "limit_corpus",
    "complexity_table",
    "verify_table",
    "measure_wrap_constant",
    "hierarchy_report",
    "REPORT_COLUMNS",
    "MAX_PROG_LEN",
    "RANKS_CEILING",
]

MAX_PROG_LEN = 24  # longest program the plain column and the limit corpus accept (bits)
RANKS_CEILING = 250_000  # most report rows; finsets takes about 1 s there on a 2-CPU host


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


class ComplexityTable(namedtuple("ComplexityTable", "budget plain k_max k_min censored")):
    """The plain, max and min columns under one budget. Each column maps a
    rank to its witness bit string, whose length is the table value; the
    frozenset censored holds the ranks that a side saw only through
    still-changing runs, and never tabled."""

    __slots__ = ()


class Addressing(namedtuple("Addressing", "decode wrap_len")):
    """How a word addresses a machine and the input it runs on.

    decode(word) is (code, input), None outside the coding's range;
    wrap_len(code) is the length of the word that addresses code on input 0.
    """

    __slots__ = ()


RAW = Addressing(decode=lambda word: (word, 0), wrap_len=len)


def _padded_decode(word: str):
    dec = decode_padded(word)
    return None if dec is None else (b_word(dec[0]), b_index(dec[1]))


PADDED = Addressing(decode=_padded_decode, wrap_len=lambda code: b_index(code) + 1)


def limit_corpus(max_len: int, fuel: int) -> dict[tuple, tuple[str, int]]:
    """raw_first -> (first word, count) of the PADDED words of length <=
    max_len whose OUT machines make that run within fuel; a run's kept
    trace under any order depends on raw_first alone. The one run of the
    closed form (module docstring), which holds below 70 bits."""
    if max_len < 14:
        return {}
    raw_first = _execute(parse_program(b_word(13)), 0, fuel)[0]
    return {raw_first: ("0" * 13 + "1", 2 ** (max_len - 13) - 1)}


def complexity_table(p: PosetInstance, ranks: int, b: Budget) -> ComplexityTable:
    """The plain column in closed form, then the max column over p and the
    min column, the same over reverse(p), from the first word of each
    distinct run in the limit corpus."""
    if b.max_prog_len > MAX_PROG_LEN:
        raise ResourceError(
            f"max program length {b.max_prog_len} exceeds the desk-scale ceiling of {MAX_PROG_LEN} bits"
        )
    if ranks > RANKS_CEILING:
        raise ResourceError(f"ranks {ranks} exceeds the desk-scale ceiling of {RANKS_CEILING}")
    plain = {rank: assemble(["INC_A"] * rank + ["HALT"])  # module docstring
             for rank in range(min(ranks, b.fuel, (b.max_prog_len - 3) // 3 + 1))}
    corpus = limit_corpus(b.max_prog_len, b.fuel)
    k_max, k_min, censored_ranks = {}, {}, set()
    for found, order in ((k_max, p), (k_min, reverse(p))):
        censored = set()
        for raw_first, (first, _) in corpus.items():
            trace = kept_trace(raw_first, order.unrank, order.leq)
            outcome = _limit_rank(order, trace, b.horizon, b.window)
            if outcome is None or outcome[0] >= ranks:
                continue
            rank, stabilized = outcome
            if not stabilized:
                censored.add(rank)
            elif rank not in found:
                found[rank] = first
        censored_ranks |= censored - found.keys()
    return ComplexityTable(b, plain, k_max, k_min, frozenset(censored_ranks))


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


def measure_wrap_constant(p: PosetInstance, table: ComplexityTable) -> Optional[int]:
    """max over plain rows of PADDED.wrap_len(wrapped) - |w|, verifying that
    each wrapped witness replays to the plain rank as a max-limit. Rank r's
    plain witness is INC_A^r HALT, so its wrap, HALT made OUT,HALT, is
    INC_A^r OUT HALT (module docstring). The unary machine index makes this
    constant large; it is a diagnostic, not a claimed optimality bound.

    Rows whose wrapped run emits nothing within the horizon or the fuel, or
    does not stabilize within the table's own budget, are censored out of
    the measurement (None when none stabilize); a run that emits a value
    other than the plain rank is a genuine wrapper bug and raises.
    """
    b = table.budget
    c_wrap = None
    for rank, w in sorted(table.plain.items()):
        wrapped = assemble(["INC_A"] * rank + ["OUT", "HALT"])
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


REPORT_COLUMNS = ("rank", "element", "k_plain", "k_max", "k_min",
                  "witness_plain", "witness_max", "witness_min", "pair_len", "status")


def hierarchy_report(p: PosetInstance, ranks: int, b: Budget) -> tuple[dict, Iterator[list]]:
    """(summary, rows) of the plain, max and min columns. summary holds the
    measured diagnostics c1 = max(k_max - k_plain), c2 = max(k_min -
    k_plain) and the wrap constant c_wrap. rows yields one row per rank in
    REPORT_COLUMNS order, None for an empty cell; pair_len is the
    composite-program length |c(max_witness, min_witness)| of the paired
    decompressor, codec.pair_len of the k_max and k_min cells. The table
    is built, replayed and measured before this returns; only the rows are
    made as they are read.
    """
    if ranks < 0:
        raise ConfigError(f"ranks must be a natural number, got {ranks}")
    table = complexity_table(p, ranks, b)
    verify_table(p, table)
    c_wrap = measure_wrap_constant(p, table)
    plain = table.plain
    c1 = max((len(w) - len(plain[r]) for r, w in table.k_max.items() if r in plain), default=None)
    c2 = max((len(w) - len(plain[r]) for r, w in table.k_min.items() if r in plain), default=None)
    return {"c1": c1, "c2": c2, "c_wrap": c_wrap}, _report_rows(p, ranks, table)


def _report_rows(p: PosetInstance, ranks: int, table: ComplexityTable):
    columns = (table.plain, table.k_max, table.k_min)
    for rank in range(ranks):
        witnesses = [column.get(rank) for column in columns]
        lengths = [None if w is None else len(w) for w in witnesses]  # k_plain, k_max, k_min
        _, k_max, k_min = lengths
        pair = None if k_max is None or k_min is None else pair_len(k_max, k_min)
        if rank in table.censored:
            status = "censored"
        elif any(w is not None for w in witnesses):
            status = "ok"
        else:
            status = None
        yield [rank, p.format_elem(p.unrank(rank)), *lengths, *witnesses, pair, status]
