"""Budgeted program-size tables and the constructions built on them.

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

complexity_table is the one builder. Its scans generate only what can run,
in the witness tie-break order of iter_words: the plain scan enumerates the
parseable programs that contain HALT (vm.iter_programs; no other program
can halt), and one walk of the padded addresses 0^n 1 p, which parses each
machine b_word(n) once, fills the max and min columns with one run per
address. Both call the order-free kernel directly; the limit side applies
each order's kept filter once per distinct run.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .codec import b_index, b_word, decode_padded, encode_padded, encode_pair
from .errors import ConfigError, ResourceError, VerificationError
from .limits import (
    STABILIZED,
    common_value_dovetail,
    limit_report_from_trace,
)
from .posets import PosetInstance, reverse
from .vm import (
    _execute,
    assemble,
    iter_programs,
    kept_trace,
    parse_program,
    run_emitting,
    vm_max_evaluator,
)

__all__ = [
    "Budget",
    "ComplexityTable",
    "iter_words",
    "complexity_table",
    "verify_table",
    "wrap_program",
    "measure_wrap_constant",
    "paired_decompress",
    "diagonal_hard",
    "OracleStub",
    "oracle_decide",
    "hierarchy_report",
    "MAX_PROG_LEN",
    "DIAGONAL_ALPHA_CAP",
]

MAX_PROG_LEN = 24  # longest program the plain and limit walks accept (bits)
DIAGONAL_ALPHA_CAP = 8  # largest alpha(i) diagonal_hard audits (family of 2^9 words)


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


def _check_length(b: Budget) -> None:
    """The desk-scale ceiling on program length, checked before the plain
    walk and the limit walk."""
    if b.max_prog_len > MAX_PROG_LEN:
        raise ResourceError(
            f"max program length {b.max_prog_len} exceeds the desk-scale ceiling of {MAX_PROG_LEN} bits"
        )


def iter_words(max_len: int) -> Iterable[str]:
    """All binary words of length <= max_len, shortest first, numerically
    ascending within a length (the tie-break order for witnesses)."""
    yield ""
    for length in range(1, max_len + 1):
        for v in range(1 << length):
            yield format(v, f"0{length}b")


def _plain_scan(ranks: int, b: Budget) -> dict[int, str]:
    """First halting program per rank below `ranks`, at the budget's fuel.
    The machine emits ranks, so the plain scan needs no order: it runs the
    order-free kernel on the parseable programs that contain HALT, as no
    other program can halt. The witness is the first halting program in
    iter_words order, as if all words had been run."""
    _check_length(b)
    found: dict[int, str] = {}
    for w, instrs in iter_programs(b.max_prog_len, needs=("HALT", None)):
        _, halted, _, reg_a, _ = _execute(instrs, 0, b.fuel)
        if halted and reg_a < ranks and reg_a not in found:
            found[reg_a] = w
    return found


def _address_blocks(max_len: int) -> Iterator[tuple[int, int]]:
    """(n, m) per block of padded words 0^n 1 p with |p| = m, n + m < max_len,
    in iter_words order: within a length, n descends. Inside a block the
    payloads run numerically ascending, so the word with payload value v has
    b_index(p) = 2^m - 1 + v."""
    for length in range(1, max_len + 1):
        for n in range(length - 1, -1, -1):
            yield n, length - n - 1


def complexity_table(p: PosetInstance, ranks: int, b: Budget) -> ComplexityTable:
    """The plain column from the plain scan, then the max column over p and
    the min column, the same over reverse(p), from one walk of the padded
    addresses: run the indexed machine on the payload, keep stabilized
    limits.

    Machine b_word(n) is parsed once per n and skipped when it does not parse
    or has no OUT (it then never emits, so no payload gives it a limit).
    Each address is run once for both orders, and a run's limit report
    depends only on its first-occurrence emissions, so one outcome per order
    is kept per distinct raw_first."""
    table = ComplexityTable(b)
    table.plain = _plain_scan(ranks, b)
    orders = (p, reverse(p))
    sides = ((table.k_max, set()), (table.k_min, set()))  # (column, censored) per order
    horizon = b.horizon
    machines = [parse_program(b_word(n)) for n in range(b.max_prog_len)]
    outcomes: dict[tuple, tuple] = {}  # raw_first -> per order, None or (rank, stabilized)
    for n, m in _address_blocks(b.max_prog_len):
        instrs = machines[n]
        if instrs is None or ("OUT", None) not in instrs:
            continue
        first = (1 << m) - 1
        for v in range(1 << m):
            raw_first = _execute(instrs, first + v, b.fuel)[0]
            per_order = outcomes.get(raw_first)
            if per_order is None:
                per_order = outcomes[raw_first] = tuple(
                    _limit_outcome(order, raw_first, ranks, horizon, b.window) for order in orders
                )
            for (found, censored), outcome in zip(sides, per_order):
                if outcome is None:
                    continue
                rank, stabilized = outcome
                if not stabilized:
                    censored.add(rank)
                elif rank not in found:
                    payload = format(v, f"0{m}b") if m else ""
                    found[rank] = "0" * n + "1" + payload
    for found, censored in sides:
        table.censored |= censored - found.keys()
    return table


def _limit_outcome(order: PosetInstance, raw_first, ranks: int, horizon: int, window: int):
    """(rank, stabilized) of a run's limit under `order`, or None when the
    run has no limit value or its rank is not below `ranks`."""
    report = limit_report_from_trace(kept_trace(raw_first, order.unrank, order.leq), horizon, window)
    if report.current is None:
        return None
    rank = order.rank(report.current)
    return (rank, report.status == STABILIZED) if rank < ranks else None


def verify_table(p: PosetInstance, table: ComplexityTable) -> None:
    """Replay every witness under its claimed semantics; VerificationError on
    the first mismatch."""
    b = table.budget
    for rank, w in table.plain.items():
        res = run_emitting(p, w, 0, b.fuel)
        if not (res.halted and res.reg_a == rank):
            raise VerificationError(f"plain witness for rank {rank} does not replay")
    for attr, order in (("k_max", p), ("k_min", reverse(p))):
        for rank, w in getattr(table, attr).items():
            dec = decode_padded(w)
            if dec is None:
                raise VerificationError(f"{attr} witness for rank {rank} is not padded")
            n, payload = dec
            res = run_emitting(order, b_word(n), b_index(payload), b.fuel)
            report = limit_report_from_trace(res.trace, b.horizon, b.window)
            if report.status != STABILIZED or order.rank(report.current) != rank:
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
    """max over plain rows of |encode_padded(b_index(wrap(w)), "")| - |w|,
    verifying that each wrapped witness replays to the plain rank as a
    max-limit. The unary machine index makes this constant large; it is a
    diagnostic, not a claimed optimality bound.

    Rows whose wrapped run does not stabilize within the table's own budget
    are censored out of the measurement (None when none stabilize); a
    stabilized run landing on the wrong value is a genuine wrapper bug and
    raises.
    """
    b = table.budget
    c_wrap = None
    for rank, w in sorted(table.plain.items()):
        wrapped = wrap_program(w)
        res = run_emitting(p, wrapped, 0, b.fuel)
        report = limit_report_from_trace(res.trace, b.horizon, b.window)
        if report.current is None or p.rank(report.current) != rank:
            raise VerificationError(
                f"wrapped witness for rank {rank} does not replay to its value"
            )
        if report.status != STABILIZED:
            continue
        q = encode_padded(b_index(wrapped), "")
        c_wrap = max(c_wrap if c_wrap is not None else 0, len(q) - len(w))
    return c_wrap


# -------------------------------------------------------- paired decompress


def paired_decompress(
    p: PosetInstance, table: ComplexityTable, d_rank: int, b: Budget
) -> Any | None:
    """Run the max and min witnesses of one rank against each other and
    return their first common value (the element itself when both witnesses
    stabilize); None when the dovetail budget runs out. The composite
    program length is |encode_pair(max_witness, min_witness)|."""
    if d_rank not in table.k_max:
        raise ConfigError(f"rank {d_rank} has no max-side witness")
    if d_rank not in table.k_min:
        raise ConfigError(f"rank {d_rank} has no min-side witness")
    n1, p1 = decode_padded(table.k_max[d_rank])
    n2, p2 = decode_padded(table.k_min[d_rank])
    f = vm_max_evaluator(p, n1)
    g = vm_max_evaluator(reverse(p), n2)
    return common_value_dovetail(p, f, g, p1, p2, b.t_budget + b.fuel)


# --------------------------------------------------------------- diagonal


def default_program_family(weak: PosetInstance, b: Budget):
    """p -> kept traces of the weak max- and min-machines addressed by the
    padded coding, or None when p is outside the coding's range. One run
    per address feeds both traces."""
    down = reverse(weak)

    def family(p_word: str):
        dec = decode_padded(p_word)
        if dec is None:
            return None
        n, payload = dec
        instrs = parse_program(b_word(n))
        raw_first = () if instrs is None else _execute(instrs, b_index(payload), b.fuel)[0]
        return kept_trace(raw_first, weak.unrank, weak.leq), kept_trace(raw_first, down.unrank, down.leq)

    return family


def diagonal_hard(
    weak: PosetInstance,
    strong: PosetInstance,
    generator: Callable[[int, int], Sequence[Any]],
    alpha: Callable[[int], int],
    i: int,
    b: Budget,
    program_family=None,
) -> tuple[Any, Any, dict]:
    """The finite diagonalization engine: inside a strong chain Z_i that is a
    weak antichain of size 2^(alpha(i)+1), walk away from every value that
    any weak-semantics program shorter than alpha(i) produces within budget.

    F_i is the strong-max limit of the least-unexcluded walk; G_i is the
    strong-min limit of the mirrored greatest-unexcluded walk. The audit
    re-checks the counting argument instead of assuming it: each program
    trace meets Z_i at most once (chain against antichain), the excluded set
    never exceeds 2^(alpha(i)+1) - 2, and F_i, G_i are members of Z_i that no
    within-budget exclusion ever names.
    """
    if i < 0:
        raise ConfigError(f"i must be a natural number, got {i}")
    a_i = alpha(i)
    if a_i < 0:
        raise ConfigError("alpha must be a total monotone map into N")
    if a_i > DIAGONAL_ALPHA_CAP:
        raise ResourceError(f"alpha(i) = {a_i} exceeds the desk-scale cap of {DIAGONAL_ALPHA_CAP}")
    size = 2 ** (a_i + 1)
    family = list(generator(i, size))
    if len(family) != size:
        raise VerificationError(
            f"generator returned {len(family)} elements, wanted {size}"
        )
    for a, bb_ in zip(family, family[1:]):
        if not strong.lt(a, bb_):
            raise VerificationError("family is not an ascending strong chain")
    for idx1 in range(len(family)):
        for idx2 in range(idx1 + 1, len(family)):
            if weak.leq(family[idx1], family[idx2]) or weak.leq(family[idx2], family[idx1]):
                raise VerificationError("family is not a weak antichain")
    z_index = {e: j for j, e in enumerate(family)}

    if program_family is None:
        program_family = default_program_family(weak, b)
    horizon = b.horizon
    events: list[tuple[int, int]] = []  # (step, family index)
    per_trace_ok = True
    programs = 0
    for p_word in iter_words(a_i - 1) if a_i >= 1 else []:
        traces = program_family(p_word)
        if traces is None:
            continue
        programs += 1
        for trace in traces:
            hits = [
                (step, z_index[d]) for step, d in trace if step <= horizon and d in z_index
            ]
            if len(hits) > 1:
                per_trace_ok = False
            events.extend(hits)
    events.sort()
    bound = size - 2

    excluded: set[int] = set()
    least_walk: list[tuple[int, int]] = [(0, 0)]  # (step, family index)
    greatest_walk: list[tuple[int, int]] = [(0, size - 1)]
    bound_ok = True
    for step, j in events:
        excluded.add(j)
        if len(excluded) > bound:
            bound_ok = False
        least = next(idx for idx in range(size) if idx not in excluded)
        greatest = next(idx for idx in range(size - 1, -1, -1) if idx not in excluded)
        if least != least_walk[-1][1]:
            least_walk.append((step, least))
        if greatest != greatest_walk[-1][1]:
            greatest_walk.append((step, greatest))

    f_report = limit_report_from_trace(least_walk, horizon, b.window)
    g_report = limit_report_from_trace(greatest_walk, horizon, b.window)
    f_elem = family[f_report.current]
    g_elem = family[g_report.current]
    audit = {
        "i": i,
        "alpha_i": a_i,
        "z_size": size,
        "programs_considered": programs,
        "exclusion_events": len(events),
        "excluded_total": len(excluded),
        "excluded_bound": bound,
        "per_step_bound_ok": bound_ok,
        "per_trace_at_most_one": per_trace_ok,
        "f_index": f_report.current,
        "g_index": g_report.current,
        "f_in_family": f_elem in z_index,
        "g_in_family": g_elem in z_index,
        "f_not_excluded": f_report.current not in excluded,
        "g_not_excluded": g_report.current not in excluded,
        "f_status": f_report.status,
        "g_status": g_report.status,
    }
    audit["passed"] = all(
        audit[k]
        for k in (
            "per_step_bound_ok",
            "per_trace_at_most_one",
            "f_in_family",
            "g_in_family",
            "f_not_excluded",
            "g_not_excluded",
        )
    )
    return f_elem, g_elem, audit


# ----------------------------------------------------------------- oracle


class OracleStub:
    """Bounded existential oracle: answers "exists t < horizon with property"
    by brute force and counts its calls. Deterministic by construction."""

    def __init__(self, horizon: int):
        if horizon < 1:
            raise ConfigError("oracle horizon must be positive")
        self.horizon = horizon
        self.calls = 0

    def exists(self, pred: Callable[[int], bool]) -> bool:
        self.calls += 1
        return any(pred(t) for t in range(self.horizon))


def oracle_decide(graph: dict, oracle: OracleStub, x, d) -> bool:
    """Decide F(x) = d from the graph's existential and universal halves with
    exactly two oracle calls: one for "some stage hits d", one for "some
    stage escapes above d"."""
    sigma_pred = graph["sigma_pred"]
    pi_pred = graph["pi_pred"]
    hit = oracle.exists(lambda t: sigma_pred(x, t, d))
    escape = oracle.exists(lambda t: not pi_pred(x, t, d))
    return hit and not escape


# ----------------------------------------------------------------- report


def hierarchy_report(
    p: PosetInstance,
    ranks: int,
    b: Budget,
    config: Optional[dict] = None,
) -> str:
    """CSV of the plain, max and min columns with summary constants.

    Columns: rank, element, k_plain, k_max, k_min, witness_plain,
    witness_max, witness_min, pair_len, status. Header comment lines carry
    the run configuration and the measured diagnostics c1 = max(k_max -
    k_plain), c2 = max(k_min - k_plain) and the wrap constant; pair_len is
    the composite-program length |c(max_witness, min_witness)| of the paired
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
    if config is not None:
        buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
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
