"""Reference oracles for the order-free kernel and the generating scans.

These are the order-aware interpreter and the per-word table scans the
package used before its kernel became order-free: every word of
``iter_words`` is parsed or decoded, run under the poset's kept-emission
filter and (on the limit side) turned into its own limit report. They are
slow and obviously faithful to the definitions, which is what the property
tests compare the package against. Nothing here is imported by the package.
"""

from __future__ import annotations

from typing import Any

from kposet.codec import b_index, b_word, decode_padded
from kposet.complexity import Budget, TableEntry, iter_words
from kposet.limits import STABILIZED, limit_report_from_trace
from kposet.posets import PosetInstance, reverse
from kposet.vm import _CYCLE_SET_CAP, RunResult, parse_program


def execute_ordered(instrs, input_b: int, fuel: int, unrank, leq) -> RunResult:
    """The interpreter with the kept filter applied at every OUT."""
    pc, a, b = 0, 0, input_b
    steps = 0
    trace: list[tuple[int, Any]] = []
    raw_first: list[tuple[int, int]] = []
    raw_seen: set[int] = set()
    kept_last = None
    halted = False
    states: set[tuple[int, int, int]] = set()
    n = len(instrs)
    while steps < fuel:
        if pc < 0 or pc >= n:
            steps = fuel  # dead spin
            break
        key = (pc, a, b)
        if key in states:
            steps = fuel  # proven cycle, nothing new can happen
            break
        if len(states) < _CYCLE_SET_CAP:
            states.add(key)
        op, arg = instrs[pc]
        step_index = steps
        steps += 1
        if op == "INC_A":
            a += 1
            pc += 1
        elif op == "INC_B":
            b += 1
            pc += 1
        elif op == "DEC_A":
            a = max(0, a - 1)
            pc += 1
        elif op == "DEC_B":
            b = max(0, b - 1)
            pc += 1
        elif op == "JZ_A":
            pc = pc + arg if a == 0 else pc + 1
        elif op == "JZ_B":
            pc = pc + arg if b == 0 else pc + 1
        elif op == "OUT":
            if a not in raw_seen:
                raw_seen.add(a)
                raw_first.append((step_index, a))
            d = unrank(a)
            if kept_last is None:
                trace.append((step_index, d))
                kept_last = d
            elif d != kept_last and leq(kept_last, d):
                trace.append((step_index, d))
                kept_last = d
            pc += 1
        else:  # HALT
            halted = True
            break
    return RunResult(tuple(trace), tuple(raw_first), halted, steps, a, b)


def run_emitting_ref(p: PosetInstance, code: str, input_b: int, fuel: int) -> RunResult:
    instrs = parse_program(code)
    if instrs is None:
        return RunResult((), (), False, fuel, 0, input_b)
    return execute_ordered(instrs, input_b, fuel, p.unrank, p.leq)


def run_raw_ref(code: str, input_b: int, fuel: int) -> RunResult:
    instrs = parse_program(code)
    if instrs is None:
        return RunResult((), (), False, fuel, 0, input_b)
    return execute_ordered(instrs, input_b, fuel, lambda r: r, lambda x, y: x <= y)


def plain_scan_ref(p: PosetInstance, ranks: int, b: Budget) -> dict[int, TableEntry]:
    found: dict[int, TableEntry] = {}
    for w in iter_words(b.max_prog_len):
        if parse_program(w) is None:
            continue
        res = run_emitting_ref(p, w, 0, b.fuel)
        if res.halted and res.reg_a < ranks and res.reg_a not in found:
            found[res.reg_a] = TableEntry(len(w), w)
    return found


def limit_side_ref(p: PosetInstance, ranks: int, b: Budget):
    """(found, censored) of the max scan over p; the min scan is this over
    reverse(p)."""
    found: dict[int, TableEntry] = {}
    censored: set[int] = set()
    horizon = min(b.t_budget, b.fuel)
    for q in iter_words(b.max_prog_len):
        dec = decode_padded(q)
        if dec is None:
            continue
        n, payload = dec
        res = run_emitting_ref(p, b_word(n), b_index(payload), b.fuel)
        report = limit_report_from_trace(res.trace, horizon, b.window)
        if report.current is None:
            continue
        rank = p.rank(report.current)
        if rank >= ranks:
            continue
        if report.status == STABILIZED:
            if rank not in found:
                found[rank] = TableEntry(len(q), q)
        else:
            censored.add(rank)
    return found, censored


def tables_ref(p: PosetInstance, ranks: int, b: Budget):
    """(rows, censored) as the joined plain/max/min tables would hold them:
    rows maps rank -> (plain, max, min) entries."""
    plain = plain_scan_ref(p, ranks, b)
    kmax, cmax = limit_side_ref(p, ranks, b)
    kmin, cmin = limit_side_ref(reverse(p), ranks, b)
    rows = {
        r: (plain.get(r), kmax.get(r), kmin.get(r))
        for r in set(plain) | set(kmax) | set(kmin)
    }
    return rows, (cmax - set(kmax)) | (cmin - set(kmin))
