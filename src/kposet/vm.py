"""The concrete, enumerable stand-in for partial computable functions.

A program is a raw bit string decoding left-to-right into two-counter
instructions (see OPCODES); any word that does not decode completely is
everywhere-divergent. Execution is deterministic; OUT proposes the element
of rank reg_a and the proposal is kept only when it extends the current
emission chain upward (equal re-emissions are deduplicated, downward or
incomparable proposals are silently skipped), so every program is a monotone
approximator. Min-semantics is obtained by running against the reversed
order, never by separate code.

The interpreter kernel is order-free: it records only the first occurrence
of each emitted rank, and kept_trace applies an order's kept filter to those
afterwards. Only first occurrences can ever pass the filter, because the
kept chain only rises: a value rejected once is not above some kept value k,
hence not above any later kept value k' >= k (else k <= k' <= value); a
value kept once is at or below every later kept value, so re-emitting it is
either a duplicate or a step down. One run therefore serves every order,
and scans that generate their own programs call the kernel directly.

Halting is decoupled from emitting: HALT only matters for the plain
(halting-value) semantics. Out-of-range jumps and fall-off-the-end enter a
dead spin that burns the remaining fuel.

A translated cycle (the two-counter form of the busy-beaver community's
"translated cycler") is jumped over instead of interpreted. It is a run
that comes back to the same pc with counters (a + da, b + db), da, db >= 0,
where every counter that grew was above 0 in every state of the segment
between the two visits; a repeated full state (pc, a, b) is the case
(da, db) = (0, 0). Exactness: an instruction acts the same on (a, b) and on
(a + da, b + db) unless it tests or decrements a counter that is 0 in one
and not in the other, which positivity rules out; so the shifted segment
replays step for step, its end is again shifted by (da, db) with its
growing counters still positive, and by induction the segment repeats
forever. The kernel adds the whole periods that fit in the remaining fuel,
records the first occurrences among their OUTs (the OUT of value v at step
s recurs as v + j*da at step s + j*period) and interprets the shorter
remainder, so every run, raw_first, halted, steps and the registers
included, equals an honest fuel burn.

This module is the kernel and the program walk only. The evaluator over its
runs, vm_max_evaluator, is a construction that no command runs; it lives
with the others in the tests' `constructions` module.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from .codec import _check_word
from .errors import ConfigError

if TYPE_CHECKING:
    from .posets import PosetInstance

__all__ = [
    "OPCODES",
    "parse_program",
    "iter_programs",
    "assemble",
    "RunResult",
    "run_emitting",
    "kept_trace",
]

# 3-bit opcodes; JZ_A/JZ_B carry a 5-bit two's-complement relative offset
OPCODES = {
    "000": "INC_A",
    "001": "INC_B",
    "010": "DEC_A",
    "011": "DEC_B",
    "100": "JZ_A",
    "101": "JZ_B",
    "110": "OUT",
    "111": "HALT",
}
_MNEMONIC = {v: k for k, v in OPCODES.items()}

JUMP_MIN, JUMP_MAX = -16, 15


def parse_program(code: str) -> tuple[tuple[str, Optional[int]], ...] | None:
    """Decode a bit string into instructions; None when a trailing fragment
    cannot complete an instruction (the whole program then diverges)."""
    _check_word(code)
    out = []
    i = 0
    n = len(code)
    while i < n:
        if n - i < 3:
            return None
        op = OPCODES[code[i: i + 3]]
        i += 3
        if op in ("JZ_A", "JZ_B"):
            if n - i < 5:
                return None
            raw = int(code[i: i + 5], 2)
            off = raw - 32 if raw >= 16 else raw
            out.append((op, off))
            i += 5
        else:
            out.append((op, None))
    return tuple(out)


def _instruction_table() -> list[tuple[str, tuple[str, Optional[int]]]]:
    """Every instruction as (bits, parsed form), in ascending bit order."""
    codes = []
    for opcode, op in sorted(OPCODES.items()):
        if op in ("JZ_A", "JZ_B"):
            codes.extend(opcode + format(raw, "05b") for raw in range(32))
        else:
            codes.append(opcode)
    return [(code, parse_program(code)[0]) for code in codes]


_INSTRUCTIONS = _instruction_table()


def iter_programs(
    max_len: int, needs: Optional[tuple[str, Optional[int]]] = None
) -> Iterator[tuple[str, tuple[tuple[str, Optional[int]], ...], int]]:
    """(code, parse_program(code), 0) for every code of length <= max_len
    that parses and, when `needs` is given, contains the instruction `needs`;
    shortest first and numerically ascending within a length (the witness
    tie-break order), without visiting any other word. This is the walk of
    the raw addressing, where a word is the program and its input is 0.

    Instruction codes are prefix-free, so a depth-first walk that tries the
    next instruction in ascending bit order yields same-length codes in
    ascending order. A branch is entered only when its remaining bits can
    still be filled. fillable[r] says that r bits can be filled by 3- and
    8-bit instructions; room[r] says that they can be filled by instructions
    of which at least one is `needs`, i.e. that `needs` fits and fillable
    holds for the bits beside it. Until `needs` is placed the rest must have
    room, after it fillable is enough (with needs=None room is fillable, and
    every parseable code is yielded). The children of a node depend only on
    its bits left and on whether `needs` is placed, so they are listed once
    per pair before the walk, and prefixes pass down as a string and a
    tuple."""
    fillable = [False] * (max_len + 1)
    fillable[0] = True
    for r in range(1, max_len + 1):
        fillable[r] = (r >= 3 and fillable[r - 3]) or (r >= 8 and fillable[r - 8])
    if needs is None:
        room = fillable
    else:
        widths = {ins: len(bits) for bits, ins in _INSTRUCTIONS}
        if needs not in widths:
            raise ConfigError(f"not an instruction: {needs!r}")
        width = widths[needs]
        room = [r >= width and fillable[r - width] for r in range(max_len + 1)]
    # placed[r] and due[r]: the children of a node with r bits left, after and
    # before `needs` is placed, as (bits, (ins,), the child's children or None)
    placed: list[list[tuple]] = []
    due: list[list[tuple]] = []
    for left in range(max_len + 1):
        for own, ahead in ((placed, fillable), (due, room)):
            children = []
            for bits, ins in _INSTRUCTIONS:
                rest = left - len(bits)
                fits, nxt = (fillable, placed) if ins == needs else (ahead, own)
                if rest >= 0 and fits[rest]:
                    children.append((bits, (ins,), nxt[rest] if rest else None))
            own.append(children)

    def extend(code, instrs, children):
        for bits, one, after in children:
            if after is None:
                yield code + bits, instrs + one, 0
            else:
                yield from extend(code + bits, instrs + one, after)

    if room[0]:
        yield "", (), 0
    for length in range(1, max_len + 1):
        if room[length]:
            yield from extend("", (), due[length])


def assemble(instrs: Iterable[tuple[str, Optional[int]] | str]) -> str:
    """Inverse of parse_program; accepts ("JZ_A", off) pairs or bare mnemonics."""
    bits = []
    for ins in instrs:
        if isinstance(ins, str):
            op, arg = ins, None
        else:
            op, arg = ins
        if op not in _MNEMONIC:
            raise ConfigError(f"unknown mnemonic {op!r}")
        bits.append(_MNEMONIC[op])
        if op in ("JZ_A", "JZ_B"):
            if arg is None or not JUMP_MIN <= arg <= JUMP_MAX:
                raise ConfigError(f"jump offset out of range: {arg!r}")
            bits.append(format(arg & 0x1F, "05b"))
        elif arg is not None:
            raise ConfigError(f"{op} takes no argument")
    return "".join(bits)


# trace: kept emissions (step, element); raw_first: first occurrence of each reg_a value
RunResult = namedtuple("RunResult", "trace raw_first halted steps_used reg_a reg_b")


def _shifted_firsts(segment, whole, period, da, raw_seen, raw_first) -> None:
    """Record the first occurrences among the OUTs of `whole` skipped
    periods: the OUT at (step, v) of the watched segment recurs in period j
    at step + j*period with value v + j*da."""
    if not segment:
        return
    for j in range(1, whole + 1):
        shift, grow = j * period, j * da
        for step, v in segment:
            v += grow
            if v not in raw_seen:
                raw_seen.add(v)
                raw_first.append((step + shift, v))


def _execute(instrs, input_b: int, fuel: int) -> tuple:
    """The order-free kernel: run parsed instructions from reg_a=0,
    reg_b=input_b for at most `fuel` steps and return (raw_first, halted,
    steps, reg_a, reg_b), raw_first being the (step, rank) pairs of the first
    OUT of each reg_a value. No order is consulted; see kept_trace.

    Translated cycles, repeated states included, are jumped over as the
    module docstring says. The pc of a cycle comes back, so it takes a jump
    of offset <= 0 in every period; each such landing is compared with one
    mark (pc, step, a, b), which moves to the landing after 1, 2, 4, ...
    landings (Brent's schedule). A landing at the mark's pc matches when the counters
    grew by (da, db) >= 0, and each grown counter was above 0 at the mark
    and no DEC has left it at 0 since; the whole periods that fit in the
    remaining fuel are then jumped and the mark is cleared."""
    pc, a, b = 0, 0, input_b
    steps = 0
    raw_first: list[tuple[int, int]] = []
    raw_seen: set[int] = set()
    n = len(instrs)
    mark_pc, mark_step, mark_a, mark_b = None, 0, 0, 0  # pc None: no mark
    landed, power = 0, 1  # landings since the mark moved, and the next move
    outs: list[tuple[int, int]] = []  # (step, reg_a) of every OUT since the mark
    zero_a = zero_b = 0  # last step whose state a DEC left at 0 (state 0 counts too)
    while steps < fuel:
        if pc < 0 or pc >= n:
            steps = fuel  # dead spin
            break
        op, arg = instrs[pc]
        steps += 1
        if op == "INC_A":
            a += 1
            pc += 1
        elif op == "INC_B":
            b += 1
            pc += 1
        elif op == "DEC_A":
            if a > 1:
                a -= 1
            else:
                a = 0
                zero_a = steps
            pc += 1
        elif op == "DEC_B":
            if b > 1:
                b -= 1
            else:
                b = 0
                zero_b = steps
            pc += 1
        elif op == "JZ_A" or op == "JZ_B":
            if a if op == "JZ_A" else b:
                pc += 1
            elif arg > 0:
                pc += arg
            else:  # a landing: compare with the mark
                pc += arg
                da, db = a - mark_a, b - mark_b
                if (
                    pc == mark_pc and da >= 0 and db >= 0
                    and (not da or (mark_a and zero_a < mark_step))
                    and (not db or (mark_b and zero_b < mark_step))
                ):
                    period = steps - mark_step
                    whole = (fuel - steps) // period
                    if whole:
                        if da:
                            _shifted_firsts(outs, whole, period, da, raw_seen, raw_first)
                        steps += whole * period
                        a += whole * da
                        b += whole * db
                        mark_pc = None  # the mark lies before unwatched periods
                    continue
                landed += 1
                if landed == power:
                    mark_pc, mark_step, mark_a, mark_b = pc, steps, a, b
                    landed, power = 0, 2 * power
                    outs.clear()
        elif op == "OUT":
            if a not in raw_seen:
                raw_seen.add(a)
                raw_first.append((steps - 1, a))
            outs.append((steps - 1, a))
            pc += 1
        else:  # HALT
            return tuple(raw_first), True, steps, a, b
    return tuple(raw_first), False, steps, a, b


def kept_trace(
    raw_first: Iterable[tuple[int, int]], unrank: Callable[[int], Any], leq: Callable[[Any, Any], bool]
) -> tuple[tuple[int, Any], ...]:
    """The kept emissions (step, element) of a run under an order, from its
    first-occurrence emissions alone: the first is kept, and each later one
    when it lies above the last kept element (strictly, as first occurrences
    carry distinct ranks). Exact because only first occurrences can pass
    (see the module docstring)."""
    trace: list[tuple[int, Any]] = []
    last = None
    for step, rank in raw_first:
        d = unrank(rank)
        if not trace or leq(last, d):
            trace.append((step, d))
            last = d
    return tuple(trace)


def run_emitting(p: PosetInstance, code: str, input_b: int, fuel: int) -> RunResult:
    """Run a program with reg_a=0, reg_b=input_b under the kept-emission
    (max) filter for p; min semantics is run_emitting over reverse(p)."""
    if fuel < 0:
        raise ConfigError("fuel must be a natural number")
    instrs = parse_program(code)
    if instrs is None:
        return RunResult((), (), False, fuel, 0, input_b)
    raw_first, halted, steps, a, b = _execute(instrs, input_b, fuel)
    return RunResult(kept_trace(raw_first, p.unrank, p.leq), raw_first, halted, steps, a, b)

