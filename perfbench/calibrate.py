"""A fixed reference computation that tracks how fast this machine runs now.

The benchmark shares its host with other work, and the speed at which one
CPU-bound Python process runs there swings by up to 2x within a minute.
Each command's process therefore runs this reference right after the
command, on the same CPU at nearly the same time, and run.py reports times
in normalised seconds: wall seconds scaled by NOMINAL_S / (reference time).

The reference is frozen and independent of kposet, and close to the work
the CLI does. It has two kernels, because neither alone tracks every
workload: one decodes bit strings into two-counter-machine programs and
runs them with a visited-state set (the loop under `estimate`), the other
builds and intersects frozensets keyed in a dict (the allocation-heavy
work under `automata` and the finite-order searches). It must not change
once a baseline has been recorded with it; the checksums guard the work.
"""

from __future__ import annotations

import time

# Roughly what reference_run() takes on a 2-core x86-64 VM under CPython
# 3.11; a normalised second is a wall second at the speed at which the
# reference takes this long.
NOMINAL_S = 0.1

_OPS = ("INC_A", "INC_B", "DEC_A", "DEC_B", "JZ_A", "JZ_B", "OUT", "HALT")


def _parse(code: str):
    out, i, n = [], 0, len(code)
    while i < n:
        if n - i < 3:
            return None
        op = _OPS[int(code[i:i + 3], 2)]
        i += 3
        arg = None
        if op in ("JZ_A", "JZ_B"):
            if n - i < 5:
                return None
            raw = int(code[i:i + 5], 2)
            arg = raw - 32 if raw >= 16 else raw
            i += 5
        out.append((op, arg))
    return tuple(out)


def _execute(instrs, b: int, fuel: int) -> int:
    pc = a = steps = emitted = 0
    seen = set()
    n = len(instrs)
    while steps < fuel and 0 <= pc < n:
        key = (pc, a, b)
        if key in seen:
            break
        seen.add(key)
        op, arg = instrs[pc]
        steps += 1
        if op == "INC_A":
            a += 1
        elif op == "INC_B":
            b += 1
        elif op == "DEC_A":
            a = max(0, a - 1)
        elif op == "DEC_B":
            b = max(0, b - 1)
        elif op == "JZ_A" and a == 0 or op == "JZ_B" and b == 0:
            pc += arg
            continue
        elif op == "OUT":
            emitted += a
        elif op == "HALT":
            break
        pc += 1
    return steps + emitted


def _vm_kernel() -> int:
    total = 0
    for length in (12, 13):
        for v in range(1 << length):
            instrs = _parse(format(v, f"0{length}b"))
            if instrs is not None:
                total += _execute(instrs, v & 7, 256)
    return total


def _set_kernel() -> int:
    total = 0
    for seed in range(350):
        index: dict[frozenset, int] = {}
        for k in range(1, 14):
            s = frozenset((seed * 7 + i * 3) % 29 for i in range(k))
            for a in range(3):
                nxt = frozenset((x * 5 + a) % 29 for x in s)
                index.setdefault(nxt, len(index))
                total += len(s & nxt)
        total += len(index)
    return total


CHECKSUMS = (4178, 43331)


def reference_run() -> float:
    """Seconds taken by the fixed reference work, measured now."""
    start = time.perf_counter()
    sums = (_vm_kernel(), _set_kernel())
    elapsed = time.perf_counter() - start
    if sums != CHECKSUMS:
        raise RuntimeError(f"reference work changed: checksums {sums}")
    return elapsed
