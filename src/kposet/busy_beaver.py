"""The busy-beaver table: bb(n, t) from one walk of the transition tree of
the one-tape Turing machines over {blank, 1}.

It shares nothing with the counter-machine kernel of `vm`, so the `bb`
command loads this module and `errors` alone.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import ConfigError, ResourceError

__all__ = ["busy_beaver_row", "BB_STATE_BOUND", "BB_T_MAX_CEILING"]

BB_STATE_BOUND = 2  # largest n accepted by busy_beaver_row (n+1 machine states)
BB_T_MAX_CEILING = 256  # largest t_max accepted; n = 2 takes about 9 s there on a 2-CPU host


def busy_beaver_row(n: int, t_max: int) -> list[int]:
    """bb(n, t) for t = 0..t_max in one walk of the transition tree: the
    most cells of a machine halting at each step, then a running max over
    the steps.

    bb(n, t) is the max over 0 and the cells visited by (n+1)-state machines
    halting within t steps from blank tape; monotone in both arguments."""
    if n < 0 or t_max < 0:
        raise ConfigError(f"busy beaver sizes must be natural numbers, got n={n}, t_max={t_max}")
    if n > BB_STATE_BOUND:
        raise ResourceError(
            f"busy beaver enumeration is bounded at n <= {BB_STATE_BOUND}"
        )
    if t_max > BB_T_MAX_CEILING:
        raise ResourceError(
            f"busy beaver t_max={t_max} exceeds the desk-scale ceiling of {BB_T_MAX_CEILING} steps"
        )
    at_step = [0] * (t_max + 1)
    for _reached, halted, steps, cells in _tree_leaves(n + 1, t_max):
        if halted and cells > at_step[steps]:
            at_step[steps] = cells
    return list(itertools.accumulate(at_step, max))


def _tree_leaves(states: int, t_max: int) -> Iterator[tuple[tuple, bool, int, int]]:
    """The leaves of the transition tree (Brady's tree normal form) of the
    `states`-state machines run for t_max steps from blank tape.

    A depth-first walk over partial tables: it starts from the empty table
    and runs the machine; when the run first reads an undefined
    (state, symbol), it branches over the 2 * 2 * (states + 1) transitions
    (write, move, next-or-"H", in that nesting order), each branch resuming
    from the current configuration. A leaf is a run that halts or uses up
    t_max steps. It is yielded as (reached, halted, steps, cells), with
    reached the ((state, symbol), transition) pairs the run defined, in the
    order it reached them, and cells the distinct head positions, the final
    one after a halting move included.

    Exactness: a run of a total table only reads the transitions it
    reaches, so it runs step for step like the partial table of the one
    leaf whose reached transitions the table contains; every total table
    falls under exactly one leaf, because the tree branches over every
    transition at each key it reaches. The tape and the visited cells are
    bit masks (bit t_max + p for cell p, |p| <= t_max), so branches share
    them without copies."""
    transitions = [
        (write, move, nxt)
        for write in (0, 1)
        for move in ("L", "R")
        for nxt in [*range(states), "H"]
    ]
    # popped from the stack in the order above; "H" runs as state -1
    branches = [
        ((write, move, nxt), (write, 1 if move == "R" else -1, -1 if nxt == "H" else nxt))
        for write, move, nxt in reversed(transitions)
    ]
    # (table indexed by 2 * state + symbol, reached, state, pos, tape, visited, step)
    stack = [((None,) * (2 * states), (), 0, t_max, 0, 1 << t_max, 0)]
    while stack:
        table, reached, state, pos, tape, visited, step = stack.pop()
        while step < t_max:
            key = 2 * state + (tape >> pos & 1)
            act = table[key]
            if act is None:
                head, tail = table[:key], table[key + 1:]
                where = (state, key & 1)
                for tr, act in branches:
                    stack.append((head + (act,) + tail, reached + ((where, tr),),
                                  state, pos, tape, visited, step))
                break
            write, delta, state = act
            tape = tape | 1 << pos if write else tape & ~(1 << pos)
            pos += delta
            visited |= 1 << pos
            step += 1
            if state < 0:
                yield reached, True, step, visited.bit_count()
                break
        else:
            yield reached, False, step, visited.bit_count()
