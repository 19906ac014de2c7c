"""The busy-beaver table: bb(n, t) from one walk of the symmetry-reduced
transition tree of the one-tape Turing machines over {blank, 1}.

It shares nothing with the counter-machine kernel of `vm`, so the `bb`
command loads this module and `errors` alone.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import ConfigError, ResourceError

__all__ = ["busy_beaver_row", "BB_STATE_BOUND", "BB_T_MAX_CEILING", "BB3_T_MAX_CEILING"]

BB_STATE_BOUND = 3  # largest n accepted by busy_beaver_row (n+1 machine states)
BB_T_MAX_CEILING = 256  # largest t_max at n <= 2; n = 2 takes about 0.2 s there on a 2-CPU host
BB3_T_MAX_CEILING = 80  # largest t_max at n = 3; the bb command takes about 8 s there on a 2-CPU host


def busy_beaver_row(n: int, t_max: int) -> list[int]:
    """bb(n, t) for t = 0..t_max in one walk of the reduced transition
    tree: the most cells of a machine halting at each step, then a running
    max over the steps.

    bb(n, t) is the max over 0 and the cells visited by (n+1)-state machines
    halting within t steps from blank tape; monotone in both arguments."""
    if n < 0 or t_max < 0:
        raise ConfigError(f"busy beaver sizes must be natural numbers, got n={n}, t_max={t_max}")
    if n > BB_STATE_BOUND:
        raise ResourceError(
            f"busy beaver enumeration is bounded at n <= {BB_STATE_BOUND}"
        )
    if t_max > (ceiling := BB3_T_MAX_CEILING if n == 3 else BB_T_MAX_CEILING):
        raise ResourceError(
            f"busy beaver t_max={t_max} exceeds the desk-scale ceiling of {ceiling} steps"
        )
    at_step = [0] * (t_max + 1)
    for steps, cells in _halting_leaves(n + 1, t_max):
        if cells > at_step[steps]:
            at_step[steps] = cells
    return list(itertools.accumulate(at_step, max))


def _halting_leaves(states: int, t_max: int) -> Iterator[tuple[int, int]]:
    """(steps, cells) for the halting leaves of the transition tree of the
    `states`-state machines run for t_max steps from blank tape, reduced by
    the symmetries of the tree (A. H. Brady, Math. Comp. 40, 1983).

    The tree is a depth-first walk over partial tables: it starts from the
    empty table and runs the machine; when the run first reads an undefined
    (state, symbol), it branches over the transitions (write, move,
    next-or-"H") there, each branch resuming from the current
    configuration. A leaf is a run that halts or uses up t_max steps; cells
    counts the distinct head positions, the final one after a halting move
    included. Every total table falls under exactly one leaf of the full
    tree, which runs it step for step, so the halting leaves' (steps,
    cells) are those of the halting machines. The walk drops four kinds of
    branch, each of whose halting leaves equal those of a kept sibling or
    are none; by induction on the depth, the (steps, cells) pairs of the
    halting leaves, and so the row, stay those of the full tree:

    - States are numbered in the order the run first enters them: a new
      transition goes to a used state, to the lowest unused state u, or to
      H. The branch to an unused j > u is the image of the branch to u
      under the swap of u and j, which fixes the table so far (neither
      state occurs in it) and the configuration (the current state is
      used), and runs every table in it as the image table runs.
    - The first transition, read at (0, blank) on a blank tape, moves R
      only: the branch that moves L is the mirror image, L and R swapped
      everywhere, of the one that moves R, with the same steps and cells.
    - A halting transition writes 0 only: the run ends on that move, so
      nothing reads the symbol it writes.
    - The last undefined entry takes halting transitions only. The walk
      defines an entry only when the run reads it, and a halting entry
      ends the run at once, so no table on the stack has one: a
      non-halting child there is a total table that never halts.

    The tape and the visited cells are bit masks (bit t_max + p for cell p,
    |p| <= t_max), so branches share them without copies."""
    # non_halting[used][first]: the (write, move, next) a new entry may take
    # when states 0..used-1 are used, with the used count after it
    non_halting = [
        [[((write, delta, nxt), max(used, nxt + 1))
          for write in (0, 1) for delta in moves for nxt in range(min(used + 1, states))]
         for moves in ((1, -1), (1,))]
        for used in range(states + 1)
    ]
    # (table indexed by 2 * state + symbol, used, undefined, state, pos, tape, visited, step)
    stack = [((None,) * (2 * states), 1, 2 * states, 0, t_max, 0, 1 << t_max, 0)]
    while stack:
        table, used, undefined, state, pos, tape, visited, step = stack.pop()
        while step < t_max:
            key = 2 * state + (tape >> pos & 1)
            act = table[key]
            if act is None:
                first = undefined == 2 * states
                yield step + 1, (visited | 1 << pos + 1).bit_count()
                if not first:
                    yield step + 1, (visited | 1 << pos - 1).bit_count()
                if undefined > 1:
                    head, tail = table[:key], table[key + 1:]
                    for act, now_used in non_halting[used][first]:
                        stack.append((head + (act,) + tail, now_used, undefined - 1,
                                      state, pos, tape, visited, step))
                break
            write, delta, state = act
            tape = tape | 1 << pos if write else tape & ~(1 << pos)
            pos += delta
            visited |= 1 << pos
            step += 1
