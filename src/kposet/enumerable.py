"""The enumerable-set counters: the set a program enumerates is the set of
values it emits (unfiltered) on input 0, read from the raw first emissions
of the order-free kernel in `vm`.

Each command makes one kernel run and reads it in one pass: card_re_row
counts the values emitted before each t, and set_interaction_limit traces a
finite set X against them (cap, minus, setminus) and reports its budgeted
limit. No evaluator and no memo is involved, and no order code: X and the
trace are checked under inclusion here.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .codec import b_word
from .errors import ConfigError, DomainError, MonotonicityError, ResourceError
from .limits import LimitReport, check_budget, limit_report_from_trace
from .vm import _execute, parse_program

__all__ = [
    "card_re_row",
    "set_interaction_limit",
    "INTERACTION_MODES",
    "RUN_STEPS_CEILING",
    "TRACE_MEMBERS_CEILING",
]

RUN_STEPS_CEILING = 1_000_000  # largest cardre --t-max and interact --t-budget; cardre takes about 0.6 s there
TRACE_MEMBERS_CEILING = 1_000_000  # most members listed over the points of one interaction trace

INTERACTION_MODES = ("cap", "minus", "setminus")


def card_re_row(n: int, t_max: int) -> list[int]:
    """h(n, t) for t = 0..t_max from one run at fuel t_max: the number of
    distinct values emitted (unfiltered) by program b_word(n) on input 0
    before step t, i.e. the first emissions with step < t. A program that
    does not parse emits nothing. The budgeted max-limit of h is the
    cardinality of the enumerated set when that set is finite."""
    if t_max < 0:
        raise ConfigError("--t-max must be a natural number")
    if t_max > (ceiling := RUN_STEPS_CEILING):
        raise ResourceError(f"cardre t_max={t_max} exceeds the desk-scale ceiling of {ceiling} steps")
    instrs = parse_program(b_word(n))
    new_at = [0] * (t_max + 1)
    for step, _ in () if instrs is None else _execute(instrs, 0, t_max)[0]:
        new_at[step + 1] += 1  # counted from t = step + 1 on; every step is below the fuel
    return list(itertools.accumulate(new_at))


def _interaction_trace(emitted: Iterable[tuple[int, int]], mode: str, x: tuple) -> list[tuple[int, tuple]]:
    """The points (t, answer) where the answer at the set x changes, t = 0
    first, given the first emissions (step, value) of a run:

    cap:      X intersected with the values emitted before t (increasing)
    minus:    {x - y : x in X, y emitted before t, x >= y}    (increasing)
    setminus: X minus the values emitted before t             (decreasing)

    A first emission at step s may change the answer from t = s + 1 on,
    and as it only grows (cap, minus) or only shrinks (setminus), it
    changes exactly when its size does. Each point lists the whole answer,
    so a trace that would list more than TRACE_MEMBERS_CEILING members in
    all raises ResourceError as it is built."""
    out = set(x) if mode == "setminus" else set()
    points = [(0, tuple(sorted(out)))]
    listed = len(out)
    for step, v in emitted:
        size = len(out)
        if mode == "minus":
            out.update(m - v for m in x if m >= v)
        elif v in x:
            (out.add if mode == "cap" else out.discard)(v)
        if len(out) != size:
            listed += len(out)
            if listed > (ceiling := TRACE_MEMBERS_CEILING):
                raise ResourceError(
                    f"interaction trace exceeds the desk-scale ceiling of {ceiling} listed members"
                    f" at t={step + 1}"
                )
            points.append((step + 1, tuple(sorted(out))))
    return points


def _check_monotone(points: list[tuple[int, tuple]], grows: bool) -> None:
    """Raise MonotonicityError at the first change point of an interaction
    trace whose answer is not a superset (grows) or a subset (not grows)
    of the answer before it."""
    for (_, last), (t, d) in zip(points, points[1:]):
        if not (set(last) <= set(d) if grows else set(last) >= set(d)):
            raise MonotonicityError(f"process not monotone at t={t}", witness=((t - 1, last), (t, d)))


def set_interaction_limit(a_index: int, mode: str, x: tuple, t_budget: int,
                          window: int) -> tuple[list[tuple[int, tuple]], LimitReport]:
    """The distinct values (t, value) of the interaction of the finite set
    x, a sorted duplicate-free tuple, with the set enumerated by program
    b_word(a_index) on input 0 (see _interaction_trace), for t =
    0..t_budget, each checked to rise under inclusion (to fall for
    setminus), and the report and errors of budgeted_limit over them, from
    one run at fuel t_budget and no walk over t."""
    if mode not in INTERACTION_MODES:
        raise ConfigError(f"mode must be one of {INTERACTION_MODES}, got {mode!r}")
    if (any(not isinstance(m, int) or isinstance(m, bool) or m < 0 for m in x)
            or list(x) != sorted(set(x))):
        raise DomainError(f"not a sorted duplicate-free tuple of naturals: {x!r}")
    instrs = parse_program(b_word(a_index))
    check_budget(t_budget, t_budget, window)
    if t_budget > (ceiling := RUN_STEPS_CEILING):
        raise ResourceError(f"interact t_budget={t_budget} exceeds the desk-scale ceiling of {ceiling} steps")
    points = _interaction_trace(() if instrs is None else _execute(instrs, 0, t_budget)[0], mode, x)
    _check_monotone(points, grows=mode != "setminus")
    return points, limit_report_from_trace(points, t_budget, window)
