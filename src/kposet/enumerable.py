"""The enumerable-set counters: the set a program enumerates is the set of
values it emits (unfiltered) on input 0, read from the raw first emissions
of the order-free kernel in `vm`.

card_re_evaluator counts the values emitted so far; set_interaction_limit
traces a finite set X against them (cap, minus, setminus) and reports its
budgeted limit.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable, Iterable

from .codec import b_word
from .errors import ConfigError, MonotonicityError, ResourceError
from .limits import Evaluator, LimitReport, _fuel_prefix_runs, check_budget, limit_report_from_trace
from .vm import _execute, parse_program

if TYPE_CHECKING:
    from .posets import PosetInstance

__all__ = [
    "card_re_evaluator",
    "set_interaction_limit",
    "INTERACTION_MODES",
    "RUN_STEPS_CEILING",
    "TRACE_MEMBERS_CEILING",
]

RUN_STEPS_CEILING = 1_000_000  # largest cardre --t-max and interact --t-budget; cardre takes about 3 s there
TRACE_MEMBERS_CEILING = 1_000_000  # most members listed over the points of one interaction trace

INTERACTION_MODES = ("cap", "minus", "setminus")


def _first_emissions(n: int) -> Callable[[int], tuple]:
    """emitted(fuel): the first emissions (step, value) of b_word(n) on
    input 0, from one _fuel_prefix_runs run at that fuel or more."""
    instrs = parse_program(b_word(n))
    runs = _fuel_prefix_runs(lambda _x, fuel: () if instrs is None else _execute(instrs, 0, fuel)[0])
    return lambda fuel: runs(None, fuel)


def card_re_evaluator(n: int) -> Evaluator:
    """h(n, t) as an evaluator; every (t, fuel) query is a bisect of
    _first_emissions(n) at step bound t.

    h(n, t) = e(None, t, t) is the number of distinct values emitted
    (unfiltered) by program b_word(n) on input 0 within t steps; the
    budgeted max-limit of h is the cardinality of the enumerated set when
    that set is finite."""
    emitted = _first_emissions(n)

    def fn(x, t, fuel):
        if fuel < t:
            return None
        return bisect.bisect_left(emitted(fuel), (t,))

    return Evaluator(fn)


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


def set_interaction_limit(p: PosetInstance, a_index: int, mode: str, x: tuple, t_budget: int,
                          window: int) -> tuple[list[tuple[int, tuple]], LimitReport]:
    """The distinct values (t, value) of the interaction of x with the set
    enumerated by program b_word(a_index) on input 0 (see
    _interaction_trace), for t = 0..t_budget, each checked to rise in p
    (consume setminus with rev(finsets)), and the report and errors of
    budgeted_limit over them, from one run at fuel t_budget and no walk
    over t."""
    if mode not in INTERACTION_MODES:
        raise ConfigError(f"mode must be one of {INTERACTION_MODES}, got {mode!r}")
    instrs = parse_program(b_word(a_index))
    check_budget(t_budget, t_budget, window)
    if t_budget > (ceiling := RUN_STEPS_CEILING):
        raise ResourceError(f"interact t_budget={t_budget} exceeds the desk-scale ceiling of {ceiling} steps")
    points = _interaction_trace(() if instrs is None else _execute(instrs, 0, t_budget)[0], mode, x)
    for (_, last), (t, d) in zip(points, points[1:]):
        if not p.leq(last, d):
            raise MonotonicityError(f"process not monotone at t={t}", witness=((t - 1, last), (t, d)))
    return points, limit_report_from_trace(points, t_budget, window)
