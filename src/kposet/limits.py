"""Approximation processes and their budgeted limit reports.

An Evaluator is a deterministic budgeted partial map (x, t, fuel) -> value,
returning None when undefined within the fuel. Monotone-in-fuel is a caller
contract: a value returned at fuel F must be returned at every fuel >= F.
The t axis is the approximation clock; a process whose limit is reported
must be monotone increasing in t under the ambient order on its domain
(violations raise, they are never silently repaired).

True convergence is undecidable, so limit reports never claim it: the best
status is stabilized-within-budget together with an explicit stability
window. limit_report_from_trace makes the report from the points where a
process changes. Everything that walks or memoises an evaluator (the
budgeted_limit operator, which walks every t, the constructions and their
memo) is in `constructions`, which no command loads.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable, Sequence

from .errors import ConfigError

__all__ = [
    "Evaluator",
    "LimitReport",
    "STABILIZED",
    "STILL_CHANGING",
    "NO_VALUE",
    "check_budget",
    "limit_report_from_trace",
]

STABILIZED = "stabilized-within-budget"
STILL_CHANGING = "still-changing"
NO_VALUE = "no-value"


class Evaluator:
    """A budgeted partial map (x, t, fuel) -> value or None; rejects a negative t or fuel."""

    def __init__(self, fn: Callable[[Any, int, int], Any]):
        self._fn = fn

    def __call__(self, x, t: int, fuel: int):
        if t < 0 or fuel < 0:
            raise ConfigError("t and fuel must be natural numbers")
        return self._fn(x, t, fuel)


LimitReport = namedtuple("LimitReport", "current last_change_t stable_for status")


def check_budget(t_budget: int, fuel: int, window: int) -> None:
    """Raise ConfigError unless t_budget and fuel are natural numbers and
    window >= 1: the argument checks of budgeted_limit, for callers that
    make the same report another way."""
    if t_budget < 0 or fuel < 0:
        raise ConfigError(
            f"t_budget and fuel must be natural numbers, got {t_budget} and {fuel}"
        )
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")


def limit_report_from_trace(
    trace: Sequence[tuple[int, Any]], t_budget: int, window: int
) -> LimitReport:
    """Fast path equivalent to budgeted_limit over an evaluator whose value at
    t is the last trace point with clock <= t (trace clocks strictly
    increasing, values strictly changing at each point)."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    pts = [(t, d) for t, d in trace if t <= t_budget]
    if not pts:
        return LimitReport(None, 0, 0, NO_VALUE)
    last_t, current = pts[-1]
    tail_run = t_budget - last_t + 1
    status = STABILIZED if tail_run >= window else STILL_CHANGING
    return LimitReport(current, last_t, t_budget - last_t, status)

