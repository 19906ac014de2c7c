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
process changes. No command walks or memoises an evaluator: the
budgeted_limit operator, which walks every t, the constructions on
evaluators and their memo are reference forms of the paper's constructions
that only the tests run, so they live in the test suite's `constructions`
module (tests/constructions.py), not in the package.
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
    """A budgeted partial map (x, t, fuel) -> value or None; rejects a negative t or fuel.

    No command builds one; the tests' constructions and oracles do. It stays
    in the package because the benchmark tracer wraps its __call__ by name
    (`CLASS_METHODS` in perfbench/tracer.py); the tracer rework of ROADMAP
    item 19 drops that hook, and then this class can join the constructions.
    """

    def __init__(self, fn: Callable[[Any, int, int], Any]):
        self._fn = fn

    def __call__(self, x, t: int, fuel: int):
        if t < 0 or fuel < 0:
            raise ConfigError("t and fuel must be natural numbers")
        return self._fn(x, t, fuel)


LimitReport = namedtuple("LimitReport", "current last_change_t stable_for status")


def check_budget(t_budget: int, fuel: int, window: int) -> None:
    """Raise ConfigError unless t_budget and fuel are natural numbers and
    window >= 1: the argument checks of the budgeted limit over an evaluator
    (budgeted_limit, in the tests' constructions), for callers that make the
    same report another way."""
    if t_budget < 0 or fuel < 0:
        raise ConfigError(
            f"t_budget and fuel must be natural numbers, got {t_budget} and {fuel}"
        )
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")


def limit_report_from_trace(
    trace: Sequence[tuple[int, Any]], t_budget: int, window: int
) -> LimitReport:
    """The report of the budgeted limit over an evaluator (budgeted_limit, in
    the tests' constructions) whose value at t is the last trace point with
    clock <= t (trace clocks strictly increasing, values strictly changing at
    each point), read from the trace without walking t."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    pts = [(t, d) for t, d in trace if t <= t_budget]
    if not pts:
        return LimitReport(None, 0, 0, NO_VALUE)
    last_t, current = pts[-1]
    tail_run = t_budget - last_t + 1
    status = STABILIZED if tail_run >= window else STILL_CHANGING
    return LimitReport(current, last_t, t_budget - last_t, status)

