"""Evaluator-level limit operators and the constructions on monotone
processes: budgeted_limit walks every t of an evaluator; monotone_filter
repairs a stream into a monotone one; normalize, totalize and
prefix_normal_form reshape a process without changing its budgeted limits
where both stabilize; common_value_dovetail finds the value an increasing
and a decreasing process share, and paired_decompress runs it on the max
and min witnesses of one table row, read as vm_max_evaluator processes.

No command runs any of them: they are reference forms of the paper's
constructions, which the tests check against the definitions. So they live
here, beside the oracles of reference_impl, and the kposet package holds
only what its commands run. So does _fuel_prefix_runs, the one memo of
evaluator work, which normalize's search for the first value and
vm_max_evaluator's machine runs share. ContractError, the error a
construction raises when its caller breaks a precondition (an empty value
chain, a process that is not total), lives here with them.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any, Callable, Iterable

from kposet.complexity import PADDED
from kposet.errors import ConfigError, KposetError, MonotonicityError
from kposet.limits import NO_VALUE, STABILIZED, STILL_CHANGING, Evaluator, LimitReport, check_budget
from kposet.posets import reverse
from kposet.vm import run_emitting

if TYPE_CHECKING:
    from kposet.complexity import Budget, ComplexityTable
    from kposet.posets import PosetInstance

__all__ = [
    "ContractError",
    "budgeted_limit",
    "trace_evaluator",
    "monotone_filter",
    "normalize",
    "totalize",
    "prefix_normal_form",
    "common_value_dovetail",
    "vm_max_evaluator",
    "paired_decompress",
]


class ContractError(KposetError):
    """A caller-side contract (e.g. bottom element really is a bottom) failed."""


def _fuel_prefix_runs(run: Callable[[Any, int], Any]) -> Callable[[Any, int], Any]:
    """Memoise run(x, fuel) with one run per input at the largest fuel seen
    (the first fuel asked, then at least twice the last on growth), returned
    as it is. What a run says about fuel F or less must be the same at every
    larger fuel, and callers read only that part, so each answer is that of
    a run at their fuel."""
    cache: dict[Any, tuple[int, Any]] = {}

    def at(x: Any, fuel: int) -> Any:
        cached = cache.get(x)
        if cached is None or cached[0] < fuel:
            run_fuel = max(fuel, 2 * cached[0]) if cached else fuel
            cached = cache[x] = (run_fuel, run(x, run_fuel))
        return cached[1]

    return at


def budgeted_limit(
    p: PosetInstance,
    e: Evaluator | Callable[[Any, int, int], Any],
    x,
    t_budget: int,
    fuel: int,
    window: int,
) -> LimitReport:
    """Evaluate e(x, t, fuel) for t = 0..t_budget and report the current
    greatest value (equivalently the last defined one, by monotonicity).

    Status is stabilized-within-budget only when the final `window` defined
    points all carry the same value. Min-limits are this very function over
    reverse(p); there is no separate code path.
    """
    check_budget(t_budget, fuel, window)
    current = None
    have = False
    last_t = 0
    last_change_t = 0
    tail_run = 0
    for t in range(t_budget + 1):
        d = e(x, t, fuel)
        if d is None:
            continue
        if have and d != current and not p.leq(current, d):
            raise MonotonicityError(
                f"process not monotone at t={t}",
                witness=((last_t, current), (t, d)),
            )
        if have and d == current:
            tail_run += 1
        else:
            current = d
            tail_run = 1
            last_change_t = t
        have = True
        last_t = t
    if not have:
        return LimitReport(None, 0, 0, NO_VALUE)
    status = STABILIZED if tail_run >= window else STILL_CHANGING
    return LimitReport(current, last_change_t, t_budget - last_change_t, status)


def trace_evaluator(points: Iterable[tuple[int, Any]], cost: int = 0) -> Evaluator:
    """Synthetic evaluator defined exactly at the listed (t, value) points,
    at every input, once the fuel covers the per-point cost."""
    table = dict(points)

    def fn(x, t, fuel):
        if fuel < cost:
            return None
        return table.get(t)

    return Evaluator(fn)


def monotone_filter(
    p: PosetInstance, stream: Iterable[tuple[int, Any, int, Any]]
) -> list[tuple[int, Any, int, Any]]:
    """Keep the subsequence of (n, x, t, d) tuples whose graph is monotone
    increasing in t within every (n, x) group.

    A tuple is kept iff it is order-consistent with every previously KEPT
    tuple of its group in both time directions: earlier-kept values must lie
    below it, later-kept values above it. Checking both directions (rather
    than only t_j < t_i) is what makes the output genuinely monotone whatever
    the enumeration order; checking only against kept tuples is what keeps
    monotone streams untouched.
    """
    kept: list[tuple[int, Any, int, Any]] = []
    groups: dict[tuple[int, Any], list[tuple[int, Any]]] = {}
    seen_keys = set()
    for (n, x, t, d) in stream:
        key = (n, x, t)
        if key in seen_keys:
            raise ConfigError(f"stream repeats the cell {key!r}")
        seen_keys.add(key)
        ok = True
        for (tj, dj) in groups.get((n, x), ()):
            if tj < t and not p.leq(dj, d):
                ok = False
                break
            if tj > t and not p.leq(d, dj):
                ok = False
                break
        if ok:
            kept.append((n, x, t, d))
            groups.setdefault((n, x), []).append((t, d))
    return kept


def _greatest_of_chain(p: PosetInstance, values: Iterable[Any]) -> Any:
    best = None
    have = False
    for v in values:
        if not have:
            best, have = v, True
        elif p.leq(best, v):
            best = v
        elif not p.leq(v, best):
            raise MonotonicityError(
                "incomparable values in a supposed chain",
                witness=((0, best), (0, v)),
            )
    if not have:
        raise ContractError("empty value chain")
    return best


def normalize(p: PosetInstance, e: Evaluator) -> Evaluator:
    """Rectangular-domain form of a monotone process.

    The result is defined at (x, t) exactly when some (u, f) pair with
    u + f <= fuel makes e(x, u, f) converge (the dovetailed discovery of the
    first value theta(x)); its value is the greatest of {theta(x)} together
    with every e(x, u, t) converging within t steps for u <= t. Budgeted
    limits agree with the source wherever both stabilize. The pairs with
    u + f <= F come first in the diagonal order, so every longer search finds
    the same first hit (u + f, theta(x)), and one memoised search serves all.
    """

    def first_hit(x, fuel):
        pairs = ((s, e(x, u, s - u)) for s in range(fuel + 1) for u in range(s + 1))
        return next(((s, v) for s, v in pairs if v is not None), None)

    hits = _fuel_prefix_runs(first_hit)

    def fn(x, t, fuel):
        hit = hits(x, fuel)
        if hit is None or hit[0] > fuel:
            return None
        delta = [hit[1]]
        for u in range(t + 1):
            v = e(x, u, t)
            if v is not None:
                delta.append(v)
        return _greatest_of_chain(p, delta)

    return Evaluator(fn)


def totalize(p: PosetInstance, e: Evaluator, bottom: Any) -> Evaluator:
    """Total form of a monotone process over an order with bottom element.

    Value at (x, t) is the greatest of {bottom} and every e(x, u, t)
    converging within t steps for u <= t; where e is total the budgeted
    limits agree.
    """

    def fn(x, t, fuel):
        vals = [bottom]
        for u in range(t + 1):
            v = e(x, u, t)
            if v is None:
                continue
            if not p.leq(bottom, v):
                raise ContractError(
                    f"value {v!r} is not above the declared bottom {bottom!r}"
                )
            vals.append(v)
        return _greatest_of_chain(p, vals)

    return Evaluator(fn)


def prefix_normal_form(f: Evaluator) -> Evaluator:
    """One-symbol-per-step form of a total prefix-monotone word process:
    output starts empty and each step extends the previous output by at most
    one symbol, without changing budgeted limits where both stabilize."""

    def fn(s, t, fuel):
        cur = ""
        prev_raw = None
        for u in range(1, t + 1):
            raw = f(s, u, fuel)
            if raw is None:
                raise ContractError("prefix_normal_form needs a total process")
            if prev_raw is not None and not raw.startswith(prev_raw):
                raise MonotonicityError(
                    "process is not prefix-monotone",
                    witness=((u - 1, prev_raw), (u, raw)),
                )
            prev_raw = raw
            cur = raw[: min(len(cur) + 1, len(raw))]
        return cur

    return Evaluator(fn)


def common_value_dovetail(
    p: PosetInstance,
    f: Evaluator,
    g: Evaluator,
    x_f,
    x_g,
    budget: int,
) -> Any | None:
    """Dovetail an increasing process f and a decreasing process g (monotone
    over reverse(p)) in diagonal (t, fuel) order and return the first value
    both produce; None when the budget exhausts first.

    When the inputs are max/min witnesses for the same element d, every
    defined f value sits below d and every defined g value above it, and the
    common value is d itself.
    """
    f_seen: set[Any] = set()
    g_seen: set[Any] = set()
    for s in range(budget + 1):
        for t in range(s + 1):
            fuel = s - t
            vf = f(x_f, t, fuel)
            if vf is not None:
                f_seen.add(vf)
                if vf in g_seen:
                    return vf
            vg = g(x_g, t, fuel)
            if vg is not None:
                g_seen.add(vg)
                if vg in f_seen:
                    return vg
    return None


def vm_max_evaluator(p: PosetInstance, code: str) -> Evaluator:
    """A monotone process of the enumeration: program `code` on the input
    x (a natural number, loaded into reg_b), value at (x, t) = last kept
    emission at a step s with s <= t and s < fuel. Defined only when
    fuel >= t so the fuel-monotonicity contract holds exactly. Runs are
    shared through _fuel_prefix_runs; a query bisects the kept trace at
    step bound min(t + 1, fuel)."""
    kept_at = _fuel_prefix_runs(lambda x, fuel: run_emitting(p, code, x, fuel).trace)

    def fn(x, t, fuel):
        if fuel < t:
            return None
        trace = kept_at(x, fuel)
        # (bound,) sorts before every (bound, d), so no element is compared
        i = bisect.bisect_left(trace, (min(t + 1, fuel),))
        return trace[i - 1][1] if i else None

    return Evaluator(fn)


def paired_decompress(
    p: PosetInstance, table: ComplexityTable, d_rank: int, b: Budget
) -> Any | None:
    """Run the max and min witnesses of one rank against each other and
    return their first common value (the element itself when both witnesses
    stabilize); None when the dovetail budget runs out. The composite
    program length is codec.pair_len of the two witness lengths."""
    if d_rank not in table.k_max:
        raise ConfigError(f"rank {d_rank} has no max-side witness")
    if d_rank not in table.k_min:
        raise ConfigError(f"rank {d_rank} has no min-side witness")
    code_f, x_f = PADDED.decode(table.k_max[d_rank])
    code_g, x_g = PADDED.decode(table.k_min[d_rank])
    f = vm_max_evaluator(p, code_f)
    g = vm_max_evaluator(reverse(p), code_g)
    return common_value_dovetail(p, f, g, x_f, x_g, b.t_budget + b.fuel)
