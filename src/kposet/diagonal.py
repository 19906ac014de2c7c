"""The diagonal audit behind the incomparability of Kmax and Kmin: inside a
strong chain that is a weak antichain, walk away from every value a short
weak-semantics program produces within budget, and re-check the counting
argument on the way.

`chain_antichain_family` picks the family from the order pair itself: a
closed form for prefix:xy / lexico:x<y, the first `conditions.check_star`
witness on a rank-bounded fragment otherwise, which is the only path that
loads `conditions`. The programs are the `PADDED` words of
`complexity.limit_corpus`, which is empty below 14 bits: no audit under
the cap sees an exclusion. Runs come as (traces, count) pairs, each scanned
once; G is F's walk over the family read backwards (reverse strong order).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from .complexity import Budget, limit_corpus
from .errors import ConfigError, ResourceError, VerificationError
from .limits import limit_report_from_trace
from .posets import PosetInstance, reverse
from .vm import kept_trace

__all__ = [
    "chain_antichain_family",
    "diagonal_hard",
    "DIAGONAL_ALPHA_CAP",
]

DIAGONAL_ALPHA_CAP = 11  # largest alpha(i) diagonal_hard audits (family of 2^12 words)


def chain_antichain_family(
    weak_p: PosetInstance, strong_p: PosetInstance, size: int
) -> list:
    """A size-element strong chain that is a weak antichain, in ascending
    strong order. The pair prefix:xy / lexico:x<y has the closed form
    {x^j y : j < size}; every other pair gets the first check_star witness
    on its first SUBSET_SEARCH_BOUND ranks. The family is not re-checked
    here: diagonal_hard checks every family it audits.
    """
    if size < 1:
        raise ConfigError(f"size must be >= 1, got {size}")
    kind, _, symbols = weak_p.spec.partition(":")
    if kind == "prefix" and len(symbols) == 2:
        x, y = symbols
        if strong_p.spec == f"lexico:{x}<{y}":
            return [x * (size - 1 - j) + y for j in range(size)]
    # deferred: only this fallback runs the subset search
    from .conditions import SUBSET_SEARCH_BOUND, check_star, order_pair_fragment

    pair, elems = order_pair_fragment(weak_p, strong_p, SUBSET_SEARCH_BOUND)
    found = check_star(pair, size)
    if found is None:
        raise ResourceError(
            f"no size-{size} witness within the first {SUBSET_SEARCH_BOUND} ranks"
        )
    return [elems[i] for i in found]


def _least_unexcluded(events: Sequence[tuple[int, int]], size: int, horizon: int, window: int):
    """The limit report of the walk holding, after each (step, index) event,
    the least index below size not yet named; with none left it stays put."""
    excluded: set[int] = set()
    least = 0
    walk: list[tuple[int, int]] = [(0, least)]  # (step, family index)
    for step, j in events:
        excluded.add(j)
        if len(excluded) == size:
            continue
        while least in excluded:
            least += 1
        if least != walk[-1][1]:
            walk.append((step, least))
    return limit_report_from_trace(walk, horizon, window)


def diagonal_hard(
    weak: PosetInstance,
    strong: PosetInstance,
    generator: Callable[[int, int], Sequence[Any]],
    alpha: Callable[[int], int],
    i: int,
    b: Budget,
    runs: Optional[Iterable[tuple]] = None,
) -> tuple[Any, Any, dict]:
    """The finite diagonalization engine: inside a strong chain Z_i that is a
    weak antichain of size 2^(alpha(i)+1), walk away from every value that
    any weak-semantics program shorter than alpha(i) produces within budget.

    F_i is the strong-max limit of the least-unexcluded walk, and G_i the
    strong-min limit: the same walk over Z_i read backwards. The audit
    re-checks the counting argument instead of assuming it: each program
    trace meets Z_i at most once (chain against antichain), the excluded set
    never exceeds 2^(alpha(i)+1) - 2, and no within-budget exclusion ever
    names F_i or G_i. F_i and G_i are members of Z_i by construction, so
    `passed` skips the f_in_family and g_in_family keys, which read true.
    The programs are the 2^alpha(i) - 1 - alpha(i) PADDED words shorter
    than alpha(i); `runs`, one ((max trace, min trace), word count) pair
    per distinct run, replaces their traces.
    """
    if i < 0:
        raise ConfigError(f"i must be a natural number, got {i}")
    a_i = alpha(i)
    if a_i < 0:
        raise ConfigError("alpha must be a total monotone map into N")
    if a_i > DIAGONAL_ALPHA_CAP:
        raise ResourceError(f"alpha(i) = {a_i} exceeds the desk-scale cap of {DIAGONAL_ALPHA_CAP}")
    size = 2 ** (a_i + 1)
    family = list(generator(i, size))
    if len(family) != size:
        raise VerificationError(
            f"generator returned {len(family)} elements, wanted {size}"
        )
    for a, bb_ in zip(family, family[1:]):
        if not strong.lt(a, bb_):
            raise VerificationError("family is not an ascending strong chain")
    if not weak.is_antichain(family):
        raise VerificationError("family is not a weak antichain")
    z_index = {e: j for j, e in enumerate(family)}

    if runs is None:
        down = reverse(weak)
        runs = [
            ((kept_trace(raw_first, weak.unrank, weak.leq),
              kept_trace(raw_first, down.unrank, down.leq)), count)
            for raw_first, (_, count) in limit_corpus(a_i - 1, b.fuel).items()
        ]
    horizon = b.horizon
    events: list[tuple[int, int]] = []  # (step, family index)
    per_trace_ok = True
    for traces, count in runs:
        for trace in traces:
            hits = [
                (step, z_index[d]) for step, d in trace if step <= horizon and d in z_index
            ]
            if len(hits) > 1:
                per_trace_ok = False
            events += hits * count  # events count once per word
    events.sort()
    excluded = {j for _, j in events}
    bound = size - 2
    # `excluded` only grows, so the bound holds at every step if at the last
    audit = {
        "i": i,
        "alpha_i": a_i,
        "z_size": size,
        "programs_considered": 2**a_i - 1 - a_i,
        "exclusion_events": len(events),
        "excluded_total": len(excluded),
        "excluded_bound": bound,
        "per_step_bound_ok": len(excluded) <= bound,
        "per_trace_at_most_one": per_trace_ok,
    }
    # G reads index j as size - 1 - j (the reverse strong order) in F's event
    # order; that reading is its own inverse, so it maps G's index back too
    for side, read in (("f", range(size)), ("g", range(size - 1, -1, -1))):
        walked = [(step, read[j]) for step, j in events]
        report = _least_unexcluded(walked, size, horizon, b.window)
        j = read[report.current]
        audit[f"{side}_index"] = j
        audit[f"{side}_in_family"] = family[j] in z_index
        audit[f"{side}_not_excluded"] = j not in excluded
        audit[f"{side}_status"] = report.status
    audit["passed"] = all(
        audit[k]
        for k in (
            "per_step_bound_ok",
            "per_trace_at_most_one",
            "f_not_excluded",
            "g_not_excluded",
        )
    )
    return family[audit["f_index"]], family[audit["g_index"]], audit
