"""The diagonal audit behind the incomparability of Kmax and Kmin: inside a
strong chain that is a weak antichain, walk away from every value a short
weak-semantics program produces within budget, and re-check the counting
argument on the way.

`chain_antichain_family` picks the family from the order pair itself: a
closed form for prefix:xy / lexico:x<y, the first `conditions.check_star`
witness on a rank-bounded fragment otherwise, which is the only path that
loads `conditions`. The programs are the `PADDED` words of
`complexity.limit_corpus`, which is empty below 14 bits: no audit under
the cap sees an exclusion.
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

    F_i is the strong-max limit of the least-unexcluded walk; G_i is the
    strong-min limit of the mirrored greatest-unexcluded walk. The audit
    re-checks the counting argument instead of assuming it: each program
    trace meets Z_i at most once (chain against antichain), the excluded set
    never exceeds 2^(alpha(i)+1) - 2, and F_i, G_i are members of Z_i that no
    within-budget exclusion ever names. The programs are the 2^alpha(i) - 1
    - alpha(i) PADDED words shorter than alpha(i); `runs`, one (max trace,
    min trace) pair per word, replaces their traces.
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
        runs = []
        for raw_first, (_, count) in limit_corpus(a_i - 1, b.fuel).items():
            traces = (kept_trace(raw_first, weak.unrank, weak.leq),
                      kept_trace(raw_first, down.unrank, down.leq))
            runs += [traces] * count  # events count once per word
    horizon = b.horizon
    events: list[tuple[int, int]] = []  # (step, family index)
    per_trace_ok = True
    for traces in runs:
        for trace in traces:
            hits = [
                (step, z_index[d]) for step, d in trace if step <= horizon and d in z_index
            ]
            if len(hits) > 1:
                per_trace_ok = False
            events.extend(hits)
    events.sort()
    bound = size - 2

    # `excluded` only grows, so the least unexcluded index only rises and the
    # greatest only falls; once nothing is left both walks keep their value,
    # and the bound holds at every step when it holds at the last
    excluded: set[int] = set()
    least, greatest = 0, size - 1
    least_walk: list[tuple[int, int]] = [(0, least)]  # (step, family index)
    greatest_walk: list[tuple[int, int]] = [(0, greatest)]
    for step, j in events:
        excluded.add(j)
        if len(excluded) == size:
            continue
        while least in excluded:
            least += 1
        while greatest in excluded:
            greatest -= 1
        if least != least_walk[-1][1]:
            least_walk.append((step, least))
        if greatest != greatest_walk[-1][1]:
            greatest_walk.append((step, greatest))

    f_report = limit_report_from_trace(least_walk, horizon, b.window)
    g_report = limit_report_from_trace(greatest_walk, horizon, b.window)
    f_elem = family[f_report.current]
    g_elem = family[g_report.current]
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
        "f_index": f_report.current,
        "g_index": g_report.current,
        "f_in_family": f_elem in z_index,
        "g_in_family": g_elem in z_index,
        "f_not_excluded": f_report.current not in excluded,
        "g_not_excluded": g_report.current not in excluded,
        "f_status": f_report.status,
        "g_status": g_report.status,
    }
    audit["passed"] = all(
        audit[k]
        for k in (
            "per_step_bound_ok",
            "per_trace_at_most_one",
            "f_in_family",
            "g_in_family",
            "f_not_excluded",
            "g_not_excluded",
        )
    )
    return f_elem, g_elem, audit
