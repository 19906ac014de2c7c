"""The chain/antichain conditions of order pairs: star (a k-element strong
chain that is a weak antichain) and dagger (a strong chain whose weak order
needs more than k chains to cover).

An OrderPair is a weak FinitePoset together with a strong extension on the
same carrier. Both checkers search subsets in one fixed deterministic
order: increasing maximum rank first, then lexicographically on the
ascending rank tuple, so the returned witness is a function of the input
alone. The search cuts every branch that cannot reach the smallest size a
witness needs (k for star, k + 1 for dagger), which leaves that order and
the witnesses unchanged. The dagger test reads the weak width from
`analysis`.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Sequence

from .analysis import FinitePoset, _width
from .errors import ConfigError, ResourceError

if TYPE_CHECKING:
    from .posets import PosetInstance

__all__ = [
    "OrderPair",
    "check_star",
    "check_dagger",
    "order_pair_fragment",
    "SUBSET_SEARCH_BOUND",
]

SUBSET_SEARCH_BOUND = 16  # carrier ceiling for exhaustive subset searches


class OrderPair(namedtuple("OrderPair", "weak strong")):
    """Two orders on one carrier, the strong one extending the weak one."""

    __slots__ = ()

    def __new__(cls, weak: FinitePoset, strong: FinitePoset):
        if weak.n != strong.n:
            raise ConfigError("order pair carriers differ")
        if not weak.lt <= strong.lt:
            missing = sorted(weak.lt - strong.lt)[0]
            raise ConfigError(
                f"strong order does not extend the weak one (missing {missing})"
            )
        return super().__new__(cls, weak, strong)


def _subset_search_ceiling(n: int) -> None:
    if n > SUBSET_SEARCH_BOUND:
        raise ResourceError(f"carrier too large for subset search: {n}")


def _first_clique(
    adj: Sequence[int], accept: Callable[[int, int], bool], min_size: int, max_size: int
) -> list[int] | None:
    """The first clique of the graph adj (bit rows) with min_size to
    max_size members that accept(mask, size) takes, in the documented search
    order: increasing maximum element, then lexicographically on the
    ascending tuple. accept must refuse every clique of fewer than min_size
    members. A clique is extended only by smaller elements than its maximum
    that are adjacent to all its members, in ascending order, so the walk
    is a lexicographic preorder that skips every non-clique; a branch whose
    clique and candidates together fall short of min_size is cut, since its
    cliques only grow from the candidates."""

    def extend(mask: int, size: int, cand: int) -> int | None:
        if size + cand.bit_count() < min_size:
            return None
        if accept(mask, size):
            return mask
        if size == max_size:
            return None
        while cand:
            low = cand & -cand
            cand ^= low
            found = extend(mask | low, size + 1, cand & adj[low.bit_length() - 1])
            if found is not None:
                return found
        return None

    for m in range(len(adj)):
        found = extend(1 << m, 1, adj[m] & ((1 << m) - 1))
        if found is not None:
            return [i for i in range(m + 1) if found >> i & 1]
    return None


def check_star(pair: OrderPair, k: int) -> list[int] | None:
    """A k-element strong chain that is a weak antichain, or None after the
    exhaustive ordered subset search."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    _subset_search_ceiling(pair.weak.n)
    strong, weak = pair.strong.comparability_masks(), pair.weak.comparability_masks()
    adj = [s & ~w for s, w in zip(strong, weak)]
    found = _first_clique(adj, lambda mask, size: size == k, k, k)
    return None if found is None else _strong_sort(pair, found)


def _strong_sort(pair: OrderPair, subset: Sequence[int]) -> list[int]:
    out = list(subset)
    out.sort(key=lambda e: sum(1 for f in subset if (f, e) in pair.strong.lt))
    return out


def check_dagger(pair: OrderPair, k: int) -> list[int] | None:
    """A finite strong chain whose weak restriction needs more than k chains
    to cover, or None; same search order as check_star. The cover size of
    a subset is its width in the weak order."""
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    n = pair.weak.n
    _subset_search_ceiling(n)

    def needs_more_chains(mask: int, size: int) -> bool:
        # no cover has more chains than members
        return size > k and _width(pair.weak.rows, mask) > k

    found = _first_clique(pair.strong.comparability_masks(), needs_more_chains, k + 1, n)
    return None if found is None else _strong_sort(pair, found)


def order_pair_fragment(
    weak_p: PosetInstance, strong_p: PosetInstance, size: int
) -> tuple[OrderPair, list]:
    """The induced order pair on the first `size` ranks of a shared carrier;
    returns the pair together with the elements in rank order. Sizes above
    SUBSET_SEARCH_BOUND are refused before the relations are built."""
    if size < 1:
        raise ConfigError(f"fragment size must be >= 1, got {size}")
    _subset_search_ceiling(size)
    elems = [strong_p.unrank(i) for i in range(size)]
    if any(weak_p.unrank(i) != e for i, e in enumerate(elems)):
        raise ConfigError("weak and strong posets do not share a carrier enumeration")
    weak, strong = (
        FinitePoset(size, frozenset(
            (i, j) for i in range(size) for j in range(size) if p.lt(elems[i], elems[j])
        ))
        for p in (weak_p, strong_p)
    )
    return OrderPair(weak, strong), elems
