"""Finite-order combinatorics: chains, antichains, Dilworth decompositions,
the chain/antichain condition checkers for order pairs, and the family the
diagonal audit walks.

A FinitePoset is a strict order on {0..n-1} (transitively closed at
construction); an OrderPair is a weak order together with a strong extension
on the same carrier. One Kuhn matching gives the width of any subset (by
Dilworth, its smallest chain cover); `dilworth` takes the chain cover and
the width from one matching of the whole order and builds the
lexicographically first maximum antichain greedily, in polynomial time, and
the dagger condition rests on the same width. The condition checkers search
subsets in one fixed deterministic order: increasing maximum rank first,
then lexicographically on the ascending rank tuple, so the returned witness
is a function of the input alone. The search cuts every branch that cannot
reach the smallest size a witness needs (k for star, k + 1 for dagger),
which leaves that order and the witnesses unchanged. `chain_antichain_family`
picks its family from the order pair itself: a closed form for prefix:xy /
lexico:x<y, the first check_star witness on a rank-bounded fragment
otherwise.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Callable, Sequence

from .errors import ConfigError, ResourceError, VerificationError
from .posets import PosetInstance, closure_rows

__all__ = [
    "FinitePoset",
    "OrderPair",
    "dilworth",
    "max_antichain",
    "min_chain_cover",
    "check_star",
    "check_dagger",
    "chain_antichain_family",
    "order_pair_fragment",
    "N_BOUND",
    "SUBSET_SEARCH_BOUND",
]

N_BOUND = 200  # exact antichain/cover work stops here
SUBSET_SEARCH_BOUND = 16  # carrier ceiling for exhaustive subset searches


def _finite_order_pairs(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Parse the JSON finite-order format without closing it. Both keys must
    hold lists, the element names must differ after str() and every index
    must be an int, else ConfigError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad finite-order JSON: {exc}") from exc
    if not (isinstance(data, dict) and all(isinstance(data.get(k), list) for k in ("elements", "lt"))):
        raise ConfigError('finite-order JSON needs "elements" and "lt" lists')
    names = [str(x) for x in data["elements"]]
    seen = set()
    for name in names:  # a repeated name would make the report ambiguous
        if name in seen:
            raise ConfigError(f"duplicate element name {name!r}")
        seen.add(name)
    pairs = []
    for pair in data["lt"]:
        # bool is an int subclass; true/false are not indices
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(i) is int for i in pair)):
            raise ConfigError(f"bad lt pair: {pair!r}")
        pairs.append(tuple(pair))
    return names, pairs


class FinitePoset(namedtuple("FinitePoset", "n lt names rows")):
    """Strict partial order on {0..n-1}; the relation is stored transitively
    closed and validated, both as the `lt` pair set and as bit rows (bit b
    of rows[a] set when a < b). The rows follow from n and lt, so equality
    is decided by n, lt and names."""

    __slots__ = ()

    def __new__(cls, n: int, lt: frozenset[tuple[int, int]], names: tuple[str, ...] = ()):
        rows = closure_rows(n, lt)
        lt = frozenset((a, b) for a in range(n) for b in range(n) if rows[a] >> b & 1)
        if names and len(names) != n:
            raise ConfigError("names do not match the carrier size")
        return super().__new__(cls, n, lt, names, tuple(rows))

    @staticmethod
    def from_json(text: str) -> "FinitePoset":
        """Load the JSON finite-order format {"elements": [...], "lt":
        [[i, j], ...]}; the pairs may be a covering or the full relation.
        Carriers above N_BOUND are refused before the closure is built."""
        names, pairs = _finite_order_pairs(text)
        _exact_ceiling(len(names))
        return FinitePoset(len(names), frozenset(pairs), tuple(names))

    def comparable(self, a: int, b: int) -> bool:
        return a == b or (a, b) in self.lt or (b, a) in self.lt

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else str(i)

    def restrict(self, subset: Sequence[int]) -> "FinitePoset":
        """The induced order on the given elements (renumbered 0..len-1)."""
        idx = {e: i for i, e in enumerate(subset)}
        lt = frozenset(
            (idx[a], idx[b]) for (a, b) in self.lt if a in idx and b in idx
        )
        names = tuple(self.name_of(e) for e in subset)
        return FinitePoset(len(subset), lt, names)

    def comparability_masks(self) -> list[int]:
        """Bit b of masks[a] set when a and b are distinct and comparable."""
        masks = list(self.rows)
        for (a, b) in self.lt:
            masks[b] |= 1 << a
        return masks


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


def dilworth(fp: FinitePoset) -> tuple[list[int], list[list[int]]]:
    """The lexicographically first maximum antichain and a minimum chain
    cover, both from one matching of the whole order: by Dilworth the
    cover's size is the width. The antichain is built greedily: walk the
    elements in ascending order and take i when the chosen ones, i and a
    widest antichain among the later elements incomparable with all of them
    still reach that width."""
    cover = min_chain_cover(fp)
    width = len(cover)
    comp = fp.comparability_masks()
    free = (1 << fp.n) - 1  # elements incomparable with every chosen one
    chosen: list[int] = []
    for i in range(fp.n):
        later = free & ~comp[i] & ~((2 << i) - 1)
        if free >> i & 1 and len(chosen) + 1 + _width(fp.rows, later) >= width:
            chosen.append(i)
            free = later
    if len(chosen) != width or any(comp[a] >> b & 1 for a in chosen for b in chosen):
        raise VerificationError("antichain disagrees with the matching bound")
    return chosen, cover


def max_antichain(fp: FinitePoset) -> list[int]:
    """The antichain of dilworth(fp)."""
    return dilworth(fp)[0]


def _max_matching(rows: Sequence[int]) -> dict[int, int]:
    """Maximum bipartite matching of a strict relation given as bit rows
    (Kuhn's algorithm), as the map right -> left. Left vertices are tried in
    index order and each one's successors in ascending order, which fixes
    the matching and hence the chains of min_chain_cover."""
    match_right: dict[int, int] = {}

    def try_augment(a: int, visited: set[int]) -> bool:
        row = rows[a]
        while row:
            low = row & -row
            row ^= low
            b = low.bit_length() - 1
            if b not in visited:
                visited.add(b)
                if b not in match_right or try_augment(match_right[b], visited):
                    match_right[b] = a
                    return True
        return False

    for a in range(len(rows)):
        try_augment(a, set())
    return match_right


def _width(rows: Sequence[int], mask: int) -> int:
    """The size of a largest antichain of the order on the elements of mask,
    which by Dilworth is the size of a smallest chain cover: |S| minus a
    maximum matching of the order restricted to S."""
    restricted = [row & mask if mask >> a & 1 else 0 for a, row in enumerate(rows)]
    return mask.bit_count() - len(_max_matching(restricted))


def _exact_ceiling(n: int) -> None:
    if n > N_BOUND:
        raise ResourceError(f"carrier too large for exact search: {n} > {N_BOUND}")


def _subset_search_ceiling(n: int) -> None:
    if n > SUBSET_SEARCH_BOUND:
        raise ResourceError(f"carrier too large for subset search: {n}")


def min_chain_cover(fp: FinitePoset) -> list[list[int]]:
    """A minimum family of chains covering the carrier, from the maximum
    matching; by Dilworth its size equals the maximum antichain size."""
    _exact_ceiling(fp.n)
    match_right = _max_matching(fp.rows)
    next_of = {a: b for b, a in match_right.items()}
    chains = []
    for start in range(fp.n):
        if start in match_right:
            continue
        chain = [start]
        while chain[-1] in next_of:
            chain.append(next_of[chain[-1]])
        chains.append(chain)
    return chains


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


# ------------------------------------------------- chain/antichain families


def chain_antichain_family(
    weak_p: PosetInstance, strong_p: PosetInstance, size: int
) -> list:
    """A size-element strong chain that is a weak antichain, in ascending
    strong order. The pair prefix:xy / lexico:x<y has the closed form
    {x^j y : j < size}; every other pair gets the first check_star witness
    on its first SUBSET_SEARCH_BOUND ranks. The family is not re-checked
    here: complexity.diagonal_hard checks every family it audits.
    """
    if size < 1:
        raise ConfigError(f"size must be >= 1, got {size}")
    kind, _, symbols = weak_p.spec.partition(":")
    if kind == "prefix" and len(symbols) == 2:
        x, y = symbols
        if strong_p.spec == f"lexico:{x}<{y}":
            return [x * (size - 1 - j) + y for j in range(size)]
    pair, elems = order_pair_fragment(weak_p, strong_p, SUBSET_SEARCH_BOUND)
    found = check_star(pair, size)
    if found is None:
        raise ResourceError(
            f"no size-{size} witness within the first {SUBSET_SEARCH_BOUND} ranks"
        )
    return [elems[i] for i in found]


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
    names = tuple(strong_p.format_elem(e) for e in elems)
    weak, strong = (
        FinitePoset(size, frozenset(
            (i, j) for i in range(size) for j in range(size) if p.lt(elems[i], elems[j])
        ), names)
        for p in (weak_p, strong_p)
    )
    return OrderPair(weak, strong), elems
