"""Finite-order combinatorics: the one transitive-closure routine, chains,
antichains and Dilworth decompositions.

A FinitePoset is a strict order on {0..n-1}, transitively closed at
construction by `closure_rows`, which also closes the `lexico:` symbol
orders. It has no element names: they belong to the JSON order file and to
the `dilworth` report, and `read_order` returns them beside the order. One
Kuhn matching gives the width of any subset (by Dilworth, its smallest
chain cover); `dilworth` takes the chain cover and the width from one
matching of the whole order and builds the lexicographically first maximum
antichain greedily, in polynomial time. The dagger condition of
`conditions` rests on the same width.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Iterable, Sequence

from .errors import ConfigError, ResourceError, VerificationError

__all__ = [
    "FinitePoset",
    "closure_rows",
    "dilworth",
    "min_chain_cover",
    "read_order",
    "N_BOUND",
]

N_BOUND = 200  # exact antichain/cover work stops here


def closure_rows(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Transitive closure of a strict relation on {0..n-1} as bit rows
    (Warshall): bit b of row a is set when a < b. ConfigError for a pair out
    of range, or when some row i ends with its own bit i set, which means
    the relation is reflexive or cyclic."""
    rows = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigError(f"relation pair out of range: {(a, b)}")
        rows[a] |= 1 << b
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for a in range(n):
            if rows[a] & bit:
                rows[a] |= row_k
    if any(row >> i & 1 for i, row in enumerate(rows)):
        raise ConfigError("not a strict partial order (reflexive or cyclic)")
    return rows


class FinitePoset(namedtuple("FinitePoset", "n lt rows")):
    """Strict partial order on {0..n-1}; the relation is stored transitively
    closed and validated, both as the `lt` pair set and as bit rows (bit b
    of rows[a] set when a < b). The rows follow from n and lt, so equality
    is decided by n and lt."""

    __slots__ = ()

    def __new__(cls, n: int, lt: frozenset[tuple[int, int]]):
        rows = closure_rows(n, lt)
        lt = frozenset((a, b) for a in range(n) for b in range(n) if rows[a] >> b & 1)
        return super().__new__(cls, n, lt, tuple(rows))

    def comparability_masks(self) -> list[int]:
        """Bit b of masks[a] set when a and b are distinct and comparable."""
        masks = list(self.rows)
        for (a, b) in self.lt:
            masks[b] |= 1 << a
        return masks


def read_order(text: str) -> tuple[list[str], FinitePoset]:
    """Load the JSON finite-order format {"elements": [...], "lt": [[i, j],
    ...]}, whose pairs may be a covering or the full relation, as the element
    names and the order on their indices. Both keys must hold lists, the
    names must differ after str() and every index must be an int, else
    ConfigError; carriers above N_BOUND are refused before the closure is
    built."""
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
    _exact_ceiling(len(names))
    return names, FinitePoset(len(names), frozenset(pairs))


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
