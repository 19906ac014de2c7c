"""Computable partially ordered sets: a rank bijection plus a decidable order.

A PosetInstance bundles the bijection between naturals and elements (``rank``/
``unrank``) and the order decider (``leq``). Order properties are computed
from ``leq``, never declared; the one exception is ``is_antichain``, which an
order may answer with an exact test of its own (the prefix order sorts the
words once instead of comparing every pair). Instances are immutable and all
operations are pure, so they can be shared freely.

Instances come from a small spec DSL:

    nat | int | prefix:<alphabet> | lexico:<order-expr> | finsets
        | reg:<alphabet> | rev(<spec>) | discrete(<spec>)

``<order-expr>`` lists chains of single-character symbols separated by ';',
e.g. ``a<b<c`` (total) or ``a<b;c`` (c incomparable to both). The element
enumeration for word posets is length-lexicographic in the declared symbol
order (a word's rank is the word read in bijective base k, the symbols as
digits 1..k) and does not depend on the order relation, so order pairs such
as prefix:ab / lexico:a<b share one carrier and one rank map. A finite set's
rank is its bit mask. The elements of reg:<alphabet> are the languages'
canonical DFAs (``automata.Dfa``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import Any, Iterable

from .errors import ConfigError, DomainError, _parse_alphabet

__all__ = [
    "PosetInstance",
    "parse_poset_spec",
    "reverse",
]


class PosetInstance(namedtuple(
    "PosetInstance", "spec unrank_fn rank_fn leq_fn fmt_fn antichain_fn", defaults=(str, None)
)):
    """The spec, the rank bijection (unrank_fn, rank_fn), the order decider
    leq_fn, the element printer fmt_fn and an optional exact antichain test
    antichain_fn (None: compare every pair through leq), used through the
    methods below."""

    __slots__ = ()

    def unrank(self, n: int) -> Any:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise DomainError(f"rank must be a natural number, got {n!r}")
        return self.unrank_fn(n)

    def rank(self, e: Any) -> int:
        return self.rank_fn(e)

    def leq(self, a: Any, b: Any) -> bool:
        return self.leq_fn(a, b)

    def lt(self, a: Any, b: Any) -> bool:
        return a != b and self.leq_fn(a, b)

    def is_antichain(self, elems: Iterable[Any]) -> bool:
        """True when no two of elems are comparable; a repeated element is
        comparable with itself. Without antichain_fn every pair goes through
        leq, which validates the elements it compares."""
        if self.antichain_fn is not None:
            return self.antichain_fn(elems)
        return not any(self.leq(a, b) or self.leq(b, a) for a, b in combinations(elems, 2))

    def format_elem(self, e: Any) -> str:
        return self.fmt_fn(e)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PosetInstance({self.spec!r})"


def reverse(p: PosetInstance) -> PosetInstance:
    """The reverse order on the same carrier; min-semantics everywhere is
    max-semantics over reverse(p), never a separate code path. The antichains
    do not change, so the antichain test carries over."""
    return p._replace(spec=f"rev({p.spec})", leq_fn=lambda a, b: p.leq_fn(b, a))


def _discrete(p: PosetInstance) -> PosetInstance:
    def leq(a, b):
        p.leq_fn(a, b)  # validate the pair against the carrier
        return a == b

    # p's antichain test would reject comparable pairs that are distinct here
    return p._replace(spec=f"discrete({p.spec})", leq_fn=leq, antichain_fn=None)


# ---------------------------------------------------------------- carriers


def _nat() -> PosetInstance:
    def rank(e):
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise DomainError(f"not a natural number: {e!r}")
        return e

    return PosetInstance(
        spec="nat",
        unrank_fn=lambda n: n,
        rank_fn=rank,
        leq_fn=lambda a, b: rank(a) <= rank(b),
    )


def _int() -> PosetInstance:
    # zigzag enumeration 0, 1, -1, 2, -2, ...
    def unrank(n):
        return (n + 1) // 2 if n % 2 == 1 else -(n // 2)

    def rank(e):
        if not isinstance(e, int) or isinstance(e, bool):
            raise DomainError(f"not an integer: {e!r}")
        return 2 * e - 1 if e > 0 else -2 * e

    def leq(a, b):
        rank(a)
        rank(b)
        return a <= b

    return PosetInstance(
        spec="int",
        unrank_fn=unrank,
        rank_fn=rank,
        leq_fn=leq,
    )


def _word_carrier(alphabet: str):
    """Length-lexicographic rank/unrank over the declared symbol listing:
    rank is Horner's rule in bijective base k over the digits index[c] + 1,
    unrank takes them back with divmod(n - 1, k). A unary alphabet keeps its
    O(1) forms, where the digit loop would take one step per symbol."""
    k = len(alphabet)
    index = {c: i + 1 for i, c in enumerate(alphabet)}

    def check(w):
        # one C-level pass: strip leaves "" exactly when every symbol is in alphabet
        if not isinstance(w, str) or w.strip(alphabet):
            raise DomainError(f"not a word over {alphabet!r}: {w!r}")
        return w

    def unrank(n):
        if k == 1:
            return alphabet * n
        digits = []
        while n:
            n, d = divmod(n - 1, k)
            digits.append(alphabet[d])
        return "".join(reversed(digits))

    def rank(w):
        check(w)
        if k == 1:
            return len(w)
        n = 0
        for c in w:
            n = n * k + index[c]
        return n

    return check, unrank, rank


def _prefix(alphabet: str) -> PosetInstance:
    alphabet = _parse_alphabet(alphabet)
    check, unrank, rank = _word_carrier(alphabet)

    def leq(a, b):
        check(a)
        check(b)
        return b.startswith(a)

    def antichain(words):
        # in sorted order every word between a and an extension of a also
        # extends a, so a comparable pair shows up between neighbours
        words = sorted(map(check, words))
        return not any(b.startswith(a) for a, b in zip(words, words[1:]))

    return PosetInstance(
        spec=f"prefix:{alphabet}",
        unrank_fn=unrank,
        rank_fn=rank,
        leq_fn=leq,
        fmt_fn=lambda w: w if w else "ε",
        antichain_fn=antichain,
    )


def _parse_order_expr(expr: str) -> tuple[str, set[tuple[str, str]]]:
    """Parse chains like a<b<c;d into (alphabet, strict symbol relation)."""
    if not expr:
        raise ConfigError("empty symbol order expression")
    index: dict[str, int] = {}
    steps: list[tuple[int, int]] = []
    for group in expr.split(";"):
        if not group:
            raise ConfigError(f"empty chain group in {expr!r}")
        chain = group.split("<")
        for sym in chain:
            if len(sym) != 1:
                raise ConfigError(f"symbols must be single characters, got {sym!r}")
            index.setdefault(sym, len(index))
        steps.extend((index[a], index[b]) for a, b in zip(chain, chain[1:]))
    from .analysis import closure_rows  # deferred: only lexico: specs close an order

    try:
        rows = closure_rows(len(index), steps)
    except ConfigError:
        raise ConfigError(f"symbol order is not antisymmetric: {expr!r}") from None
    alphabet = "".join(index)
    return alphabet, {
        (x, y) for i, x in enumerate(alphabet) for j, y in enumerate(alphabet) if rows[i] >> j & 1
    }


def _lexico(expr: str) -> PosetInstance:
    alphabet, sym_lt = _parse_order_expr(expr)
    check, unrank, rank = _word_carrier(alphabet)

    def leq(a, b):
        check(a)
        check(b)
        if a == b:
            return True
        # proper prefix, or strictly ordered symbols at the first difference;
        # that difference is found by bisection on prefix equality, which
        # compares at C speed instead of one Python step per symbol
        n = min(len(a), len(b))
        lo, hi = 0, n  # a[:lo] == b[:lo], and a[:hi + 1] != b[:hi + 1] unless hi == n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if a[:mid] == b[:mid]:
                lo = mid
            else:
                hi = mid - 1
        if lo == n:
            return len(a) < len(b)
        return (a[lo], b[lo]) in sym_lt

    return PosetInstance(
        spec=f"lexico:{expr}",
        unrank_fn=unrank,
        rank_fn=rank,
        leq_fn=leq,
        fmt_fn=lambda w: w if w else "ε",
    )


def _finsets() -> PosetInstance:
    # elements are sorted duplicate-free tuples; rank is the bit mask
    def check(e):
        if (
            not isinstance(e, tuple)
            or any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in e)
            or list(e) != sorted(set(e))
        ):
            raise DomainError(f"not a sorted duplicate-free tuple of naturals: {e!r}")
        return e

    def unrank(n):
        return tuple(i for i, bit in enumerate(reversed(format(n, "b"))) if bit == "1")

    def rank(e):
        # the sum equals the OR, since check rejects repeated members
        return sum(1 << x for x in check(e))

    def leq(a, b):
        check(a)
        check(b)
        return set(a) <= set(b)

    return PosetInstance(
        spec="finsets",
        unrank_fn=unrank,
        rank_fn=rank,
        leq_fn=leq,
        fmt_fn=lambda e: "{" + ",".join(map(str, e)) + "}",
    )


def _reg(alphabet: str) -> PosetInstance:
    """Regular languages under inclusion; an element is the language's
    canonical Dfa, so the automata functions serve it unwrapped once it is
    checked to be a Dfa over the spec's alphabet."""
    alphabet = _parse_alphabet(alphabet)
    from . import automata  # deferred: automata is a heavier module

    sigma = tuple(alphabet)

    def check(d):
        if not isinstance(d, automata.Dfa) or d.alphabet != sigma:
            raise DomainError(f"not a DFA over {alphabet!r}: {d!r}")
        return d

    return PosetInstance(
        spec=f"reg:{alphabet}",
        unrank_fn=lambda n: automata.reg_unrank(n, sigma),
        rank_fn=lambda d: automata.reg_rank(check(d)),
        leq_fn=lambda a, b: automata.language_leq(check(a), check(b)),
        fmt_fn=automata.canonical_regex,
    )


def parse_poset_spec(spec: str) -> PosetInstance:
    """Build the instance named by the spec DSL; ConfigError on bad input."""
    if not isinstance(spec, str):
        raise ConfigError(f"poset spec must be a string, got {type(spec).__name__}")
    spec = spec.strip()
    if spec == "nat":
        return _nat()
    if spec == "int":
        return _int()
    if spec == "finsets":
        return _finsets()
    if spec.startswith("prefix:"):
        return _prefix(spec[len("prefix:"):])
    if spec.startswith("lexico:"):
        return _lexico(spec[len("lexico:"):])
    if spec.startswith("reg:"):
        return _reg(spec[len("reg:"):])
    if spec.startswith("rev(") and spec.endswith(")"):
        return reverse(parse_poset_spec(spec[4:-1]))
    if spec.startswith("discrete(") and spec.endswith(")"):
        return _discrete(parse_poset_spec(spec[9:-1]))
    raise ConfigError(f"unknown poset spec: {spec!r}")

