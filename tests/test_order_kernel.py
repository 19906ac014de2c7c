"""The finite-order kernel (bit-row closure, one matching, one clique
search) against the fixpoint, Kuhn, branch-and-bound and subset-walk
references in reference_impl.py."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impl import (
    _comparable,
    check_dagger_ref,
    check_star_ref,
    closure_ref,
    is_strict_ref,
    lexico_leq_ref,
    max_antichain_ref,
    max_matching_ref,
    min_chain_cover_ref,
    parse_order_expr_ref,
)

from kposet.analysis import N_BOUND, FinitePoset, closure_rows, dilworth, min_chain_cover
from kposet.conditions import OrderPair, check_dagger, check_star, order_pair_fragment
from kposet.errors import ConfigError, DomainError, ResourceError
from kposet.posets import _parse_order_expr, parse_poset_spec

MAX_N = 8


@st.composite
def relations(draw):
    """Any relation on a carrier of at most MAX_N elements, loops and cycles
    included."""
    n = draw(st.integers(0, MAX_N))
    if n == 0:
        return 0, set()
    index = st.integers(0, n - 1)
    return n, draw(st.sets(st.tuples(index, index), max_size=3 * n))


@st.composite
def order_pairs(draw):
    """A strict order on at most MAX_N elements (edges going up a random
    linear extension) and a transitive-or-not subrelation of its closure."""
    n = draw(st.integers(0, MAX_N))
    perm = draw(st.permutations(range(n)))
    ups = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    strong_rel = draw(st.sets(st.sampled_from(ups))) if ups else set()
    strong = closure_ref(strong_rel)
    weak_rel = draw(st.sets(st.sampled_from(sorted(strong)))) if strong else set()
    return n, weak_rel, strong_rel


def rows_to_pairs(rows):
    n = len(rows)
    return {(a, b) for a in range(n) for b in range(n) if rows[a] >> b & 1}


@settings(max_examples=400, deadline=None)
@given(rel=relations())
@example(rel=(3, {(0, 1), (1, 2), (2, 0)}))
@example(rel=(2, {(1, 1)}))
@example(rel=(1, set()))
def test_closure_rows_matches_fixpoint(rel):
    """Equal closures, or both find the relation reflexive or cyclic."""
    n, pairs = rel
    want = closure_ref(pairs)
    if is_strict_ref(want):
        assert rows_to_pairs(closure_rows(n, pairs)) == want
    else:
        with pytest.raises(ConfigError):
            closure_rows(n, pairs)


@settings(max_examples=250, deadline=None)
@given(pair=order_pairs())
@example(pair=(4, set(), {(0, 2), (0, 3), (1, 2), (1, 3)}))
@example(pair=(5, set(), {(i, j) for i in range(5) for j in range(i + 1, 5)}))
@example(pair=(6, {(0, 2), (1, 4), (3, 5)}, {(i, i + 1) for i in range(5)}))
@example(pair=(3, {(0, 1), (1, 2)}, {(0, 1), (1, 2)}))
@example(pair=(1, set(), set()))
@example(pair=(0, set(), set()))
def test_order_kernel_matches_reference(pair):
    n, weak_rel, strong_rel = pair
    weak_lt, strong_lt = closure_ref(weak_rel), closure_ref(strong_rel)
    weak, strong = FinitePoset(n, frozenset(weak_rel)), FinitePoset(n, frozenset(strong_rel))
    assert weak.lt == weak_lt and strong.lt == strong_lt
    for fp, lt in ((weak, weak_lt), (strong, strong_lt)):
        assert min_chain_cover(fp) == min_chain_cover_ref(n, lt)
        anti, _ = dilworth(fp)
        assert anti == max_antichain_ref(n, lt)
        assert len(anti) == n - max_matching_ref(n, lt)
    order_pair = OrderPair(weak=weak, strong=strong)
    for k in range(1, n + 2):
        assert check_star(order_pair, k) == check_star_ref(n, weak_lt, strong_lt, k), k
    for k in range(0, n + 2):
        assert check_dagger(order_pair, k) == check_dagger_ref(n, weak_lt, strong_lt, k), k


@pytest.mark.parametrize("strong_spec", ["lexico:a<b", "lexico:a;b"])
def test_pruned_searches_at_the_size_limit(strong_spec):
    """At every k up to n + 1, k = n - 1, n and n + 1 included (where the
    size bound cuts the most), the clique searches return the subset walks'
    witnesses, or None, on prefix:ab fragments."""
    weak_p, strong_p = parse_poset_spec("prefix:ab"), parse_poset_spec(strong_spec)
    for n in (2, 3, 6, 9, 12):
        pair, _ = order_pair_fragment(weak_p, strong_p, n)
        weak_lt, strong_lt = pair.weak.lt, pair.strong.lt
        for k in range(1, n + 2):
            assert check_star(pair, k) == check_star_ref(n, weak_lt, strong_lt, k), (n, k)
            assert check_dagger(pair, k) == check_dagger_ref(n, weak_lt, strong_lt, k), (n, k)


chains = st.lists(st.sampled_from("abcde"), min_size=1, max_size=4).map("<".join)


@settings(max_examples=300, deadline=None)
@given(expr=st.lists(chains, min_size=1, max_size=3).map(";".join))
@example(expr="a<b;b<a")
@example(expr="a<b<c;c<a")
@example(expr="a<a")
@example(expr="a<b;c;b<d")
def test_parse_order_expr_matches_reference(expr):
    """Equal results, or both reject the expression (cyclic or reflexive)."""
    try:
        want = parse_order_expr_ref(expr)
    except ConfigError:
        with pytest.raises(ConfigError):
            _parse_order_expr(expr)
        return
    assert _parse_order_expr(expr) == want


@st.composite
def lexico_words(draw):
    """A symbol order, total or partial, and two words over its symbols that
    share a drawn prefix, so that the first difference falls at any depth
    and equal words and proper prefixes come up."""
    expr = draw(st.sampled_from(["a<b", "b<a", "a<b<c", "a<b;c", "a;b;c", "c<a;b<d"]))
    alphabet = "".join(sorted(set(expr) - set("<;")))
    common = draw(st.text(alphabet=alphabet, max_size=300))
    tail = st.text(alphabet=alphabet, max_size=8)
    return expr, common + draw(tail), common + draw(tail)


@settings(max_examples=400, deadline=None)
@given(case=lexico_words())
@example(case=("a<b", "ab", "ab"))
@example(case=("a<b", "", ""))
@example(case=("a<b;c", "ab", "abc"))
@example(case=("a<b;c", "a" * 4095 + "b", "a" * 4094 + "b"))
@example(case=("a<b;c", "a" * 300 + "c", "a" * 300 + "b"))
@example(case=("a;b;c", "ca", "cb"))
def test_lexico_leq_matches_the_per_symbol_walk(case):
    expr, a, b = case
    _, sym_lt = parse_order_expr_ref(expr)
    p = parse_poset_spec(f"lexico:{expr}")
    assert p.leq(a, b) == lexico_leq_ref(sym_lt, a, b)
    assert p.leq(b, a) == lexico_leq_ref(sym_lt, b, a)


@pytest.mark.parametrize("a, b", [("ab", "ax"), ("ax", "ab"), ("ab", 1), (None, "ab")])
def test_lexico_leq_checks_both_words(a, b):
    with pytest.raises(DomainError):
        parse_poset_spec("lexico:a<b;c").leq(a, b)


@st.composite
def random_orders(draw, max_n):
    """A strict order on at most max_n elements: each pair going up a random
    linear extension is related with one drawn probability."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    perm = list(range(n))
    rng.shuffle(perm)
    ups = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    return FinitePoset(n, frozenset(p for p in ups if rng.random() < density))


@settings(max_examples=200, deadline=None)
@given(fp=random_orders(20))
def test_max_antichain_matches_branch_and_bound(fp):
    """The greedy returns the branch and bound's witness, element for element."""
    assert dilworth(fp)[0] == max_antichain_ref(fp.n, fp.lt)


@settings(max_examples=25, deadline=None)
@given(fp=random_orders(N_BOUND + 1))
@example(fp=FinitePoset(N_BOUND, frozenset()))
@example(fp=FinitePoset(N_BOUND, frozenset((i, i + 1) for i in range(N_BOUND - 1))))
@example(fp=FinitePoset(N_BOUND + 1, frozenset()))
def test_max_antichain_up_to_the_ceiling(fp):
    """Up to N_BOUND elements the antichain is pairwise incomparable and as
    large as the chain cover; one element more raises ResourceError."""
    if fp.n > N_BOUND:
        for fn in (dilworth, min_chain_cover):
            with pytest.raises(ResourceError):
                fn(fp)
        return
    anti, _ = dilworth(fp)
    assert not any(_comparable(fp.lt, a, b) for a, b in itertools.combinations(anti, 2))
    assert len(anti) == len(min_chain_cover(fp))
