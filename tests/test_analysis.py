import itertools
import json
import random

import pytest

from reference_impl import _comparable, restrict
from kposet.analysis import N_BOUND, FinitePoset, dilworth, min_chain_cover, read_order
from kposet.conditions import OrderPair, check_dagger, check_star, order_pair_fragment
from kposet.diagonal import chain_antichain_family
from kposet.errors import ConfigError, ResourceError
from kposet.posets import parse_poset_spec


def total_order(n):
    return FinitePoset(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def empty_order(n):
    return FinitePoset(n, frozenset())


BUTTERFLY = FinitePoset(4, frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))


def test_finite_poset_validation():
    fp = FinitePoset(3, frozenset({(0, 1), (1, 2)}))
    assert (0, 2) in fp.lt  # closure happens on construction
    with pytest.raises(ConfigError):
        FinitePoset(2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(ConfigError):
        FinitePoset(2, frozenset({(0, 0)}))


def test_from_json():
    names, fp = read_order(
        json.dumps({"elements": ["a", "b", "c", "d"], "lt": [[0, 2], [0, 3], [1, 2], [1, 3]]})
    )
    assert fp == BUTTERFLY
    assert names == ["a", "b", "c", "d"]


def test_max_antichain_examples():
    assert len(dilworth(total_order(3))[0]) == 1
    assert len(dilworth(BUTTERFLY)[0]) == 2
    assert dilworth(BUTTERFLY)[0] == [0, 1]
    assert len(dilworth(empty_order(4))[0]) == 4
    assert dilworth(empty_order(0))[0] == []


def test_min_chain_cover_examples():
    assert len(min_chain_cover(total_order(3))) == 1
    cover = min_chain_cover(BUTTERFLY)
    assert len(cover) == 2
    flat = sorted(e for chain in cover for e in chain)
    assert flat == [0, 1, 2, 3]
    for chain in cover:
        for a, b in itertools.combinations(chain, 2):
            assert _comparable(BUTTERFLY.lt, a, b)
    assert len(min_chain_cover(empty_order(4))) == 4


def test_bounds():
    with pytest.raises(ResourceError):
        dilworth(empty_order(N_BOUND + 1))
    with pytest.raises(ResourceError):
        min_chain_cover(empty_order(N_BOUND + 1))
    over = OrderPair(weak=empty_order(17), strong=total_order(17))
    with pytest.raises(ResourceError):
        check_star(over, 2)
    with pytest.raises(ResourceError):
        check_dagger(over, 1)
    at = OrderPair(weak=empty_order(16), strong=total_order(16))
    assert check_star(at, 2) == [0, 1]
    assert check_dagger(at, 1) == [0, 1]


def brute_max_antichain_size(fp):
    best = 0
    for r in range(fp.n, 0, -1):
        for combo in itertools.combinations(range(fp.n), r):
            if not any(_comparable(fp.lt, a, b) for a, b in itertools.combinations(combo, 2)):
                return r
    return best


def random_poset(rng, n):
    lt = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                lt.add((i, j))
    return FinitePoset(n, frozenset(lt))


def test_dilworth_equality_random():
    rng = random.Random(37)
    for _ in range(80):
        fp = random_poset(rng, rng.randrange(0, 9))
        cover = min_chain_cover(fp)
        anti, _ = dilworth(fp)
        assert len(cover) == len(anti) == brute_max_antichain_size(fp) or fp.n == 0
        covered = sorted(e for chain in cover for e in chain)
        assert covered == list(range(fp.n))


def test_order_pair_validation():
    with pytest.raises(ConfigError):
        OrderPair(weak=total_order(3), strong=empty_order(3))
    OrderPair(weak=empty_order(3), strong=total_order(3))


def test_check_star_examples():
    pair = OrderPair(weak=empty_order(5), strong=total_order(5))
    assert check_star(pair, 3) == [0, 1, 2]
    same = OrderPair(weak=total_order(4), strong=total_order(4))
    assert check_star(same, 2) is None
    weak_p = parse_poset_spec("prefix:ab")
    strong_p = parse_poset_spec("lexico:a<b")
    fragment, elems = order_pair_fragment(weak_p, strong_p, 15)
    found = check_star(fragment, 3)
    # first witness in search order: ranks {2,3,4} = {b, aa, ab}
    assert [elems[i] for i in found] == ["aa", "ab", "b"]


def test_check_dagger_examples():
    pair = OrderPair(weak=empty_order(5), strong=total_order(5))
    assert check_dagger(pair, 3) == [0, 1, 2, 3]
    same = OrderPair(weak=total_order(4), strong=total_order(4))
    assert check_dagger(same, 1) is None
    bf_pair = OrderPair(weak=empty_order(4), strong=BUTTERFLY)
    assert check_dagger(bf_pair, 1) == [0, 2]


def test_star_dagger_shift():
    rng = random.Random(43)
    for _ in range(120):
        n = rng.randrange(1, 6)
        strong = random_poset(rng, n)
        weak_rel = frozenset(p for p in strong.lt if rng.random() < 0.5)
        pair = OrderPair(weak=FinitePoset(n, weak_rel), strong=strong)
        for k in range(1, n + 1):
            if check_star(pair, k + 1) is not None:
                assert check_dagger(pair, k) is not None
            if k >= 2 and check_star(pair, k) is None:
                assert check_dagger(pair, k - 1) is None


def test_witnesses_reverify():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randrange(2, 6)
        strong = random_poset(rng, n)
        weak_rel = frozenset(p for p in strong.lt if rng.random() < 0.5)
        pair = OrderPair(weak=FinitePoset(n, weak_rel), strong=strong)
        w = check_star(pair, 2)
        if w is not None:
            for a, b in itertools.combinations(w, 2):
                assert _comparable(pair.strong.lt, a, b)
                assert not _comparable(pair.weak.lt, a, b)
        d = check_dagger(pair, 1)
        if d is not None:
            assert len(min_chain_cover(restrict(pair.weak, d))) > 1


def is_strong_chain_weak_antichain(weak_p, strong_p, family):
    return all(strong_p.lt(a, b) for a, b in zip(family, family[1:])) and not any(
        weak_p.leq(a, b) or weak_p.leq(b, a) for a, b in itertools.combinations(family, 2)
    )


def test_chain_antichain_family():
    # prefix:xy / lexico:x<y has the closed form {x^j y : j < size}
    for x, y in [("a", "b"), ("b", "a"), ("x", "y")]:
        weak_p = parse_poset_spec(f"prefix:{x}{y}")
        strong_p = parse_poset_spec(f"lexico:{x}<{y}")
        fam = chain_antichain_family(weak_p, strong_p, 4)
        assert fam == [x * 3 + y, x * 2 + y, x + y, y]
        assert is_strong_chain_weak_antichain(weak_p, strong_p, fam)
        assert chain_antichain_family(weak_p, strong_p, 1) == [y]
        assert len(chain_antichain_family(weak_p, strong_p, 512)[0]) == 512


def test_chain_antichain_family_generic():
    # every other pair gets the first check_star witness on 16 ranks
    cases = [
        ("prefix:abc", "lexico:a<b<c", ["aa", "ab", "b", "c"]),
        ("lexico:a;b", "lexico:a<b", ["aa", "ab", "ba", "bb"]),
    ]
    for weak_spec, strong_spec, expected in cases:
        weak_p, strong_p = parse_poset_spec(weak_spec), parse_poset_spec(strong_spec)
        fam = chain_antichain_family(weak_p, strong_p, 4)
        assert fam == expected
        assert is_strong_chain_weak_antichain(weak_p, strong_p, fam)
        with pytest.raises(ResourceError, match="no size-16 witness within the first 16 ranks"):
            chain_antichain_family(weak_p, strong_p, 16)
    prefix_ab, lexico_ab = parse_poset_spec("prefix:ab"), parse_poset_spec("lexico:a<b")
    with pytest.raises(ConfigError):
        chain_antichain_family(prefix_ab, lexico_ab, 0)
    nat = parse_poset_spec("nat")
    with pytest.raises(ResourceError):
        chain_antichain_family(nat, nat, 2)
    with pytest.raises(ConfigError, match="carrier"):
        chain_antichain_family(prefix_ab, parse_poset_spec("lexico:b<a"), 2)


def test_order_pair_fragment_rejects_mismatched_carriers():
    with pytest.raises(ConfigError):
        order_pair_fragment(
            parse_poset_spec("prefix:ab"), parse_poset_spec("lexico:b<a"), 6
        )
