import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impl import finset_rank_ref, finset_unrank_ref, shortlex_rank_ref, shortlex_unrank_ref
from kposet.analysis import read_order
from kposet.errors import ConfigError, DomainError
from kposet.posets import _word_carrier, parse_poset_spec, reverse


def words_up_to(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in alphabet]
        out.extend(frontier)
    return out


def test_parse_examples():
    nat = parse_poset_spec("nat")
    assert nat.leq(3, 5)
    rev_nat = parse_poset_spec("rev(nat)")
    assert rev_nat.leq(5, 3)
    pre = parse_poset_spec("prefix:ab")
    assert pre.leq("a", "ab")
    assert not pre.leq("a", "b")


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_poset_spec("natt")
    with pytest.raises(ConfigError):
        parse_poset_spec("prefix:aa")
    with pytest.raises(ConfigError):
        parse_poset_spec("lexico:ab<c")
    with pytest.raises(ConfigError):
        parse_poset_spec("lexico:a<b;b<a")


def test_spec_roundtrip():
    for spec in ["nat", "int", "prefix:ab", "lexico:a<b;c", "finsets",
                 "rev(nat)", "discrete(prefix:ab)", "rev(discrete(int))"]:
        assert parse_poset_spec(spec).spec == spec


def test_lexico_leq():
    lex = parse_poset_spec("lexico:a<b")
    assert lex.leq("aab", "ab")
    partial = parse_poset_spec("lexico:a<b;c")
    assert partial.leq("ca", "cb")
    assert not partial.leq("a", "c")
    assert not partial.leq("c", "a")


def test_finsets_leq():
    fs = parse_poset_spec("finsets")
    assert fs.leq((1, 2), (1, 2, 3))
    assert not fs.leq((1, 2, 3), (1, 2))
    with pytest.raises(DomainError):
        fs.leq((2, 1), (1, 2))


def test_word_carrier_rejects_foreign_words():
    for spec in ("prefix:ab", "lexico:a<b"):
        p = parse_poset_spec(spec)
        assert p.leq("", "ab") and p.rank("ba") == 5
        for bad in ("ac", "c", 3, ["a"]):
            with pytest.raises(DomainError, match=re.escape(f"not a word over 'ab': {bad!r}")):
                p.leq(bad, "a")
        with pytest.raises(DomainError, match="not a word over 'ab': 'abx'"):
            p.rank("abx")


_SYMBOLS = "abc\u00e9 \n"  # a small pool, so that words often lie over the alphabet


@settings(max_examples=400, deadline=None)
@given(alphabet=st.text(_SYMBOLS, min_size=1, max_size=4).filter(lambda a: len(set(a)) == len(a)),
       w=st.one_of(st.text(_SYMBOLS, max_size=8), st.text(max_size=8)))
@example(alphabet="ab", w="")
@example(alphabet="ab", w="acb")  # a foreign symbol between two of the alphabet's
@example(alphabet="ab", w="cab")
@example(alphabet="a", w="aaa")
def test_word_check_is_the_symbol_set_test(alphabet, w):
    check, _, _ = _word_carrier(alphabet)
    if frozenset(alphabet).issuperset(w):
        assert check(w) == w
    else:
        with pytest.raises(DomainError) as caught:
            check(w)
        assert str(caught.value) == f"not a word over {alphabet!r}: {w!r}"


def test_rank_unrank():
    nat = parse_poset_spec("nat")
    assert nat.unrank(7) == 7
    pre = parse_poset_spec("prefix:ab")
    assert [pre.unrank(i) for i in range(4)] == ["", "a", "b", "aa"]
    zz = parse_poset_spec("int")
    assert [zz.unrank(i) for i in range(5)] == [0, 1, -1, 2, -2]
    assert zz.unrank(4) == -2
    fs = parse_poset_spec("finsets")
    assert fs.unrank(5) == (0, 2)
    assert fs.rank((0, 2)) == 5
    for p in (nat, pre, zz, fs):
        for i in range(200):
            assert p.rank(p.unrank(i)) == i


_ALPHABETS = st.lists(st.characters(), min_size=1, max_size=6, unique=True).map("".join)


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc", "abcd", "abcdef"])
def test_word_carrier_closed_form_matches_the_length_search_exhaustively(alphabet):
    _, unrank, rank = _word_carrier(alphabet)
    for n in range(2000 if alphabet == "a" else 1 << 14):  # unary: the reference is O(n)
        w = shortlex_unrank_ref(alphabet, n)
        assert unrank(n) == w and rank(w) == n


@settings(max_examples=300, deadline=None)
@given(alphabet=_ALPHABETS, n=st.integers(0, 2**200), data=st.data())
@example(alphabet="a", n=0, data=None)
def test_word_carrier_closed_form_matches_the_length_search(alphabet, n, data):
    _, unrank, rank = _word_carrier(alphabet)
    if len(alphabet) == 1:
        n %= 5000  # the reference counts a unary word out one symbol at a time
    w = shortlex_unrank_ref(alphabet, n)
    assert unrank(n) == w and rank(w) == n
    if data is not None:
        w = data.draw(st.text(alphabet, max_size=60))
        assert rank(w) == shortlex_rank_ref(alphabet, w) and unrank(rank(w)) == w


def test_finsets_closed_form_matches_the_shift_loop_exhaustively():
    fs = parse_poset_spec("finsets")
    for n in range(1 << 16):
        e = finset_unrank_ref(n)
        assert fs.unrank(n) == e and fs.rank(e) == n


@settings(max_examples=300, deadline=None)
@given(members=st.sets(st.integers(0, 500), max_size=64), n=st.integers(0, 2**200))
def test_finsets_closed_form_matches_the_shift_loop(members, n):
    fs = parse_poset_spec("finsets")
    e = tuple(sorted(members))
    assert fs.rank(e) == finset_rank_ref(e) and fs.unrank(fs.rank(e)) == e
    assert fs.unrank(n) == finset_unrank_ref(n) and fs.rank(fs.unrank(n)) == n


@pytest.mark.parametrize("bad", [(1, 1), (2, 1), (-1,), (True,), (1.0,), [1], "01", None])
def test_finsets_rank_rejects_malformed_sets(bad):
    msg = f"not a sorted duplicate-free tuple of naturals: {bad!r}"
    with pytest.raises(DomainError) as caught:
        parse_poset_spec("finsets").rank(bad)
    assert str(caught.value) == msg


def test_partial_order_laws_random():
    rng = random.Random(3)
    for spec in ["nat", "int", "prefix:ab", "lexico:a<b;c", "finsets",
                 "rev(lexico:a<b)", "discrete(nat)"]:
        p = parse_poset_spec(spec)
        elems = [p.unrank(rng.randrange(0, 300)) for _ in range(40)]
        for _ in range(10_000):
            a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            assert p.leq(a, a)
            if p.leq(a, b) and p.leq(b, a):
                assert a == b
            if p.leq(a, b) and p.leq(b, c):
                assert p.leq(a, c)


def test_lexico_partial_exhaustive_small():
    # transitivity and antisymmetry on all word pairs of length <= 4 over a
    # 3-symbol alphabet with a genuinely partial symbol order
    p = parse_poset_spec("lexico:a<b;c")
    ws = words_up_to("abc", 4)
    leq = {(u, v) for u in ws for v in ws if p.leq(u, v)}
    for (u, v) in leq:
        if (v, u) in leq:
            assert u == v
    for u in ws:
        for v in ws:
            if (u, v) not in leq:
                continue
            for w in ws:
                if (v, w) in leq:
                    assert (u, w) in leq


def test_prefix_extends_to_lexico():
    pre = parse_poset_spec("prefix:ab")
    lex = parse_poset_spec("lexico:a<b")
    ws = words_up_to("ab", 4)
    for u in ws:
        for v in ws:
            if pre.lt(u, v):
                assert lex.lt(u, v)


def test_reverse_involution():
    p = parse_poset_spec("lexico:a<b")
    rr = reverse(reverse(p))
    ws = words_up_to("ab", 3)
    for u in ws:
        for v in ws:
            assert p.leq(u, v) == rr.leq(u, v)


# spec -> (the rendered bottom, how many early ranks it is checked below)
BOTTOMS = {
    "nat": ("0", 1000),
    "prefix:ab": ("ε", 1000),
    "lexico:a<b": ("ε", 1000),
    "finsets": ("{}", 1000),
    "lexico:a<b;c": ("ε", 64),
    "reg:ab": ("(", 64),  # the empty language: its shortest text is ill-formed
    "rev(rev(reg:ab))": ("(", 64),
}


def _check_bottom(spec):
    shown, early = BOTTOMS[spec]
    p = parse_poset_spec(spec)
    bottom = p.unrank(0)
    assert p.format_elem(bottom) == shown, spec
    assert all(p.leq(bottom, p.unrank(i)) for i in range(early)), spec


def test_metadata_minimum():
    for spec in ["nat", "prefix:ab", "lexico:a<b", "finsets"]:
        _check_bottom(spec)
    for spec in ["int", "discrete(nat)", "rev(nat)"]:
        # no early element lies below every element a bit further out
        p = parse_poset_spec(spec)
        wider = [p.unrank(i) for i in range(1000)]
        for i in range(50):
            cand = p.unrank(i)
            assert any(not p.leq(cand, e) for e in wider), spec


def test_claimed_minimum_has_a_rank():
    # the bottom sits at rank 0; rev(rev(...)) keeps it there
    for spec in ["lexico:a<b;c", "reg:ab", "rev(rev(reg:ab))"]:
        _check_bottom(spec)


def test_discrete_is_empty_order():
    d = parse_poset_spec("discrete(nat)")
    assert d.leq(4, 4)
    assert not d.leq(3, 5)
    assert not d.leq(5, 3)


def test_finite_order_from_json():
    names, fp = read_order(
        '{"elements": ["a", "b", "c"], "lt": [[0, 1], [1, 2]]}'
    )
    assert names == ["a", "b", "c"]
    assert fp.lt == {(0, 1), (1, 2), (0, 2)}  # closure
    with pytest.raises(ConfigError):
        read_order('{"elements": ["a"], "lt": [[0, 0]]}')
    with pytest.raises(ConfigError):
        read_order("not json")
    for bad in (
        '{"elements": ["a", "b"], "lt": [["0", 1]]}',  # string index
        '{"elements": ["a", "b"], "lt": [[0.0, 1]]}',  # float index
        '{"elements": ["a", "b"], "lt": [[false, true]]}',  # booleans are not indices
        '{"elements": ["a", "b"], "lt": [[0, 2]]}',  # out of range
        '{"elements": ["a", "b"], "lt": [[-1, 1]]}',
        '{"elements": ["a", "b"], "lt": [[0, 1, 1]]}',
        '{"elements": "ab", "lt": []}',  # a string is not a list of names
        '{"elements": ["a", "b"], "lt": {"0": 1}}',
        '{"elements": ["a", "b", "c"], "lt": [[0, 1], [1, 2], [2, 0]]}',  # cycle
    ):
        with pytest.raises(ConfigError):
            read_order(bad)


ANTICHAIN_ALPHABETS = {
    "prefix:ab": "ab",
    "prefix:abc": "abc",
    "rev(prefix:ab)": "ab",
    "discrete(prefix:ab)": "ab",
    "lexico:a<b": "ab",
    "lexico:a;b": "ab",
}


@st.composite
def specs_and_words(draw):
    spec = draw(st.sampled_from(sorted(ANTICHAIN_ALPHABETS)))
    words = st.text(ANTICHAIN_ALPHABETS[spec], max_size=4)
    return spec, draw(st.lists(words, max_size=8))


@settings(max_examples=400, deadline=None)
@given(case=specs_and_words())
@example(case=("prefix:ab", ["ab", "b", "ab"]))
@example(case=("prefix:ab", ["ab", "b", "a"]))
@example(case=("prefix:abc", ["c", "ab", "ba", "a"]))
@example(case=("rev(prefix:ab)", ["b", "ba", "a"]))
@example(case=("discrete(prefix:ab)", ["a", "ab", "a"]))
@example(case=("lexico:a;b", ["a", "b", ""]))
def test_is_antichain_matches_the_pairwise_definition(case):
    """The per-order test agrees with "no two listed words are comparable",
    a repeated word included."""
    spec, words = case
    p = parse_poset_spec(spec)
    pairwise = not any(
        p.leq(a, b) or p.leq(b, a) for a, b in itertools.combinations(words, 2)
    )
    assert p.is_antichain(words) == pairwise


def test_is_antichain_validates_the_words():
    # prefix orders take the sorted test, the others compare pairs via leq
    assert parse_poset_spec("prefix:ab").antichain_fn is not None
    assert parse_poset_spec("rev(prefix:ab)").antichain_fn is not None
    assert parse_poset_spec("lexico:a<b").antichain_fn is None
    for spec, alphabet in ANTICHAIN_ALPHABETS.items():
        p = parse_poset_spec(spec)
        for bad in ("d", 5, None, ("a",)):
            with pytest.raises(DomainError):
                p.is_antichain([bad, alphabet])


def test_discrete_resets_the_antichain_test():
    # distinct words are incomparable in discrete(p), even when p orders them
    assert parse_poset_spec("discrete(prefix:ab)").is_antichain(["a", "ab"]) is True
    assert parse_poset_spec("prefix:ab").is_antichain(["a", "ab"]) is False
    assert parse_poset_spec("discrete(prefix:ab)").is_antichain(["a", "a"]) is False


@pytest.mark.parametrize("spec", [
    "nat", "int", "prefix:ab", "lexico:a<b;c", "finsets", "reg:ab", "rev(nat)", "discrete(prefix:ab)",
])
def test_unrank_rejects_bools(spec):
    # bool is an int subclass, but True is not a rank
    p = parse_poset_spec(spec)
    for bad in (True, False):
        with pytest.raises(DomainError, match="rank must be a natural number"):
            p.unrank(bad)


def test_reg_checks_its_elements():
    # a language over another alphabet would otherwise take its rank there
    ab, xy = parse_poset_spec("reg:ab"), parse_poset_spec("reg:xy")
    assert ab.rank(ab.unrank(5)) == xy.rank(xy.unrank(5)) == 5
    bottom = ab.unrank(0)
    for bad in (xy.unrank(5), xy.unrank(0), "a", 5, None):
        msg = re.escape(f"not a DFA over 'ab': {bad!r}")
        with pytest.raises(DomainError, match=msg):
            ab.rank(bad)
        with pytest.raises(DomainError, match=msg):
            ab.leq(bad, bottom)
        with pytest.raises(DomainError, match=msg):
            ab.leq(bottom, bad)
