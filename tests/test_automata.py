import itertools
import random

import pytest

from kposet.automata import (
    CONCAT,
    EMPTY_EXPRESSION,
    Dfa,
    canonical_regex,
    canonicalize_dfa,
    language_leq,
    parse_regex,
    quotient_trace,
    reg_rank,
    reg_unrank,
    to_canonical_dfa,
)
from kposet.errors import ConfigError
from kposet.limits import STABILIZED, limit_report_from_trace
from kposet.posets import parse_poset_spec
from reference_impl import accepts, quotient

AB = ("a", "b")


def lang(text):
    return to_canonical_dfa(parse_regex(text, AB), AB)


def words_up_to(alphabet, max_len):
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in alphabet]
        out.extend(frontier)
    return out


def test_parse_well_formed():
    ast = parse_regex(f"(a+b)*{CONCAT}b", AB)
    assert ast is not None
    d = to_canonical_dfa(ast, AB)
    assert accepts(d, "b") and accepts(d, "ab") and accepts(d, "abab")
    assert not accepts(d, "") and not accepts(d, "ba")


def test_parse_ill_formed_is_empty_language():
    for text in ["((", "", "a+", "*a", "ab", "a·", "x", "()()"]:
        ast = parse_regex(text, AB)
        if ast is None:
            d = to_canonical_dfa(None, AB)
        else:
            d = to_canonical_dfa(ast, AB)
        if text == "()()":
            continue  # ill-formed too (no implicit concatenation)
        assert ast is None, text
        assert d.accept == frozenset(), text


def test_empty_word_expression():
    ast = parse_regex("()", AB)
    d = to_canonical_dfa(ast, AB)
    assert accepts(d, "")
    assert not accepts(d, "a")


def test_canonical_dfa_examples():
    d = lang(f"a{CONCAT}b")
    # three live states plus the dead sink
    assert d.n == 4
    assert accepts(d, "ab")
    assert not any(accepts(d, w) for w in ["", "a", "b", "ba", "aba"])
    empty = to_canonical_dfa(None, AB)
    assert empty.n == 1 and empty.accept == frozenset()
    assert lang("a*") == lang(f"a*{CONCAT}a*")


def test_language_leq():
    ab = lang(f"a{CONCAT}b")
    star = lang("(a+b)*")
    assert language_leq(ab, star)
    assert not language_leq(star, ab)
    assert language_leq(ab, ab)
    with pytest.raises(ConfigError):
        language_leq(ab, to_canonical_dfa(parse_regex("a", ("a",)), ("a",)))


def brute_quotient_members(l, m_words, max_len):
    return {
        u
        for u in words_up_to("".join(AB), max_len)
        if any(accepts(l, v + u) for v in m_words)
    }


def test_quotient_examples():
    ends_b = lang(f"(a+b)*{CONCAT}b")
    assert quotient(ends_b, ["a"]) == ends_b
    just_ab = lang(f"a{CONCAT}b")
    assert quotient(just_ab, ["a"]) == lang("b")
    assert quotient(just_ab, [""]) == just_ab
    assert quotient(just_ab, ["ab"]) == lang("()")
    assert quotient(just_ab, []) == to_canonical_dfa(None, AB)


def test_quotient_against_bruteforce_random():
    rng = random.Random(19)
    pool = [
        "a", "b", "a*", f"a{CONCAT}b", f"(a+b)*{CONCAT}b",
        f"(a{CONCAT}b)*", "a+b", f"b{CONCAT}(a+b)*", "()", "(a+b)*",
    ]
    for _ in range(60):
        l = lang(rng.choice(pool))
        m = [rng.choice(words_up_to("ab", 3)) for _ in range(rng.randrange(0, 4))]
        q = quotient(l, m)
        expect = brute_quotient_members(l, m, 5)
        got = {u for u in words_up_to("ab", 5) if accepts(q, u)}
        assert got == expect


def test_quotient_monotone_in_m():
    l = lang(f"(a+b)*{CONCAT}b")
    m1 = ["a"]
    m2 = ["a", "bb", "ab"]
    assert language_leq(quotient(l, m1), quotient(l, m2))


def test_quotient_trace_stabilizes():
    l = lang(f"(a+b)*{CONCAT}b")
    words = ["a", "ab", "a"]
    trace = quotient_trace(l, words)
    # a^-1 L = L, and ab^-1 L adds the empty word
    with_eps = lang(f"()+(a+b)*{CONCAT}b")
    assert trace == [(0, l), (1, with_eps)]
    rep = limit_report_from_trace(trace, 10, window=2)
    assert rep.current == with_eps
    assert (rep.last_change_t, rep.status) == (1, STABILIZED)
    # change count bounded by the state count
    assert len(trace) <= l.n
    assert quotient_trace(l, [""]) == [(0, l)]
    assert quotient_trace(l, []) == []


def test_reg_rank_unrank():
    h0 = reg_unrank(0, AB)
    assert h0 == to_canonical_dfa(None, AB)  # shortest text is ill-formed
    seen = set()
    for k in range(50):
        h = reg_unrank(k, AB)
        assert reg_rank(h) == k
        assert h not in seen
        seen.add(h)


def test_reg_rank_of_fresh_handle():
    h = lang("a*")
    k = reg_rank(h)
    assert reg_unrank(k, AB) == h


def test_canonical_regex_roundtrip_examples():
    for text in [f"a{CONCAT}b", "(a+b)*", "a*", "()", "b+a"]:
        d = lang(text)
        back = canonical_regex(d)
        assert to_canonical_dfa(parse_regex(back, AB), AB) == d
    assert canonical_regex(to_canonical_dfa(None, AB)) == EMPTY_EXPRESSION


def random_canonical_dfa(rng, max_states=3):
    n = rng.randrange(1, max_states + 1)
    delta = tuple(
        tuple(rng.randrange(n) for _ in AB) for _ in range(n)
    )
    accept = frozenset(q for q in range(n) if rng.random() < 0.5)
    return canonicalize_dfa(Dfa(n, 0, accept, delta, AB))


def test_canonical_regex_roundtrip_random():
    rng = random.Random(29)
    for _ in range(60):
        d = random_canonical_dfa(rng)
        back = to_canonical_dfa(parse_regex(canonical_regex(d), AB), AB)
        assert back == d


def test_reg_poset_instance():
    reg = parse_poset_spec("reg:ab")
    bottom = reg.unrank(0)
    hs = [reg.unrank(i) for i in range(50)]
    top = lang("(a+b)*")
    for h in hs:
        assert reg.leq(bottom, h)
        assert reg.leq(h, top)
    assert reg.rank(reg.unrank(7)) == 7


def test_reg_elements_are_canonical_dfas():
    reg = parse_poset_spec("reg:ab")
    k = 9
    d = reg.unrank(k)
    assert type(d) is Dfa and d.canonical
    # the same language with an unreachable extra state and the states
    # numbered in reverse: not canonical, yet it ranks to k
    n = d.n + 1
    renum = [n - 1 - q for q in range(d.n)]
    delta = [None] * n
    for q in range(d.n):
        delta[renum[q]] = tuple(renum[t] for t in d.delta[q])
    delta[0] = (0,) * len(AB)  # renum never yields 0: the unreachable state
    other = Dfa(n, renum[d.start], frozenset(renum[q] for q in d.accept), tuple(delta), AB)
    assert other != d and not other.canonical
    assert reg.rank(other) == k
    assert reg.leq(d, d) and reg.leq(reg.unrank(0), d)
    assert not reg.leq(d, reg.unrank(0))
    assert reg.format_elem(d) == canonical_regex(d)
    assert to_canonical_dfa(parse_regex(reg.format_elem(d), AB), AB) == d


def test_language_leq_antisymmetric_on_canonical():
    rng = random.Random(61)
    for _ in range(100):
        d1 = random_canonical_dfa(rng)
        d2 = random_canonical_dfa(rng)
        if language_leq(d1, d2) and language_leq(d2, d1):
            assert d1 == d2

