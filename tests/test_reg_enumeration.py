"""The `reg:` canonical enumeration against its earlier text-by-text scan in
reference_impl.py: the same texts at the same length-lex indices (minus the
ill-formed ones), the same languages, ranks and scan positions, and the same
ceiling errors, also when a later call raises the ceiling."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impl import EnumerationRef, canonical_dfa_ref

from kposet import automata
from kposet.automata import (
    CONCAT,
    ENUMERATION_TEXT_CEILING,
    RegexAst,
    _Enumeration,
    parse_regex,
    reg_unrank,
    render_ast,
)
from kposet.cli import main
from kposet.errors import ResourceError

ALPHABETS = (("a",), ("a", "b"), ("x", "y", "z"))
CEILING_MESSAGE = "regular-language enumeration ceiling hit after {} texts"


@pytest.mark.parametrize("sigma", ALPHABETS)
def test_texts_are_the_well_formed_reference_texts(sigma):
    ref = EnumerationRef(sigma)
    k = len(ref.symbols)
    shorter_than_7 = (k ** 7 - 1) // (k - 1)
    expected = [
        (i, text)
        for i, text in enumerate(itertools.islice(ref.texts(), shorter_than_7))
        if i == 0 or parse_regex(text, sigma) is not None
    ]
    got = list(itertools.takewhile(
        lambda pair: pair[0] < shorter_than_7, _Enumeration(sigma)._texts()
    ))
    assert got == expected


# (count, max_texts) calls made in order on one enumeration; several raise,
# and the calls after them continue with a larger ceiling
CALLS = {
    ("a",): [(0, 10**6), (3, 10**6), (20, 50), (20, 2000), (8, 2000), (8, 20000), (20, 20000)],
    ("a", "b"): [(3, 10**6), (60, 50), (60, 2000), (15, 2000), (25, 20000), (60, 20000),
                 (60, 1000), (141, ENUMERATION_TEXT_CEILING), (142, ENUMERATION_TEXT_CEILING)],
    ("x", "y", "z"): [(8, 10**6), (90, 50), (90, 2000), (40, 2000), (60, 20000)],
}


def _next_taken(ref: EnumerationRef) -> int:
    """The index of the first text the reference has not scanned that the
    canonical enumeration takes: the empty text or a well-formed one."""
    texts = itertools.islice(ref.texts(), ref.scanned, None)
    return next(i for i, text in enumerate(texts, ref.scanned)
                if i == 0 or parse_regex(text, ref.sigma) is not None)


@pytest.mark.parametrize("sigma", ALPHABETS)
def test_extend_to_matches_reference(sigma):
    new, ref = _Enumeration(sigma), EnumerationRef(sigma)
    raised = 0
    for count, max_texts in CALLS[sigma]:
        outcomes = []
        for enum in (new, ref):
            try:
                enum.extend_to(count, max_texts)
                outcomes.append(None)
            except ResourceError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (count, max_texts)
        if outcomes[0] is not None:
            assert outcomes[0] == CEILING_MESSAGE.format(max_texts)
            raised += 1
        assert new.languages == ref.languages
        assert new.by_dfa == ref.by_dfa
        assert new._pending[0] == _next_taken(ref)  # both stopped at the same text
    assert raised >= 2


def _canonicalised(enum: _Enumeration, count: int, max_texts: int) -> list:
    """The ASTs that `enum` canonicalises, in order, while it extends to
    count + 1 languages or until it hits max_texts."""
    asts = []
    canonical = automata.to_canonical_dfa

    def recording(ast, sigma):
        asts.append(ast)
        return canonical(ast, sigma)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "to_canonical_dfa", recording)
        try:
            enum.extend_to(count, max_texts)
        except ResourceError:
            pass
    return asts


def test_only_well_formed_texts_are_canonicalised():
    enum = _Enumeration(("a", "b"))
    asts = _canonicalised(enum, 69, ENUMERATION_TEXT_CEILING)
    assert len(enum.languages) == 70
    assert asts[0] is None  # the empty text: the empty language at rank 0
    assert None not in asts[1:]
    # 340 well-formed texts up to 70 languages; the normal form leaves 96
    assert len(asts) == 96
    last_taken, _ = next(itertools.islice(_Enumeration(("a", "b"))._texts(), len(asts) - 1, None))
    assert len(asts) < last_taken + 1  # fewer texts canonicalised than scanned
    # 1,089 up to 142 languages; the normal form leaves 213
    more = _canonicalised(enum, 141, ENUMERATION_TEXT_CEILING)
    assert len(enum.languages) == 142
    assert len(asts) + len(more) == 213


def _former_rules_skip(text: str, sigma, symbols) -> bool:
    """Whether a well-formed text breaks a skip rule the enumeration had
    before its normal form: a substring with a shorter rewrite (e** -> e*,
    ()* -> (), e·() -> e, ()·e -> e, (()) -> (), (s) -> s, (s*) -> s*), a
    whole-text (e) with e non-empty, or neighbouring top-level '+'
    operands u, v that are equal or whose swap is smaller in `symbols`
    order."""
    patterns = ("**", "()*", CONCAT + "()", "()" + CONCAT, "(())") + tuple(
        f"({s}{star})" for s in sigma for star in ("", "*"))
    if any(r in text for r in patterns):
        return True
    if text[0] + text[-1] == "()" and parse_regex(text[1:-1], sigma) is not None:
        return True
    operands, depth, start = [], 0, 0
    for i, c in enumerate(text + "+"):
        depth += (c == "(") - (c == ")")
        if c == "+" and depth == 0:
            operands.append([symbols.index(s) for s in text[start:i]])
            start = i + 1
    plus = [symbols.index("+")]
    return any(u == v or v + plus + u < u + plus + v for u, v in zip(operands, operands[1:]))


@pytest.mark.parametrize("sigma, max_len", [(("a", "b"), 6), (("x", "y", "z"), 5)])
def test_skipped_texts_have_an_earlier_equivalent(sigma, max_len):
    # every well-formed text that the enumeration does not canonicalise
    # denotes the language of an earlier text, so it is never the first of
    # it; and the normal form skips every text the former rules skipped
    enum = _Enumeration(sigma)
    k = len(enum.symbols)
    no_longer = (k ** (max_len + 1) - 1) // (k - 1)  # texts of length <= max_len
    texts = [text for _, text in itertools.takewhile(
        lambda pair: pair[0] < no_longer, _Enumeration(sigma)._texts())]
    asts = _canonicalised(enum, 10**9, no_longer)
    position = {text: i for i, text in enumerate(texts)}
    # a canonicalised text's normal form renders to the text itself, so the
    # rendered normal forms name the canonicalised texts, once and in order
    taken = [position[render_ast(ast)] for ast in asts[1:]]
    assert taken == sorted(set(taken))
    canonicalised = {texts[i] for i in taken}
    earlier = {canonical_dfa_ref(None, sigma)}
    for text in texts[1:]:
        dfa = canonical_dfa_ref(parse_regex(text, sigma), sigma)
        if text not in canonicalised:
            assert dfa in earlier, text
        elif _former_rules_skip(text, sigma, enum.symbols):
            raise AssertionError(f"{text!r} is canonicalised")
        earlier.add(dfa)


@pytest.mark.parametrize("sigma, count", [(("a",), 40), (("a", "b"), 213), (("x", "y", "z"), 314)])
def test_canonicalised_texts_are_their_own_normal_form(sigma, count):
    # the skip rule's other side: a text that is not skipped renders as its
    # own normal form, so the normal form never names a later text. Checked
    # on every text canonicalised up to the ceiling, the empty text aside
    parsed, pairs = [], []
    parse, canonical = automata.parse_regex, automata.to_canonical_dfa

    def parsing(text, sigma):
        parsed.append(text)
        return parse(text, sigma)

    def recording(ast, sigma):
        pairs.append((parsed[-1], ast))
        return canonical(ast, sigma)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "parse_regex", parsing)
        patch.setattr(automata, "to_canonical_dfa", recording)
        with pytest.raises(ResourceError):
            _Enumeration(sigma).extend_to(10**9, ENUMERATION_TEXT_CEILING)
    assert pairs[0] == ("", None)
    assert [text for text, ast in pairs[1:] if render_ast(ast) != text] == []
    assert len(pairs) - 1 == count


def _asts(sigma):
    leaves = st.sampled_from([RegexAst("sym", sym=c) for c in sigma] + [RegexAst("eps")])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(lambda u, v: RegexAst("alt", left=u, right=v), inner, inner),
        st.builds(lambda u, v: RegexAst("cat", left=u, right=v), inner, inner),
        inner.map(lambda u: RegexAst("star", left=u)),
    ), max_leaves=10)


@given(data=st.data(), sigma=st.sampled_from([("a", "b"), ("x", "y", "z")]))
@settings(max_examples=300, deadline=None)
def test_normal_form_keeps_the_language_and_is_never_later(data, sigma):
    ast = data.draw(_asts(sigma))
    enum = _Enumeration(sigma)
    normal = enum._normal_form(ast)
    text = render_ast(normal)
    assert canonical_dfa_ref(normal, sigma) == canonical_dfa_ref(ast, sigma)
    assert canonical_dfa_ref(parse_regex(text, sigma), sigma) == canonical_dfa_ref(ast, sigma)
    assert enum._key(text) <= enum._key(render_ast(ast))


def test_unrank_past_the_ceiling_raises():
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="after 400000 texts"):
        reg_unrank(15, ("a",))
    assert time.perf_counter() - start < 10


def test_estimate_past_the_ceiling_exits_3(capsys):
    code = main(["estimate", "--poset", "reg:a", "--ranks", "20"])
    assert code == 3
    assert CEILING_MESSAGE.format(400000) in capsys.readouterr().err
