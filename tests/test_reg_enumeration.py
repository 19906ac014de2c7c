"""The `reg:` canonical enumeration against its earlier text-by-text scan in
reference_impl.py: the same texts at the same length-lex indices (minus the
ill-formed ones), the same languages, ranks and scan positions, and the same
ceiling errors, also when a later call raises the ceiling."""

import itertools
import time

import pytest
from reference_impl import EnumerationRef, canonical_dfa_ref

from kposet import automata
from kposet.automata import ENUMERATION_TEXT_CEILING, _Enumeration, parse_regex, reg_unrank
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


def test_only_well_formed_texts_are_canonicalised(monkeypatch):
    asts = []
    canonical = automata.to_canonical_dfa

    def recording(ast, sigma):
        asts.append(ast)
        return canonical(ast, sigma)

    monkeypatch.setattr(automata, "to_canonical_dfa", recording)
    enum = _Enumeration(("a", "b"))
    enum.extend_to(69, ENUMERATION_TEXT_CEILING)
    assert asts[0] is None  # the empty text: the empty language at rank 0
    assert None not in asts[1:]
    assert len(enum.languages) == 70
    # 340 with no skip rule, 184 with `redundant` alone; the whole-text
    # (e) and top-level '+' rules (`_repeats`) skip 88 more
    assert len(asts) == 96
    last_taken, _ = next(itertools.islice(_Enumeration(("a", "b"))._texts(), len(asts) - 1, None))
    assert len(asts) < last_taken + 1  # fewer texts canonicalised than scanned


def _skip_rules(text: str, sigma, symbols) -> set[str]:
    """The rules a well-formed text breaks, found apart from _Enumeration:
    "(e)" a whole-text (e), e non-empty; "u+u" equal adjacent top-level '+'
    operands; "v+u" adjacent ones whose swap is smaller in `symbols` order."""
    rules = set()
    if text[0] + text[-1] == "()" and parse_regex(text[1:-1], sigma) is not None:
        rules.add("(e)")
    operands, depth, start = [], 0, 0
    for i, c in enumerate(text + "+"):
        depth += (c == "(") - (c == ")")
        if c == "+" and depth == 0:
            operands.append([symbols.index(s) for s in text[start:i]])
            start = i + 1
    plus = [symbols.index("+")]
    for u, v in zip(operands, operands[1:]):
        if u == v:
            rules.add("u+u")
        elif v + plus + u < u + plus + v:
            rules.add("v+u")
    return rules


@pytest.mark.parametrize("sigma, max_len", [(("a", "b"), 6), (("x", "y", "z"), 5)])
def test_skipped_texts_have_an_earlier_equivalent(sigma, max_len):
    # every well-formed text that the enumeration does not canonicalise
    # denotes the language of an earlier text, so it is never the first of
    # it; and it skips just the texts that hold a redundancy or break a rule
    enum = _Enumeration(sigma)
    k = len(enum.symbols)
    no_longer = (k ** (max_len + 1) - 1) // (k - 1)  # texts of length <= max_len
    earlier, matched = set(), set()
    for index, text in enum._texts():
        if index >= no_longer:
            break
        dfa = canonical_dfa_ref(parse_regex(text, sigma), sigma)
        if index:
            found = {r for r in enum.redundant if r in text} | _skip_rules(text, sigma, enum.symbols)
            skipped = any(r in text for r in enum.redundant) or enum._repeats(text)
            assert skipped == bool(found), text
            if found:
                matched |= found
                assert dfa in earlier, text
        earlier.add(dfa)
    assert matched == set(enum.redundant) | {"(e)", "u+u", "v+u"}  # every rule was seen


def test_unrank_past_the_ceiling_raises():
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="after 400000 texts"):
        reg_unrank(15, ("a",))
    assert time.perf_counter() - start < 10


def test_estimate_past_the_ceiling_exits_3(capsys):
    code = main(["estimate", "--poset", "reg:a", "--ranks", "20"])
    assert code == 3
    assert CEILING_MESSAGE.format(400000) in capsys.readouterr().err
