import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_impl import (
    b_index_ref,
    b_word_ref,
    bin_word,
    decode_pair,
    decode_split,
    encode_padded,
    encode_pair,
    encode_split,
)
from kposet.codec import b_index, b_word, decode_padded, pair_len
from kposet.errors import DomainError


def all_words(max_len):
    yield ""
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in "01"]
        yield from frontier


def test_bin_word():
    assert bin_word(2) == "10"
    assert bin_word(0) == "0"
    assert bin_word(5) == "101"


def test_b_word_base_cases():
    assert b_word(0) == ""
    # unfold b(6) = b(2)1 = (b(0)1)1
    assert b_word(6) == "11"
    assert {b_word(i) for i in range(7)} == {"", "0", "1", "00", "01", "10", "11"}


def test_b_word_inverse_and_length_monotone():
    prev_len = 0
    for i in range(5000):
        w = b_word(i)
        assert b_index(w) == i
        assert len(w) >= prev_len
        prev_len = len(w)


def test_b_word_initial_segments():
    for k in range(1, 13):
        words = {b_word(i) for i in range(2**k - 1)}
        assert words == set(w for w in all_words(k - 1))


def test_b_word_closed_form_matches_the_digit_loop_exhaustively():
    for i in range(1 << 16):
        w = b_word_ref(i)
        assert b_word(i) == w
        assert b_index(w) == b_index_ref(w) == i


@settings(max_examples=300, deadline=None)
@given(i=st.integers(0, 2**200))
@example(i=10**20)
@example(i=2**70)
@example(i=2**70 - 1)
@example(i=3**50)
def test_b_word_closed_form_matches_the_digit_loop(i):
    w = b_word_ref(i)
    assert b_word(i) == w
    assert b_index(w) == i


@settings(max_examples=300, deadline=None)
@given(w=st.text("01", max_size=220))
def test_b_index_closed_form_matches_the_digit_loop(w):
    assert b_index(w) == b_index_ref(w)


@pytest.mark.parametrize("bad", ["1_0", " 1", "1 ", "0\n", "2", "+1", "0b1", "\u0661", 1, None, b"01", ["0"]])
def test_malformed_words_raise_domain_error(bad):
    # int(w, 2) alone would accept "1_0" and surrounding whitespace
    msg = f"not a binary word: {bad!r}"
    for decode in (b_index, b_index_ref, decode_padded, lambda w: decode_split(w, 1), decode_pair):
        with pytest.raises(DomainError) as caught:
            decode(bad)
        assert str(caught.value) == msg


@pytest.mark.parametrize("i", [-1, -2, -(2**70)])
def test_b_word_rejects_negative_indices(i):
    for encode in (b_word, b_word_ref):
        with pytest.raises(DomainError) as caught:
            encode(i)
        assert str(caught.value) == f"b_word needs a natural number, got {i}"


def test_padded():
    assert encode_padded(2, "01") == "00101"
    assert decode_padded("1") == (0, "")
    assert decode_padded("000") is None
    assert decode_padded(encode_padded(0, "")) == (0, "")


def test_split():
    assert encode_split(1, 3, "0") == "0110"
    assert decode_split("0110", 3) == (1, "0")
    assert decode_split("111", 3) is None
    assert decode_split("010", 3) is None
    assert decode_split("00", 3) is None
    with pytest.raises(DomainError):
        encode_split(0, 3, "")
    with pytest.raises(DomainError):
        encode_split(4, 3, "")


def test_split_length_slack():
    # |encode| = |p| + k: the k-bit header is the whole overhead
    for k in range(1, 6):
        for i in range(1, k + 1):
            assert len(encode_split(i, k, "0101")) == 4 + k


def test_pair_examples():
    assert encode_pair("01", "101") == "0011001101"
    assert len(encode_pair("01", "101")) == 10 == pair_len(2, 3)
    assert encode_pair("", "") == "010"
    assert decode_pair("0011001101") == ("01", "101")
    assert decode_pair("010") == ("", "")


def test_pair_rejects_malformed():
    assert decode_pair("") is None
    assert decode_pair("0000") is None
    assert decode_pair("1111") is None
    # header claims a longer p than the body holds
    assert decode_pair("00110") is None


def test_pair_exhaustive_small():
    # injectivity plus the exact length formula on all |p|,|q| <= 5
    seen = {}
    for p in all_words(5):
        for q in all_words(5):
            r = encode_pair(p, q)
            assert len(r) == pair_len(len(p), len(q))
            assert r not in seen, (p, q, seen[r])
            seen[r] = (p, q)
            assert decode_pair(r) == (p, q)


def test_pair_len_is_the_encoder_length_exhaustively():
    # the encoder's length depends on |p| and |q| alone; an empty side
    # still takes the one-bit B = bin(0) = "0"
    words = [("01" * 129)[:n] for n in range(257)]
    for p in words:
        for q in words:
            assert pair_len(len(p), len(q)) == len(encode_pair(p, q)), (len(p), len(q))


@settings(max_examples=500, deadline=None)
@given(p=st.text("01", max_size=600), q=st.text("01", max_size=600))
@example(p="", q="")
@example(p="", q="1")
@example(p="10", q="")
@example(p="1" * 512, q="0" * 513)
def test_pair_len_is_the_encoder_length(p, q):
    assert pair_len(len(p), len(q)) == len(encode_pair(p, q))


def test_split_and_pair_decode_exactly_the_encoder_range():
    # every word up to 12 bits: the decoders accept the encoders' words and
    # nothing else, which pins the leading-run counts in both
    words = list(all_words(12))
    for k in range(1, 7):
        split = {encode_split(i, k, p): (i, p) for i in range(1, k + 1) for p in all_words(12 - k)}
        assert [decode_split(w, k) for w in words] == [split.get(w) for w in words]
    pair = {}
    for p in all_words(9):
        for q in all_words(9 - len(p)):
            r = encode_pair(p, q)
            if len(r) <= 12:
                pair[r] = (p, q)
    assert [decode_pair(w) for w in words] == [pair.get(w) for w in words]


def test_pair_decode_encode_identity_on_accepted():
    rng = random.Random(7)
    accepted = 0
    for _ in range(20000):
        r = "".join(rng.choice("01") for _ in range(rng.randrange(0, 18)))
        got = decode_pair(r)
        if got is not None:
            accepted += 1
            assert encode_pair(*got) == r
    assert accepted > 100


def test_roundtrips_random():
    rng = random.Random(11)
    for _ in range(5000):
        i = rng.randrange(0, 10**6)
        assert b_index(b_word(i)) == i
        p = "".join(rng.choice("01") for _ in range(rng.randrange(0, 24)))
        q = "".join(rng.choice("01") for _ in range(rng.randrange(0, 24)))
        n = rng.randrange(0, 40)
        assert decode_padded(encode_padded(n, p)) == (n, p)
        k = rng.randrange(1, 9)
        i2 = rng.randrange(1, k + 1)
        assert decode_split(encode_split(i2, k, p), k) == (i2, p)
        assert decode_pair(encode_pair(p, q)) == (p, q)
