"""Bit-exact word codings used by the complexity tables and their addresses.

Binary words are plain Python strings over '0'/'1' (that string form is the
serialization contract for witness columns in CSV reports). The codings here
are the ones the commands run:

  * ``b_word``        the length-monotone bijection N <-> {0,1}*, binary
                      i + 1 without its leading 1, and its inverse ``b_index``
  * ``decode_padded`` the decoder of the unary-prefixed padding 0^n 1 p; it
                      returns None on a word with no 1
  * ``pair_len``      the length |c(p, q)| of the injective pairing, from
                      |p| and |q| alone

The paper's other codings (the padding encoder, the k-block split header,
the pairing and its decoder) are run by no command, so they live with the
tests in tests/reference_impl.py; the report prints the pairing's length,
never its bits.
"""

from __future__ import annotations

from .errors import DomainError

__all__ = [
    "b_word",
    "b_index",
    "decode_padded",
    "pair_len",
]


def _check_word(w: str) -> str:
    # strip leaves "" exactly when every symbol is 0 or 1; it runs before any
    # int(..., 2), which would also accept "_" and surrounding whitespace
    if not isinstance(w, str) or w.strip("01"):
        raise DomainError(f"not a binary word: {w!r}")
    return w


def b_word(i: int) -> str:
    """Bijection N -> {0,1}*: b(0) = eps, b(2n+1) = b(n)0, b(2n+2) = b(n)1.

    That recursion is bijective base 2 with the digits 1, 2 written as 0, 1,
    so b(i) is binary i + 1 without its leading 1. Length-monotone: i < j
    implies |b(i)| <= |b(j)|, and the first 2^k - 1 indices enumerate exactly
    the words of length < k, in numeric order within a length.
    """
    if i < 0:
        raise DomainError(f"b_word needs a natural number, got {i}")
    return format(i + 1, "b")[1:]


def b_index(w: str) -> int:
    """Inverse of b_word: the word read in binary behind a leading 1, minus 1."""
    return int("1" + _check_word(w), 2) - 1


def decode_padded(w: str) -> tuple[int, str] | None:
    """Invert the padding 0^n 1 p to (n, p); None when w contains no 1."""
    _check_word(w)
    pos = w.find("1")
    if pos < 0:
        return None
    return pos, w[pos + 1:]


def pair_len(len_p: int, len_q: int) -> int:
    """|c(p, q)| from |p| and |q|: a header 0^|B| 1 B (or its mirror
    1^|B| 0 B) with B = bin(min(|p|, |q|)) and bin(0) = "0", then the body
    p q. That is |p| + |q| + 2*floor(log2(min(|p|,|q|))) + 3, with the
    convention log(0) = 0."""
    return len_p + len_q + 2 * max(min(len_p, len_q).bit_length(), 1) + 1
