"""Bit-exact word codings used by the complexity tables and their addresses.

Binary words are plain Python strings over '0'/'1' (that string form is the
serialization contract for witness columns in CSV reports). The codings here
are the ones the commands run:

  * ``bin_word``      standard MSB-first binary representation, bin(0) = "0"
  * ``b_word``        the length-monotone bijection N <-> {0,1}*, binary
                      i + 1 without its leading 1, and its inverse ``b_index``
  * ``decode_padded`` the decoder of the unary-prefixed padding 0^n 1 p; it
                      returns None on a word with no 1
  * ``encode_pair``   the injective pairing whose length is
                      |p| + |q| + 2*floor(log2(min(|p|,|q|))) + 3, with the
                      convention log(0) = 0

The paper's other codings (the padding encoder, the k-block split header,
the pairing's decoder) are run by no command, so they live with the tests
in tests/reference_impl.py.
"""

from __future__ import annotations

from .errors import DomainError

__all__ = [
    "bin_word",
    "b_word",
    "b_index",
    "decode_padded",
    "encode_pair",
]


def _check_word(w: str) -> str:
    # strip leaves "" exactly when every symbol is 0 or 1; it runs before any
    # int(..., 2), which would also accept "_" and surrounding whitespace
    if not isinstance(w, str) or w.strip("01"):
        raise DomainError(f"not a binary word: {w!r}")
    return w


def bin_word(x: int) -> str:
    """MSB-first binary representation; bin_word(0) == "0"."""
    if x < 0:
        raise DomainError(f"bin_word needs a natural number, got {x}")
    return format(x, "b")


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


def encode_pair(p: str, q: str) -> str:
    """Injective pairing c(p, q).

    If |p| <= |q| the header is 0^|B| 1 B with B = bin(|p|), else the mirrored
    1^|B| 0 B with B = bin(|q|); the body is always p followed by q. The first
    bit selects the branch, the unary run length gives |B|, and B gives the
    split point between p and q.
    """
    _check_word(p)
    _check_word(q)
    if len(p) <= len(q):
        b = bin_word(len(p))
        return "0" * len(b) + "1" + b + p + q
    b = bin_word(len(q))
    return "1" * len(b) + "0" + b + p + q
