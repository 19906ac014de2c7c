"""Bit-exact word codings used by the complexity tables and their addresses.

Binary words are plain Python strings over '0'/'1' (that string form is the
serialization contract for witness columns in CSV reports). Five codings live
here:

  * ``bin_word``      standard MSB-first binary representation, bin(0) = "0"
  * ``b_word``        the length-monotone bijection N <-> {0,1}*
  * ``encode_padded`` unary-prefixed padding 0^n 1 p
  * ``encode_split``  the k-block header 0^i 1^(k-i) p
  * ``encode_pair``   the injective pairing whose length is
                      |p| + |q| + 2*floor(log2(min(|p|,|q|))) + 3, with the
                      convention log(0) = 0

Decoders return None on words outside the range of the corresponding encoder;
they accept exactly the encoder's range, so encode/decode are mutually inverse.
"""

from __future__ import annotations

from .errors import DomainError

__all__ = [
    "bin_word",
    "b_word",
    "b_index",
    "encode_padded",
    "decode_padded",
    "encode_split",
    "decode_split",
    "encode_pair",
    "decode_pair",
]


def _check_word(w: str) -> str:
    if not isinstance(w, str) or any(c not in "01" for c in w):
        raise DomainError(f"not a binary word: {w!r}")
    return w


def bin_word(x: int) -> str:
    """MSB-first binary representation; bin_word(0) == "0"."""
    if x < 0:
        raise DomainError(f"bin_word needs a natural number, got {x}")
    return format(x, "b")


def _is_canonical_bin(w: str) -> bool:
    return w == "0" or (len(w) >= 1 and w[0] == "1")


def b_word(i: int) -> str:
    """Bijection N -> {0,1}*: b(0) = eps, b(2n+1) = b(n)0, b(2n+2) = b(n)1.

    Length-monotone: i < j implies |b(i)| <= |b(j)|, and the first 2^k - 1
    indices enumerate exactly the words of length < k.
    """
    if i < 0:
        raise DomainError(f"b_word needs a natural number, got {i}")
    out = []
    while i > 0:
        if i % 2 == 1:
            out.append("0")
            i = (i - 1) // 2
        else:
            out.append("1")
            i = (i - 2) // 2
    return "".join(reversed(out))


def b_index(w: str) -> int:
    """Inverse of b_word."""
    _check_word(w)
    i = 0
    for c in w:
        i = 2 * i + (1 if c == "0" else 2)
    return i


def encode_padded(n: int, p: str) -> str:
    """0^n 1 p."""
    if n < 0:
        raise DomainError(f"padding count must be a natural number, got {n}")
    _check_word(p)
    return "0" * n + "1" + p


def decode_padded(w: str) -> tuple[int, str] | None:
    """Invert encode_padded; None when w contains no 1."""
    _check_word(w)
    pos = w.find("1")
    if pos < 0:
        return None
    return pos, w[pos + 1:]


def encode_split(i: int, k: int, p: str) -> str:
    """0^i 1^(k-i) p with 1 <= i <= k; total overhead is exactly k bits."""
    if not 1 <= i <= k:
        raise DomainError(f"split index must satisfy 1 <= i <= k, got i={i}, k={k}")
    _check_word(p)
    return "0" * i + "1" * (k - i) + p


def decode_split(w: str, k: int) -> tuple[int, str] | None:
    """Recover (i, p) from 0^i 1^(k-i) p given k; None when no valid split."""
    _check_word(w)
    if k < 1 or len(w) < k:
        return None
    head = w[:k]
    i = 0
    while i < k and head[i] == "0":
        i += 1
    if i < 1 or any(c != "1" for c in head[i:]):
        return None
    return i, w[k:]


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


def decode_pair(r: str) -> tuple[str, str] | None:
    """Invert encode_pair; None for words outside its range.

    Rejects malformed headers (no terminator, short or non-canonical B,
    split point past the end, branch condition violated) so that
    encode_pair(decode_pair(r)) == r on every accepted r.
    """
    _check_word(r)
    if not r:
        return None
    lead = r[0]
    z = 0
    while z < len(r) and r[z] == lead:
        z += 1
    if z == len(r):
        return None
    b = r[z + 1: z + 1 + z]
    if len(b) < z or not _is_canonical_bin(b):
        return None
    length = int(b, 2)
    body = r[2 * z + 1:]
    if lead == "0":
        p, q = body[:length], body[length:]
        if len(p) < length or len(p) > len(q):
            return None
    else:
        if length > len(body):
            return None
        cut = len(body) - length
        p, q = body[:cut], body[cut:]
        if len(p) <= len(q):
            return None
    return p, q
