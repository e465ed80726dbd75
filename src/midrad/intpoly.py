"""Exact multiplication of integer-coefficient polynomials.

Polynomials are plain lists of ints (index = power).  ``mul`` uses the
schoolbook product when one factor is short and Kronecker substitution
otherwise: each factor is packed into one big integer, one bignum multiply
does all the work, and the product's coefficients are read back from it.
The threshold is a tuning parameter; correctness does not depend on it.
"""

from __future__ import annotations

__all__ = ["mul", "mul_schoolbook", "mul_kronecker"]

_SCHOOLBOOK_LIMIT = 16


def mul_schoolbook(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return out


def _pack_slots(f: list, nbytes: int) -> int:
    """sum_i f[i] 2^(8 nbytes i), built from the positive and negative parts."""
    zero = bytes(nbytes)
    pos = b"".join(c.to_bytes(nbytes, "little") if c > 0 else zero for c in f)
    neg = b"".join((-c).to_bytes(nbytes, "little") if c < 0 else zero for c in f)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def mul_kronecker(f: list, g: list) -> list:
    """Exact product by one big multiplication of the packed factors.

    Coefficients sit in byte-aligned slots wide enough that every product
    coefficient h satisfies |h| < 2^(slot-1).  Adding 2^(slot-1) to each slot
    of the product makes every slot nonnegative, so the slots are read off
    the bytes and the offset is subtracted back.
    """
    if not f or not g:
        return []
    bits = (max(abs(c).bit_length() for c in f) + max(abs(c).bit_length() for c in g)
            + min(len(f), len(g)).bit_length() + 1)
    nbytes = (bits + 7) // 8
    count = len(f) + len(g) - 1
    h = _pack_slots(f, nbytes) * _pack_slots(g, nbytes)
    half = 1 << (8 * nbytes - 1)
    h += int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")
    buf = memoryview(h.to_bytes(nbytes * count, "little"))
    del h
    return [int.from_bytes(buf[i:i + nbytes], "little") - half
            for i in range(0, nbytes * count, nbytes)]


def mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    if min(len(f), len(g)) <= _SCHOOLBOOK_LIMIT:
        return mul_schoolbook(f, g)
    return mul_kronecker(f, g)
