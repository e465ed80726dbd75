"""Exact multiplication of integer-coefficient polynomials.

Polynomials are plain lists of ints (index = power).  ``mul`` picks one of
three exact products by size; correctness does not depend on the choice.

- A factor with at most ``_SCHOOLBOOK_LIMIT`` coefficients: the schoolbook
  product.
- Otherwise Kronecker substitution: each factor is packed into one big
  integer with one coefficient per slot, one bignum multiply does all the
  work, and the product's coefficients are read back from its slots.
- When the packed size, slot bits times the total length, is above
  ``_DECIMAL_MIN_BITS``, the slots are base 10^d instead of base 2^8k and
  the one multiply is a ``decimal`` one.  libmpdec multiplies big operands
  with a number-theoretic transform, where CPython's int multiply is
  Karatsuba only; the crossover was measured on random signed input.  Slots
  wider than ``_DECIMAL_MAX_DIGITS`` stay on the int path, where the
  quadratic ``str``/``int`` conversion of each coefficient costs more than
  the transform saves.

Slots are wide enough that every product coefficient h satisfies
|h| < 2^(slot-1) (base 2^8k) or |h| < 10^(d-1) <= 10^d / 2 (base 10^d).  So
the packed product sum h_k B^k has one balanced digit per slot, which is
read back from the ordinary digits with a signed borrow: a digit r at least
B/2 stands for r - B and takes 1 from the slot above.
"""

from __future__ import annotations

import decimal

__all__ = ["mul", "mul_schoolbook"]

_SCHOOLBOOK_LIMIT = 16
# packed bits above which the decimal multiply wins: on random signed input,
# single runs went either way between 300 and 410 kbit, and the decimal one
# was 1.2-1.35x faster at 420-470 kbit and 1.7-3.4x at 0.8-2 Mbit (CPython
# 3.11, libmpdec 2.5.1, one x86-64 core)
_DECIMAL_MIN_BITS = 400_000
# digits per slot above which the int path wins again: 16 coefficients of
# 20,000 bits (12,044-digit slots) ran at 0.63-0.77x as decimals; 4300 is
# also Python's default int_max_str_digits
_DECIMAL_MAX_DIGITS = 4300
# exact integer arithmetic: any rounding raises instead of giving a wrong int
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Rounded])


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


def _slot_bits(f: list, g: list) -> int:
    """Bits that bound every product coefficient: |h| < 2^(slot bits - 1)."""
    bf = max(abs(c).bit_length() for c in f)
    bg = bf if g is f else max(abs(c).bit_length() for c in g)
    return bf + bg + min(len(f), len(g)).bit_length() + 1


def _pack_slots(f: list, nbytes: int) -> int:
    """sum_i f[i] 2^(8 nbytes i), built from the positive and negative parts."""
    zero = bytes(nbytes)
    pos = b"".join(c.to_bytes(nbytes, "little") if c > 0 else zero for c in f)
    neg = b"".join((-c).to_bytes(nbytes, "little") if c < 0 else zero for c in f)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker(f: list, g: list, bits: int) -> list:
    """Exact product of nonempty f and g by one big multiplication of the
    packed factors, for slot bits with |h| < 2^(bits-1) for every product
    coefficient h (``_slot_bits``).

    Coefficients sit in byte-aligned slots of at least that many bits.
    Adding 2^(slot-1) to each slot of the product makes every slot
    nonnegative, so the slots are read off the bytes and the offset is
    subtracted back.  ``f is g`` packs once and squares.
    """
    nbytes = (bits + 7) // 8
    count = len(f) + len(g) - 1
    a = _pack_slots(f, nbytes)
    h = a * (a if g is f else _pack_slots(g, nbytes))
    del a
    half = 1 << (8 * nbytes - 1)
    h += int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")
    buf = memoryview(h.to_bytes(nbytes * count, "little"))
    del h
    return [int.from_bytes(buf[i:i + nbytes], "little") - half
            for i in range(0, nbytes * count, nbytes)]


def _slot_digits(bits: int) -> int:
    """A d with 10^(d-1) >= 2^bits (0.30103 > log10 2), at most one above the least."""
    return bits * 30103 // 100000 + 2


def _decimal_pays(bits: int, nf: int, ng: int) -> bool:
    """Whether mul takes the decimal path for slots of the given bits."""
    return bits * (nf + ng) > _DECIMAL_MIN_BITS and _slot_digits(bits) <= _DECIMAL_MAX_DIGITS


def _pack_decimal(f: list, d: int) -> decimal.Decimal:
    """sum_i f[i] 10^(d i); each coefficient is converted on its own, because
    Decimal(int) is quadratic in the size of the int."""
    zero = "0" * d
    x = _EXACT.create_decimal("".join(str(c).zfill(d) if c > 0 else zero for c in reversed(f)))
    if any(c < 0 for c in f):
        x = _EXACT.subtract(x, _EXACT.create_decimal(
            "".join(str(-c).zfill(d) if c < 0 else zero for c in reversed(f))))
    return x


def _decimal(f: list, g: list, bits: int) -> list:
    """Exact product of nonempty f and g by one decimal multiplication of
    factors packed into base-10^d slots with 10^(d-1) >= 2^bits, for the
    slot bits of ``_kronecker``; ``f is g`` squares.

    The digits of |H| are read from str(H) past its sign (abs(H) would
    round to the thread's context), low slot first, each slot taking back
    the borrow of the slot below; every slot is negated when H < 0.  Slots
    of more than int_max_str_digits digits raise ValueError.
    """
    d = _slot_digits(bits)
    count = len(f) + len(g) - 1
    a = _pack_decimal(f, d)
    h = _EXACT.multiply(a, a if g is f else _pack_decimal(g, d))
    del a
    s = str(h)
    del h
    sign = 1 if s[0] == "-" else 0
    base, half = 10 ** d, 10 ** d // 2
    out = []
    borrow = 0
    end = len(s)
    for _ in range(count):
        start = max(end - d, sign)
        r = (int(s[start:end]) if start < end else 0) + borrow
        end = start
        borrow = r >= half
        out.append(r - base if borrow else r)
    return [-v for v in out] if sign else out


def mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    if min(len(f), len(g)) <= _SCHOOLBOOK_LIMIT:
        return mul_schoolbook(f, g)
    bits = _slot_bits(f, g)
    if _decimal_pays(bits, len(f), len(g)):
        return _decimal(f, g, bits)
    return _kronecker(f, g, bits)
