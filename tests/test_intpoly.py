import decimal
import random
import sys

import pytest

from midrad import intpoly


def kronecker(f, g):
    return intpoly._kronecker(f, g, intpoly._slot_bits(f, g))


def decimal_product(f, g):
    return intpoly._decimal(f, g, intpoly._slot_bits(f, g))


def test_small_example():
    assert intpoly.mul([1, 2], [3, 4]) == [3, 10, 8]


def test_zero_and_empty():
    assert intpoly.mul([1, 2], []) == []
    assert intpoly.mul([], [1]) == []
    assert intpoly.mul([0, 0], [0]) == [0, 0]


@pytest.mark.parametrize("bits", [8, 64, 256])
def test_all_algorithms_agree(bits):
    rng = random.Random(bits)
    for _ in range(300):
        nf, ng = rng.randrange(1, 50), rng.randrange(1, 50)
        f = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(nf)]
        g = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(ng)]
        ref = intpoly.mul_schoolbook(f, g)
        assert kronecker(f, g) == ref
        assert intpoly.mul(f, g) == ref


def test_sparse_and_signed():
    f = [0, -1, 0, 0, 7, 0]
    g = [5, 0, 0, -3]
    ref = intpoly.mul_schoolbook(f, g)
    assert kronecker(f, g) == ref


def test_large_single_coefficients():
    a, b = (1 << 5000) + 12345, -(1 << 4999) - 7
    assert intpoly.mul([a], [b]) == [a * b]


# -- Kronecker products (base 2^8k and base 10^d) against the schoolbook product ------

def _check(f, g):
    ref = intpoly.mul_schoolbook(f, g)
    for mul in (kronecker, decimal_product):
        assert mul(f, g) == ref
        assert mul(g, f) == ref
    assert intpoly.mul(f, g) == ref


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 63, 64, 300])
def test_kronecker_all_negative(bits):
    rng = random.Random(bits)
    for n in (1, 2, 17, 40):
        f = [-rng.randrange(1, 1 << bits) for _ in range(n)]
        g = [-rng.randrange(1, 1 << bits) for _ in range(n + 3)]
        _check(f, g)
        _check(f, [-c for c in g])


@pytest.mark.parametrize("bits", [1, 3, 7, 8, 15, 16, 64, 200])
def test_kronecker_extreme_coefficients(bits):
    # +-(2^b - 1) and -2^b fill the slots; -2^b is one bit wider than 2^b - 1.
    # At b = 3, 7 or 15 with n = 3, and b = 16 or 64 with n = 255, the product
    # coefficients need every bit of their byte-aligned slot.
    top, low = (1 << bits) - 1, -(1 << bits)
    rng = random.Random(bits)
    for n in (1, 2, 3, 5, 17, 64, 128, 255):
        for pool in ((top,), (low,), (-top,), (top, -top, low)):
            f = [rng.choice(pool) for _ in range(n)]
            g = [rng.choice(pool) for _ in range(n + 1)]
            _check(f, g)


def test_kronecker_long_zero_runs():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(17, 200)
        f = [0] * n
        g = [0] * (n // 2 + 1)
        for p in (f, g):
            for _ in range(rng.randrange(0, 4)):
                p[rng.randrange(len(p))] = rng.randrange(-(1 << 90), 1 << 90)
        _check(f, g)
    _check([0] * 50, [0] * 30)
    _check([5] + [0] * 100 + [-7], [0] * 60 + [3])


def test_kronecker_length_one_operands():
    rng = random.Random(4)
    for bits in (1, 30, 500):
        for n in (1, 2, 100):
            f = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
            for c in (0, 1, -1, rng.randrange(-(1 << bits), 1 << bits)):
                _check([c], f)


def test_kronecker_lengths_17_to_300():
    rng = random.Random(5)
    for n in list(range(17, 40)) + [63, 64, 65, 128, 255, 300]:
        bits = rng.choice([2, 53, 130])
        f = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
        g = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(rng.randrange(17, 301))]
        _check(f, g)


def test_kronecker_mixed_coefficient_sizes():
    rng = random.Random(6)
    for _ in range(40):
        nf, ng = rng.randrange(1, 80), rng.randrange(1, 80)
        f = [rng.randrange(-(1 << b), 1 << b) for b in (rng.randrange(1, 400) for _ in range(nf))]
        g = [rng.randrange(-(1 << b), 1 << b) for b in (rng.randrange(1, 20) for _ in range(ng))]
        _check(f, g)


def test_negative_leading_product_coefficient():
    # H < 0: every slot is read from |H| and negated
    _check([5, 7, -3], [2, 1, 4])
    _check([1] * 20 + [-1], [3] * 17 + [-2])


def test_borrow_chains():
    # x^k - 1 and friends: the low slots of |H| read 10^d - 1 (or 2^8k - 1),
    # each one a -1 that borrows from the slot above, up to a run of zeros
    for k in (1, 2, 30, 200):
        _check([-1] + [0] * k + [1], [1])
        _check([-1] + [0] * k + [1], [1] * 20)
        _check([1] + [0] * k + [-1], [-1] * 40)
    _check([-1] * 40, [1] + [0] * 30 + [-1])


@pytest.mark.parametrize("bits", [1, 64, 700])
def test_square_of_one_list(bits):
    rng = random.Random(bits)
    for n in (1, 2, 17, 100):
        f = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
        ref = intpoly.mul_schoolbook(f, list(f))
        for mul in (kronecker, decimal_product, intpoly.mul):
            assert mul(f, f) == ref


def test_slot_digits_bound_the_slot():
    for bits in list(range(1, 200)) + [1000, 3321, 3322, 14280, 10 ** 5]:
        d = intpoly._slot_digits(bits)
        assert 10 ** (d - 1) >= 1 << bits > 10 ** (d - 3)


def test_decimal_size_rule():
    assert not intpoly._decimal_pays(117, 1000, 1000)     # unit-range blocks: 234 kbit
    assert intpoly._decimal_pays(3600, 1000, 1000)        # the figure-regime square
    assert not intpoly._decimal_pays(3600, 17, 17)
    top = max(b for b in range(20000) if intpoly._slot_digits(b) <= 4300)
    assert intpoly._decimal_pays(top, 100, 100)
    assert not intpoly._decimal_pays(top + 1, 100, 100)   # d > 4300 digits
    assert not intpoly._decimal_pays(40005, 16, 16)


def test_mul_dispatches_by_size(monkeypatch):
    rng = random.Random(7)
    taken = []
    for name in ("_kronecker", "_decimal"):
        fn = getattr(intpoly, name)
        monkeypatch.setattr(intpoly, name,
                            lambda f, g, bits, fn=fn, name=name: taken.append(name) or fn(f, g, bits))
    for n, bits in ((300, 60), (600, 400)):
        f = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
        g = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
        assert intpoly.mul(f, g) == intpoly.mul_schoolbook(f, g)
    assert taken == ["_kronecker", "_decimal"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str digit limit")
def test_decimal_path_under_the_default_str_digit_limit():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        rng = random.Random(8)
        f = [rng.randrange(-(1 << 7000), 1 << 7000) for _ in range(40)]
        g = [rng.randrange(-(1 << 7000), 1 << 7000) for _ in range(40)]
        assert intpoly._decimal_pays(intpoly._slot_bits(f, g), 40, 40)
        assert decimal_product(f, g) == intpoly.mul_schoolbook(f, g)
        assert intpoly.mul(f, g) == intpoly.mul_schoolbook(f, g)
    finally:
        sys.set_int_max_str_digits(old)


def test_decimal_path_ignores_the_thread_context():
    # H has far more digits than any usual context precision: abs(H) or +H
    # would round it to the context (28 digits by default), so the product
    # must not touch the thread's context, nor leave a flag or setting in it
    rng = random.Random(9)
    f = [rng.randrange(-(1 << 300), 1 << 300) for _ in range(50)]
    g = [rng.randrange(-(1 << 300), 1 << 300) for _ in range(60)]
    ref = intpoly.mul_schoolbook(f, g)
    ctx = decimal.getcontext()
    before = (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
    assert decimal_product(f, g) == ref
    assert decimal.getcontext() is ctx
    assert (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)) == before
    with decimal.localcontext() as low:
        low.prec = 5
        low.traps[decimal.Inexact] = low.traps[decimal.Rounded] = False
        assert decimal_product(f, g) == ref
        assert not low.flags[decimal.Inexact]
    with pytest.raises((decimal.Inexact, decimal.Rounded)):  # rounding raises
        intpoly._EXACT.quantize(decimal.Decimal("1.5"), decimal.Decimal(1))
