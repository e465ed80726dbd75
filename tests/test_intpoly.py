import random

import pytest

from midrad import intpoly


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
        assert intpoly.mul_kronecker(f, g) == ref
        assert intpoly.mul(f, g) == ref


def test_sparse_and_signed():
    f = [0, -1, 0, 0, 7, 0]
    g = [5, 0, 0, -3]
    ref = intpoly.mul_schoolbook(f, g)
    assert intpoly.mul_kronecker(f, g) == ref


def test_large_single_coefficients():
    a, b = (1 << 5000) + 12345, -(1 << 4999) - 7
    assert intpoly.mul([a], [b]) == [a * b]


# -- Kronecker product against the schoolbook product -------------------------------

def _check(f, g):
    ref = intpoly.mul_schoolbook(f, g)
    assert intpoly.mul_kronecker(f, g) == ref
    assert intpoly.mul_kronecker(g, f) == ref
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
