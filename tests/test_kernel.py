"""Polynomial kernel: normalization and algebraic identities on random input."""

import random

import jetvar._poly as K


def random_poly(rng, n_atoms=5, n_terms=6):
    p = {}
    for _ in range(n_terms):
        mono = tuple(sorted((a, rng.randint(1, 3))
                            for a in rng.sample(range(n_atoms), rng.randint(0, 3))))
        num = rng.choice([-9, -5, -2, -1, 1, 2, 5, 9])
        p = K.poly_add(p, {mono: K.rat(num, rng.randint(1, 9))})
    return p


def test_rat_normalization():
    assert K.rat(2, -4) == (-1, 2)
    assert K.rat(0, 7) == (0, 1)


def test_pow_sub_and_support_identities():
    rng = random.Random(5)
    for _ in range(60):
        a = random_poly(rng)
        b = random_poly(rng)
        assert K.poly_pow(a, 3) == K.poly_mul(K.poly_mul(a, a), a)
        assert K.poly_sub(K.poly_add(a, b), b) == a
        assert K.poly_support(K.poly_mul(a, b)) <= K.poly_support(a) | K.poly_support(b)


def test_mul_then_diff_is_leibniz_at_kernel_level():
    rng = random.Random(9)
    for _ in range(20):
        a = random_poly(rng)
        b = random_poly(rng)
        prod = K.poly_mul(a, b)
        for aid in range(5):
            lhs = K.poly_diff(prod, aid)
            rhs = K.poly_add(K.poly_mul(K.poly_diff(a, aid), b),
                             K.poly_mul(a, K.poly_diff(b, aid)))
            assert lhs == rhs
