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


def test_add_into_appends_new_monomials_and_deletes_cancelled_ones():
    x, y, z = ((0, 1),), ((1, 1),), ((2, 1),)
    acc = {x: (1, 1), y: (2, 1)}
    b = {z: (3, 1), y: (-2, 1), x: (1, 2)}
    b_before = dict(b)
    assert K.poly_add_into(acc, b) is acc
    assert list(acc.items()) == [(x, (3, 2)), (z, (3, 1))]  # y cancelled, z appended
    assert list(b.items()) == list(b_before.items())
    K.poly_add_into(acc, {y: (5, 1)})
    assert list(acc) == [x, z, y]  # hit again, y goes last
    assert K.poly_add_into(acc, {z: (3, 1), x: (1, 1)}, negate=True) is acc
    assert list(acc.items()) == [(x, (1, 2)), (y, (5, 1))]


def test_add_and_sub_leave_their_inputs_unchanged():
    rng = random.Random(11)
    for _ in range(20):
        a = random_poly(rng)
        b = random_poly(rng)
        a_items, b_items = list(a.items()), list(b.items())
        total, diff = K.poly_add(a, b), K.poly_sub(a, b)
        assert list(a.items()) == a_items and list(b.items()) == b_items
        assert total is not a and diff is not a
        assert K.poly_add_into(dict(diff), b) == a
        assert K.poly_sub(total, a) == b
