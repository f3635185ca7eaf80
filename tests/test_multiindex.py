import itertools

import pytest

from jetvar import multiindex as mi


def brute_force_count(J):
    return len(set(itertools.permutations(J)))


def test_empty_index_counts_one():
    assert mi.count(()) == 1


@pytest.mark.parametrize("J,expected", [((1, 1), 1), ((1, 2), 2), ((1, 1, 2), 3)])
def test_count_examples(J, expected):
    assert mi.count(J) == expected


def test_count_matches_permutation_enumeration():
    for n in range(1, 5):
        for k in range(7):
            for J in mi.tuples(n, k):
                assert mi.count(J) == brute_force_count(J)


def test_merge_stays_canonical():
    assert mi.merge((1, 3), 2) == (1, 2, 3)
    assert mi.merge((), 2, 1) == (1, 2)


def test_parent_pairs_weights_sum_to_count():
    for J in mi.tuples(3, 4):
        assert sum(mi.count(P) for P, _ in mi.parent_pairs(J)) == mi.count(J)

