"""The permutation oracles of conftest (word statistics, Kronecker and
wreath products) against brute force and permutation matrices, and the
word validation of ``bst.check_word``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterfly_trees.bst import check_word

from conftest import (
    all_words,
    assemble_wreath,
    cycle_count,
    kron,
    lds,
    lds_brute,
    lis,
    lis_brute_all,
    ltr_maxima_len,
    ltr_minima_len,
)


def words_strategy(max_n=12):
    return st.integers(1, max_n).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


def identity(n):
    return tuple(range(1, n + 1))


def pmat(w):
    P = np.zeros((len(w), len(w)))
    for j, x in enumerate(w):
        P[x - 1, j] = 1
    return P


def test_check_word_rejects():
    for bad in [(), (0, 1), (1, 1), (2, 3), (1, 2, 4)]:
        with pytest.raises(ValueError):
            check_word(bad)


def test_kron_examples():
    assert kron((1, 2), (2, 1)) == (2, 1, 4, 3)
    assert kron((2, 1), (1, 2)) == (3, 4, 1, 2)
    assert kron(identity(2), identity(3)) == identity(6)


def test_kron_associative_random():
    import random

    rnd = random.Random(7)
    for _ in range(50):
        a = tuple(rnd.sample(range(1, 4), 3))
        b = tuple(rnd.sample(range(1, 3), 2))
        c = tuple(rnd.sample(range(1, 4), 3))
        assert kron(a, kron(b, c)) == kron(kron(a, b), c)


def test_kron_matches_matrix_kronecker():
    # P_{kron(p, q)} must equal np.kron(P_p, P_q)
    for p in all_words(3):
        for q in all_words(2):
            assert (pmat(kron(p, q)) == np.kron(pmat(p), pmat(q))).all()


def test_assemble_wreath_examples():
    assert assemble_wreath((1, 3, 2), [(2, 1), (1, 2), (2, 1)]) == (2, 1, 6, 5, 3, 4)
    assert assemble_wreath(identity(3), [identity(2)] * 3) == identity(6)
    assert assemble_wreath((2, 1), [(1, 2), (2, 1)]) == (4, 3, 1, 2)


def test_kron_is_wreath_with_identical_blocks():
    for na in range(1, 5):
        for nb in range(1, 5):
            for a in all_words(na):
                for b in all_words(nb):
                    assert kron(a, b) == assemble_wreath(a, [b] * na)


def test_lis_examples():
    assert lis((3, 5, 2, 4, 1, 6)) == 3
    for n in (1, 4, 9):
        assert lis(identity(n)) == n
        assert lds(identity(n)) == 1
    assert lis((2, 1, 4, 3)) == 2
    assert lds((2, 1, 4, 3)) == 2


def test_lis_lds_exhaustive_brute_force():
    # patience-pile LIS against full subsequence enumeration for every word
    for n in range(1, 9):
        words, expected = lis_brute_all(n)
        for row, e in zip(words, expected):
            assert lis(tuple(int(x) for x in row)) == e


def test_lds_matches_reversed_brute():
    for n in range(1, 7):
        for w in all_words(n):
            assert lds(w) == lds_brute(w)


def test_cycle_count_examples():
    assert cycle_count(identity(6)) == 6
    assert cycle_count((2, 1, 4, 3)) == 2
    assert cycle_count((2, 3, 1)) == 1


def test_ltr_examples():
    assert ltr_maxima_len((2, 1, 6, 5, 3, 4)) == 2
    assert ltr_minima_len((2, 1, 6, 5, 3, 4)) == 2
    assert ltr_maxima_len(identity(5)) == 5
    assert ltr_minima_len(identity(5)) == 1
    assert ltr_maxima_len((3, 5, 2, 4, 1, 6)) == 3
    assert ltr_minima_len((3, 5, 2, 4, 1, 6)) == 3


@settings(max_examples=200)
@given(words_strategy())
def test_stat_properties(w):
    w = tuple(w)
    assert lis(w) * lds(w) >= len(w)  # Erdos-Szekeres
    assert 1 <= cycle_count(w) <= len(w)
    assert ltr_maxima_len(w) >= 1 and ltr_minima_len(w) >= 1
