import itertools
from collections import Counter

import numpy as np
import pytest

from butterfly_trees.bst import batch_summaries, summary
from butterfly_trees.butterfly import (
    ButterflyShape,
    all_nonsimple_words,
    all_simple_words,
    build_nonsimple,
    build_simple,
    class_indices,
    enumerate_nonsimple,
    enumerate_simple,
    is_nonsimple_butterfly,
    is_simple_butterfly,
    stats_from_shape_bits,
    stats_recursion_nonsimple,
    stats_recursion_simple,
    words_from_shape_bits,
)
from butterfly_trees.perms import compose, cycle_count, identity, lds, lis
from butterfly_trees.sampling import RngState, uniform_words
from conftest import all_words, sliced_is_nonsimple, sliced_is_simple, tuple_nonsimple_word

FIG6C_WORD = (9, 10, 11, 12, 13, 14, 15, 16, 6, 5, 8, 7, 2, 1, 4, 3)


def test_build_simple_examples():
    assert build_simple((1, 0, 0)) == (2, 1, 4, 3, 6, 5, 8, 7)
    assert build_simple((1, 0, 1)) == (6, 5, 8, 7, 2, 1, 4, 3)
    for n in (1, 3, 5):
        assert build_simple((0,) * n) == identity(1 << n)
    with pytest.raises(ValueError):
        build_simple(())


def test_build_nonsimple_examples():
    assert build_nonsimple(ButterflyShape.from_string("101")) == (3, 4, 2, 1)
    assert summary((3, 4, 2, 1)).h == 2
    assert (summary((3, 4, 2, 1)).l, summary((3, 4, 2, 1)).r) == (2, 1)
    assert build_nonsimple(ButterflyShape.from_string("100")) == (3, 4, 1, 2)
    for n in (1, 2, 3):
        assert build_nonsimple(ButterflyShape(n, (0,) * ((1 << n) - 1))) == identity(1 << n)


def test_shape_validation_and_serialization():
    s = ButterflyShape.from_string("101")
    assert s.depth == 2 and s.bits == (1, 0, 1)
    assert s.to_string() == "101"
    assert ButterflyShape.from_index(2, int("101", 2)) == s
    with pytest.raises(ValueError):
        ButterflyShape.from_string("10")
    with pytest.raises(ValueError):
        ButterflyShape.from_string("1x1")
    with pytest.raises(ValueError):
        ButterflyShape(2, (1, 0))


def test_membership_examples():
    assert is_simple_butterfly((2, 1, 4, 3, 6, 5, 8, 7))
    assert is_nonsimple_butterfly((2, 1, 4, 3, 6, 5, 8, 7))
    assert is_nonsimple_butterfly(FIG6C_WORD)
    assert not is_simple_butterfly(FIG6C_WORD)
    assert not is_simple_butterfly((3, 5, 2, 4, 1, 6))
    assert not is_nonsimple_butterfly((3, 5, 2, 4, 1, 6))
    assert not is_simple_butterfly((1, 3, 2, 4))
    assert not is_nonsimple_butterfly((1, 3, 2, 4))


def test_enumerate_simple():
    words = list(enumerate_simple(2))
    assert sorted(words) == [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    for n in range(1, 7):
        words = list(enumerate_simple(n))
        assert len(words) == len(set(words)) == 1 << n
        assert all(is_simple_butterfly(w) for w in words)


def test_enumerate_nonsimple():
    words = list(enumerate_nonsimple(2))
    assert len(words) == 8
    assert set(words) == {
        (1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3),
        (3, 4, 1, 2), (3, 4, 2, 1), (4, 3, 1, 2), (4, 3, 2, 1),
    }
    for n in range(1, 4):
        words = list(enumerate_nonsimple(n))
        assert len(words) == len(set(words)) == 1 << ((1 << n) - 1)
        assert all(is_nonsimple_butterfly(w) for w in words)


def test_enumerate_nonsimple_cap():
    with pytest.raises(ValueError):
        enumerate_nonsimple(5)
    first = next(iter(enumerate_nonsimple(5, cap=5)))
    assert first == identity(32)


def test_simple_group_is_kron_closure():
    # the enumeration equals all iterated two-block Kronecker products
    folds = set()
    for bits in itertools.product((0, 1), repeat=3):
        folds.add(build_simple(bits))
    assert folds == set(enumerate_simple(3))


def test_stats_recursion_simple_examples():
    assert stats_recursion_simple((1, 0, 0)) == (4, 1, 3)
    for n in (1, 2, 5):
        assert stats_recursion_simple((0,) * n) == ((1 << n) - 1, 0, (1 << n) - 1)
    assert stats_recursion_simple((1,)) == (1, 1, 0)


def test_stats_recursion_simple_matches_summaries_exhaustively():
    # all 2^n simple butterflies up to n = 10, trees built for real
    for n in range(1, 11):
        W = all_simple_words(n)
        h, l, r = batch_summaries(W)
        for i in range(1 << n):
            bits = tuple((i >> j) & 1 for j in range(n))
            assert stats_recursion_simple(bits) == (h[i], l[i], r[i])


def test_height_splits_into_edges_simple():
    for n in range(1, 11):
        h, l, r = batch_summaries(all_simple_words(n))
        assert (h == l + r).all()


def test_lis_lds_orientation_simple():
    # increasing runs follow the right edge, decreasing runs the left edge
    for n in range(1, 9):
        for i, w in enumerate(enumerate_simple(n)):
            s = summary(w)
            li, ld = lis(w), lds(w)
            assert li == s.r + 1
            assert ld == s.l + 1
            assert {li, ld} == {s.l + 1, s.r + 1}
            assert li * ld == 1 << n


def test_stats_recursion_nonsimple_examples():
    assert stats_recursion_nonsimple(ButterflyShape.from_string("101")) == (2, 2, 1)
    for n in (1, 2, 3):
        shape = ButterflyShape(n, (0,) * ((1 << n) - 1))
        assert stats_recursion_nonsimple(shape) == ((1 << n) - 1, 0, (1 << n) - 1)


def test_stats_recursion_nonsimple_matches_summaries():
    for n in range(1, 4):
        T = (1 << n) - 1
        for i in range(1 << T):
            shape = ButterflyShape.from_index(n, i)
            w = build_nonsimple(shape)
            s = summary(w)
            assert stats_recursion_nonsimple(shape) == (s.h, s.l, s.r)


def test_stats_from_shape_bits_matches_built_trees():
    # the trees built by insertion stay the oracle of the shape recursion
    g = np.random.default_rng(2024)
    for n in range(1, 11):
        T = (1 << n) - 1
        bits = np.vstack([np.zeros((1, T), dtype=np.int64), np.ones((1, T), dtype=np.int64), g.integers(0, 2, size=(20, T))])
        h, l, r = stats_from_shape_bits(n, bits)
        for t, row in enumerate(bits):
            s = summary(build_nonsimple(ButterflyShape(n, tuple(int(b) for b in row))))
            assert (h[t], l[t], r[t]) == (s.h, s.l, s.r)
    with pytest.raises(ValueError):
        stats_from_shape_bits(3, np.zeros((2, 6), dtype=np.int64))
    with pytest.raises(ValueError):
        stats_from_shape_bits(0, np.zeros((2, 0), dtype=np.int64))


def test_cycles_match_right_edge_in_distribution():
    # the per-element identity fails (e.g. 3421), but the laws coincide exactly
    for n in range(1, 5):
        words = all_nonsimple_words(n)
        _, _, r = batch_summaries(words)
        cyc = Counter(cycle_count(tuple(int(x) for x in row)) for row in words)
        assert cyc == Counter((r + 1).tolist())
    w = (3, 4, 2, 1)
    assert cycle_count(w) == 1 and summary(w).r + 1 == 2


def test_cycles_pointwise_composition_rule():
    # one wreath step: low-first keeps both blocks' cycles; swapped blocks
    # interleave, so the composite's cycles are those of the half product
    for n in range(2, 5):
        M = 1 << (n - 1)
        Tc = (1 << (n - 1)) - 1
        halves = [build_nonsimple(ButterflyShape.from_index(n - 1, i)) for i in range(1 << Tc)]
        for w1 in halves:
            c1 = cycle_count(w1)
            for w2 in halves:
                low_first = w1 + tuple(x + M for x in w2)
                high_first = tuple(x + M for x in w1) + w2
                assert cycle_count(low_first) == c1 + cycle_count(w2)
                assert cycle_count(high_first) == cycle_count(compose(w2, w1))


def test_batch_builders_match_scalar():
    for n in range(1, 4):
        Ws = all_simple_words(n)
        for i in range(1 << n):
            assert tuple(int(x) for x in Ws[i]) == build_simple(tuple((i >> j) & 1 for j in range(n)))
        Wn = all_nonsimple_words(n)
        T = (1 << n) - 1
        for i in range(1 << T):
            assert tuple(int(x) for x in Wn[i]) == build_nonsimple(ButterflyShape.from_index(n, i))


def test_words_from_shape_bits_single_rows():
    g = np.random.default_rng(11)
    for n in (2, 3, 4):
        bits = g.integers(0, 2, size=(20, (1 << n) - 1))
        W = words_from_shape_bits(n, bits)
        for t in range(20):
            shape = ButterflyShape(n, tuple(int(b) for b in bits[t]))
            assert tuple(int(x) for x in W[t]) == build_nonsimple(shape)


def test_uniform_words_rarely_butterfly():
    # |B_3| / 8! = 128/40320, so uniform S_8 words almost never pass
    W = uniform_words(8, 4000, RngState(2024))
    passes = int((class_indices(W, "nonsimple") >= 0).sum())
    assert passes <= 30


def test_words_match_tuple_recursion():
    # every shape up to n = 4, through each builder, then random shapes up to n = 10
    for n in range(1, 5):
        T = (1 << n) - 1
        oracle = [tuple_nonsimple_word(ButterflyShape.from_index(n, i).bits, n) for i in range(1 << T)]
        assert [tuple(row) for row in all_nonsimple_words(n).tolist()] == oracle
        assert list(enumerate_nonsimple(n)) == oracle
        some = range(0, 1 << T, 97 if n == 4 else 1)
        assert [build_nonsimple(ButterflyShape.from_index(n, i)) for i in some] == [oracle[i] for i in some]
    g = np.random.default_rng(5)
    for n in range(5, 11):
        bits = g.integers(0, 2, size=(25, (1 << n) - 1))
        W = words_from_shape_bits(n, bits)
        assert [tuple(row) for row in W.tolist()] == [tuple_nonsimple_word(row, n) for row in bits.tolist()]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8])
def test_membership_matches_sliced_oracle(N):
    # all of S_N; lengths that are not powers of two hold no butterfly
    words = list(all_words(N))
    simple, nonsimple = (class_indices(np.array(words), f) for f in ("simple", "nonsimple"))
    for t, (w, si, ns) in enumerate(zip(words, simple.tolist(), nonsimple.tolist())):
        assert (si >= 0) == sliced_is_simple(w) and (ns >= 0) == sliced_is_nonsimple(w)
        if ns >= 0 or t % 61 == 0:  # the scalar tests on every member and a spread of the rest
            assert is_simple_butterfly(w) == (si >= 0) and is_nonsimple_butterfly(w) == (ns >= 0)
    n = N.bit_length() - 1
    if N == 1 << n and n >= 1:
        members = {w: i for i, w in enumerate(enumerate_nonsimple(n))}
        assert nonsimple.tolist() == [members.get(w, -1) for w in words]
        members = {w: i for i, w in enumerate(enumerate_simple(n))}
        assert simple.tolist() == [members.get(w, -1) for w in words]


def test_class_indices_invert_builders():
    for n in range(1, 5):
        assert class_indices(all_nonsimple_words(n), "nonsimple").tolist() == list(range(1 << ((1 << n) - 1)))
    for n in range(1, 11):
        assert class_indices(all_simple_words(n), "simple").tolist() == list(range(1 << n))
    # past 2^n - 1 = 63 shape bits the indices are Python ints
    g = np.random.default_rng(8)
    for n in range(5, 11):
        bits = g.integers(0, 2, size=(10, (1 << n) - 1))
        expected = [int("".join(map(str, row)), 2) for row in bits.tolist()]
        assert class_indices(words_from_shape_bits(n, bits), "nonsimple").tolist() == expected
    # every row of {1..4}^4, repeated values included: only the members get an index
    rows = [tuple(r) for r in itertools.product(range(1, 5), repeat=4)]
    for family, members in (("simple", list(enumerate_simple(2))), ("nonsimple", list(enumerate_nonsimple(2)))):
        expected = [members.index(w) if w in members else -1 for w in rows]
        assert class_indices(np.array(rows), family).tolist() == expected
    assert class_indices(np.array([[1, 2, 3, 5]]), "nonsimple").tolist() == [-1]
    assert class_indices(np.array([[0, 1, 2, 3]]), "simple").tolist() == [-1]
    with pytest.raises(ValueError):
        class_indices(np.array([[1, 2]]), "other")


@pytest.mark.parametrize(
    "n,bits",
    [(2, [[2, 0, 0]]), (2, [[-1, 0, 0]]), (2, [[0, 0, 0.5]]), (2, [0, 0, 0]), (2, [[[0, 0, 0]]]), (2, [[0, 0]]), (0, np.zeros((1, 0)))],
    ids=["two", "minus-one", "half", "1-d", "3-d", "width", "n-0"],
)
def test_shape_bits_reject_bad_input(n, bits):
    with pytest.raises(ValueError):
        words_from_shape_bits(n, np.array(bits))
    with pytest.raises(ValueError):
        stats_from_shape_bits(n, np.array(bits))
