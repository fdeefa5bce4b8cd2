import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from butterfly_trees import butterfly
from butterfly_trees.bst import summary
from butterfly_trees.butterfly import class_indices, simple_stats, stats_from_subtrees
from butterfly_trees.sampling import RngState
from conftest import (
    all_nonsimple_words,
    all_simple_words,
    all_words,
    batch_summaries,
    cycle_count,
    kron,
    lds,
    lis,
    simple_trees,
    sliced_is_nonsimple,
    sliced_is_simple,
    stats_recursion_simple,
    subtree_shape_bits,
    tuple_nonsimple_word,
    uniform_words,
    words_from_shape_bits,
)

FIG6C_WORD = (9, 10, 11, 12, 13, 14, 15, 16, 6, 5, 8, 7, 2, 1, 4, 3)


def rows(words):
    return [tuple(row) for row in words.tolist()]


def shape_bits(n, index):
    """Level-ordered shape bits of shape number ``index``, root most significant."""
    T = (1 << n) - 1
    return [[(index >> (T - 1 - q)) & 1 for q in range(T)]]


def test_build_simple_examples():
    assert rows(all_simple_words(3))[0b001] == (2, 1, 4, 3, 6, 5, 8, 7)
    assert rows(all_simple_words(3))[0b101] == (6, 5, 8, 7, 2, 1, 4, 3)
    for n in (1, 3, 5):
        assert rows(all_simple_words(n))[0] == tuple(range(1, (1 << n) + 1))
    with pytest.raises(ValueError):
        all_simple_words(0)


def test_build_nonsimple_examples():
    assert rows(words_from_shape_bits(2, [[1, 0, 1]])) == [(3, 4, 2, 1)]
    assert summary((3, 4, 2, 1)).h == 2
    assert (summary((3, 4, 2, 1)).l, summary((3, 4, 2, 1)).r) == (2, 1)
    assert rows(words_from_shape_bits(2, [[1, 0, 0]])) == [(3, 4, 1, 2)]
    for n in (1, 2, 3):
        assert rows(words_from_shape_bits(n, np.zeros((1, (1 << n) - 1), dtype=np.int64))) == [tuple(range(1, (1 << n) + 1))]


def test_membership_examples():
    words = np.array([(2, 1, 4, 3, 6, 5, 8, 7)])
    assert class_indices(words, "simple") >= 0 and class_indices(words, "nonsimple") >= 0
    assert class_indices(np.array([FIG6C_WORD]), "nonsimple") >= 0
    assert class_indices(np.array([FIG6C_WORD]), "simple") < 0
    for w in ((3, 5, 2, 4, 1, 6), (1, 3, 2, 4)):
        assert class_indices(np.array([w]), "simple") < 0 and class_indices(np.array([w]), "nonsimple") < 0


def test_enumerate_simple():
    assert sorted(rows(all_simple_words(2))) == [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    for n in range(1, 7):
        words = all_simple_words(n)
        assert len(set(rows(words))) == 1 << n
        assert (class_indices(words, "simple") >= 0).all()


def test_enumerate_nonsimple():
    assert set(rows(all_nonsimple_words(2))) == {
        (1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3),
        (3, 4, 1, 2), (3, 4, 2, 1), (4, 3, 1, 2), (4, 3, 2, 1),
    }
    for n in range(1, 4):
        words = all_nonsimple_words(n)
        assert len(set(rows(words))) == 1 << ((1 << n) - 1)
        assert (class_indices(words, "nonsimple") >= 0).all()


def test_enumerate_nonsimple_cap():
    for n in (0, 5):
        with pytest.raises(ValueError):
            all_nonsimple_words(n)


def test_simple_group_is_kron_closure():
    # the enumeration equals all iterated two-block Kronecker products
    folds = {kron(a, kron(b, c)) for a, b, c in itertools.product([(1, 2), (2, 1)], repeat=3)}
    assert folds == set(rows(all_simple_words(3)))


def test_stats_recursion_simple_examples():
    assert stats_recursion_simple((1, 0, 0)) == (4, 1, 3)
    for n in (1, 2, 5):
        assert stats_recursion_simple((0,) * n) == ((1 << n) - 1, 0, (1 << n) - 1)
    assert stats_recursion_simple((1,)) == (1, 1, 0)


def test_stats_recursion_simple_matches_summaries_exhaustively():
    # all 2^n simple butterflies up to n = 10, trees built for real
    for n in range(1, 11):
        h, l, r = simple_trees(n)
        for i in range(1 << n):
            bits = tuple((i >> j) & 1 for j in range(n))
            assert stats_recursion_simple(bits) == (h[i], l[i], r[i])


def test_height_splits_into_edges_simple():
    for n in range(1, 11):
        h, l, r = simple_trees(n)
        assert (h == l + r).all()


def test_lis_lds_orientation_simple():
    # increasing runs follow the right edge, decreasing runs the left edge
    for n in range(1, 9):
        for w in rows(all_simple_words(n)):
            s = summary(w)
            li, ld = lis(w), lds(w)
            assert li == s.r + 1
            assert ld == s.l + 1
            assert {li, ld} == {s.l + 1, s.r + 1}
            assert li * ld == 1 << n


def test_stats_recursion_nonsimple_examples():
    # n <= 4 has no top bits: one subtree index per tree, the shape's bits read as a number
    assert [a.tolist() for a in stats_from_subtrees(2, np.zeros((1, 0), dtype=np.int64), np.array([[0b101]]))] == [[2], [2], [1]]
    for n in (1, 2, 3):
        hlr = stats_from_subtrees(n, np.zeros((1, 0), dtype=np.int64), np.zeros((1, 1), dtype=np.int64))
        assert [a.tolist() for a in hlr] == [[(1 << n) - 1], [0], [(1 << n) - 1]]


def test_stats_recursion_nonsimple_matches_summaries():
    for n in range(1, 4):
        T = (1 << n) - 1
        h, l, r = stats_from_subtrees(n, np.zeros((1 << T, 0), dtype=np.int64), np.arange(1 << T)[:, None])
        for i, w in enumerate(rows(all_nonsimple_words(n))):
            s = summary(w)
            assert (h[i], l[i], r[i]) == (s.h, s.l, s.r)


def test_stats_from_shape_bits_matches_built_trees():
    # the trees built by insertion stay the oracle of the shape recursion, their words
    # those of the top bits and subtree indices spelled out as shape bits: n <= 4 is read
    # whole from the 4-level table, n = 5 combines one level above it, and n = 14
    # combines ten levels of bit-reversed rows
    g = np.random.default_rng(2024)
    for n in range(1, 15):
        k = min(n, butterfly.TABLE_LEVELS)
        tops, subtrees = (1 << (n - k)) - 1, 1 << (n - k)
        last = (1 << ((1 << k) - 1)) - 1  # the index of the all-one k-level shape
        top = np.vstack([np.zeros((1, tops), dtype=np.int64), np.ones((1, tops), dtype=np.int64), g.integers(0, 2, size=(20, tops))])
        index = np.vstack([np.zeros((1, subtrees), dtype=np.int64), np.full((1, subtrees), last), g.integers(0, last + 1, size=(20, subtrees))])
        h, l, r = stats_from_subtrees(n, top, index)
        for t, row in enumerate(subtree_shape_bits(n, top, index).tolist()):
            s = summary(tuple_nonsimple_word(row, n))
            assert (h[t], l[t], r[t]) == (s.h, s.l, s.r)


@pytest.mark.parametrize("n", [16, 23])
def test_stats_from_shape_bits_of_constant_shapes_past_16_bits(n):
    # all-zero bits make one right-going path of 2^n - 1 edges, all-one bits a left-going one:
    # heights past 2^16 through the int32 levels, out as int64, in a bounded peak
    N, k = 1 << n, butterfly.TABLE_LEVELS
    for bit, expected in ((0, (N - 1, 0, N - 1)), (1, (N - 1, N - 1, 0))):
        top = np.full((1, (1 << (n - k)) - 1), bit, dtype=np.int8)
        index = np.full((1, 1 << (n - k)), bit * ((1 << ((1 << k) - 1)) - 1))
        tracemalloc.start()
        try:
            hlr = stats_from_subtrees(n, top, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        assert all(a.dtype == np.int64 for a in hlr)
        assert tuple(int(a[0]) for a in hlr) == expected


def test_stats_from_subtrees_leaves_its_inputs_unchanged():
    g = np.random.default_rng(7)
    for n in (3, 4, 5, 9):
        k = min(n, butterfly.TABLE_LEVELS)
        top = g.integers(0, 2, size=(6, (1 << (n - k)) - 1))
        index = g.integers(0, 1 << ((1 << k) - 1), size=(6, 1 << (n - k)))
        kept = top.copy(), index.copy()
        butterfly.stats_from_subtrees(n, top, index)
        np.testing.assert_array_equal(top, kept[0])
        np.testing.assert_array_equal(index, kept[1])


def test_subtree_tables_are_read_only():
    # every caller shares the cached tables, one int32 code array each
    stats_from_subtrees(4, np.zeros((1, 0), dtype=np.int64), np.zeros((1, 1), dtype=np.int64))
    for k in range(5):
        table = butterfly._subtree_table(k)
        assert table.dtype == np.int32 and table.shape == (1 << ((1 << k) - 1),)
        with pytest.raises(ValueError):
            table[0] = 1


def test_subtree_table_rows_are_class_indices():
    # entry i of the k-level table is h | l << 8 | r << 16 of the tree of the word of class index i
    assert butterfly._subtree_table(0).tolist() == [0]
    for k in range(1, 5):
        code = butterfly._subtree_table(k)
        for a, b in zip((code & 0xFF, code >> 8 & 0xFF, code >> 16), batch_summaries(all_nonsimple_words(k))):
            np.testing.assert_array_equal(a, b)


def test_simple_words_are_level_constant_shapes():
    # simple word m is the nonsimple word with bit n - d - 1 of m at every depth-d node,
    # which is why simple_stats combines each level's tree with itself
    for n in range(1, 11):
        levels = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        bits = np.repeat(levels, 1 << np.arange(n), axis=1)
        assert np.array_equal(words_from_shape_bits(n, bits), all_simple_words(n))


def test_simple_stats_are_the_trees_of_the_simple_words():
    # table1 reads its heights from simple_stats; the trees built by insertion are its oracle
    for n in range(1, 13):
        got = simple_stats(n)
        assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(got, simple_trees(n)))
    with pytest.raises(ValueError):
        simple_stats(0)


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
        halves = rows(all_nonsimple_words(n - 1))
        assert len(halves) == 1 << Tc
        for w1 in halves:
            c1 = cycle_count(w1)
            for w2 in halves:
                low_first = w1 + tuple(x + M for x in w2)
                high_first = tuple(x + M for x in w1) + w2
                assert cycle_count(low_first) == c1 + cycle_count(w2)
                assert cycle_count(high_first) == cycle_count(tuple(w2[x - 1] for x in w1))  # w2 after w1


def test_batch_builders_match_scalar():
    # row m of the simple words is the Kronecker product of its factors, bit 0 innermost
    factor = [(1, 2), (2, 1)]
    for n in range(1, 7):
        for m, row in enumerate(rows(all_simple_words(n))):
            word = (1,)
            for j in range(n):
                word = kron(factor[(m >> j) & 1], word)
            assert row == word


def test_words_from_shape_bits_single_rows():
    # each row is built from its own bits only: a one-row call gives the same word
    g = np.random.default_rng(11)
    for n in (2, 3, 4):
        bits = g.integers(0, 2, size=(20, (1 << n) - 1))
        W = words_from_shape_bits(n, bits)
        for t in range(20):
            assert np.array_equal(words_from_shape_bits(n, bits[t : t + 1])[0], W[t])


def test_uniform_words_rarely_butterfly():
    # |B_3| / 8! = 128/40320, so uniform S_8 words almost never pass
    W = uniform_words(8, 4000, RngState(2024).generator())
    passes = int((class_indices(W, "nonsimple") >= 0).sum())
    assert passes <= 30


def test_words_match_tuple_recursion():
    # every shape up to n = 4, through each builder, then random shapes up to n = 10
    for n in range(1, 5):
        T = (1 << n) - 1
        oracle = [tuple_nonsimple_word(shape_bits(n, i)[0], n) for i in range(1 << T)]
        assert rows(all_nonsimple_words(n)) == oracle
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
    for w, si, ns in zip(words, simple.tolist(), nonsimple.tolist()):
        assert (si >= 0) == sliced_is_simple(w) and (ns >= 0) == sliced_is_nonsimple(w)
    n = N.bit_length() - 1
    if N == 1 << n and n >= 1:
        members = {w: i for i, w in enumerate(rows(all_nonsimple_words(n)))}
        assert nonsimple.tolist() == [members.get(w, -1) for w in words]
        members = {w: i for i, w in enumerate(rows(all_simple_words(n)))}
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
    grid = [tuple(r) for r in itertools.product(range(1, 5), repeat=4)]
    for family, members in (("simple", rows(all_simple_words(2))), ("nonsimple", rows(all_nonsimple_words(2)))):
        expected = [members.index(w) if w in members else -1 for w in grid]
        assert class_indices(np.array(grid), family).tolist() == expected
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
