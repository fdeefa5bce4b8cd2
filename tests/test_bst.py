import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterfly_trees.bst import summary
from butterfly_trees.exact import simple_height_counts, stirling1_row
from butterfly_trees.sampling import RngState

from conftest import (
    all_simple_words,
    all_words,
    batch_summaries,
    block_decomposition,
    block_height,
    ltr_maxima_len,
    ltr_minima_len,
    naive_insert,
    naive_summary,
    wreath_words,
)


def test_build_examples():
    # the insertion oracle's trees: parent[k] (0 at the root) and depth[k]
    parent, depth = naive_insert((3, 5, 2, 4, 1, 6))
    assert parent[1:] == [2, 3, 0, 5, 3, 5]
    assert depth[1:] == [2, 1, 0, 2, 1, 2]
    parent, depth = naive_insert((1, 2, 3, 4, 5))
    assert parent[1:] == [0, 1, 2, 3, 4] and depth[5] == 4
    parent, _ = naive_insert((2, 1, 6, 5, 3, 4))
    assert parent[1:] == [2, 0, 5, 3, 6, 2]


def test_summary_examples():
    for w, hlr in [
        ((2, 1, 6, 5, 3, 4), (4, 1, 1)),
        ((2, 1, 4, 3), (2, 1, 1)),
        ((3, 5, 2, 4, 1, 6), (2, 2, 2)),
    ]:
        s = summary(w)
        assert (s.h, s.l, s.r) == hlr
        assert s.size == len(w)


def test_summary_matches_tree_and_naive_exhaustive():
    for n in range(1, 8):
        for w in all_words(n):
            s = summary(w)
            assert (s.h, s.l, s.r, s.size) == (*naive_summary(w), n)


def test_edges_are_prefix_records_exhaustive():
    for n in range(1, 8):
        for w in all_words(n):
            s = summary(w)
            assert s.l + 1 == ltr_minima_len(w)
            assert s.r + 1 == ltr_maxima_len(w)


def test_record_count_distribution_is_stirling():
    for n in range(1, 7):
        hist = Counter(ltr_maxima_len(w) for w in all_words(n))
        row = stirling1_row(n)
        assert hist == {k: row[k] for k in range(1, n + 1) if row[k]}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_height_bounds_property(w):
    s = summary(tuple(w))
    n = len(w)
    assert math.floor(math.log2(n)) <= s.h <= n - 1
    assert s.l <= s.h and s.r <= s.h


def test_batch_summaries_matches_scalar():
    rng = np.random.default_rng(123)
    for n in (1, 2, 3, 5, 17, 64):
        W = np.stack([rng.permutation(n) + 1 for _ in range(40)])
        h, l, r = batch_summaries(W)
        for t in range(40):
            s = summary(tuple(int(x) for x in W[t]))
            assert (h[t], l[t], r[t]) == (s.h, s.l, s.r)


def test_batch_summaries_matches_naive_insertion_exhaustive():
    for n in range(1, 8):
        words = list(all_words(n))
        h, l, r = batch_summaries(np.array(words, dtype=np.int64))
        assert h.dtype == l.dtype == r.dtype == np.int64
        assert list(zip(h.tolist(), l.tolist(), r.tolist())) == [naive_summary(w) for w in words]


def test_batch_summaries_chains():
    n = 2000
    up = np.arange(1, n + 1)
    h, l, r = batch_summaries(np.stack([up, up[::-1]]))
    assert h.tolist() == [n - 1, n - 1]
    assert l.tolist() == [0, n - 1] and r.tolist() == [n - 1, 0]


def test_batch_summaries_simple_butterflies_follow_exact_law():
    h, _, _ = batch_summaries(all_simple_words(10))
    values, freqs = np.unique(h, return_counts=True)
    assert dict(zip(values.tolist(), freqs.tolist())) == simple_height_counts(10)


@pytest.mark.parametrize("n,m", [(1, 5), (2, 2), (3, 4), (5, 3), (7, 6)])
def test_batch_summaries_wreath_heights_match_block_decomposition(n, m):
    words = wreath_words(n, m, 60, RngState(17, n * 100 + m).generator())
    h, _, _ = batch_summaries(words)
    for row, height in zip(words.tolist(), h.tolist()):
        rho = [(row[i * n] - 1) // n + 1 for i in range(m)]
        blocks = [None] * m
        for i, j in enumerate(rho):
            blocks[j - 1] = [x - (j - 1) * n for x in row[i * n : (i + 1) * n]]
        assert height == block_height(block_decomposition(rho, blocks))


def test_batch_summaries_leaves_input_and_accepts_any_int_dtype():
    W = np.array([[1], [1], [1]], dtype=np.int64)
    assert [a.tolist() for a in batch_summaries(W)] == [[0, 0, 0]] * 3
    assert W.tolist() == [[1], [1], [1]]
    W = np.array([[3, 1, 2], [2, 3, 1]], dtype=np.uint8)
    h, l, r = batch_summaries(W)
    assert (h.tolist(), l.tolist(), r.tolist()) == ([2, 1], [1, 1], [0, 1])
    assert h.dtype == l.dtype == r.dtype == np.int64
    assert W.tolist() == [[3, 1, 2], [2, 3, 1]]
    for dtype in (np.uint64, np.int32):
        W = np.array([[3, 1, 2], [2, 3, 1], [1, 2, 3]], dtype=dtype)
        h, l, r = batch_summaries(W)
        assert (h.tolist(), l.tolist(), r.tolist()) == ([2, 1, 2], [1, 1, 0], [0, 1, 2])
        assert h.dtype == l.dtype == r.dtype == np.int64
    assert all(a.shape == (0,) for a in batch_summaries(np.empty((0, 4), dtype=np.int64)))


def test_batch_summaries_refuses_more_slots_than_a_link_addresses():
    # a zero-stride view: the guard must fire before any pass over, or allocation for, the rows
    n = 1
    B = -(-(1 << 32) // (n + 2))  # the first row count with B*(n+2) >= 2^32
    with pytest.raises(ValueError, match="2\\^32"):
        batch_summaries(np.broadcast_to(np.int64(1), (B, n)))
    h, _, _ = batch_summaries(np.broadcast_to(np.int64(1), (1000, n)))
    assert h.tolist() == [0] * 1000


def test_batch_summaries_peak_memory_is_two_link_arrays():
    B, n = 250, 4000
    W = np.random.default_rng(8).permuted(np.tile(np.arange(1, n + 1, dtype=np.int64), (B, 1)), axis=1)
    tracemalloc.start()
    try:
        batch_summaries(W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * B * (n + 2)


@pytest.mark.parametrize(
    "words,message",
    [
        (np.array([1, 2, 3]), "2-d"),
        (np.ones((2, 2, 2), dtype=np.int64), "2-d"),
        (np.empty((3, 0), dtype=np.int64), "n >= 1"),
        (np.array([[1.0, 2.0]]), "integer"),
        (np.array([[True, False]]), "integer"),
        (np.array([[1, 2], [0, 1]]), "1..2"),
        (np.array([[1, 2], [2, 3]]), "1..2"),
        (np.array([[1, 2, 3], [2, 2, 1]]), "permutation"),
        (np.array([[3, 3, 3]]), "permutation"),
    ],
    ids=["1-d", "3-d", "width-0", "float", "bool", "below-1", "above-n", "repeat", "constant"],
)
def test_batch_summaries_rejects_bad_words(words, message):
    with pytest.raises(ValueError, match=message):
        batch_summaries(words)


def test_batch_summaries_rejects_every_non_permutation_row():
    # random rows over 1..n are mostly not permutations; each must be refused on its own
    rng = np.random.default_rng(99)
    for n in range(1, 7):
        rows = rng.integers(1, n + 1, size=(3000, n))
        is_perm = (np.sort(rows, axis=1) == np.arange(1, n + 1)).all(axis=1)
        for row, ok in zip(rows, is_perm):
            if ok:
                batch_summaries(row[None, :])
            else:
                with pytest.raises(ValueError, match="permutation"):
                    batch_summaries(row[None, :])
        if is_perm.all():
            batch_summaries(rows)
        else:
            with pytest.raises(ValueError, match="permutation"):
                batch_summaries(rows)
