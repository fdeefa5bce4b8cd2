"""The block decomposition oracle of conftest (Theorem 2's depth identity)
against the heights and depths of the assembled block trees."""

import itertools

import pytest

from butterfly_trees.bst import summary
from butterfly_trees.sampling import RngState

from conftest import (
    all_words,
    assemble_wreath,
    block_decomposition,
    block_height,
    block_node_depth,
    external_path,
    g_select,
    naive_insert,
)


def test_g_select():
    assert g_select(3, 2, 10, 20) == 10
    assert g_select(1, 4, 10, 20) == 20
    with pytest.raises(ValueError):
        g_select(2, 2, 10, 20)


def test_block_example():
    d = block_decomposition((1, 3, 2), [(2, 1), (1, 2), (2, 1)])
    # deepest node lives in external key 2: right edge of block 1, then
    # left edge of block 3, then the full height of block 2
    assert external_path(d, 2) == [1, 3, 2]
    assert block_node_depth(d, 2, d.internal[1][0]) == 4
    assert block_height(d) == 4
    assert summary(assemble_wreath((1, 3, 2), [(2, 1), (1, 2), (2, 1)])).h == 4


def test_single_block_is_identity_map():
    for w in all_words(3):
        d = block_decomposition((1,), [w])
        for depth in range(d.internal[0][0] + 1):
            assert block_node_depth(d, 1, depth) == depth
        assert block_height(d) == summary(w).h


def test_errors():
    d = block_decomposition((2, 1), [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        block_node_depth(d, 3, 0)
    with pytest.raises(ValueError):
        block_node_depth(d, 1, 5)
    with pytest.raises(ValueError):
        block_decomposition((2, 1), [(1, 2)])
    with pytest.raises(ValueError):
        block_decomposition((2, 1), [(1, 2), (1, 2, 3)])


def exhaustive_cases(m, n):
    for rho in all_words(m):
        for blocks in itertools.product(list(all_words(n)), repeat=m):
            yield rho, blocks


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
def test_block_height_equals_direct_height_exhaustive(m, n):
    for rho, blocks in exhaustive_cases(m, n):
        d = block_decomposition(rho, blocks)
        word = assemble_wreath(rho, blocks)
        assert block_height(d) == summary(word).h


def test_block_node_depths_equal_direct_depths_exhaustive():
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for rho, blocks in exhaustive_cases(m, n):
            d = block_decomposition(rho, blocks)
            depth = naive_insert(assemble_wreath(rho, blocks))[1]
            for j in range(1, m + 1):
                block_depth = naive_insert(blocks[j - 1])[1]
                for x in range(1, n + 1):
                    assert block_node_depth(d, j, block_depth[x]) == depth[(j - 1) * n + x]


def test_block_height_random_large():
    for i in range(1000):
        r = RngState(31337, i).generator()
        m = int(r.integers(1, 9))
        n = int(r.integers(1, 9))
        rho = (r.permutation(m) + 1).tolist()
        blocks = [(r.permutation(n) + 1).tolist() for _ in range(m)]
        d = block_decomposition(rho, blocks)
        assert block_height(d) == summary(assemble_wreath(rho, blocks)).h


def test_block_height_dominates_internal_heights():
    for i in range(200):
        r = RngState(999, i).generator()
        m = int(r.integers(1, 7))
        n = int(r.integers(1, 7))
        rho = (r.permutation(m) + 1).tolist()
        blocks = [(r.permutation(n) + 1).tolist() for _ in range(m)]
        d = block_decomposition(rho, blocks)
        assert block_height(d) >= max(h for h, _, _ in d.internal)
