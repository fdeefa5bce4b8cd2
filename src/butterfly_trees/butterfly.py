"""
Simple and nonsimple butterfly permutations of length N = 2^n.

A simple butterfly permutation is an n-fold Kronecker product of length-2
words; its recursion choices are n bits, innermost factor first, with
bit 1 meaning the factor is 21. A nonsimple butterfly permutation is an
n-fold wreath construction; its choices form a full binary tree with
2^n - 1 bits, one per internal node, stored in level order (root first).

Fixed word convention for one nonsimple step on halves w1, w2 of size M:

    bit 0 (outer 12):  (w1 | w2 + M)
    bit 1 (outer 21):  (w1 + M | w2)

so the first child always owns the block containing the root of the tree.

On 0-based positions i both families are XOR masks: a simple word is
1 + (i ^ m), bit j of m being factor bit j, and a nonsimple word is
1 + (i ^ f(i)), bit k-1 of f(i) being the bit of the level-k node that
owns i, so a simple word is the nonsimple word whose bits are constant on
each level (:func:`simple_shape_bits`). :func:`class_indices` inverts both
forms: a simple word's index is m, and a nonsimple word's index is its
level-ordered shape bits read as one binary number (:func:`shape_indices`),
the one numbering of nonsimple shapes here. No word is built in this
package; the word builders and insertion trees are the tests' oracles.

Tree statistics come straight from the shape. Every bottom subtree of
k = min(n, 4) levels is read whole from a table of the (h, l, r) of all
2^(2^k - 1) k-level shapes, row i the shape of index i. :func:`_level` is
the one step from a level's children to its nodes: the k-level table is
built with it from the (k-1)-level one, and the top n - k levels run it,
one numpy step per level. The tables are built on first use, not at
import, and are read-only. :func:`stats_from_subtrees` is that kernel, over
the top levels' bits and the subtrees' indices; ``fig8`` samples those two
directly (``sampling.nonsimple_butterfly_stats``: per chunk, the top bits,
then one uniform class index per bottom subtree).
:func:`stats_from_shape_bits` first reduces 2^n - 1 level-ordered bits to
them; ``table1`` runs it over every simple word.
"""

from __future__ import annotations

import functools

import numpy as np

TABLE_LEVELS = 4  # 2^15 shapes: 3 x 256 KB of int64 (h, l, r), the largest table built


def simple_shape_bits(n: int) -> np.ndarray:
    """(2^n, 2^n - 1) matrix of level-ordered shape bits, row m those of simple
    word m: a simple word is the nonsimple word whose bits are constant on
    each level, bit n - d - 1 of m at every depth-d node.

    >>> simple_shape_bits(2).tolist()
    [[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1]]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    levels = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.repeat(levels, 1 << np.arange(n), axis=1)


def class_indices(words: np.ndarray, family: str) -> np.ndarray:
    """Class index of each row of a (B, N) word matrix in ``family``, -1 for non-members.

    With f = (word - 1) ^ i, a word is simple iff f is constant, with index
    f[0]; it is nonsimple iff bit k-1 of f is constant on every aligned
    block of 2^k positions, with index its level-ordered shape bits read
    root first, most significant bit first (:func:`shape_indices`); past
    N = 64 nonsimple indices are Python ints in an object array.

    >>> class_indices(np.array([[3, 4, 2, 1], [3, 4, 1, 2]]), "nonsimple").tolist()
    [5, 4]
    >>> class_indices(np.array([[3, 4, 2, 1], [3, 4, 1, 2]]), "simple").tolist()
    [-1, 2]
    """
    if family not in ("simple", "nonsimple"):
        raise ValueError(f"unknown family {family!r}")
    words = np.asarray(words, dtype=np.int64)
    B, N = words.shape
    if N & (N - 1):
        return np.full(B, -1)
    n = N.bit_length() - 1
    i = np.arange(N)
    f = (words - 1) ^ i
    ok = ((f >> n) == 0).all(axis=1)
    if family == "simple":
        return np.where(ok & (f == f[:, :1]).all(axis=1), f[:, 0], -1)
    drift = np.zeros_like(f)
    # bit k-1 of f must equal its value at the start of the level-k block, which is that node's bit
    for k in range(1, n + 1):
        drift |= (f ^ f[:, (i >> k) << k]) & (1 << (k - 1))
    # level-ordered shape bits, root first; f[:, :0] leaves N = 1 a (B, 0) matrix with index 0
    bits = np.concatenate([f[:, :0]] + [(f[:, :: 1 << k] >> (k - 1)) & 1 for k in range(n, 0, -1)], axis=1)
    return np.where(ok & (drift == 0).all(axis=1), shape_indices(bits), -1)


def shape_indices(bits: np.ndarray) -> np.ndarray:
    """Class index of each row of a (..., 2^n - 1) array of level-ordered shape
    bits, along its last axis: the bits read as one binary number, root first,
    most significant first. Past 63 bits (N > 64) the indices are Python ints
    in an object array.

    >>> shape_indices(np.array([[1, 0, 1], [1, 0, 0]])).tolist()
    [5, 4]
    """
    T = bits.shape[-1]
    weights = np.array([1 << q for q in range(T - 1, -1, -1)], dtype=np.int64 if T < 64 else object)
    return bits.astype(weights.dtype, copy=False) @ weights


def _level(bit, first, second):
    """(h, l, r) of a level of nodes with shape bits ``bit`` over the (h, l, r)
    arrays ``first`` and ``second`` of their first and second children:

        bit 0:  (max(H1, R1 + 1 + H2), L1, R1 + 1 + R2)
        bit 1:  (max(H1, L1 + 1 + H2), L1 + 1 + L2, R1)

    The first child owns the root block; the second child's tree hangs below
    the first child's edge on the side of its block. Arrays broadcast.
    """
    (H1, L1, R1), (H2, L2, R2) = first, second
    edge = np.where(bit, L1, R1) + 1
    return np.maximum(H1, edge + H2), np.where(bit, edge + L2, L1), np.where(bit, R1, edge + R2)


@functools.cache
def _subtree_table(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (h, l, r) arrays of all 2^(2^k - 1) shapes of k levels, row i
    the shape whose level-ordered bits read as i (its :func:`shape_indices` index).

    A k-level shape is a root bit over two (k-1)-level shapes, so the table is
    one :func:`_level` over the cached (k-1)-level table, taken twice. The
    root bit, then for each level t < k - 1 the first subtree's level-t bits
    and the second's, each get an axis, in that order: these are the k-level
    shape's bits in level order, so the broadcast result, read flat, is in
    index order. The 0-level shape is one key, (0, 0, 0).
    """
    if k == 0:
        table = (np.zeros(1, dtype=np.int64),) * 3
    else:
        groups = [1 << (1 << t) for t in range(k - 1)]  # values of a subtree's level-t bits
        sub = _subtree_table(k - 1)
        first = [a.reshape([x for g in groups for x in (g, 1)]) for a in sub]
        second = [a.reshape([x for g in groups for x in (1, g)]) for a in sub]
        bit = np.array([False, True]).reshape([2] + [1] * (2 * len(groups)))
        table = tuple(a.reshape(-1) for a in _level(bit, first, second))
    for a in table:
        a.flags.writeable = False
    return table


def stats_from_shape_bits(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) arrays of the nonsimple butterfly trees of a (B, 2^n - 1)
    matrix of level-ordered shape bits.

    The bits split into the top n - k levels, k = min(n, 4), and the class
    index (:func:`shape_indices`) of each of the 2^(n-k) bottom subtrees:
    node q of level t of subtree j is column 2^(n-k+t) - 1 + j 2^t + q.
    :func:`stats_from_subtrees` does the rest.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != (1 << n) - 1:
        raise ValueError(f"need a (B, {(1 << n) - 1}) matrix of shape bits, got shape {bits.shape}")
    if bits.dtype.kind not in "biu" or bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("shape bits must be integers 0 or 1")
    k = min(n, TABLE_LEVELS)
    d = n - k  # depth of the subtree roots
    j = np.arange(1 << d)[:, None]
    cols = np.concatenate([(1 << (d + t)) - 1 + (j << t) + np.arange(1 << t) for t in range(k)], axis=1)
    return stats_from_subtrees(n, bits[:, : (1 << d) - 1], shape_indices(bits[:, cols]))


def stats_from_subtrees(n: int, top: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) arrays of the nonsimple butterfly trees given by a (B, 2^(n-k) - 1)
    matrix of level-ordered 0/1 bits of the top n - k levels, k = min(n, 4),
    and a (B, 2^(n-k)) matrix of the class indices (:func:`shape_indices`) of
    the bottom k-level subtrees, left to right; n >= 1. Neither is checked: the
    callers draw or derive them in these shapes and ranges.

    The subtrees' (h, l, r) are gathered from :func:`_subtree_table`; the top
    levels then apply :func:`_level`, one numpy step per level on (B, 2^d)
    arrays, from the leaves up. No word or tree is built.
    """
    k = min(n, TABLE_LEVELS)
    h, l, r = (a[index] for a in _subtree_table(k))
    for d in range(n - k - 1, -1, -1):
        first, second = ([a[:, j::2] for a in (h, l, r)] for j in (0, 1))
        h, l, r = _level(top[:, (1 << d) - 1 : (1 << (d + 1)) - 1] == 1, first, second)
    return h[:, 0], l[:, 0], r[:, 0]

