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
each level, bit j of m at every node of height j + 1. :func:`class_indices`
inverts both forms: a simple word's index is m, and a nonsimple word's
index is its level-ordered shape bits read as one binary number
(:func:`shape_indices`), the one numbering of nonsimple shapes here. No
word is built in this package; the word builders and insertion trees are
the tests' oracles.

Tree statistics come straight from the shape. Every bottom subtree of
k = min(n, 4) levels is read whole from a table of all 2^(2^k - 1) k-level
shapes, entry i the int32 code h | l << 8 | r << 16 of the shape of index
i. :func:`_level` is the one
step from a level's children to its nodes: the k-level table is built with
it from the (k-1)-level one, and the top n - k levels run it, one numpy
step per level. :func:`stats_from_subtrees` is that kernel, over the top
levels' bits and the subtrees' indices. It works node-major in int32: a
level of 2^d nodes is a (2^d, B) array per statistic in bit-reversed node
order, so a level's first and second children are the two contiguous
halves of the level below, and its result is again in that order. The
subtrees' codes are gathered straight into that order through a view of
their indices with the bit axes reversed; the top bits of all levels are
gathered at once, in an order that depends only on the depth. The tables
and that order are cached, built on first use, not at import, and
read-only. int32 bounds the kernel to heights below 2^31, n <= 31; the
CLI stops at n = 23. ``fig8`` samples
the bits and indices directly (``sampling.nonsimple_butterfly_stats``: per
chunk, the top bits, then one uniform class index per bottom subtree).
A simple tree needs no table: both children of each node are the same
tree, so :func:`simple_stats` runs :func:`_level` n times over all 2^n
simple trees at once, and ``table1`` and ``lattice-degrees`` read its heights.
"""

from __future__ import annotations

import functools

import numpy as np

TABLE_LEVELS = 4  # 2^15 shapes: 128 KB of int32 codes, the largest table built


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


def _pick(mask, a, b):
    """``a`` where ``mask`` is all ones, ``b`` where it is 0: three integer ops,
    against a branch per entry in ``np.where`` on random bits."""
    return b ^ ((a ^ b) & mask)


def _level(mask, first, second):
    """(h, l, r) of a level of nodes with shape bits ``-mask`` (0 or all ones)
    over the (h, l, r) arrays ``first`` and ``second`` of their first and
    second children:

        bit 0:  (max(H1, R1 + 1 + H2), L1, R1 + 1 + R2)
        bit 1:  (max(H1, L1 + 1 + H2), L1 + 1 + L2, R1)

    The first child owns the root block; the second child's tree hangs below
    the first child's edge on the side of its block. Arrays broadcast.
    """
    (H1, L1, R1), (H2, L2, R2) = first, second
    edge = _pick(mask, L1, R1) + 1
    return np.maximum(H1, edge + H2), _pick(mask, edge + L2, L1), _pick(mask, R1, edge + R2)


@functools.cache
def _subtree_table(k: int) -> np.ndarray:
    """Read-only int32 codes h | l << 8 | r << 16 of all 2^(2^k - 1) shapes of
    k levels, entry i the shape whose level-ordered bits read as i (its
    :func:`shape_indices` index); k <= 4 keeps every field below 2^8.

    A k-level shape is a root bit over two (k-1)-level shapes, so the table is
    one :func:`_level` over the cached (k-1)-level table, taken twice. The
    root bit, then for each level t < k - 1 the first subtree's level-t bits
    and the second's, each get an axis, in that order: these are the k-level
    shape's bits in level order, so the broadcast result, read flat, is in
    index order. The 0-level shape is one key, (0, 0, 0).
    """
    if k == 0:
        table = np.zeros(1, dtype=np.int32)
    else:
        groups = [1 << (1 << t) for t in range(k - 1)]  # values of a subtree's level-t bits
        sub = _unpack(_subtree_table(k - 1))
        first = [a.reshape([x for g in groups for x in (g, 1)]) for a in sub]
        second = [a.reshape([x for g in groups for x in (1, g)]) for a in sub]
        mask = np.array([0, -1], dtype=np.int32).reshape([2] + [1] * (2 * len(groups)))
        h, l, r = (a.reshape(-1) for a in _level(mask, first, second))
        table = h | l << 8 | r << 16
    table.flags.writeable = False
    return table


def _unpack(code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) of codes h | l << 8 | r << 16, in their dtype."""
    return code & 0xFF, code >> 8 & 0xFF, code >> 16


def stats_from_subtrees(n: int, top: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) int64 arrays of the nonsimple butterfly trees given by a
    (B, 2^(n-k) - 1) matrix of level-ordered 0/1 bits of the top n - k levels,
    k = min(n, 4), and a (B, 2^(n-k)) matrix of the class indices
    (:func:`shape_indices`) of the bottom k-level subtrees, left to right;
    1 <= n <= 31. Neither is checked nor changed: the callers draw or derive
    them in these shapes and ranges.

    The work is node-major: the level of 2^d nodes at depth d is a (2^d, B)
    int32 array of each of h, l and r whose row p is node rev(p), the d bits
    of p reversed. In that order the first children of a level's nodes are
    the rows [:2^d] of the level below and the second children the rows
    [2^d:], so each :func:`_level` is one contiguous loop per op, and its
    result is again in bit-reversed order. One gather from
    :func:`_subtree_table` places the subtrees' codes so, with no index
    array for the permutation: ``index`` is viewed as a B axis, then d0 axes
    of size 2 (a column's bits, most significant first), and those axes are
    reversed ahead of the B axis, so the gather writes row p from column
    rev(p). One gather of ``top``'s columns in the order of
    :func:`_top_order`, built once per depth, and one negation give every
    level's masks, and each level takes its rows as a slice. Every h, l and
    r of a subtree is at most the tree's height, 2^n - 1, so int32 holds
    them for n <= 31. No word or tree is built.
    """
    k = min(n, TABLE_LEVELS)
    d0 = n - k  # depth of the subtree roots
    B = index.shape[0]
    perm = index.reshape((B,) + (2,) * d0).transpose(tuple(range(d0, 0, -1)) + (0,))
    h, l, r = _unpack(_subtree_table(k).take(perm).reshape(1 << d0, B))
    masks = np.negative(top.T[_top_order(d0)], dtype=np.int32)
    for d in range(d0 - 1, -1, -1):
        w = 1 << d
        h, l, r = _level(masks[w - 1 : 2 * w - 1], (h[:w], l[:w], r[:w]), (h[w:], l[w:], r[w:]))
    return tuple(a[0].astype(np.int64) for a in (h, l, r))


@functools.cache
def _top_order(d0: int) -> np.ndarray:
    """Read-only intp order in which :func:`stats_from_subtrees` reads the
    2^d0 - 1 level-ordered top bits: entry 2^d - 1 + p is the level-order
    position of node rev(p) at depth d, rev(p) the d bits of p reversed, so
    each level's masks are one slice of one gather, in its rows' order. The
    children of level-order position i are 2i + 1 and 2i + 2, and a level in
    bit-reversed order is the first children, then the second children, of
    the level above in that order, so each level is written from the one
    above in place: at d0 = 19 the order's 4 MiB are all it allocates."""
    order = np.zeros((1 << d0) - 1, dtype=np.intp)
    for d in range(1, d0):
        w = 1 << d
        first, second = order[w - 1 : 2 * w - 1].reshape(2, -1)
        np.left_shift(order[w // 2 - 1 : w - 1], 1, out=first)
        first += 1
        np.add(first, 1, out=second)
    order.flags.writeable = False
    return order


def simple_stats(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) int64 arrays of the 2^n simple butterfly trees, entry m that of
    simple word m. Every node at height j + 1 above the leaves has bit j of m,
    so both of its children are the same height-j tree: each level is one
    :func:`_level` of the level below with itself, from leaves (0, 0, 0).

    >>> [a.tolist() for a in simple_stats(2)]
    [[3, 2, 2, 3], [0, 1, 1, 3], [3, 1, 1, 0]]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = np.arange(1 << n, dtype=np.int64)
    hlr = (np.zeros_like(m),) * 3
    for j in range(n):
        hlr = _level(-(m >> j & 1), hlr, hlr)
    return hlr
