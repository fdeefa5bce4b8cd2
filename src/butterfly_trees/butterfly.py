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
owns i. Every builder computes one of these two forms, and
:func:`class_indices` inverts both.

Tree statistics come straight from the shape: :func:`stats_from_shape_bits`
evaluates the (h, l, r) recursion over the level-ordered bits, one numpy
step per level, and is what ``fig8`` samples. The words and the trees
built from them by insertion remain the oracle the tests check it against.
"""

from __future__ import annotations

import numpy as np


def all_simple_words(n: int) -> np.ndarray:
    """(2^n, 2^n) matrix of all simple words: row m is ``1 + (i ^ m)``, the word
    whose factor bits are the bits of m (least significant innermost)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(1 << n, dtype=np.int64)
    return 1 + (i[None, :] ^ i[:, None])


def words_from_shape_bits(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, 2^n) words from a (B, 2^n - 1) matrix of level-ordered shape bits.

    Row t is ``1 + (i ^ f)``, where bit k-1 of f[i] is the bit of the
    level-k node that owns position i:

    >>> bits = np.array([[1, 0, 1]])  # root 1, left leaf 0, right leaf 1
    >>> f = np.array([0b10, 0b10, 0b11, 0b11])
    >>> words_from_shape_bits(2, bits).tolist() == [(1 + (np.arange(4) ^ f)).tolist()]
    True
    """
    bits = _checked_bits(n, bits).astype(np.int64, copy=False)
    i = np.arange(1 << n, dtype=np.int64)
    f = np.zeros((bits.shape[0], 1 << n), dtype=np.int64)
    for k in range(1, n + 1):
        f |= bits[:, (1 << (n - k)) - 1 + (i >> k)] << (k - 1)
    return 1 + (i ^ f)


def _checked_bits(n: int, bits: np.ndarray) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != (1 << n) - 1:
        raise ValueError(f"need a (B, {(1 << n) - 1}) matrix of shape bits, got shape {bits.shape}")
    if bits.dtype.kind not in "biu" or bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("shape bits must be integers 0 or 1")
    return bits


def class_indices(words: np.ndarray, family: str) -> np.ndarray:
    """Class index of each row of a (B, N) word matrix in ``family``, -1 for non-members.

    With f = (word - 1) ^ i, a word is simple iff f is constant, with index
    f[0]; it is nonsimple iff bit k-1 of f is constant on every aligned
    block of 2^k positions, with index its level-ordered shape bits read
    root first, most significant bit first. The index is the
    word's row in :func:`all_simple_words` or :func:`all_nonsimple_words`;
    past N = 64 nonsimple indices are Python ints in an object array.

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
    weights = np.array([1 << q for q in range(N - 2, -1, -1)], dtype=np.int64 if N <= 64 else object)
    index, drift = 0, np.zeros_like(f)
    # bit k-1 of f must equal its value at the start of the level-k block, which is that node's bit
    for k in range(1, n + 1):
        drift |= (f ^ f[:, (i >> k) << k]) & (1 << (k - 1))
        first = (1 << (n - k)) - 1
        index = index + ((f[:, :: 1 << k] >> (k - 1)) & 1) @ weights[first : 2 * first + 1]
    return np.where(ok & (drift == 0).all(axis=1), index, -1)


def stats_from_shape_bits(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) arrays of the nonsimple butterfly trees of a (B, 2^n - 1)
    matrix of level-ordered shape bits, evaluated from the leaves up.

    A bottom node (one bit, two keys) is (1, 1, 0) for bit 1 and (1, 0, 1)
    for bit 0. With (H1, L1, R1) and (H2, L2, R2) the child triples, a node
    combines as

        bit 0:  (max(H1, R1 + 1 + H2), L1, R1 + 1 + R2)
        bit 1:  (max(H1, L1 + 1 + H2), L1 + 1 + L2, R1)

    matching the word convention of :func:`words_from_shape_bits` (the first
    child owns the root block, and the second child's tree hangs below the
    first child's edge on the side of its block). One numpy step per level,
    on (B, 2^d) arrays; no word or tree is built.
    """
    bits = _checked_bits(n, bits)
    b = bits[:, (1 << (n - 1)) - 1 :] == 1
    h = np.ones(b.shape, dtype=np.int64)
    l = b.astype(np.int64)
    r = 1 - l
    for d in range(n - 2, -1, -1):
        b = bits[:, (1 << d) - 1 : (1 << (d + 1)) - 1] == 1
        L1, R1 = l[:, 0::2], r[:, 0::2]
        edge = np.where(b, L1, R1) + 1
        h = np.maximum(h[:, 0::2], edge + h[:, 1::2])
        l, r = np.where(b, edge + l[:, 1::2], L1), np.where(b, R1, edge + r[:, 1::2])
    return h[:, 0], l[:, 0], r[:, 0]


def all_nonsimple_words(n: int) -> np.ndarray:
    """(2^(2^n - 1), 2^n) matrix of all nonsimple words, row i = shape index i.

    Refuses n > 4 (32768 words), as the count is doubly exponential in n.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"n must be in 1..4 (2^(2^n - 1) words), got {n}")
    T = (1 << n) - 1
    return words_from_shape_bits(n, (np.arange(1 << T)[:, None] >> np.arange(T - 1, -1, -1)) & 1)
