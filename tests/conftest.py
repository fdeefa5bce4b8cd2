"""Shared independent oracles for the test suite.

These deliberately re-derive quantities with implementations unrelated to
the package internals: plain pointer-chasing BST insertion, exhaustive
subsequence enumeration for LIS/LDS, depth recomputation by traversal,
the exact laws by pairwise dict convolution over their supports, the
butterfly words, membership tests and matrices by their block recursions,
GEPP by a one-matrix row loop, and the uniform and wreath word samplers by
shuffling and stacking copies.
"""

from __future__ import annotations

import itertools

import numpy as np


def all_words(n: int):
    """All words of S_n as tuples."""
    return itertools.permutations(range(1, n + 1))


def naive_summary(word) -> tuple[int, int, int]:
    """(h, l, r) by literal sequential insertion with child arrays."""
    n = len(word)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    depth = [0] * (n + 1)
    root = word[0]
    for v in word[1:]:
        cur = root
        d = 0
        while True:
            d += 1
            if v < cur:
                if left[cur]:
                    cur = left[cur]
                else:
                    left[cur] = v
                    break
            else:
                if right[cur]:
                    cur = right[cur]
                else:
                    right[cur] = v
                    break
        depth[v] = d
    return max(depth[1:]), depth[1], depth[n]


def naive_depths(word) -> list[int]:
    """Depth of every key by literal insertion; index 0 unused."""
    n = len(word)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    depth = [0] * (n + 1)
    root = word[0]
    for v in word[1:]:
        cur = root
        d = 0
        while True:
            d += 1
            if v < cur:
                if left[cur]:
                    cur = left[cur]
                else:
                    left[cur] = v
                    break
            else:
                if right[cur]:
                    cur = right[cur]
                else:
                    right[cur] = v
                    break
        depth[v] = d
    return depth


def traversal_depths(tree) -> list[int]:
    """Recompute per-key depths of a built Bst by walking the child links."""
    depth = [0] * (tree.size + 1)
    stack = [(tree.root, 0)]
    while stack:
        key, d = stack.pop()
        depth[key] = d
        if tree.left[key]:
            stack.append((tree.left[key], d + 1))
        if tree.right[key]:
            stack.append((tree.right[key], d + 1))
    return depth


def lis_brute(word) -> int:
    """LIS by enumerating every subsequence mask (exponential)."""
    n = len(word)
    best = 1
    for mask in range(1, 1 << n):
        picked = [word[i] for i in range(n) if (mask >> i) & 1]
        if all(a < b for a, b in zip(picked, picked[1:])):
            best = max(best, len(picked))
    return best


def lds_brute(word) -> int:
    return lis_brute([len(word) + 1 - x for x in word])


def lis_brute_all(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, lis) for all of S_n, with the mask enumeration vectorized.

    Rows of ``words`` follow itertools.permutations order.
    """
    words = np.array(list(all_words(n)), dtype=np.int64)
    flat_i, flat_j, seg_start, seg_len = [], [], [], []
    for mask in range(1, 1 << n):
        idxs = [i for i in range(n) if (mask >> i) & 1]
        if len(idxs) < 2:
            continue
        seg_start.append(len(flat_i))
        seg_len.append(len(idxs))
        for a, b in zip(idxs, idxs[1:]):
            flat_i.append(a)
            flat_j.append(b)
    ok = words[:, flat_i] < words[:, flat_j]
    ok_all = np.logical_and.reduceat(ok, np.array(seg_start), axis=1)
    lens = np.where(ok_all, np.array(seg_len)[None, :], 0)
    return words, np.maximum(1, lens.max(axis=1))


def dict_triple_levels(n: int) -> list[dict[tuple[int, int, int], int]]:
    """Nonsimple (H, L, R) counts at levels 1..n, each level over every pair
    of triples of two iid copies of the level below (O(support^2) dict work)."""
    levels = [{(1, 0, 1): 1, (1, 1, 0): 1}]
    for _ in range(2, n + 1):
        new: dict[tuple[int, int, int], int] = {}
        for (H1, L1, R1), w1 in levels[-1].items():
            for (H2, L2, R2), w2 in levels[-1].items():
                for t in ((max(H1, R1 + 1 + H2), L1, R1 + 1 + R2), (max(H1, L1 + 1 + H2), L1 + 1 + L2, R1)):
                    new[t] = new.get(t, 0) + w1 * w2
        levels.append(new)
    return levels


def dict_law_levels(n: int, law: str) -> list[dict[int, int]]:
    """LIS or cycle law counts at levels 0..n, each level over every pair of
    values of two iid copies of the level below; a fair bit picks a + b or
    max(a, b) (LIS), a (cycle)."""
    levels = [{1: 1}]
    for _ in range(n):
        new: dict[int, int] = {}
        for a, wa in levels[-1].items():
            for b, wb in levels[-1].items():
                for v in (a + b, max(a, b) if law == "lis" else a):
                    new[v] = new.get(v, 0) + wa * wb
        levels.append(new)
    return levels


def tuple_nonsimple_word(bits, depth: int) -> tuple[int, ...]:
    """Nonsimple butterfly word by the wreath recursion on tuples: node ``idx``
    joins its children's words, shifting the first up by M for bit 1 and
    the second up by M for bit 0."""

    def rec(idx: int, level: int) -> tuple[int, ...]:
        if level == 0:
            return (1,)
        w1 = rec(2 * idx + 1, level - 1)
        w2 = rec(2 * idx + 2, level - 1)
        M = 1 << (level - 1)
        if bits[idx]:
            return tuple(x + M for x in w1) + w2
        return w1 + tuple(x + M for x in w2)

    return rec(0, depth)


def sliced_is_nonsimple(w) -> bool:
    """Whether the word splits recursively into contiguous value half-blocks."""
    n = len(w)
    if n & (n - 1):
        return False
    if n == 1:
        return True
    M = n // 2
    first, second = tuple(w[:M]), tuple(w[M:])
    if max(first) == M:
        return sliced_is_nonsimple(first) and sliced_is_nonsimple(tuple(x - M for x in second))
    if min(first) == M + 1:
        return sliced_is_nonsimple(tuple(x - M for x in first)) and sliced_is_nonsimple(second)
    return False


def sliced_is_simple(w) -> bool:
    """Nonsimple structure with identical shifted halves at every level."""
    n = len(w)
    if n & (n - 1):
        return False
    if n == 1:
        return True
    M = n // 2
    first, second = tuple(w[:M]), tuple(w[M:])
    if max(first) == M:
        lo, hi = first, tuple(x - M for x in second)
    elif min(first) == M + 1:
        lo, hi = second, tuple(x - M for x in first)
    else:
        return False
    return lo == hi and sliced_is_simple(lo)


def block_nonsimple_matrices(n: int, thetas: np.ndarray) -> np.ndarray:
    """(B, 2^n, 2^n) butterfly matrices from level-ordered angles, one node
    block (R_theta (x) I)(A1 (+) A2) at a time from the leaves up."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    B = thetas.shape[0]
    A = np.ones((B, 1 << n, 1, 1))
    for k in range(1, n + 1):
        M = 1 << (k - 1)
        lev = n - k
        first = (1 << lev) - 1
        P = 1 << lev
        out = np.empty((B, P, 2 * M, 2 * M))
        for t in range(P):
            th = thetas[:, first + t][:, None, None]
            c, s = np.cos(th), np.sin(th)
            A1 = A[:, 2 * t]
            A2 = A[:, 2 * t + 1]
            out[:, t, :M, :M] = c * A1
            out[:, t, :M, M:] = s * A2
            out[:, t, M:, :M] = -s * A1
            out[:, t, M:, M:] = c * A2
        A = out
    return A[:, 0]


def scalar_gepp(M: np.ndarray, tol: float = 1e-12) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(word, L, U) of one square matrix, GEPP one pivot step at a time; raises
    on the first column whose largest |entry| from the diagonal down is below tol."""
    A = np.array(M, dtype=float, copy=True)
    N = A.shape[0]
    piv = list(range(N))
    for k in range(N - 1):
        col = np.abs(A[k:, k])
        if col.max() < tol:
            raise ValueError(f"numerically singular column {k + 1} (max |entry| < {tol})")
        j = int(col.argmax()) + k
        if j != k:
            A[[k, j]] = A[[j, k]]
            piv[k], piv[j] = piv[j], piv[k]
        A[k + 1 :, k] /= A[k, k]
        A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])
    if N >= 1 and abs(A[N - 1, N - 1]) < tol:
        raise ValueError(f"numerically singular column {N} (max |entry| < {tol})")
    word = [0] * N
    for pos, orig in enumerate(piv):
        word[orig] = pos + 1
    return tuple(word), np.tril(A, -1) + np.eye(N), np.triu(A)


def uniform_words_copying(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, n) uniform words by shuffling a copy of the tiled identity."""
    return g.permuted(np.tile(np.arange(1, n + 1, dtype=np.int64), (count, 1)), axis=1)


def wreath_words_stacked(n: int, m: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, n*m) wreath words by stacking all m blocks, picking block rho(i) for
    position-block i and shifting it up by rho(i)*n."""
    rho = g.permuted(np.tile(np.arange(m, dtype=np.int64), (count, 1)), axis=1)
    blocks = np.stack([uniform_words_copying(n, count, g) for _ in range(m)], axis=1)
    picked = blocks[np.arange(count)[:, None], rho]
    return (picked + (rho * n)[:, :, None]).reshape(count, n * m)
