"""Shared independent oracles for the test suite.

These deliberately re-derive quantities with implementations unrelated to
the package internals: plain pointer-chasing BST insertion, the word
statistics (LIS/LDS by patience piles and by exhaustive subsequence
enumeration, cycles, prefix records), the Kronecker and wreath products of
words, the block decomposition of a wreath BST (Theorem 2's depth
identity), the exact laws by pairwise dict convolution over their
supports, the butterfly words, membership tests and matrices by their
block recursions, the Boolean lattice's degrees from its adjacency, GEPP
by a one-matrix row loop, the uniform and wreath words by shuffling and
stacking copies and the nonsimple words by the tuple wreath recursion (the
package samples their trees without words), the wreath height law by
enumerating the group, and the uniform BST height law by its size
recursion.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


def all_words(n: int):
    """All words of S_n as tuples."""
    return itertools.permutations(range(1, n + 1))


def naive_insert(word) -> tuple[list[int], list[int]]:
    """(parent, depth) of every key by literal sequential insertion with child
    arrays; index 0 unused, and the root's parent is 0."""
    n = len(word)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    parent = [0] * (n + 1)
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
        parent[v] = cur
        depth[v] = d
    return parent, depth


def naive_summary(word) -> tuple[int, int, int]:
    """(h, l, r) of the tree built by :func:`naive_insert`."""
    depth = naive_insert(word)[1]
    return max(depth[1:]), depth[1], depth[-1]


def lis(word) -> int:
    """Length of the longest strictly increasing subsequence (patience piles)."""
    tails: list[int] = []
    for x in word:
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def lds(word) -> int:
    """Length of the longest strictly decreasing subsequence: the LIS of the value-reversed word."""
    return lis([len(word) + 1 - x for x in word])


def cycle_count(word) -> int:
    """Number of orbits of the map j -> word[j-1]."""
    seen = [False] * (len(word) + 1)
    count = 0
    for start in range(1, len(word) + 1):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = word[j - 1]
    return count


def ltr_maxima_len(word) -> int:
    """Number of prefix maxima (left-to-right maxima) of the word."""
    best = count = 0
    for x in word:
        if x > best:
            best, count = x, count + 1
    return count


def ltr_minima_len(word) -> int:
    """Number of prefix minima (left-to-right minima) of the word."""
    best, count = len(word) + 1, 0
    for x in word:
        if x < best:
            best, count = x, count + 1
    return count


def kron(pi, sigma) -> tuple[int, ...]:
    """Kronecker product of permutations, matrix convention P_p (x) P_q:
    result((i-1)*m + j) = (pi(i)-1)*m + sigma(j)."""
    m = len(sigma)
    return tuple((x - 1) * m + y for x in pi for y in sigma)


def assemble_wreath(rho, blocks) -> tuple[int, ...]:
    """Block permutation from an outer word and inner blocks: ``blocks[j-1]``
    owns the values (j-1)*n+1 .. j*n, and position-block i holds
    ``blocks[rho(i)-1]`` shifted up by (rho(i)-1)*n."""
    n = len(blocks[0])
    return tuple(x + (i - 1) * n for i in rho for x in blocks[i - 1])


def g_select(x: int, y: int, u, v):
    """u if x > y, v if x < y; undefined (raises) when x == y."""
    if x == y:
        raise ValueError("selector undefined for x == y")
    return u if x > y else v


@dataclass(frozen=True)
class BlockDecomposition:
    """External word, per-external-key internal (h, l, r), external tree parents."""

    rho: tuple[int, ...]
    internal: tuple[tuple[int, int, int], ...]
    parent: list[int]


def block_decomposition(rho, blocks) -> BlockDecomposition:
    """The depth decomposition of the block BST of ``assemble_wreath(rho, blocks)``.

    The tree is the external tree over the m block keys with an internal
    tree substituted at every node; only the (h, l, r) of the blocks matter.
    Summaries are indexed by external key j (block j owns values (j-1)n+1..jn).
    """
    if len(blocks) != len(rho):
        raise ValueError(f"need {len(rho)} blocks, got {len(blocks)}")
    if any(len(b) != len(blocks[0]) for b in blocks):
        raise ValueError("all blocks must have equal size")
    return BlockDecomposition(tuple(rho), tuple(naive_summary(b) for b in blocks), naive_insert(rho)[0])


def external_path(d: BlockDecomposition, j: int) -> list[int]:
    """External keys on the path from the external root to key j, inclusive."""
    if not 1 <= j <= len(d.rho):
        raise ValueError(f"external key {j} outside 1..{len(d.rho)}")
    path = [j]
    while d.parent[path[-1]] != 0:
        path.append(d.parent[path[-1]])
    return path[::-1]


def block_node_depth(d: BlockDecomposition, j: int, internal_depth: int) -> int:
    """Depth in the full block tree of a node at ``internal_depth`` inside block j:
    l(parent)+1 for every left external step and r(parent)+1 for every right one
    on the root-to-j external path, plus the depth inside the block."""
    path = external_path(d, j)
    if not 0 <= internal_depth <= d.internal[j - 1][0]:
        raise ValueError("internal depth outside the block's tree")
    total = internal_depth
    for a, b in zip(path, path[1:]):
        _, l, r = d.internal[a - 1]
        total += g_select(a, b, l + 1, r + 1)
    return total


def block_height(d: BlockDecomposition) -> int:
    """Height of the block tree: max over blocks of the deepest node's depth."""
    return max(block_node_depth(d, j, d.internal[j - 1][0]) for j in range(1, len(d.rho) + 1))


def explicit_degree_multiset(n: int) -> dict[int, int]:
    """Degree multiset of the Boolean lattice's comparability graph from its
    materialized (2^n, 2^n) strict-containment matrix."""
    masks = np.arange(1 << n, dtype=np.int64)
    sub = (masks[:, None] & masks[None, :]) == masks[:, None]
    np.fill_diagonal(sub, False)
    values, freqs = np.unique(sub.sum(axis=0) + sub.sum(axis=1), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, freqs)}


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
    if n < 2:  # no subsequence has a pair to compare
        return words, np.ones(len(words), dtype=np.int64)
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


def nonzero_counts(W: np.ndarray) -> dict[tuple[int, ...], int]:
    """The nonzero cells of a count array as {index tuple: count}."""
    idx = np.nonzero(W)
    return dict(zip(zip(*(i.tolist() for i in idx)), W[idx].tolist()))


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


def stats_recursion_simple(bits) -> tuple[int, int, int]:
    """(h, l, r) of the simple butterfly tree with factor bits ``bits`` (innermost
    first), by the one-step edge recursion: base bit 0 -> (1, 0, 1), bit 1 ->
    (1, 1, 0); each further factor adds (r+1)*(1,0,1) for bit 0 and
    (l+1)*(1,1,0) for bit 1."""
    h, l, r = (1, 1, 0) if bits[0] else (1, 0, 1)
    for b in bits[1:]:
        if b:
            h, l, r = h + l + 1, 2 * l + 1, r
        else:
            h, l, r = h + r + 1, l, 2 * r + 1
    return h, l, r


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


def uniform_words(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, n) uniform words by shuffling a copy of the tiled identity."""
    return g.permuted(np.tile(np.arange(1, n + 1, dtype=np.int64), (count, 1)), axis=1)


def wreath_words(n: int, m: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, n*m) uniform S_n wr S_m words by stacking all m blocks, picking block
    rho(i) for position-block i and shifting it up by rho(i)*n. Independent uniform
    draws of the outer word and of every block give a uniform group element."""
    rho = g.permuted(np.tile(np.arange(m, dtype=np.int64), (count, 1)), axis=1)
    blocks = np.stack([uniform_words(n, count, g) for _ in range(m)], axis=1)
    picked = blocks[np.arange(count)[:, None], rho]
    return (picked + (rho * n)[:, :, None]).reshape(count, n * m)


def nonsimple_butterfly_words(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, 2^n) uniform nonsimple words, each built by :func:`tuple_nonsimple_word`
    from a row of fair shape bits. The bits are one (count, 2^n - 1) integer draw,
    as in ``sampling.nonsimple_butterfly_stats``, so an equal stream gives its trees."""
    bits = g.integers(0, 2, size=(count, (1 << n) - 1))
    return np.array([tuple_nonsimple_word(b, n) for b in bits.tolist()], dtype=np.int64).reshape(count, 1 << n)


def wreath_height_counts(n: int, m: int) -> dict[int, int]:
    """{height: count} over every word of S_n wr S_m, by insertion."""
    counts: dict[int, int] = {}
    for rho in all_words(m):
        for blocks in itertools.product(list(all_words(n)), repeat=m):
            h = naive_summary(assemble_wreath(rho, blocks))[0]
            counts[h] = counts.get(h, 0) + 1
    return counts


def uniform_height_cdf(N: int, K: int) -> np.ndarray:
    """P(h_N <= k) for k = 0..K, h_N the height of a uniform BST on N keys, from
    F_k(M) = (1/M) sum_{i+j=M-1} F_{k-1}(i) F_{k-1}(j), F_k(0) = 1, F_{-1}(M) = [M = 0]:
    one FFT self-convolution per level. The FFT length is at least 2N + 1, so that
    no index of the convolution aliases onto another."""
    L = 1 << (2 * N).bit_length()  # > 2N
    F = np.zeros(N + 1)
    F[0] = 1.0
    sizes = np.arange(1, N + 1)
    out = []
    for _ in range(K + 1):
        f = np.fft.rfft(F, L)
        conv = np.fft.irfft(f * f, L)
        F = np.concatenate(([1.0], conv[:N] / sizes))
        out.append(F[N])
    return np.array(out)
