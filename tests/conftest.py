"""Shared independent oracles for the test suite.

These deliberately re-derive quantities with implementations unrelated to
the package internals: plain pointer-chasing BST insertion and the batch
(h, l, r) of many words by one linked-list deletion pass, the word
statistics (LIS/LDS by patience piles and by exhaustive subsequence
enumeration, cycles, prefix records), the Kronecker and wreath products of
words, the block decomposition of a wreath BST (Theorem 2's depth
identity), the exact laws by pairwise dict convolution over their
supports, the nonsimple (H, L, R) counts and the rational mean height by
the dense integer recursion (int64, then Python ints from level 6 on; the
package computes that law in float64), the butterfly words (every simple and nonsimple word, and the
words of given level-ordered shape bits, whose class index is those bits
read as one binary number), membership tests and matrices by their
block recursions, the Boolean lattice's degrees from its adjacency, GEPP
by a one-matrix row loop, the uniform and wreath words by shuffling and
stacking copies and the nonsimple words by the tuple wreath recursion from
the sampler's draw spelled out as shape bits (the package samples their
trees without words or bits), the wreath height law by enumerating the
group, the uniform BST height law by its size recursion, the least
nonsimple heights by a Pareto DP over (h, l, r), and the harmonic numbers,
simple mean height and edge moments in closed form. Two helpers are not
oracles: :func:`gepp_factorization`, the package's batched GEPP on one
matrix, and :func:`pivot_classes`, the package's pivot rule read from
angles, which the tests check against GEPP and against the pattern counts.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

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


_LOW = (1 << 32) - 1  # low half of a packed link: the next slot


def batch_summaries(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, l, r) int64 arrays for a (B, n) matrix of 1-based words, one tree per row,
    by one vectorized pass per column across all rows, without building a tree.

    The pass deletes keys from a doubly linked list over 0..n+1 in reverse
    insertion order; the deleted key v is a leaf of the tree of the keys up to
    it, and its list neighbours p < v < s are its insertion-time predecessor and
    successor. Every live key k owns gap[k], the node count of the longest
    root-to-leaf path in the final subtree that fills the interval between k
    and its live successor. Deleting v joins the intervals (p, v) and (v, s)
    under v, so gap[p] = 1 + max(gap[p], gap[v]); when every key is gone,
    gap[0] is the node count of the tallest path and h = gap[0] - 1. The gap
    lives in the high half of the next-link, link[k] = gap[k] << 32 | nxt[k],
    so the pass keeps two arrays (``link`` and ``prv``) and one integer maximum
    of two links carries the larger gap. The edges need no tree: key 1 lies
    under every prefix minimum of the word and key n under every prefix
    maximum, so l and r are those record counts minus one.

    Raises ValueError unless ``words`` is a 2-d integer array with n >= 1
    whose rows are permutations of 1..n, and unless B*(n+2) < 2^32, the
    slot count that the 32-bit next-link field can address.
    """
    W = np.asarray(words)
    if W.ndim != 2 or W.shape[1] == 0:
        raise ValueError(f"expected a 2-d array of words with n >= 1, got shape {W.shape}")
    if not np.issubdtype(W.dtype, np.integer):
        raise ValueError(f"expected an integer array of words, got dtype {W.dtype}")
    B, n = W.shape
    m = n + 2
    if B * m > _LOW:
        raise ValueError(f"{B} rows of {n} keys need {B * m} slots; a 32-bit next-link addresses fewer than 2^32")
    if W.size and (W.min() < 1 or W.max() > n):
        raise ValueError(f"word values must lie in 1..{n}")
    records = np.empty(W.shape, dtype=W.dtype)
    l = np.count_nonzero(np.minimum.accumulate(W, axis=1, out=records) == W, axis=1) - 1
    r = np.count_nonzero(np.maximum.accumulate(W, axis=1, out=records) == W, axis=1) - 1
    del records  # freed before the pass allocates its two link arrays
    # key k of row b lives in slot b*(n+2) + k: live neighbours of a key in one row tend to
    # share its cache line; link[k] = gap[k] << 32 | nxt[k], every gap starting at 0
    base = np.arange(0, B * m, m, dtype=np.int64)
    link = np.arange(1, B * m + 1, dtype=np.int64)
    prv = np.arange(-1, B * m - 1, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        v = np.add(W[:, j], base, dtype=np.int64)  # uint64 + int64 would promote to float64
        lv = link[v]
        p = prv[v]
        s = lv & _LOW
        # the high halves decide the maximum; | LOW then + 1 clears the low half and adds one
        t = np.maximum(link[p], lv)
        t |= _LOW
        t += 1
        t += s
        link[p] = t
        prv[s] = p
    heads = link[::m]
    # a key missing from a row is never deleted, and no relink jumps over it
    if not np.array_equal(heads & _LOW, np.arange(n + 1, B * m, m)):
        raise ValueError("every row must be a permutation of 1..n")
    return (heads >> 32) - 1, l, r


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


def harmonic(n: int, power: int = 1) -> Fraction:
    """Generalized harmonic number sum_{j<=n} 1/j^power as an exact rational."""
    return sum((Fraction(1, j**power) for j in range(1, n + 1)), Fraction(0))


def simple_height_mean(n: int) -> Fraction:
    """Mean height 2 (3/2)^n - 2 of a uniform simple butterfly tree."""
    return 2 * Fraction(3, 2) ** n - 2


def edge_moments(n: int) -> tuple[Fraction, Fraction]:
    """(E L_n, E L_n^2) for the top-edge length of a nonsimple butterfly tree:
    E L_n = (3/2)^n - 1 and E L_n^2 = (4/3)(3/2)^(2n) - (7/3)(3/2)^n + 1. By
    symmetry the same moments hold for R_n."""
    lam = Fraction(3, 2) ** n
    return lam - 1, Fraction(4, 3) * lam**2 - Fraction(7, 3) * lam + 1


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


def _height_edge_cdf(W: np.ndarray) -> np.ndarray:
    """F[h, c] = #{H <= h, R = c} from the counts ``W[h, l, r]`` of one level."""
    return np.cumsum(W.sum(axis=1), axis=0)


def _wreath_step(W: np.ndarray) -> np.ndarray:
    """Level-(k+1) counts from the level-k counts ``W[h, l, r]`` of shape (D, D, D).

    Bit 0 maps the iid pair to (max(H1, R1+1+H2), L1, R1+1+R2), so it needs
    only the (H2, R2) marginal of the second copy. For each R1 = c the count
    of max(H1, c+1+H2) <= h is the CDF product F1(h)·F2(h-c-1); first
    differences along h give the point counts, which all lie in
    h = c+1 .. c+D. Bit 1 is the mirror image of bit 0, and the law is
    symmetric in (L, R), so its counts are bit 0's with L and R swapped.
    """
    D = W.shape[0]
    F1 = np.cumsum(W, axis=0)  # F1[h, l, c] = #{H1 <= h, L1 = l, R1 = c}
    F2 = _height_edge_cdf(W)  # F2[h, r] = #{H2 <= h, R2 = r}
    new = np.zeros((2 * D, 2 * D, 2 * D), dtype=W.dtype)
    for c in range(D):
        m = D - c  # L1 < D - c: the two top edges share only the root
        f1 = F1[np.minimum(np.arange(c + 1, c + D + 1), D - 1), :m, c]
        cdf = f1[:, :, None] * F2[:, None, :]  # rows h = c+1 .. c+D
        new[c + 1 : c + D + 1, :m, c + 1 : c + D + 1] += np.diff(cdf, axis=0, prepend=np.zeros_like(cdf[:1]))
    return new + new.transpose(0, 2, 1)


def triple_counts(n: int) -> tuple[np.ndarray, int]:
    """Exact joint (H, L, R) law at level n as (counts ``W[h, l, r]``,
    denominator exponent), from two iid level-(n-1) copies through the
    deterministic edge recursion with a fair outer bit.

    ``W`` is dense of side 2^n; level 0 is the one-node tree (0, 0, 0). See
    :func:`_wreath_step` for one step. The counts sum to 2^(2^n - 1), so they
    are int64 up to level 5 and Python ints in an object array from level 6
    on, where int64 would wrap.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    W = np.ones((1, 1, 1), dtype=np.int64)
    exp = 0
    for _ in range(n):
        exp = 2 * exp + 1
        if 1 << exp > np.iinfo(np.int64).max:
            W = W.astype(object)
        W = _wreath_step(W)
    return W, exp


def fraction_mean_height(n: int) -> Fraction:
    """Exact mean height of a uniform nonsimple butterfly tree with 2^n nodes.

    E h_n = sum_h P(h_n > h) needs only level n-1: bit 1 mirrors bit 0 and
    gives the same height law, so h_n = max(H1, R1+1+H2) in law. With
    F[h, c] = #{H1 <= h, R1 = c} and F2(h) = #{H2 <= h}, the pairs with
    h_n <= h number sum_c F[h, c]·F2(h-c-1), for h = 0 .. 2^n - 2 (the
    largest height is 2^n - 1). Each such count fits int64 at n = 6; their
    sum over h does not, so it is taken in Python ints.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    W, exp = triple_counts(n - 1)
    D = W.shape[0]
    F = _height_edge_cdf(W)
    F2 = np.concatenate([np.zeros(1, dtype=W.dtype), F.sum(axis=1)])  # F2[x + 1] = #{H2 <= x}
    h = np.arange(2 * D - 1)
    below = (F[np.minimum(h, D - 1)] * F2[np.clip(h[:, None] - np.arange(D), 0, D)]).sum(axis=1)
    pairs = 1 << (2 * exp)
    return Fraction(pairs * len(below) - sum(below.tolist()), pairs)


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


def all_simple_words(n: int) -> np.ndarray:
    """(2^n, 2^n) matrix of all simple words: row m is ``1 + (i ^ m)``, the word
    whose factor bits are the bits of m (least significant innermost)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(1 << n, dtype=np.int64)
    return 1 + (i[None, :] ^ i[:, None])


@functools.cache
def simple_trees(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (h, l, r) of the trees of :func:`all_simple_words`, built once
    per n by :func:`batch_summaries` and shared by the tests that enumerate them."""
    hlr = batch_summaries(all_simple_words(n))
    for a in hlr:
        a.flags.writeable = False
    return hlr


def words_from_shape_bits(n: int, bits) -> np.ndarray:
    """(B, 2^n) words from a (B, 2^n - 1) matrix of level-ordered 0/1 shape bits.

    Row t is ``1 + (i ^ f)``, where bit k-1 of f[i] is the bit of the
    level-k node that owns position i.
    """
    bits = np.asarray(bits)
    if n < 1 or bits.ndim != 2 or bits.shape[1] != (1 << n) - 1:
        raise ValueError(f"need n >= 1 and a (B, 2^n - 1) matrix of shape bits, got n = {n}, shape {bits.shape}")
    if bits.dtype.kind not in "biu" or bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("shape bits must be integers 0 or 1")
    bits = bits.astype(np.int64)
    i = np.arange(1 << n, dtype=np.int64)
    f = np.zeros((bits.shape[0], 1 << n), dtype=np.int64)
    for k in range(1, n + 1):
        f |= bits[:, (1 << (n - k)) - 1 + (i >> k)] << (k - 1)
    return 1 + (i ^ f)


def index_shape_bits(index: np.ndarray, k: int) -> np.ndarray:
    """``index.shape + (2^k - 1,)`` level-ordered shape bits of the k-level shapes
    with class index ``index``: its binary digits, root most significant."""
    T = (1 << k) - 1
    return (np.asarray(index)[..., None] >> np.arange(T - 1, -1, -1)) & 1


def all_nonsimple_words(n: int) -> np.ndarray:
    """(2^(2^n - 1), 2^n) matrix of all nonsimple words, row i = class index i.

    Refuses n > 4 (32768 words), as the count is doubly exponential in n.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"n must be in 1..4 (2^(2^n - 1) words), got {n}")
    return words_from_shape_bits(n, index_shape_bits(np.arange(1 << ((1 << n) - 1)), n))


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


def gepp_factorization(M: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(word, L, U) with P M = L U: ``gepp.batch_gepp`` on a stack of one, ``lu`` split
    into L and U. Not an oracle: the one-matrix form of the package's elimination."""
    from butterfly_trees.gepp import batch_gepp

    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    words, lu = batch_gepp(M[None])
    return tuple(words[0].tolist()), np.tril(lu[0], -1) + np.eye(len(M)), np.triu(lu[0])


def pivot_classes(family: str, n: int, thetas: np.ndarray) -> np.ndarray:
    """GEPP class index of each row of a (B, angles) array, without building a matrix:
    the package's pivot rule on the angles' pivot bits. Not an oracle: what
    ``gepp.uniformity_check`` counts, one draw at a time.

    Equal to ``class_indices(batch_gepp(matrices(n, thetas))[0], family)``
    except at float near-ties |sin| ~ |cos| (see the ``gepp`` module docstring):

    >>> from butterfly_trees.butterfly import class_indices
    >>> from butterfly_trees.gepp import batch_gepp, nonsimple_matrices
    >>> t = np.array([[2.0, 0.1, 2.0]])  # bits 1, 0, 1: the root's bit swaps its children
    >>> pivot_classes("nonsimple", 2, t).tolist()
    [6]
    >>> class_indices(batch_gepp(nonsimple_matrices(2, t))[0], "nonsimple").tolist()
    [6]
    """
    from butterfly_trees import gepp

    angles, _, rule = gepp._family(family, n)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != angles:
        raise ValueError("wrong number of angles")
    return rule(n, gepp._pivot_bits(thetas))


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


def nonsimple_subtrees(n: int, count: int, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(top, index) drawn as ``sampling.nonsimple_butterfly_stats`` draws them:
    with k = min(n, 4), a (count, 2^(n-k) - 1) matrix of the top n - k levels'
    fair bits, then a (count, 2^(n-k)) matrix of uniform class indices below
    2^(2^k - 1), one per bottom subtree, left to right."""
    k = min(n, 4)
    top = g.integers(0, 2, size=(count, (1 << (n - k)) - 1))
    return top, g.integers(0, 1 << ((1 << k) - 1), size=(count, 1 << (n - k)))


def subtree_shape_bits(n: int, top: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(B, 2^n - 1) level-ordered shape bits of the trees given, as
    ``butterfly.stats_from_subtrees`` takes them, by top bits and bottom
    subtree class indices: the top bits, then every index expanded to its
    binary digits by :func:`index_shape_bits`. Level n - k + t holds every
    subtree's level t, k = min(n, 4)."""
    k = min(n, 4)
    sub = index_shape_bits(index, k)
    levels = [sub[..., (1 << t) - 1 : (1 << (t + 1)) - 1].reshape(len(top), -1) for t in range(k)]
    return np.concatenate([top] + levels, axis=1)


def nonsimple_shape_bits(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, 2^n - 1) level-ordered fair shape bits: the draw of
    :func:`nonsimple_subtrees` spelled out by :func:`subtree_shape_bits`."""
    return subtree_shape_bits(n, *nonsimple_subtrees(n, count, g))


def nonsimple_butterfly_words(n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, 2^n) uniform nonsimple words, each built by :func:`tuple_nonsimple_word`
    from a row of :func:`nonsimple_shape_bits`, so an equal stream gives the trees
    of ``sampling.nonsimple_butterfly_stats``."""
    bits = nonsimple_shape_bits(n, count, g)
    return np.array([tuple_nonsimple_word(b, n) for b in bits.tolist()], dtype=np.int64).reshape(count, 1 << n)


def nonsimple_pareto_fronts(n_max: int) -> list[set]:
    """The Pareto-minimal (h, l, r) triples of the nonsimple butterfly trees at
    each level 1..n_max: those that no other tree of the level is <= in every
    coordinate. Each level combines every pair of the level below's front under
    both bits; the combine is nondecreasing in every coordinate, so a dominated
    triple only ever leads to dominated ones. The least height of level n is
    the least h on its front."""
    fronts = [{(1, 0, 1), (1, 1, 0)}]
    for _ in range(2, n_max + 1):
        reached = set()
        for H1, L1, R1 in fronts[-1]:
            for H2, L2, R2 in fronts[-1]:
                reached.add((max(H1, R1 + 1 + H2), L1, R1 + 1 + R2))
                reached.add((max(H1, L1 + 1 + H2), L1 + 1 + L2, R1))
        fronts.append(pareto_minimal(reached))
    return fronts


def pareto_minimal(triples) -> set:
    """The triples that no other triple is <= in every coordinate. In sorted
    order a triple's dominators come before it, so each is checked only
    against the minimal ones kept so far."""
    front: list = []
    for t in sorted(set(triples)):
        if not any(all(a <= b for a, b in zip(u, t)) for u in front):
            front.append(t)
    return set(front)


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
