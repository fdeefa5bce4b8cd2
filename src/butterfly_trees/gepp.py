"""
Random scalar butterfly matrices and Gaussian elimination with partial
pivoting (GEPP).

A scalar butterfly matrix of order 2^n is built recursively from plane
rotations: each internal node contributes (R_theta (x) I)(A1 (+) A2) with
a fresh uniform angle; the simple family reuses one angle per level so
the whole matrix collapses to a Kronecker product of rotations. In the
XOR-mask form of :mod:`butterfly_trees.butterfly`, entry (i, j) is the
product over levels k of the rotation entry of the level-k node owning
column j, at bits k-1 of i and j. GEPP's row-swap history defines a
permutation word w with P B = L U, where P has its 1 of column j in row
w[j]; :func:`~butterfly_trees.butterfly.class_indices` maps w to its class.

:func:`batch_gepp` is the one elimination: a single loop over the pivot
steps of a whole (B, N, N) stack, returning the words and ``lu``, which
holds L's multipliers below the diagonal (L's unit diagonal is implied)
and U on and above it. The loop indexes entry (i, c) of matrix b as
A[i, c, b], the batch axis last. Behind that index a stack of at least
``_BATCH_LAST`` matrices is stored batch-last, so each step's divide,
product and subtract is one contiguous loop over the matrices, and a
smaller one batch-first, where rows are the contiguous loops. Every entry
takes the same IEEE operations in the same order in both memories, so the
words and ``lu`` are the same to the bit. :func:`nonsimple_matrices` builds
its stack batch-last, so a sample reaches the elimination without a
transpose.

The class also follows from the angles alone (Peca-Medlin & Trogdon,
"Growth factors of random butterfly matrices and the stability of
avoiding pivoting", SIAM J. Matrix Anal. Appl. 2023): with the pivot bit
b = [|sin theta| > |cos theta|] of each angle, computed as
[|tan theta| > 1] with one transcendental per angle, the pivot rule
gives a simple matrix the class sum_k b_k 2^k, and reads a nonsimple
matrix's shape from the root down, its children swapped wherever the
parent's bit is 1. The class is a function of the bits alone, and a
one-to-one one, so :func:`uniformity_check` counts each draw's pivot
pattern (its bits read as one integer) over angles drawn from a
``numpy.random.Generator`` that it advances (:func:`random_angles`), and
maps the 2^angles patterns to classes with the rule once per call. It
runs GEPP on a bounded sample of the draws, raising on any disagreement,
and returns the class counts with the largest |P B - L U| entry of that
sample's factorizations; the chi-square test of the counts against
uniform is ``cli``'s. Two budgets bound its memory: ``_DRAW_ENTRIES``
angles a draw block, sized to stay in cache, and ``_BATCH_ENTRIES``
matrix entries in the GEPP sample. A float near-tie |sin| ~ |cos|, where
the rounded products GEPP compares can order differently from the angle's
own sin and cos, is the only way the two can differ; a draw outside the
sample is then counted by the rule.

Pivot ties (equal magnitudes) resolve to the smallest row index, which is
what ``argmax`` returns, and the rule's strict ``>`` agrees; exact ties
have probability zero for the random angles used here.
"""

from __future__ import annotations

import numpy as np

from .butterfly import class_indices, shape_indices

SINGULAR_TOL = 1e-12
# batch_gepp eliminates a stack of at least this many matrices batch-last. Against batch-first, on
# orders 64 to 1024: 1.5-3x slower at 2 and 4 matrices, within 8% at 8 and 12, the same or up to 45%
# faster at 16, 30% faster at 64 of order 256; on the orders 8 to 32 measured it was never slower
_BATCH_LAST = 16


def nonsimple_matrices(n: int, thetas: np.ndarray) -> np.ndarray:
    """(B, 2^n, 2^n) butterfly matrices from (B, 2^n - 1) level-ordered angles.

    Built in batch-last memory, a C-order (2^n, 2^n, B) array returned as
    its (B, 2^n, 2^n) view: the memory :func:`batch_gepp` eliminates a stack
    of at least ``_BATCH_LAST`` matrices in, and one whose level products
    run contiguous loops over the matrices at any B. Level k multiplies in
    place by the (2, 2^n, B) factor of its rotation entries, gathered from
    a cos, sin, -sin table, row r broadcast over the rows i with bit k-1
    equal to r. Leaf level first, as in the block recursion, so every float
    matches it.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    B, T = thetas.shape
    if T != (1 << n) - 1:
        raise ValueError("wrong number of angles")
    sin = np.sin(thetas.T)
    entries = np.stack([np.cos(thetas.T), sin, -sin])  # (3, T, B)
    N = 1 << n
    j = np.arange(N)
    A = np.ones((N, N, B))
    for k in range(1, n + 1):
        node = (1 << (n - k)) - 1 + (j >> k)
        bit = (j >> (k - 1)) & 1
        rows = entries[np.stack([bit, 2 - 2 * bit]), node]  # [[c, s], [-s, c]]
        A.reshape(N >> k, 2, 1 << (k - 1), N, B)[...] *= rows[None, :, None]
    return np.moveaxis(A, -1, 0)


def simple_matrices(n: int, thetas: np.ndarray) -> np.ndarray:
    """(B, 2^n, 2^n) Kronecker-of-rotations matrices from (B, n) per-level angles.

    ``thetas[:, 0]`` is the innermost level; every node of a level shares
    that level's angle.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != n:
        raise ValueError("wrong number of angles")
    return nonsimple_matrices(n, np.repeat(thetas[:, ::-1], 1 << np.arange(n), axis=1))


def _pivot_bits(thetas: np.ndarray) -> np.ndarray:
    """GEPP swaps the rows of an angle's rotation iff |sin| > |cos| (first row on ties).

    Computed as |tan| > 1, one transcendental instead of two. Only angles
    next to a tie (2k+1) pi / 4 could read differently, and there the forms
    agree: order-2 GEPP compares the rounded |cos| and |sin| themselves, and
    a test checks this rule against it at every double within 1000 ulps of
    each tie in [0, 2 pi). At the double nearest 29 pi / 4, sin and cos round
    equal and tan rounds to exactly 1, so both forms keep the first row.
    """
    t = np.tan(thetas)
    return np.abs(t, out=t) > 1


def _simple_classes(n: int, b: np.ndarray) -> np.ndarray:
    """Class index sum_k b_k 2^k of (B, n) pivot bits, ``b[:, 0]`` innermost (bit 0)."""
    return b @ (1 << np.arange(n))


def _nonsimple_classes(n: int, b: np.ndarray) -> np.ndarray:
    """Level-ordered shape bits, root first, read by :func:`~butterfly_trees.butterfly.shape_indices`.

    GEPP on a node swaps its two halves when the node's bit is 1, so the
    shape node at step s below a parent at matrix node p is matrix node
    2p + 1 + (s ^ b_p). ``at`` indexes the raveled bits at row + node, one
    level at a time, so the next level's index is 2 at - row + 1 + (s ^ b).
    """
    flat = b.ravel()
    row = np.arange(len(b))[:, None] * b.shape[1]
    at, levels = row, [b[:, :1]]
    for k in range(1, n):
        at = ((2 * at - row + 1)[:, :, None] + (levels[-1][:, :, None] ^ np.array([False, True]))).reshape(len(b), 1 << k)
        levels.append(flat.take(at))
    del at, row  # 8 bytes a bit, freed before shape_indices widens the bits to int64
    return shape_indices(np.concatenate(levels, axis=1))


def _family(family: str, n: int):
    """(angles per matrix, matrix builder, pivot rule) of a butterfly family."""
    if family == "simple":
        return n, simple_matrices, _simple_classes
    if family == "nonsimple":
        return (1 << n) - 1, nonsimple_matrices, _nonsimple_classes
    raise ValueError(f"unknown family {family!r}")


def random_angles(family: str, n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, angles) angles uniform on [0, 2pi) for ``family``'s matrices: one
    per level (simple) or per internal node (nonsimple), drawn from ``g``."""
    return g.uniform(0, 2 * np.pi, size=(count, _family(family, n)[0]))


def batch_gepp(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GEPP of a (B, N, N) stack: ``(words, lu)`` with P_b M_b = L_b U_b.

    ``words[b, j-1]`` is the final row of row j, so P_b has the 1 of column
    j-1 in row ``words[b, j-1]``; ``lu`` is a C-contiguous (B, N, N) array
    whose ``lu[b]`` holds L_b's multipliers below the diagonal (L_b has a
    unit diagonal) and U_b on and above it. Step k swaps whole row k with
    the row of the largest |entry| of column k among rows k..N (the first on
    ties), divides the column below the pivot by the pivot and subtracts the
    outer product of that column and the pivot row. Raises on the first
    column whose pivot is below ``SINGULAR_TOL`` in any matrix of the stack.

    The one loop reads the stack as A[i, c, b], entry (i, c) of matrix b.
    A stack of at least ``_BATCH_LAST`` matrices is copied batch-last, an
    (N, N, B) array in C order, so every divide, product and subtract runs
    one contiguous loop over the matrices; a smaller one is copied
    batch-first, (B, N, N) in C order, where the contiguous loops run along
    rows. Both memories take each entry through the same IEEE operations in
    the same order (exact swaps, one divide by the pivot, the product
    rounded and then subtracted), so ``words`` and ``lu`` do not depend on
    the order.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a (B, N, N) stack of square matrices")
    B, N, _ = mats.shape

    def stack(flat: np.ndarray, m: int) -> np.ndarray:
        """The first B m^2 entries of ``flat`` as an (m, m, B) stack in A's memory order."""
        flat = flat[: B * m * m]
        return flat.reshape(m, m, B) if B >= _BATCH_LAST else np.moveaxis(flat.reshape(B, m, m), 0, -1)

    A = stack(np.empty(B * N * N), N)
    A[...] = np.moveaxis(mats, 0, -1)
    rows = np.arange(B)
    piv = np.tile(np.arange(N)[:, None], B)
    # each step's outer product fills a contiguous prefix of one buffer, so the peak does not
    # hang on how the allocator reuses a shrinking temporary freed every step
    buf = np.empty(B * (N - 1) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot's NaNs stay in its matrix; it raises below
        for k in range(N - 1):
            j = np.abs(A[k:, k]).argmax(axis=0) + k
            for a in (A, piv):  # swap rows k and j: gather each row j, move row k down to it, put the gathered row at k
                top = a[j, ..., rows]
                a[j, ..., rows] = a[k].T
                a[k] = top.T
            A[k + 1 :, k] /= A[k, k]
            A[k + 1 :, k + 1 :] -= np.multiply(A[k + 1 :, k, None], A[k, None, k + 1 :], out=stack(buf, N - k - 1))
    del buf  # before a batch-last A is copied out: three stacks at most, mats, A and buf or lu
    # pivots are final once chosen, and the first tiny one precedes any NaN it caused
    singular = (np.abs(np.diagonal(A)) < SINGULAR_TOL).any(axis=0)
    if singular.any():
        raise ValueError(f"numerically singular column {int(singular.argmax()) + 1} (max |entry| < {SINGULAR_TOL})")
    words = np.empty((B, N), dtype=np.int64)
    words[rows, piv] = np.arange(1, N + 1)[:, None]
    return words, np.ascontiguousarray(np.moveaxis(A, -1, 0))


_BATCH_ENTRIES = 1 << 22  # matrix entries of the sample of matrices GEPP eliminates
_DRAW_ENTRIES = 1 << 15  # angles per draw block: 256 KB, so a block stays in cache while it is counted
GEPP_SAMPLE = 1024  # draws per run checked by GEPP against the pivot rule
UNIFORMITY_CAP = {"simple": 10, "nonsimple": 4}  # largest n per family; nonsimple n = 4 has 32768 classes


def _pattern_classes(family: str, n: int) -> np.ndarray:
    """Class of each of the 2^angles pivot patterns, pattern p holding the bit of
    angle k at bit k: the family's pivot rule run on the patterns' bits."""
    angles, _, rule = _family(family, n)
    return rule(n, (np.arange(1 << angles, dtype=np.uint16)[:, None] >> np.arange(angles, dtype=np.uint16)) & 1 == 1)


def uniformity_check(n: int, trials: int, g: np.random.Generator, family: str = "nonsimple") -> tuple[np.ndarray, float]:
    """``(counts, max_plu_error)`` of ``trials`` random butterfly matrices; ``cli``
    tests the counts against uniform.

    Draws of class i, numbered as :func:`~butterfly_trees.butterfly.class_indices`
    numbers GEPP words, are ``counts[i]``. Angles are drawn from ``g`` in blocks of
    at most ``_DRAW_ENTRIES`` (the same numbers as one draw), each draw's pivot bits
    read as one pattern integer and counted with one ``bincount`` a block; the
    pivot rule then runs once, on the 2^angles patterns, and its one-to-one map
    from pattern to class carries the pattern counts to the class counts. The
    first ``min(trials, GEPP_SAMPLE)`` draws (fewer if that many matrices exceed
    ``_BATCH_ENTRIES`` entries, or the first block is shorter) are also built and
    eliminated: a GEPP word that is no member, or whose class disagrees with the
    rule, raises ``AssertionError``, and their largest |P M - L U| entry is
    ``max_plu_error``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n > UNIFORMITY_CAP.get(family, n):
        raise ValueError(f"{family} uniformity check capped at n = {UNIFORMITY_CAP[family]}")
    angles, make, _ = _family(family, n)
    draws = max(1, _DRAW_ENTRIES // angles)
    sample = min(GEPP_SAMPLE, max(1, _BATCH_ENTRIES >> (2 * n)))  # one batch of matrices, cut to the first block
    classes = _pattern_classes(family, n)
    weights = 1 << np.arange(angles)
    by_pattern = np.zeros(1 << angles, dtype=np.int64)
    for done in range(0, trials, draws):
        thetas = random_angles(family, n, min(draws, trials - done), g)
        pattern = _pivot_bits(thetas) @ weights
        if done == 0:
            plu_error = _check_sample(family, make(n, thetas[:sample]), classes[pattern[:sample]])
        by_pattern += np.bincount(pattern, minlength=len(by_pattern))
    counts = np.empty_like(by_pattern)
    counts[classes] = by_pattern
    return counts, plu_error


def _check_sample(family: str, mats: np.ndarray, rule_idx: np.ndarray) -> float:
    """Run GEPP on a (B, N, N) stack and raise unless every word is a member
    whose class is ``rule_idx``; return the largest |P M - L U| entry."""
    words, lu = batch_gepp(mats)
    idx = class_indices(words, family)
    if (idx < 0).any():
        w = tuple(words[np.argmax(idx < 0)].tolist())
        raise AssertionError(f"GEPP produced non-member word {w} (not a {family} butterfly)")
    off = idx != rule_idx
    if off.any():
        t = int(np.argmax(off))
        raise AssertionError(
            f"GEPP word {tuple(words[t].tolist())} of draw {t} is class {idx[t]}, the pivot rule gives {rule_idx[t]}"
        )
    B, N, _ = mats.shape
    U = np.triu(lu)
    lu -= U  # L's multipliers below the diagonal, exact zeros on and above it
    lu[:, np.arange(N), np.arange(N)] = 1.0
    residual = lu @ U
    # U's buffer now takes P M, whose row w[j] - 1 is row j of M: four stacks held, not six, at order 1024
    U[np.arange(B)[:, None], words - 1] = mats
    residual -= U
    return float(np.abs(residual, out=residual).max())
