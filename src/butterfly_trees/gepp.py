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

Pivot ties (equal magnitudes) resolve to the smallest row index, which is
what ``argmax`` returns; exact ties have probability zero for the random
angles used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butterfly import all_nonsimple_words, all_simple_words, class_indices
from .perms import Word
from .sampling import RngState, _gen

SINGULAR_TOL = 1e-12


def rotation(theta: float) -> np.ndarray:
    """Order-2 clockwise rotation [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def nonsimple_matrices(n: int, thetas: np.ndarray) -> np.ndarray:
    """(B, 2^n, 2^n) butterfly matrices from (B, 2^n - 1) level-ordered angles.

    Level k multiplies in place by the (B, 2, 2^n) factor of its rotation
    entries, row r broadcast over the rows i with bit k-1 equal to r. Leaf
    level first, as in the block recursion, so every float matches it.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    B, T = thetas.shape
    if T != (1 << n) - 1:
        raise ValueError("wrong number of angles")
    c, s = np.cos(thetas), np.sin(thetas)
    N = 1 << n
    j = np.arange(N)
    A = np.ones((B, N, N))
    for k in range(1, n + 1):
        node = (1 << (n - k)) - 1 + (j >> k)
        bit = ((j >> (k - 1)) & 1) == 1
        cj, sj = c[:, node], s[:, node]
        rows = np.stack([np.where(bit, sj, cj), np.where(bit, cj, -sj)], axis=1)  # [[c, s], [-s, c]]
        A.reshape(B, N >> k, 2, 1 << (k - 1), N)[...] *= rows[:, None, :, None, :]
    return A


def simple_matrices(n: int, thetas: np.ndarray) -> np.ndarray:
    """(B, 2^n, 2^n) Kronecker-of-rotations matrices from (B, n) per-level angles.

    ``thetas[:, 0]`` is the innermost level; every node of a level shares
    that level's angle.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != n:
        raise ValueError("wrong number of angles")
    return nonsimple_matrices(n, np.repeat(thetas[:, ::-1], 1 << np.arange(n), axis=1))


def _family(family: str, n: int):
    """(angles per matrix, matrix builder, all GEPP classes by class index) of a butterfly family."""
    if family == "simple":
        return n, simple_matrices, all_simple_words
    if family == "nonsimple":
        return (1 << n) - 1, nonsimple_matrices, all_nonsimple_words
    raise ValueError(f"unknown family {family!r}")


def random_butterfly_matrices(family: str, n: int, count: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """(count, 2^n, 2^n) random matrices of ``family``: one angle uniform on [0, 2pi)
    per level (simple) or per internal node (nonsimple)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    angles, make, _ = _family(family, n)
    return make(n, _gen(rng).uniform(0, 2 * np.pi, size=(count, angles)))


def random_simple_butterfly_matrix(n: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """Kronecker product of n independent rotations, angles uniform on [0, 2pi)."""
    return random_butterfly_matrices("simple", n, 1, rng)[0]


def random_nonsimple_butterfly_matrix(n: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """Recursive butterfly matrix with one fresh uniform angle per internal node."""
    return random_butterfly_matrices("nonsimple", n, 1, rng)[0]


def batch_gepp_words(mats: np.ndarray, check_singular: bool = False) -> np.ndarray:
    """GEPP row-permutation words for a (B, N, N) batch; word[j-1] = final row of row j."""
    A = np.array(mats, dtype=float, copy=True)
    if A.ndim == 2:
        A = A[None]
    B, N, _ = A.shape
    rows = np.arange(B)
    piv = np.tile(np.arange(N), (B, 1))
    for k in range(N - 1):
        col = np.abs(A[:, k:, k])
        if check_singular and (col.max(axis=1) < SINGULAR_TOL).any():
            raise ValueError(f"numerically singular column {k + 1} (max |entry| < {SINGULAR_TOL})")
        j = col.argmax(axis=1) + k
        tmp = A[rows, k].copy()
        A[rows, k] = A[rows, j]
        A[rows, j] = tmp
        tp = piv[rows, k].copy()
        piv[rows, k] = piv[rows, j]
        piv[rows, j] = tp
        mult = A[:, k + 1 :, k] / A[:, k, k][:, None]
        A[:, k + 1 :, k + 1 :] -= mult[:, :, None] * A[:, k, k + 1 :][:, None, :]
    words = np.empty((B, N), dtype=np.int64)
    words[rows[:, None], piv] = np.arange(1, N + 1)[None, :]
    return words


def gepp_factorization(M: np.ndarray) -> tuple[Word, np.ndarray, np.ndarray]:
    """(word, L, U) with P B = L U for P built from the word (column j hits row word[j]).

    Pivoting swaps row k with the largest-magnitude entry of column k among
    rows k..N (first such row on ties); raises on a numerically zero column.
    """
    A = np.array(M, dtype=float, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    N = A.shape[0]
    piv = list(range(N))
    for k in range(N - 1):
        col = np.abs(A[k:, k])
        if col.max() < SINGULAR_TOL:
            raise ValueError(f"numerically singular column {k + 1} (max |entry| < {SINGULAR_TOL})")
        j = int(col.argmax()) + k
        if j != k:
            A[[k, j]] = A[[j, k]]
            piv[k], piv[j] = piv[j], piv[k]
        A[k + 1 :, k] /= A[k, k]
        A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])
    if N >= 1 and abs(A[N - 1, N - 1]) < SINGULAR_TOL:
        raise ValueError(f"numerically singular column {N} (max |entry| < {SINGULAR_TOL})")
    word = [0] * N
    for pos, orig in enumerate(piv):
        word[orig] = pos + 1
    L = np.tril(A, -1) + np.eye(N)
    U = np.triu(A)
    return tuple(word), L, U


def gepp_permutation(M: np.ndarray) -> Word:
    """GEPP row-swap permutation of a nonsingular square matrix."""
    word, _, _ = gepp_factorization(M)
    return word


@dataclass(frozen=True)
class UniformityReport:
    family: str
    n: int
    trials: int
    classes: int
    statistic: float
    pvalue: float
    counts: dict[Word, int]


_CHUNK_ENTRIES = 1 << 22  # soft memory limit for batched matrices
UNIFORMITY_CAP = {"simple": 10, "nonsimple": 3}  # largest n per family; nonsimple n = 3 has 128 classes


def uniformity_check(
    n: int,
    trials: int,
    rng: RngState | np.random.Generator,
    family: str = "nonsimple",
) -> UniformityReport:
    """Chi-square test of GEPP permutations against uniform on the butterfly group.

    Every GEPP word is mapped to its class index by
    :func:`~butterfly_trees.butterfly.class_indices`; a non-member raises
    ``AssertionError``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n > UNIFORMITY_CAP.get(family, n):
        raise ValueError(f"{family} uniformity check capped at n = {UNIFORMITY_CAP[family]}")
    angles, _, all_words = _family(family, n)
    g = _gen(rng)
    chunk = max(1, _CHUNK_ENTRIES >> (2 * n))
    counts = np.zeros(1 << angles, dtype=np.int64)
    for done in range(0, trials, chunk):
        words = batch_gepp_words(random_butterfly_matrices(family, n, min(chunk, trials - done), g))
        idx = class_indices(words, family)
        if (idx < 0).any():
            w = tuple(words[np.argmax(idx < 0)].tolist())
            raise AssertionError(f"GEPP produced non-member word {w} (is_{family}_butterfly fails)")
        counts += np.bincount(idx, minlength=len(counts))
    from scipy import stats  # imported where used: it dominates the package's import time

    res = stats.chisquare(counts)
    return UniformityReport(
        family=family,
        n=n,
        trials=trials,
        classes=len(counts),
        statistic=float(res.statistic),
        pvalue=float(res.pvalue),
        counts=dict(zip(map(tuple, all_words(n).tolist()), counts.tolist())),
    )
