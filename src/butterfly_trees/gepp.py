"""
Random scalar butterfly matrices and Gaussian elimination with partial
pivoting (GEPP).

A scalar butterfly matrix of order 2^n is built recursively from plane
rotations: each internal node contributes (R_theta (x) I)(A1 (+) A2) with
a fresh uniform angle; the simple family reuses one angle per level so
the whole matrix collapses to a Kronecker product of rotations. GEPP's
row-swap history defines a permutation word w with P B = L U, where P
has its 1 of column j in row w[j].

Pivot ties (equal magnitudes) resolve to the smallest row index, which is
what ``argmax`` returns; exact ties have probability zero for the random
angles used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butterfly import (
    enumerate_nonsimple,
    enumerate_simple,
    is_nonsimple_butterfly,
    is_simple_butterfly,
)
from .perms import Word
from .sampling import RngState, _gen

SINGULAR_TOL = 1e-12


def rotation(theta: float) -> np.ndarray:
    """Order-2 clockwise rotation [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def nonsimple_matrices(n: int, thetas: np.ndarray) -> np.ndarray:
    """(B, 2^n, 2^n) butterfly matrices from (B, 2^n - 1) level-ordered angles."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    B = thetas.shape[0]
    if thetas.shape[1] != (1 << n) - 1:
        raise ValueError("wrong number of angles")
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


def simple_matrices(n: int, thetas: np.ndarray) -> np.ndarray:
    """(B, 2^n, 2^n) Kronecker-of-rotations matrices from (B, n) per-level angles.

    ``thetas[:, 0]`` is the innermost level; every node of a level shares
    that level's angle.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != n:
        raise ValueError("wrong number of angles")
    full = np.empty((thetas.shape[0], (1 << n) - 1))
    for k in range(1, n + 1):
        lev = n - k
        first = (1 << lev) - 1
        full[:, first : first + (1 << lev)] = thetas[:, k - 1][:, None]
    return nonsimple_matrices(n, full)


def random_simple_butterfly_matrix(n: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """Kronecker product of n independent rotations, angles uniform on [0, 2pi)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _gen(rng)
    return simple_matrices(n, g.uniform(0, 2 * np.pi, size=(1, n)))[0]


def random_nonsimple_butterfly_matrix(n: int, rng: RngState | np.random.Generator) -> np.ndarray:
    """Recursive butterfly matrix with one fresh uniform angle per internal node."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _gen(rng)
    return nonsimple_matrices(n, g.uniform(0, 2 * np.pi, size=(1, (1 << n) - 1)))[0]


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
    """Chi-square test of GEPP permutations against uniform on the butterfly group."""
    if n > UNIFORMITY_CAP.get(family, n):
        raise ValueError(f"{family} uniformity check capped at n = {UNIFORMITY_CAP[family]}")
    if family == "simple":
        classes = {w: 0 for w in enumerate_simple(n)}
        n_angles = n
        make = simple_matrices
        member = is_simple_butterfly
    elif family == "nonsimple":
        classes = {w: 0 for w in enumerate_nonsimple(n)}
        n_angles = (1 << n) - 1
        make = nonsimple_matrices
        member = is_nonsimple_butterfly
    else:
        raise ValueError(f"unknown family {family!r}")
    g = _gen(rng)
    N = 1 << n
    chunk = max(1, _CHUNK_ENTRIES // (N * N))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        words = batch_gepp_words(make(n, g.uniform(0, 2 * np.pi, size=(b, n_angles))))
        for row in words:
            w = tuple(int(x) for x in row)
            if w not in classes:
                raise AssertionError(f"GEPP produced non-member word {w} ({member.__name__} fails)")
            classes[w] += 1
        done += b
    from scipy import stats  # imported where used: it dominates the package's import time

    res = stats.chisquare(list(classes.values()))
    return UniformityReport(
        family=family,
        n=n,
        trials=trials,
        classes=len(classes),
        statistic=float(res.statistic),
        pvalue=float(res.pvalue),
        counts=classes,
    )
