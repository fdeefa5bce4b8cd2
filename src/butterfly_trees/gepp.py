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
and U on and above it.

The class also follows from the angles alone (Peca-Medlin & Trogdon,
"Growth factors of random butterfly matrices and the stability of
avoiding pivoting", SIAM J. Matrix Anal. Appl. 2023): with the pivot bit
b = [|sin theta| > |cos theta|] of each angle, computed as
[|tan theta| > 1] with one transcendental per angle, :func:`pivot_classes`
gives a simple matrix the class sum_k b_k 2^k, and reads a nonsimple
matrix's shape from the root down, its children swapped wherever the
parent's bit is 1. :func:`uniformity_check` counts classes by this rule
over angles drawn from a ``numpy.random.Generator`` that it advances
(:func:`random_angles`), runs GEPP on a bounded sample of them, raising
on any disagreement, and returns the counts with the largest |P B - L U|
entry of that sample's factorizations; the chi-square test of the counts
against uniform is ``cli``'s. A float near-tie |sin| ~ |cos|, where the
rounded products GEPP compares can order differently from the angle's own
sin and cos, is the only way the two can differ; a draw outside the
sample is then counted by the rule.

Pivot ties (equal magnitudes) resolve to the smallest row index, which is
what ``argmax`` returns, and the rule's strict ``>`` agrees; exact ties
have probability zero for the random angles used here.
"""

from __future__ import annotations

import numpy as np

from .butterfly import class_indices, shape_indices

SINGULAR_TOL = 1e-12


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


def _pivot_bits(thetas: np.ndarray) -> np.ndarray:
    """GEPP swaps the rows of an angle's rotation iff |sin| > |cos| (first row on ties).

    Computed as |tan| > 1, one transcendental instead of two. Only angles
    next to a tie (2k+1) pi / 4 could read differently, and there the forms
    agree: order-2 GEPP compares the rounded |cos| and |sin| themselves, and
    a test checks this rule against it at every double within 1000 ulps of
    each tie in [0, 2 pi). At the double nearest 29 pi / 4, sin and cos round
    equal and tan rounds to exactly 1, so both forms keep the first row.
    """
    return np.abs(np.tan(thetas)) > 1


def _simple_classes(n: int, thetas: np.ndarray) -> np.ndarray:
    """Class index sum_k b_k 2^k, ``thetas[:, 0]`` innermost (bit 0)."""
    return _pivot_bits(thetas) @ (1 << np.arange(n))


def _nonsimple_classes(n: int, thetas: np.ndarray) -> np.ndarray:
    """Level-ordered shape bits, root first, read by :func:`~butterfly_trees.butterfly.shape_indices`.

    GEPP on a node swaps its two halves when the node's bit is 1, so the
    shape node at step s below a parent at matrix node p is matrix node
    2p + 1 + (s ^ b_p); ``node`` tracks that map one level at a time.
    """
    b = _pivot_bits(thetas)
    node = np.zeros((len(b), 1), dtype=np.int64)
    levels = [b[:, :1]]
    for _ in range(n - 1):
        parent = np.take_along_axis(b, node, axis=1)
        node = (2 * node + 1)[:, :, None] + (np.arange(2) ^ parent[:, :, None])
        node = node.reshape(len(b), -1)
        levels.append(np.take_along_axis(b, node, axis=1))
    return shape_indices(np.concatenate(levels, axis=1))


def _family(family: str, n: int):
    """(angles per matrix, matrix builder, pivot rule) of a butterfly family."""
    if family == "simple":
        return n, simple_matrices, _simple_classes
    if family == "nonsimple":
        return (1 << n) - 1, nonsimple_matrices, _nonsimple_classes
    raise ValueError(f"unknown family {family!r}")


def pivot_classes(family: str, n: int, thetas: np.ndarray) -> np.ndarray:
    """GEPP class index of each row of a (B, angles) array, without building a matrix.

    Equal to ``class_indices(batch_gepp(matrices(n, thetas))[0], family)``
    except at float near-ties |sin| ~ |cos| (see the module docstring):

    >>> t = np.array([[2.0, 0.1, 2.0]])  # bits 1, 0, 1: the root's bit swaps its children
    >>> pivot_classes("nonsimple", 2, t).tolist()
    [6]
    >>> class_indices(batch_gepp(nonsimple_matrices(2, t))[0], "nonsimple").tolist()
    [6]
    """
    angles, _, rule = _family(family, n)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != angles:
        raise ValueError("wrong number of angles")
    return rule(n, thetas)


def random_angles(family: str, n: int, count: int, g: np.random.Generator) -> np.ndarray:
    """(count, angles) angles uniform on [0, 2pi) for ``family``'s matrices: one
    per level (simple) or per internal node (nonsimple), drawn from ``g``."""
    return g.uniform(0, 2 * np.pi, size=(count, _family(family, n)[0]))


def batch_gepp(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GEPP of a (B, N, N) stack: ``(words, lu)`` with P_b M_b = L_b U_b.

    ``words[b, j-1]`` is the final row of row j, so P_b has the 1 of column
    j-1 in row ``words[b, j-1]``; ``lu[b]`` holds L_b's multipliers below
    the diagonal (L_b has a unit diagonal) and U_b on and above it. Step k
    swaps whole row k with the row of the largest |entry| of column k among
    rows k..N (the first on ties), divides the column below the pivot by
    the pivot and subtracts the outer product of that column and the pivot
    row. Raises on the first column whose pivot is below ``SINGULAR_TOL``
    in any matrix of the stack.
    """
    A = np.array(mats, dtype=float, copy=True)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a (B, N, N) stack of square matrices")
    B, N, _ = A.shape
    rows = np.arange(B)
    piv = np.tile(np.arange(N), (B, 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot's NaNs stay in its matrix; it raises below
        for k in range(N - 1):
            j = np.abs(A[:, k:, k]).argmax(axis=1) + k
            A[rows, k], A[rows, j] = A[rows, j], A[rows, k]
            piv[rows, k], piv[rows, j] = piv[rows, j], piv[rows, k]
            A[:, k + 1 :, k] /= A[:, k, k, None]
            A[:, k + 1 :, k + 1 :] -= A[:, k + 1 :, k, None] * A[:, k, None, k + 1 :]
    # pivots are final once chosen, and the first tiny one precedes any NaN it caused
    singular = (np.abs(np.diagonal(A, axis1=1, axis2=2)) < SINGULAR_TOL).any(axis=0)
    if singular.any():
        raise ValueError(f"numerically singular column {int(singular.argmax()) + 1} (max |entry| < {SINGULAR_TOL})")
    words = np.empty((B, N), dtype=np.int64)
    words[rows[:, None], piv] = np.arange(1, N + 1)
    return words, A


_BATCH_ENTRIES = 1 << 22  # entries per GEPP batch: of one angle draw, and of the sample of matrices eliminated
GEPP_SAMPLE = 1024  # draws per run checked by GEPP against the pivot rule
UNIFORMITY_CAP = {"simple": 10, "nonsimple": 4}  # largest n per family; nonsimple n = 4 has 32768 classes


def uniformity_check(n: int, trials: int, g: np.random.Generator, family: str = "nonsimple") -> tuple[np.ndarray, float]:
    """``(counts, max_plu_error)`` of ``trials`` random butterfly matrices; ``cli``
    tests the counts against uniform.

    Draws of class i, numbered as :func:`~butterfly_trees.butterfly.class_indices`
    numbers GEPP words, are ``counts[i]``, counted by :func:`pivot_classes` from
    angles drawn from ``g`` in chunks of at most ``_BATCH_ENTRIES`` (the same
    numbers as one draw). The first ``min(trials, GEPP_SAMPLE)`` draws (fewer if
    that many matrices exceed ``_BATCH_ENTRIES``) are also built and eliminated:
    a GEPP word that is no member, or whose class disagrees with the rule, raises
    ``AssertionError``, and their largest |P M - L U| entry is ``max_plu_error``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n > UNIFORMITY_CAP.get(family, n):
        raise ValueError(f"{family} uniformity check capped at n = {UNIFORMITY_CAP[family]}")
    angles, make, _ = _family(family, n)
    draws = max(1, _BATCH_ENTRIES // angles)
    sample = min(GEPP_SAMPLE, max(1, _BATCH_ENTRIES >> (2 * n)))  # one batch of matrices, within the first draw
    counts = np.zeros(1 << angles, dtype=np.int64)
    for done in range(0, trials, draws):
        thetas = random_angles(family, n, min(draws, trials - done), g)
        idx = pivot_classes(family, n, thetas)
        if done == 0:
            plu_error = _check_sample(family, make(n, thetas[:sample]), idx[:sample])
        counts += np.bincount(idx, minlength=len(counts))
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
