import math
import re
from collections import Counter

import numpy as np
import pytest

from butterfly_trees import cli, gepp
from butterfly_trees.butterfly import class_indices
from butterfly_trees.gepp import (
    batch_gepp,
    nonsimple_matrices,
    pivot_classes,
    random_angles,
    simple_matrices,
    uniformity_check,
)
from butterfly_trees.sampling import RngState
from conftest import all_nonsimple_words, all_simple_words, block_nonsimple_matrices, gepp_factorization, scalar_gepp


def plu_error(M, word, L, U):
    P = np.zeros_like(M)
    for j, wj in enumerate(word):
        P[wj - 1, j] = 1.0
    return np.abs(P @ M - L @ U).max()


MATRICES = {"simple": (lambda n: n, simple_matrices), "nonsimple": (lambda n: (1 << n) - 1, nonsimple_matrices)}


def rotation(theta):
    """Order-2 clockwise rotation [[cos, sin], [-sin, cos]]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_matrices(family, n, count, rng):
    return MATRICES[family][1](n, random_angles(family, n, count, rng))


def test_rotation():
    # a matrix of order 2 is one clockwise rotation in both families
    for make in (simple_matrices, nonsimple_matrices):
        assert np.array_equal(make(1, [[0.0]])[0], np.eye(2))
        t = 0.7
        R = make(1, [[t]])[0]
        assert np.allclose(R.T @ R, np.eye(2), atol=1e-15)
        assert R[0, 1] == math.sin(t) and R[1, 0] == -math.sin(t) and R[0, 0] == R[1, 1] == math.cos(t)


def test_gepp_examples():
    assert gepp_factorization(np.eye(4))[0] == (1, 2, 3, 4)
    assert gepp_factorization(rotation(2 * math.pi / 3))[0] == (2, 1)
    # |cos| = 0.5 < |sin| forces the swap at theta = 2*pi/3
    assert abs(math.cos(2 * math.pi / 3)) < abs(math.sin(2 * math.pi / 3))


def test_gepp_tie_keeps_first_row():
    M = np.array([[1.0, 0.0], [-1.0, 1.0]])
    assert gepp_factorization(M)[0] == (1, 2)


def test_gepp_singular_raises():
    with pytest.raises(ValueError):
        gepp_factorization(np.zeros((3, 3)))
    M = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        gepp_factorization(M)
    with pytest.raises(ValueError):
        gepp_factorization(np.ones((2, 3)))


def test_identity_angles_give_identity_matrix():
    for n in (1, 2, 3):
        M = nonsimple_matrices(n, np.zeros((1, (1 << n) - 1)))[0]
        assert np.allclose(M, np.eye(1 << n))
        S = simple_matrices(n, np.zeros((1, n)))[0]
        assert np.allclose(S, np.eye(1 << n))


def test_order_two_sampler_is_one_rotation():
    theta = RngState(0).generator().uniform(0, 2 * np.pi)
    for family in ("simple", "nonsimple"):
        assert random_angles(family, 1, 1, RngState(0).generator()).tolist() == [[theta]]
        assert np.allclose(random_matrices(family, 1, 1, RngState(0).generator())[0], rotation(theta))
    assert random_angles("simple", 3, 2, RngState(0).generator()).shape == (2, 3)
    assert random_angles("nonsimple", 3, 2, RngState(0).generator()).shape == (2, 7)


def test_simple_matrix_is_kron_of_rotations():
    g = RngState(5).generator()
    thetas = g.uniform(0, 2 * np.pi, size=3)
    M = simple_matrices(3, thetas[None])[0]
    K = rotation(thetas[2])
    for t in (thetas[1], thetas[0]):
        K = np.kron(K, rotation(t))
    assert np.allclose(M, K, atol=1e-14)


def test_orthogonality():
    for n in range(1, 7):
        M = random_matrices("simple", n, 1, RngState(42, n).generator())[0]
        assert np.abs(M.T @ M - np.eye(1 << n)).max() <= 1e-12
        B = random_matrices("nonsimple", n, 1, RngState(43, n).generator())[0]
        assert np.abs(B.T @ B - np.eye(1 << n)).max() <= 1e-12


def test_plu_reconstruction():
    for n in range(1, 7):
        for i in range(10):
            M = random_matrices("nonsimple", n, 1, RngState(77, 10 * n + i).generator())[0]
            word, L, U = gepp_factorization(M)
            assert plu_error(M, word, L, U) <= 1e-9
            assert np.allclose(np.triu(L, 1), 0) and np.allclose(np.tril(U, -1), 0)
            assert np.allclose(np.diag(L), 1)


def test_membership_of_gepp_permutations():
    for n in range(1, 6):
        for family, seed in (("simple", 7), ("nonsimple", 8)):
            words, _ = batch_gepp(random_matrices(family, n, 60, RngState(seed, n).generator()))
            assert (class_indices(words, family) >= 0).all()


def test_batch_gepp_matches_scalar():
    g = RngState(11).generator()
    mats = nonsimple_matrices(3, g.uniform(0, 2 * np.pi, size=(25, 7)))
    words, _ = batch_gepp(mats)
    for t in range(25):
        assert tuple(int(x) for x in words[t]) == gepp_factorization(mats[t])[0]


def test_uniformity_check_simple():
    counts, _ = uniformity_check(2, 40_000, RngState(1234).generator(), family="simple")
    assert len(counts) == 4
    assert cli._chi_square(counts, np.full(4, 40_000 / 4))[1] > 0.001
    assert counts.sum() == 40_000


def test_uniformity_check_nonsimple():
    counts, _ = uniformity_check(2, 40_000, RngState(4321).generator(), family="nonsimple")
    assert len(counts) == 8
    assert cli._chi_square(counts, np.full(8, 40_000 / 8))[1] > 0.001


def test_uniformity_check_caps():
    with pytest.raises(ValueError):
        uniformity_check(5, 10, RngState(0).generator(), family="nonsimple")
    with pytest.raises(ValueError):
        uniformity_check(11, 10, RngState(0).generator(), family="simple")
    with pytest.raises(ValueError):
        uniformity_check(2, 10, RngState(0).generator(), family="other")


def test_matrices_match_block_recursion():
    # equal to the last bit: the entry products run leaf level first, as the block recursion does
    g = RngState(9).generator()
    for n in range(1, 6):
        thetas = g.uniform(0, 2 * np.pi, size=(40, (1 << n) - 1))
        assert np.array_equal(nonsimple_matrices(n, thetas), block_nonsimple_matrices(n, thetas))
        levels = g.uniform(0, 2 * np.pi, size=(40, n))
        per_node = np.concatenate([np.repeat(levels[:, [k - 1]], 1 << (n - k), axis=1) for k in range(n, 0, -1)], axis=1)
        assert np.array_equal(simple_matrices(n, levels), block_nonsimple_matrices(n, per_node))


@pytest.mark.parametrize("family,n", [("simple", 3), ("nonsimple", 2), ("nonsimple", 3)])
def test_uniformity_counts_match_dict_count(family, n):
    trials = 3000
    counts, _ = uniformity_check(n, trials, RngState(606).generator(), family=family)
    g = RngState(606).generator()
    angles = n if family == "simple" else (1 << n) - 1
    make = simple_matrices if family == "simple" else nonsimple_matrices
    words, _ = batch_gepp(make(n, g.uniform(0, 2 * np.pi, size=(trials, angles))))
    classes = (all_simple_words if family == "simple" else all_nonsimple_words)(n)
    members = {w: i for i, w in enumerate(map(tuple, classes.tolist()))}
    counted = Counter(members[w] for w in map(tuple, words.tolist()))
    assert counts.tolist() == [counted.get(i, 0) for i in range(len(classes))]
    assert len(counts) == len(classes) and counts.sum() == trials


def test_uniformity_check_names_first_non_member(monkeypatch):
    def words_with_strays(mats):
        words = np.tile(np.arange(1, 5), (len(mats), 1))
        words[3] = (1, 3, 2, 4)
        words[5] = (1, 4, 3, 2)
        return words, None

    monkeypatch.setattr(gepp, "batch_gepp", words_with_strays)
    with pytest.raises(AssertionError, match=r"non-member word \(1, 3, 2, 4\) \(not a nonsimple butterfly\)"):
        uniformity_check(2, 10, RngState(0).generator(), family="nonsimple")
    with pytest.raises(AssertionError, match=r"non-member word \(1, 3, 2, 4\) \(not a simple butterfly\)"):
        uniformity_check(2, 10, RngState(0).generator(), family="simple")


@pytest.mark.parametrize("trials", [0, -3])
def test_uniformity_check_needs_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        uniformity_check(2, trials, RngState(0).generator(), family="nonsimple")


STACKS = [("simple", n) for n in range(1, 7)] + [("nonsimple", n) for n in range(1, 5)]


@pytest.mark.parametrize("family,n", STACKS)
def test_batch_gepp_equals_scalar_oracle_bit_for_bit(family, n):
    angles, make = MATRICES[family]
    thetas = RngState(31, n).generator().uniform(0, 2 * np.pi, size=(40, angles(n)))
    mats = make(n, thetas)
    words, lu = batch_gepp(mats)
    for M, w, f in zip(mats, words, lu):
        word, L, U = scalar_gepp(M)
        assert tuple(w.tolist()) == word
        assert np.array_equal(np.tril(f, -1) + np.eye(len(M)), L) and np.array_equal(np.triu(f), U)
        one = gepp_factorization(M)
        assert one[0] == word and np.array_equal(one[1], L) and np.array_equal(one[2], U)


def test_batch_gepp_raises_on_the_first_singular_column():
    mats = RngState(3).generator().normal(size=(5, 4, 4))
    mats[2, :, 1] = 2 * mats[2, :, 0]  # column 2 is a multiple of column 1: its pivot is ~0
    with pytest.raises(ValueError) as oracle:
        scalar_gepp(mats[2])
    assert "numerically singular column 2" in str(oracle.value)
    with pytest.raises(ValueError, match=f"^{re.escape(str(oracle.value))}$"):
        batch_gepp(mats)
    with pytest.raises(ValueError, match="expected a"):
        batch_gepp(mats[0])


@pytest.mark.parametrize(
    "family,n,trials,entries,sample",
    [
        ("simple", 3, 2000, gepp._BATCH_ENTRIES, gepp.GEPP_SAMPLE),
        ("nonsimple", 3, 2000, gepp._BATCH_ENTRIES, gepp.GEPP_SAMPLE),
        ("simple", 2, 300, gepp._BATCH_ENTRIES, 300),
        ("nonsimple", 3, 2000, 1 << 10, 16),  # 2^10 entries hold 16 of order 8
    ],
)
def test_uniformity_report_residual_is_that_of_the_gepp_sample(monkeypatch, family, n, trials, entries, sample):
    # the residual comes from the factorizations whose words were checked: the first draws of the one stream
    monkeypatch.setattr(gepp, "_BATCH_ENTRIES", entries)
    _, max_plu_error = uniformity_check(n, trials, RngState(12).generator(), family=family)
    angles, make = MATRICES[family]
    thetas = RngState(12).generator().uniform(0, 2 * np.pi, size=(sample, angles(n)))
    errors = [float(plu_error(M, *gepp_factorization(M))) for M in make(n, thetas)]
    assert max_plu_error == max(errors) and 0 < max_plu_error <= 1e-9


@pytest.mark.parametrize(
    "family,n,draws",
    [("simple", n, 2000) for n in range(1, 6)] + [("simple", 6, 500)] + [("nonsimple", n, 2000) for n in range(1, 5)] + [("nonsimple", 5, 500)],
)
def test_pivot_classes_match_gepp(family, n, draws):
    angles, make = MATRICES[family]
    thetas = RngState(2718, n).generator().uniform(0, 2 * np.pi, size=(draws, angles(n)))
    expected = class_indices(batch_gepp(make(n, thetas))[0], family)
    np.testing.assert_array_equal(pivot_classes(family, n, thetas), expected)


TIE = float.fromhex("0x1.6c6cbc45dc8dep+4")  # 29 pi / 4, where sin and cos round to the same double


@pytest.mark.parametrize("family,n", [("simple", 1), ("simple", 2), ("nonsimple", 1), ("nonsimple", 2)])
def test_pivot_classes_keep_first_row_on_exact_ties(family, n):
    assert np.sin(TIE) == np.cos(TIE)
    angles, make = MATRICES[family]
    thetas = np.full((1, angles(n)), TIE)
    assert class_indices(batch_gepp(make(n, thetas))[0], family).tolist() == [0]
    assert pivot_classes(family, n, thetas).tolist() == [0]


def test_pivot_classes_match_gepp_near_ties():
    # order-2 GEPP compares the rounded |cos| and |sin| themselves, so this pins the rule's float
    # behaviour at every double within 1000 ulps of each tie (2k+1) pi / 4 in [0, 2 pi)
    ties = np.array([(2 * k + 1) * np.pi / 4 for k in range(8)])
    thetas = (ties.view(np.int64)[:, None] + np.arange(-1000, 1001)).view(np.float64).reshape(-1, 1)
    expected = class_indices(batch_gepp(simple_matrices(1, thetas))[0], "simple")
    np.testing.assert_array_equal(pivot_classes("simple", 1, thetas), expected)


def test_pivot_classes_checks_angle_count():
    with pytest.raises(ValueError, match="wrong number of angles"):
        pivot_classes("nonsimple", 2, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="unknown family"):
        pivot_classes("other", 2, np.zeros((4, 2)))


@pytest.mark.parametrize("family", ["simple", "nonsimple"])
def test_uniformity_check_raises_when_gepp_disagrees_with_rule(monkeypatch, family):
    real = gepp.batch_gepp
    members = (all_simple_words if family == "simple" else all_nonsimple_words)(2)

    def one_member_off(mats):
        words, lu = real(mats)
        words[2] = members[(class_indices(words[2:3], family)[0] + 1) % len(members)]
        return words, lu

    monkeypatch.setattr(gepp, "batch_gepp", one_member_off)
    with pytest.raises(AssertionError, match=r"GEPP word \(.*\) of draw 2 is class \d+, the pivot rule gives \d+"):
        uniformity_check(2, 100, RngState(0).generator(), family=family)


@pytest.mark.parametrize(
    "n,trials,entries,sample",
    [(2, 10, gepp._BATCH_ENTRIES, 10), (3, 3000, gepp._BATCH_ENTRIES, gepp.GEPP_SAMPLE), (3, 300, 1 << 10, 16)],
)
def test_uniformity_check_runs_gepp_on_a_bounded_sample(monkeypatch, n, trials, entries, sample):
    # at most GEPP_SAMPLE draws, and no more than one batch of matrices: 2^10 entries hold 16 of order 8
    real, sizes = gepp.batch_gepp, []
    monkeypatch.setattr(gepp, "_BATCH_ENTRIES", entries)

    def recording(mats):
        sizes.append(len(mats))
        return real(mats)

    monkeypatch.setattr(gepp, "batch_gepp", recording)
    assert uniformity_check(n, trials, RngState(5).generator())[0].sum() == trials
    assert sizes == [sample]


def test_uniformity_check_chunked_draws_keep_the_stream(monkeypatch):
    whole, _ = uniformity_check(2, 1000, RngState(77).generator(), family="nonsimple")
    monkeypatch.setattr(gepp, "_BATCH_ENTRIES", 70)  # 23 draws of 3 angles per chunk, GEPP on 4
    chunked, _ = uniformity_check(2, 1000, RngState(77).generator(), family="nonsimple")
    np.testing.assert_array_equal(chunked, whole)  # the residual is of the smaller sample, so it may differ
