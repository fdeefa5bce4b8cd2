from collections import Counter

import numpy as np
import pytest
from scipy import stats

from butterfly_trees.bst import batch_summaries
from butterfly_trees.butterfly import class_indices, enumerate_nonsimple, enumerate_simple
from butterfly_trees.exact import cycle_law_counts, lis_law_counts
from butterfly_trees.perms import check_word, cycle_count, lis
from butterfly_trees.sampling import (
    RngState,
    cycle_law_samples,
    lis_law_samples,
    nonsimple_butterfly_stats,
    nonsimple_butterfly_words,
    sample_cycle_law,
    sample_kron,
    sample_lis_law,
    sample_nonsimple_butterfly,
    sample_simple_butterfly,
    sample_wreath,
    uniform_permutation,
    uniform_words,
    wreath_words,
)

from conftest import uniform_words_copying, wreath_words_stacked

P_FLOOR = 0.001


def chi2_uniform_pvalue(counts, classes, trials):
    obs = [counts.get(c, 0) for c in classes]
    return stats.chisquare(obs, f_exp=[trials / len(classes)] * len(classes)).pvalue


def test_determinism():
    r = RngState(987, 3)
    assert uniform_permutation(8, r) == uniform_permutation(8, r)
    assert sample_wreath(3, 2, r) == sample_wreath(3, 2, r)
    assert sample_kron(2, 3, r) == sample_kron(2, 3, r)
    assert sample_simple_butterfly(4, r) == sample_simple_butterfly(4, r)
    assert sample_nonsimple_butterfly(3, r) == sample_nonsimple_butterfly(3, r)
    assert sample_lis_law(5, r) == sample_lis_law(5, r)
    assert sample_cycle_law(5, r) == sample_cycle_law(5, r)
    assert (uniform_words(6, 5, r) == uniform_words(6, 5, r)).all()


def test_substreams_differ():
    assert uniform_permutation(20, RngState(987, 1)) != uniform_permutation(20, RngState(987, 2))


def test_uniform_permutation_basics():
    assert uniform_permutation(1, RngState(0)) == (1,)
    check_word(uniform_permutation(50, RngState(0)))
    with pytest.raises(ValueError):
        uniform_permutation(0, RngState(0))


def test_uniform_permutation_chi_square():
    trials = 60_000
    words = uniform_words(3, trials, RngState(101))
    counts = Counter(map(tuple, words.tolist()))
    import itertools

    classes = list(itertools.permutations((1, 2, 3)))
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR


def test_sample_wreath_uniform_over_group():
    trials = 80_000
    words = wreath_words(2, 2, trials, RngState(202))
    counts = Counter(map(tuple, words.tolist()))
    classes = list(enumerate_nonsimple(2))
    assert set(counts) <= set(classes)
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR
    # scalar sampler agrees in support
    singles = {sample_wreath(2, 2, RngState(303, i)) for i in range(200)}
    assert singles <= set(classes)


@pytest.mark.parametrize("n,m,count", [(10000, 2, 250), (7, 13, 50), (3, 5, 1), (50, 50, 20)])
def test_in_place_samplers_match_copying_forms(n, m, count):
    # the in-place shuffle and the per-block writes must draw the same words as the copying forms
    for state in (RngState(0), RngState(55, 1)):
        assert np.array_equal(uniform_words(n * m, count, state), uniform_words_copying(n * m, count, state.generator()))
        assert np.array_equal(wreath_words(n, m, count, state), wreath_words_stacked(n, m, count, state.generator()))
    g, oracle_g = np.random.default_rng(9), np.random.default_rng(9)
    assert np.array_equal(wreath_words(n, m, count, g), wreath_words_stacked(n, m, count, oracle_g))
    assert np.array_equal(uniform_words(n, count, g), uniform_words_copying(n, count, oracle_g))


def test_sample_wreath_trivial_blocks_is_uniform():
    trials = 30_000
    counts = Counter(sample_wreath(1, 3, RngState(404, i)) for i in range(trials))
    import itertools

    classes = list(itertools.permutations((1, 2, 3)))
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR


def test_sample_kron_support_and_uniformity():
    trials = 40_000
    counts = Counter(sample_kron(2, 2, RngState(505, i)) for i in range(trials))
    classes = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    assert set(counts) == set(classes)
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR


def test_butterfly_samplers():
    trials = 80_000
    counts = Counter(sample_simple_butterfly(3, RngState(606, i)) for i in range(trials))
    classes = list(enumerate_simple(3))
    assert set(counts) <= set(classes)
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR

    words = nonsimple_butterfly_words(2, trials, RngState(707))
    counts = Counter(map(tuple, words.tolist()))
    classes = list(enumerate_nonsimple(2))
    assert chi2_uniform_pvalue(counts, classes, trials) > P_FLOOR

    simple = np.array([sample_simple_butterfly(4, RngState(1, i)) for i in range(50)])
    assert (class_indices(simple, "simple") >= 0).all()
    nonsimple = np.array([sample_nonsimple_butterfly(4, RngState(2, i)) for i in range(50)])
    assert (class_indices(nonsimple, "nonsimple") >= 0).all()
    n1 = Counter(sample_nonsimple_butterfly(1, RngState(3, i)) for i in range(2000))
    assert set(n1) == {(1, 2), (2, 1)}


def test_nonsimple_butterfly_stats_are_the_trees_of_the_sampled_words():
    for n in range(1, 11):
        state = RngState(31, n)
        stats_hlr = nonsimple_butterfly_stats(n, 40, state)
        trees_hlr = batch_summaries(nonsimple_butterfly_words(n, 40, state))
        for a, b in zip(stats_hlr, trees_hlr):
            np.testing.assert_array_equal(a, b)


def test_law_sampler_base_cases():
    assert sample_lis_law(0, RngState(0)) == 1
    assert sample_cycle_law(0, RngState(0)) == 1
    x1 = Counter(int(v) for v in lis_law_samples(1, 4000, RngState(9)))
    y1 = Counter(int(v) for v in cycle_law_samples(1, 4000, RngState(10)))
    assert set(x1) == {1, 2} and set(y1) == {1, 2}
    with pytest.raises(ValueError):
        sample_lis_law(-1, RngState(0))


def test_lis_law_matches_enumeration():
    # level-3 sampler against the exact LIS histogram of the 128 group elements
    exact_hist = Counter(lis(w) for w in enumerate_nonsimple(3))
    counts, exp = lis_law_counts(3)
    assert dict(exact_hist) == counts
    trials = 100_000
    obs = Counter(int(v) for v in lis_law_samples(3, trials, RngState(808)))
    support = sorted(counts)
    res = stats.chisquare(
        [obs.get(v, 0) for v in support],
        f_exp=[trials * counts[v] / 2.0**exp for v in support],
    )
    assert res.pvalue > P_FLOOR


def test_cycle_law_matches_enumeration():
    exact_hist = Counter(cycle_count(w) for w in enumerate_nonsimple(4))
    counts, exp = cycle_law_counts(4)
    assert dict(exact_hist) == counts
    trials = 100_000
    obs = Counter(int(v) for v in cycle_law_samples(4, trials, RngState(909)))
    support = sorted(counts)
    res = stats.chisquare(
        [obs.get(v, 0) for v in support],
        f_exp=[trials * counts[v] / 2.0**exp for v in support],
    )
    assert res.pvalue > P_FLOOR
