import functools
import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from butterfly_trees import butterfly, cli, sampling
from butterfly_trees.butterfly import class_indices, shape_indices, stats_from_subtrees
from butterfly_trees.exact import cycle_law_counts, lis_law_counts
from butterfly_trees.sampling import (
    _SMALL,
    _SMALL_OFF,
    RngState,
    _alias_codes,
    _alias_table,
    _below,
    _height_counts,
    _height_table,
    _law_counts,
    _root_ranks,
    _words,
    cycle_law_samples,
    lis_law_samples,
    nonsimple_butterfly_stats,
    uniform_bst_stats,
    wreath_heights,
)

from conftest import (
    all_nonsimple_words,
    all_words,
    batch_summaries,
    cycle_count,
    lis,
    naive_summary,
    nonsimple_butterfly_words,
    nonsimple_subtrees,
    subtree_shape_bits,
    uniform_height_cdf,
    uniform_words,
    wreath_height_counts,
    words_from_shape_bits,
    wreath_words,
)

P_FLOOR = 0.001


def chi_square_pvalue(observed: dict, expected: dict) -> float:
    """p-value of the package's pooled chi-square (``cli._chi_square``) of
    observed counts against expected ones, the cells in key order."""
    keys = sorted(set(observed) | set(expected))
    return cli._chi_square([observed.get(k, 0) for k in keys], [expected.get(k, 0.0) for k in keys])[1]


def two_sample_pvalue(a: Counter, b: Counter) -> float:
    """Chi-square p-value that two samples share one law, the cells holding
    fewer than 10 draws of both together pooled into one."""
    cells = sorted(set(a) | set(b))
    table = np.array([[a.get(c, 0) for c in cells], [b.get(c, 0) for c in cells]])
    rare = table.sum(axis=0) < 10
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


def triples(h, l, r) -> Counter:
    return Counter(zip(h.tolist(), l.tolist(), r.tolist()))


def test_determinism():
    r = RngState(987, 3)
    for draw in (
        lambda: uniform_bst_stats(30, 5, r.generator()),
        lambda: uniform_bst_stats(5, 5, r.generator()),
        lambda: wreath_heights(3, 2, 5, r.generator()),
        lambda: wreath_heights(40, 30, 5, r.generator()),
        lambda: nonsimple_butterfly_stats(3, 5, r.generator()),
        lambda: lis_law_samples(5, 5, r.generator()),
        lambda: cycle_law_samples(5, 5, r.generator()),
    ):
        assert np.array_equal(draw(), draw())


def test_substreams_differ():
    a = uniform_bst_stats(2000, 20, RngState(987, 1).generator())[0]
    b = uniform_bst_stats(2000, 20, RngState(987, 2).generator())[0]
    assert not np.array_equal(a, b)


def test_split_samplers_edges():
    for a in uniform_bst_stats(1, 3, RngState(0).generator()):
        assert a.dtype == np.int64 and a.tolist() == [0, 0, 0]
    assert wreath_heights(1, 1, 3, RngState(0).generator()).tolist() == [0, 0, 0]
    for n in (20, 21, 50):  # a first level all small, all large
        assert [a.size for a in uniform_bst_stats(n, 0, RngState(0).generator())] == [0, 0, 0]
    h, l, r = uniform_bst_stats(50, 200, RngState(0).generator())
    assert ((h >= 5) & (h <= 49) & (l <= h) & (r <= h)).all()
    # a live interval's size is its low 30 bits: 2^30 keys would run into the _LEFT bit
    for bad in (
        lambda g: uniform_bst_stats(0, 1, g),
        lambda g: wreath_heights(2, 0, 1, g),
        lambda g: uniform_bst_stats(2**30, 1, g),
        lambda g: uniform_bst_stats(2**30, 1, g, edges=False),
        lambda g: wreath_heights(2**30, 2, 1, g),
        lambda g: wreath_heights(2, 2**30, 1, g),
    ):
        with pytest.raises(ValueError, match="must be in 1..1073741823"):
            bad(RngState(0).generator())


def assert_ranks_are_numpys(size, g, reference):
    """_root_ranks(size, g) gives reference.integers(0, size)'s values and leaves g in its state."""
    got, want = _root_ranks(size, g), reference.integers(0, size)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    np.testing.assert_equal(g.bit_generator.state, reference.bit_generator.state)  # MT19937's holds an array


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 3), st.lists(st.integers(2, 2**30), max_size=41))
def test_root_ranks_are_numpys_integers(seed, before, sizes):
    # any number of draws before, so a half is held on entry or not, and any sizes and length
    g, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for gen in (g, reference):
        gen.integers(0, np.full(before, 7))
    assert_ranks_are_numpys(np.array(sizes, dtype=np.int64), g, reference)
    assert g.integers(0, 2**62, size=3).tolist() == reference.integers(0, 2**62, size=3).tolist()


@pytest.mark.parametrize("held", [False, True], ids=["none-held", "half-held"])
@pytest.mark.parametrize("length", [0, 1, 2, 37, 38, 4000], ids=lambda n: f"len{n}")
@pytest.mark.parametrize("top", [21, 20_000, 2**30], ids=lambda s: f"top{s}")
def test_root_ranks_cases(held, length, top):
    # odd and even lengths, an empty array, a half held on entry (after an odd-length draw)
    # and the largest size, 2^30
    sizes = np.random.default_rng(length).integers(2, top, size=length, endpoint=True)
    g, reference = np.random.default_rng(41), np.random.default_rng(41)
    if held:
        for gen in (g, reference):
            gen.integers(0, [9, 9, 9])
        assert g.bit_generator.state["has_uint32"] == 1
    assert_ranks_are_numpys(sizes, g, reference)


def test_root_ranks_fall_back_to_numpy_on_a_rejection():
    # 2^32 mod 3 * 2^28 is 2^28, so one word in 16 is rejected; numpy then draws more words
    # than ranks, which this checks happened, so that the fallback ran
    size = np.full(64, 3 << 28, dtype=np.int64)
    g, reference, words = (np.random.default_rng(43) for _ in range(3))
    assert_ranks_are_numpys(size, g, reference)
    words.integers(0, 2**32, size=size.size, dtype=np.uint32)
    assert words.bit_generator.state != g.bit_generator.state


def test_root_ranks_of_another_bit_generator_are_numpys():
    size = np.arange(2, 300, dtype=np.int64)
    assert_ranks_are_numpys(size, np.random.Generator(np.random.MT19937(0)), np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("n", [3, 21, 41, 64, 65, 20_000])
def test_heights_alone_are_the_stats_heights(n):
    # edges=False skips the edge work and nothing else: the same heights, the same state after
    g, reference = RngState(26, n).generator(), RngState(26, n).generator()
    h, l, r = uniform_bst_stats(n, 40, g, edges=False)
    assert l is None and r is None
    assert h.tobytes() == uniform_bst_stats(n, 40, reference)[0].tobytes()
    assert g.bit_generator.state == reference.bit_generator.state


# sha256 of the (h, l, r) bytes and of the heights: a first level all small (n <= 20) or all
# large, and later levels with both. Re-recorded, all but (1, 7), when subtrees off the edges of
# up to 64 keys came to draw their height whole: the same law, drawn from a height-only table
# above 20 keys off the edges, and alias columns read from raw words. (1, 7) kept its bytes and
# state: seven one-key trees read seven words either way
SPLIT_DIGESTS = {
    (1, 7): "e3c2af35d1dfc500e16f826a071cc311bf55003a3de77de7ea3376c6b6fa2857",
    (20, 50): "532748224705f814f05ad3924ab958c642b1443f47ac75accb7c94acdc09f697",
    (21, 50): "2de79c621cc093d86c68e571f6853d52464771bf99861b70521d7a4ecf289791",
    (22, 50): "c96be2cf77e6c68c20c54f76782b1bf387f8d15eee49ca061ab5370793bdd37a",
    (41, 50): "597f0c4b85ed57518941599b14431e8c7c6236d43d7b685c6c4f3447ad7ac399",
    (20000, 12): "5758bd2d75d4841883b76960f3c72bb0f7b4b057967466ca6280df744c55f280",
}
WREATH_DIGESTS = {
    (3, 10**4, 3): "755d45cb61c4d8768dfeba1fbca11e6db7833cb83c5505da1428193ecb81ccfa",
    (10**4, 2, 5): "646241e2f5dc892dd0ad35f3ee91b54042f300fbd0948a860188acde9fc51e5a",
}

# sha256 of the generator's state after each of those calls, as state_digest gives it,
# re-recorded with the digests above: a change that keeps the outputs but reads a different
# number of words fails here
SPLIT_STATES = {
    (1, 7): "18278238dc80bacaa6f1fca61f96c0b63d220aaec0c5b88372a4f5e8e68c3eff",
    (20, 50): "2bd87c3915960757092bc699a2c5ecc04c9ea1413fb4b92e111bd5149b7e73fd",
    (21, 50): "64138c88d4fd45defee9d240fb5d4462a9169c05931e7f2a08e6eccc9765316c",
    (22, 50): "bb31993c84b3d64d4d3888df82f470548c3ea9adec2adf413fb4cd71f338dfcf",
    (41, 50): "7de532bf202f4b5dbe626edce8e0435a950ab4a73dbdadce3e7baf27ac61ae23",
    (20000, 12): "0cfd580239e766e3caf6d90c46acd4823594f678ac6fefc02be07d0c56d12262",
}
WREATH_STATES = {
    (3, 10**4, 3): "142884462501009cb83c11d2f476973424fa4f9b20b0d77897e38f047944420a",
    (10**4, 2, 5): "4f1d280031d233d6d2299f5fff11ac0c60e4f718a07afc166742b7000f818eda",
}


def state_digest(g: np.random.Generator) -> str:
    """sha256 of ``g.bit_generator.state`` as JSON with sorted keys, its ints written exactly."""
    return hashlib.sha256(json.dumps(g.bit_generator.state, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n,count", sorted(SPLIT_DIGESTS))
def test_uniform_bst_stats_draw_order_is_pinned(n, count):
    g = RngState(23, n).generator()
    hlr = np.stack(uniform_bst_stats(n, count, g))
    assert hashlib.sha256(hlr.tobytes()).hexdigest() == SPLIT_DIGESTS[n, count]
    assert state_digest(g) == SPLIT_STATES[n, count]


@pytest.mark.parametrize("n,m,count", sorted(WREATH_DIGESTS))
def test_wreath_heights_draw_order_is_pinned(n, m, count):
    g = RngState(24, m).generator()
    h = wreath_heights(n, m, count, g)
    assert hashlib.sha256(h.tobytes()).hexdigest() == WREATH_DIGESTS[n, m, count]
    assert state_digest(g) == WREATH_STATES[n, m, count]


@pytest.mark.parametrize(
    "n,m,count,bound",
    [
        # theorem2's chunk: 0.96 MiB measured, 2.93 MiB while intervals of 21 to 64 keys off the
        # edges still split, 3.15 MiB while the level loop kept a tree array
        # beside its intervals, 5.26 MB while each level kept its arrays until the next
        # level's replaced them
        (10**4, 2, 250, 3.2 * 2**20),
        # README's largest explore chunk: 52.1 MiB measured, the blocks' packed codes and the
        # external tree's arrays; 81.7 MiB while the blocks' h, l and r were three arrays,
        # 174.0 MB while a root of at most 20 keys went through the level loop's
        # (h, l | r << 32) sums
        (3, 10**4, 250, 100 * 2**20),
        # the largest chunk of one-key blocks, theorem2-diff --n 1 --m 8388608's: 137.5 MiB
        # measured, 252.0 MiB while the blocks' h, l and r were three arrays
        (1, 1 << 23, 1, 144 * 2**20),
    ],
    ids=["theorem2", "explore", "one-key-blocks"],
)
def test_wreath_heights_chunk_peak_memory(n, m, count, bound):
    _alias_table(), _height_table()  # built outside the trace
    tracemalloc.start()
    try:
        wreath_heights(n, m, count, RngState(25).generator())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_uniform_bst_stats_chunk_peak_memory():
    # all of (h, l, r): 0.91 MiB measured, 2.13 MiB while intervals of 21 to 64 keys off the edges
    # still split, 2.33 MiB while the level loop kept a tree array
    # beside its intervals, 5.80 MB while each level kept its arrays until the next level's
    # replaced them; two halves on two threads now fit in one's memory. The heights alone,
    # theorem2's uniform half: 0.91 MiB measured, 1.95 MiB while intervals of 21 to 64 keys split
    _alias_table(), _height_table()  # built outside the trace
    for edges, bound in ((True, 4 * 2**20), (False, 3 * 2**20)):
        tracemalloc.start()
        try:
            uniform_bst_stats(20_000, 250, RngState(25).generator(), edges=edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_small_tree_draws_peak_memory():
    # 2^21 trees of at most _SMALL keys, one alias code each: 49.0 MiB measured with or without
    # the edges, the codes and one 2^20-interval sub-block's words, index, thresholds and masks,
    # which h, l and r reuse in place; 50.0 MiB while the whole draw's temporaries lived at once,
    # 66.0 MiB while every tree's size came as a count-long np.full and h, l and r as copies
    _alias_table()  # built outside the trace
    for n, edges in ((1, True), (20, True), (20, False)):
        tracemalloc.start()
        try:
            uniform_bst_stats(n, 1 << 21, RngState(25).generator(), edges=edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 56 * 2**20


def test_one_key_tree_draws_peak_memory():
    # 2^23 one-key trees, a theorem2-diff --n 1 --m 8388608 chunk's blocks: 192.0 MiB measured
    # with the edges, h, l and r themselves, and 97.0 MiB for the heights alone, the codes plus
    # one sub-block's temporaries; 200.0 MiB either way while the whole draw's temporaries lived
    # at once
    _alias_table()  # built outside the trace
    for edges, bound in ((True, 196), (False, 100)):
        tracemalloc.start()
        try:
            uniform_bst_stats(1, 1 << 23, RngState(25).generator(), edges=edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20


def test_theorem2_chunk_peak_memory():
    # both halves of one theorem2 chunk, on their two threads: 1.6-1.9 MiB measured over
    # seeds 1-5 and 25, as the threads' overlap moves the peak (3.8-4.1 MiB while intervals of
    # 21 to 64 keys off the edges still split, 4.2-4.8 MiB while the level loop kept a tree
    # array, 4.3-4.4 MB over seeds 1-5 while the uniform half also summed its edges); the
    # halves' own peaks, 0.96 and 0.91 MiB, sum to 1.9 MiB
    cli.theorem2_diff_data(100, 2, 10, 0)  # the alias tables and the thread pool's imports, outside the trace
    tracemalloc.start()
    try:
        cli.theorem2_diff_data(10**4, 2, 250, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20


def enumerated_triples(n: int) -> Counter:
    """(h, l, r) counts over all n! insertion orders: the literal insertion for
    n <= 7, one batch_summaries call over all of them beyond."""
    if n <= 7:
        return Counter(naive_summary(w) for w in all_words(n))
    return triples(*batch_summaries(np.array(list(all_words(n)))))


def law_triples(s: int) -> Counter:
    """The nonzero entries of the tabulated law of s keys, keyed (h, l, r)."""
    T = _law_counts()[s]
    return Counter({(h - 1, l - 1, r - 1): int(T[h, l, r]) for h, l, r in zip(*np.nonzero(T))})


@pytest.mark.parametrize("s", range(1, 10))
def test_law_counts_match_every_insertion_order(s):
    assert law_triples(s) == enumerated_triples(s)


def test_law_counts_height_marginal_matches_size_recursion():
    # s! in all, and the height law of the FFT size recursion, which shares no step with the table's
    T = _law_counts()
    assert T.shape == (_SMALL + 1,) * 4 and T[0].sum() == 1
    for s in range(1, _SMALL + 1):
        assert int(T[s].sum()) == math.factorial(s)
        cdf = np.cumsum(T[s].sum(axis=(1, 2))[1 : s + 1]) / math.factorial(s)
        np.testing.assert_allclose(cdf, uniform_height_cdf(s, s - 1), rtol=0, atol=1e-12)


@functools.cache
def height_counts() -> list[list[int]]:
    """``_height_counts()``, built once for the module: each build takes tens of ms."""
    return _height_counts()


def height_law(s: int) -> dict[int, int]:
    """The nonzero counts of the height-only table's law of s keys, keyed h."""
    return {h: c for h, c in enumerate(height_counts()[s]) if c}


def test_height_counts_are_the_law_counts_height_marginal():
    T = _law_counts()
    for s in range(1, _SMALL + 1):
        assert height_counts()[s] == T[s].sum(axis=(1, 2))[1 : s + 1].tolist()


def test_height_counts_match_size_recursion():
    # s! in all, and the FFT size recursion's height law, up to the largest interval drawn whole
    counts = height_counts()
    assert len(counts) == _SMALL_OFF + 1 and not counts[0]
    for s in range(1, _SMALL_OFF + 1):
        assert len(counts[s]) == s and sum(counts[s]) == math.factorial(s)
        cdf = [float(Fraction(c, math.factorial(s))) for c in itertools.accumulate(counts[s])]
        np.testing.assert_allclose(cdf, uniform_height_cdf(s, s - 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("s", range(1, 9))
def test_height_counts_match_every_insertion_order(s):
    heights = Counter()
    for (h, _, _), c in enumerated_triples(s).items():
        heights[h] += c
    assert height_law(s) == heights


def test_alias_columns_rebuild_the_law_exactly():
    # column c of size s gives num to its primary and s! - num to its alias; summed in Python
    # ints, that is count * 2^bits for every outcome, and thr is num / s! in 64 - bits bits,
    # rounded down; for both tables, the (h, l, r) one of 2^11 columns and the height one of 2^6
    hlr = lambda s: {h | l << 24 | r << 56: c for (h, l, r), c in law_triples(s).items()}
    for (thr, codes, num), top, bits, law in ((_alias_table(), _SMALL, 11, hlr), (_height_table(), _SMALL_OFF, 6, height_law)):
        assert thr.shape == num.shape == codes.shape[:2] == (top + 1, 1 << bits)
        assert thr.dtype == np.uint64
        for s in range(1, top + 1):
            cap = math.factorial(s)
            got = Counter()
            for c in range(1 << bits):
                primary = int(num[s, c])
                assert 0 <= primary <= cap and int(thr[s, c]) == (primary << (64 - bits)) // cap
                got[int(codes[s, c, 0])] += primary
                got[int(codes[s, c, 1])] += cap - primary
            assert +got == {code: c << bits for code, c in law(s).items()}


@pytest.mark.parametrize("step", [-1, 1], ids=["above", "below"])
def test_a_tie_reads_further_words(step):
    # a 64-key column whose threshold's first 58 bits are the first word's high bits and whose
    # next 64 are the second word: the third word decides, against the threshold's next bits,
    # here one more or one less than the third word, and the draw reads exactly three words
    g, twin = RngState(27).generator(), RngState(27).generator()
    first, second, third = (int(w) for w in twin.bit_generator.random_raw(3))
    col, den = first & 63, math.factorial(64)
    bits = ((first >> 6) << 64 | second) << 64 | third + step
    thr = np.zeros((65, 64), dtype=np.uint64)
    num = np.zeros((65, 64), dtype=object)
    codes = np.zeros((65, 64, 2), dtype=np.int64)
    num[64, col] = -(-bits * den >> 186)  # the least num whose num / 64! starts with those 186 bits
    assert (num[64, col] << 186) // den == bits
    thr[64, col] = first >> 6
    codes[64, col] = 1, 2
    got = _alias_codes(np.array([64]), (thr, codes, num), g)
    assert got.tolist() == [1 if step > 0 else 2]
    assert g.bit_generator.state == twin.bit_generator.state


def test_an_exact_threshold_is_never_below():
    # a fraction whose first bits equal a dyadic threshold's every bit is not below it: no word read
    g = RngState(28).generator()
    state = g.bit_generator.state
    assert not _below(3, 8, 3 << 55, 58, g)
    assert g.bit_generator.state == state


@pytest.mark.parametrize("n", [*range(1, 8), 9])
def test_uniform_bst_stats_match_all_of_s_n(n):
    # the joint (h, l, r) law over every insertion order, against the split
    # draws, which take every N <= 20 whole from the alias table at the root
    exact = enumerated_triples(n)
    trials = 40_000
    obs = triples(*uniform_bst_stats(n, trials, RngState(11, n).generator()))
    assert set(obs) <= set(exact)
    if len(exact) > 1:
        total = sum(exact.values())
        assert chi_square_pvalue(obs, {t: trials * c / total for t, c in exact.items()}) > P_FLOOR


@pytest.mark.parametrize("n", [20, 21, 30, 64, 65])
def test_uniform_bst_stats_match_word_trees(n):
    # two samples of the joint (h, l, r) law, either side of the two alias-table cutoffs
    trials = 40_000
    split = triples(*uniform_bst_stats(n, trials, RngState(12, n).generator()))
    words = triples(*batch_summaries(uniform_words(n, trials, RngState(13, n).generator())))
    assert two_sample_pvalue(split, words) > P_FLOOR


@pytest.mark.parametrize("n", [21, 40, 64, 65, 2000])
def test_uniform_bst_height_law(n):
    # the size recursion of the height law, one FFT per level, at sizes that
    # split at the root above the alias table: once, a few times, many levels;
    # at 64 and 65 the root's kids are drawn whole, or one of them splits again
    trials, K = 10_000, min(n - 1, 80)
    cdf = uniform_height_cdf(n, K)
    pmf = np.diff(cdf, prepend=0.0)
    h = uniform_bst_stats(n, trials, RngState(14).generator())[0]
    assert h.max() <= K
    obs = Counter(h.tolist())
    assert chi_square_pvalue(obs, {k: trials * p for k, p in enumerate(pmf)}) > P_FLOOR


@pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_wreath_heights_match_the_group(n, m):
    exact = wreath_height_counts(n, m)
    total = sum(exact.values())
    trials = 30_000
    obs = Counter(wreath_heights(n, m, trials, RngState(15, 10 * n + m).generator()).tolist())
    assert set(obs) <= set(exact)
    if len(exact) > 1:
        assert chi_square_pvalue(obs, {k: trials * c / total for k, c in exact.items()}) > P_FLOOR


@pytest.mark.parametrize("n,m", [(9, 3), (30, 4)])
def test_wreath_heights_match_word_trees(n, m):
    # blocks deep enough that a block's own (h, l, r) must hang together
    trials = 40_000
    split = Counter(wreath_heights(n, m, trials, RngState(16, n).generator()).tolist())
    words = Counter(batch_summaries(wreath_words(n, m, trials, RngState(17, n).generator()))[0].tolist())
    assert two_sample_pvalue(split, words) > P_FLOOR


def test_uniform_permutation_basics():
    g = RngState(0).generator()
    assert uniform_words(1, 3, g).tolist() == [[1], [1], [1]]
    words = uniform_words(50, 20, g)
    assert words.dtype == np.int64 and (np.sort(words, axis=1) == np.arange(1, 51)).all()


def test_uniform_permutation_chi_square():
    trials = 60_000
    words = uniform_words(3, trials, RngState(101).generator())
    counts = Counter(map(tuple, words.tolist()))
    classes = list(itertools.permutations((1, 2, 3)))
    assert chi_square_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_sample_wreath_uniform_over_group():
    trials = 80_000
    words = wreath_words(2, 2, trials, RngState(202).generator())
    counts = Counter(map(tuple, words.tolist()))
    classes = list(map(tuple, all_nonsimple_words(2).tolist()))
    assert set(counts) <= set(classes)
    assert chi_square_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_sample_wreath_trivial_blocks_is_uniform():
    trials = 30_000
    counts = Counter(map(tuple, wreath_words(1, 3, trials, RngState(404).generator()).tolist()))
    classes = list(itertools.permutations((1, 2, 3)))
    assert chi_square_pvalue(counts, dict.fromkeys(classes, trials / len(classes))) > P_FLOOR


def test_butterfly_samplers():
    # at n = 2 the one subtree index nonsimple_butterfly_stats draws is the class, uniform over the 8
    trials = 80_000
    state = RngState(707)
    index = state.generator().integers(0, 8, size=(trials, 1))[:, 0]
    top, sub = nonsimple_subtrees(2, trials, state.generator())
    assert np.array_equal(shape_indices(subtree_shape_bits(2, top, sub)), index)
    for a, b in zip(nonsimple_butterfly_stats(2, trials, state.generator()), stats_from_subtrees(2, top, sub)):
        np.testing.assert_array_equal(a, b)
    assert chi_square_pvalue(Counter(index.tolist()), dict.fromkeys(range(8), trials / 8)) > P_FLOOR

    # at n = 5 the top three levels are the top bit, both subtree roots and their children: 128 classes
    trials = 25_600
    state = RngState(708)
    top, sub = nonsimple_subtrees(5, trials, state.generator())
    for a, b in zip(nonsimple_butterfly_stats(5, trials, state.generator()), stats_from_subtrees(5, top, sub)):
        np.testing.assert_array_equal(a, b)
    counts = Counter(shape_indices(subtree_shape_bits(5, top, sub)[:, :7]).tolist())
    assert chi_square_pvalue(counts, dict.fromkeys(range(128), trials / 128)) > P_FLOOR

    assert (class_indices(nonsimple_butterfly_words(4, 50, RngState(2).generator()), "nonsimple") >= 0).all()
    n1 = Counter(map(tuple, nonsimple_butterfly_words(1, 2000, RngState(3).generator()).tolist()))
    assert set(n1) == {(1, 2), (2, 1)}


def test_nonsimple_butterfly_stats_are_the_trees_of_the_sampled_words():
    for n in range(1, 11):
        state = RngState(31, n)
        stats_hlr = nonsimple_butterfly_stats(n, 40, state.generator())
        trees_hlr = batch_summaries(nonsimple_butterfly_words(n, 40, state.generator()))
        for a, b in zip(stats_hlr, trees_hlr):
            np.testing.assert_array_equal(a, b)


def test_sampled_subtree_index_is_the_class_index():
    # at n = 4 the sampler draws one index per tree (no top bits): the class index of the
    # oracle word from the same stream, and the tree of that row of the enumeration
    trials = 3000
    state = RngState(909)
    index = state.generator().integers(0, 1 << 15, size=(trials, 1))[:, 0]
    assert np.array_equal(class_indices(nonsimple_butterfly_words(4, trials, state.generator()), "nonsimple"), index)
    for a, b in zip(nonsimple_butterfly_stats(4, trials, state.generator()), batch_summaries(all_nonsimple_words(4)[index])):
        np.testing.assert_array_equal(a, b)


def test_nonsimple_butterfly_stats_are_those_of_the_expanded_shape_bits():
    # the top bits and subtree indices of the sampler, and the trees built by insertion
    # from them spelled out as 2^n - 1 level-ordered bits, in one-row, odd-row and even-row
    # chunks; the depths come in shuffled order from an empty cache, so each depth's
    # top-bit order is first built by one of these calls
    depths = list(range(1, 13))
    np.random.default_rng(37).shuffle(depths)
    butterfly._top_order.cache_clear()
    for n in depths:
        for count in (1, 37, 40):
            state = RngState(37, n)
            top, sub = nonsimple_subtrees(n, count, state.generator())
            bits = subtree_shape_bits(n, top, sub)
            assert bits.shape == (count, (1 << n) - 1) and ((bits == 0) | (bits == 1)).all()
            stats_hlr = nonsimple_butterfly_stats(n, count, state.generator())
            for a, b, c in zip(stats_hlr, stats_from_subtrees(n, top, sub), batch_summaries(words_from_shape_bits(n, bits))):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
    assert butterfly._top_order.cache_info().misses == 9  # top depths 0..8, each built once
    with pytest.raises(ValueError):
        nonsimple_butterfly_stats(0, 1, RngState(0).generator())


def test_nonsimple_butterfly_stats_chunk_peak_memory():
    # one fig8 chunk at n = 16 (128 rows) peaks at 17.0 MiB measured: the uint32 words of its top
    # bits and subtree indices, 4 MB in all, their int32 (h, l, r), 2 MB each, every level's masks,
    # 2 MB, and one level's combine; the one-row chunk at n = 23 at 17.0 MiB once the depth-19
    # top-bit order is cached, 21.0 MiB when it is built inside the trace (4 MiB of intp). They read
    # 16.0 and 20.0 MiB while each chunk built its bit-reversal permutation and gathered one level's
    # masks at a time, 4 MB more while the bits and indices were numpy's int64 draws, and 30.3 MB
    # while the levels ran on int64 columns; a (128, 2^16 - 1) bit matrix alone is 64 MB
    nonsimple_butterfly_stats(16, 1, RngState(0).generator())  # the subtree tables are built outside the trace
    for n, rows, bound in ((16, 128, 20), (23, 1, 24)):
        tracemalloc.start()
        try:
            nonsimple_butterfly_stats(n, rows, RngState(n).generator())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, (n, rows, peak)


def test_cached_builders_return_read_only_arrays():
    # every caller shares the cached arrays, theorem2-diff's worker thread too: a write through
    # one caller would change every later draw, so each array refuses it
    calls = {
        butterfly._subtree_table: [(k,) for k in range(5)],
        butterfly._top_order: [(d,) for d in (0, 1, 2, 6, 19)],
        _alias_table: [()],
        _height_table: [()],
    }
    cached = {f for m in (butterfly, sampling) for f in vars(m).values() if hasattr(f, "cache_info") and f.__module__ == m.__name__}
    assert cached == set(calls)
    for builder, args in calls.items():
        for a in args:
            out = builder(*a)
            for array in out if isinstance(out, tuple) else (out,):
                assert isinstance(array, np.ndarray) and not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0


def test_law_sampler_base_cases():
    assert lis_law_samples(0, 3, RngState(0).generator()).tolist() == [1, 1, 1]
    assert cycle_law_samples(0, 3, RngState(0).generator()).tolist() == [1, 1, 1]
    x1 = Counter(int(v) for v in lis_law_samples(1, 4000, RngState(9).generator()))
    y1 = Counter(int(v) for v in cycle_law_samples(1, 4000, RngState(10).generator()))
    assert set(x1) == {1, 2} and set(y1) == {1, 2}
    with pytest.raises(ValueError):
        lis_law_samples(-1, 1, RngState(0).generator())


def law_samples_oracle(law: str, n: int, count: int, g: np.random.Generator) -> list[int]:
    """Level-n samples entry by entry from the all-ones level 0, each level's
    bits drawn as one (count, 2^(n-k-1)) array, as the samplers draw them."""
    rows = [[1] * (1 << n) for _ in range(count)]
    for k in range(n):
        eta = g.integers(0, 2, size=(count, 1 << (n - k - 1))).tolist()
        for i, (row, bits) in enumerate(zip(rows, eta)):
            pairs = zip(row[0::2], row[1::2], bits)
            if law == "lis":
                rows[i] = [a + b if e else max(a, b) for a, b, e in pairs]
            else:
                rows[i] = [a + e * b for a, b, e in pairs]
    return [row[0] for row in rows]


@pytest.mark.parametrize("law,sampler", [("lis", lis_law_samples), ("cycle", cycle_law_samples)])
@pytest.mark.parametrize("n", range(1, 5))
def test_law_samplers_match_the_recursion_on_the_same_draws(law, sampler, n):
    # same values from the same stream, and the stream left at the same place
    state = RngState(41, n)
    g, oracle = state.generator(), state.generator()
    assert sampler(n, 25, g).tolist() == law_samples_oracle(law, n, 25, oracle)
    assert g.integers(0, 2**62) == oracle.integers(0, 2**62)


def twin_generators(kind: str) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state: PCG64 with no half held, PCG64 holding the high
    half of a word whose low half was drawn, or MT19937 (numpy's draws, the fallback)."""
    if kind == "mt19937":
        return np.random.Generator(np.random.MT19937(17)), np.random.Generator(np.random.MT19937(17))
    g, twin = np.random.default_rng(17), np.random.default_rng(17)
    if kind == "held":
        for gen in (g, twin):
            gen.integers(0, 2, size=3)
        assert g.bit_generator.state["has_uint32"] == 1
    return g, twin


DRAW_KINDS = ["fresh", "held", "mt19937"]


@pytest.mark.parametrize("kind", DRAW_KINDS)
@pytest.mark.parametrize("count", [0, 1, 2, 7, 8])
def test_words_are_numpys_uint32_draws(kind, count):
    g, twin = twin_generators(kind)
    got, want = _words(g, count), twin.integers(0, 2**32, size=count, dtype=np.uint32)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    np.testing.assert_equal(g.bit_generator.state, twin.bit_generator.state)
    assert g.integers(0, 2, size=5).tolist() == twin.integers(0, 2, size=5).tolist()


@pytest.mark.parametrize("kind", DRAW_KINDS)
@pytest.mark.parametrize("n", [0, 1, 4, 10])
@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("law,sampler", [("lis", lis_law_samples), ("cycle", cycle_law_samples)])
def test_law_samplers_are_those_of_numpys_draws(kind, n, count, law, sampler):
    # the values and dtype of the recursion on numpy's own g.integers bits, and numpy's state after
    g, twin = twin_generators(kind)
    got = sampler(n, count, g)
    assert got.dtype == np.int64 and got.tolist() == law_samples_oracle(law, n, count, twin)
    np.testing.assert_equal(g.bit_generator.state, twin.bit_generator.state)


@pytest.mark.parametrize("kind", DRAW_KINDS)
@pytest.mark.parametrize("n", [1, 4, 5, 10])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_nonsimple_butterfly_stats_are_those_of_numpys_draws(kind, n, count):
    # the trees of numpy's g.integers top bits and class indices, and numpy's state after
    g, twin = twin_generators(kind)
    got, want = nonsimple_butterfly_stats(n, count, g), stats_from_subtrees(n, *nonsimple_subtrees(n, count, twin))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    np.testing.assert_equal(g.bit_generator.state, twin.bit_generator.state)


def test_lis_law_matches_enumeration():
    # level-3 sampler against the exact LIS histogram of the 128 group elements
    exact_hist = Counter(lis(w) for w in all_nonsimple_words(3).tolist())
    counts, exp = lis_law_counts(3)
    assert dict(exact_hist) == counts
    trials = 100_000
    obs = Counter(int(v) for v in lis_law_samples(3, trials, RngState(808).generator()))
    support = sorted(counts)
    res = stats.chisquare(
        [obs.get(v, 0) for v in support],
        f_exp=[trials * counts[v] / 2.0**exp for v in support],
    )
    assert res.pvalue > P_FLOOR


def test_cycle_law_matches_enumeration():
    exact_hist = Counter(cycle_count(w) for w in all_nonsimple_words(4).tolist())
    counts, exp = cycle_law_counts(4)
    assert dict(exact_hist) == counts
    trials = 100_000
    obs = Counter(int(v) for v in cycle_law_samples(4, trials, RngState(909).generator()))
    support = sorted(counts)
    res = stats.chisquare(
        [obs.get(v, 0) for v in support],
        f_exp=[trials * counts[v] / 2.0**exp for v in support],
    )
    assert res.pvalue > P_FLOOR
