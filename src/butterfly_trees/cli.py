"""
Experiment harness: seeded, deterministic reproductions of the height-law
checks, emitted as CSV or JSON.

Every artifact embeds the subcommand, its parameters and, if it samples,
the seed in its meta header (``# key=value`` lines in CSV, a "meta" object
in JSON), and statistical subcommands carry their acceptance band beside
the observed value. Re-running a subcommand with identical configuration
reproduces byte-identical output.

``fig8``, ``theorem2-diff``, ``explore-conjecture`` and ``law-hist`` sample
in chunks of at most ``_CHUNK`` rows and ``_CHUNK_ENTRIES`` entries (a row
being the keys of one tree, or the 2^n entries of one law sample). Chunk c
draws from stream ``RngState(seed, c)``, whose ``generator()`` the chunk
makes once and hands to its samplers, each advancing it. A ``theorem2-diff``
chunk draws its wreath heights from that stream and, at the same time on one
worker thread, its uniform heights from the stream's child
``RngState(seed, c, child=True)``, which is no other stream of the package.
Cell i of an ``explore-conjecture`` grid of G cells draws chunk c from
``RngState(seed, c * G + i)``, so no two (cell, chunk) pairs share a stream.
A ``fig8`` chunk draws its trees' top-level shape bits, then one index per
bottom subtree of min(n, 4) levels, from its stream
(``sampling.nonsimple_butterfly_stats``). ``clt-simple`` and ``gepp-check``
draw from ``RngState(seed).generator()``.
No sampled tree is built from a word: the samplers split key intervals
(``sampling.uniform_bst_stats``, ``sampling.wreath_heights``) or read shapes.
An argument whose single row exceeds ``_CHUNK_ENTRIES`` is an argparse error,
and so is a ``clt-simple --samples`` above it: that sample is drawn in one piece.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import butterfly, exact, sampling
from .gepp import UNIFORMITY_CAP, uniformity_check

DEFAULT_SEED = 1024
_CHUNK = 250  # rows per sampled chunk
_CHUNK_ENTRIES = 1 << 23  # entries per sampled chunk, the largest row allowed and the largest clt-simple sample
# fig8 and law-hist: the largest n whose 2^n-entry row fits one chunk
_LEVEL_CAP = _CHUNK_ENTRIES.bit_length() - 1
# bounds and fig8's band: the mean reads the float64 level-(n-1) law. `bounds --exact-max 8`
# takes ~0.10 s and 68 MB as a process (~0.50 s and 94 MB with the exact integer law); n = 9
# takes ~0.45 s (2-vCPU AMD EPYC) but peaks at ~350 MB, above the ~313 MB largest peak of any
# other run (`theorem2-diff --n 1 --m 8388608 --trials 2`), so the cap stays at 8
EXACT_MAX_CAP = 8
# law-hist: the largest n given exact columns. The exact law takes ~0.37 s at n = 12 and
# ~2.0 s at n = 13 (cycle and lis alike, 2-vCPU Intel Xeon), about 5x per level
LAW_EXACT_CAP = 12
# lattice-degrees --n: 2^20 simple trees take ~0.75 s and ~109 MB as a process (2-vCPU Intel Xeon)
LATTICE_CAP = 20
# bounds --n-max: the last n whose upper mean bound is a finite double (1120 gives inf)
N_MAX_CAP = 1119
# pmf --n per --which: every number must print within Python's 4300-digit int-to-str
# limit (n! passes it near n = 1555, 2^n near n = 14284), in seconds: ~0.9 s for
# stirling 1000, ~3.7 s for simple-height 10000, ~1.3 s for cycle-moments 100 (200: ~40 s)
PMF_CAP = {"stirling": 1000, "simple-height": 10_000, "cycle-moments": 100}
# _chi2_sf: the least z whose log Gamma(z) is Stirling's series, not lgamma. From there the series'
# first dropped term, 1/(1188 z^9), is below 2e-15, while lgamma's cancellation grows with z
_STIRLING_FROM = 20


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def render_csv(meta: dict, columns: dict[str, list]) -> str:
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    lines += map(",".join, zip(*(list(map(_fmt, column)) for column in columns.values())))
    return "\n".join(lines) + "\n"


def render_json(meta: dict, columns: dict[str, list]) -> str:
    return json.dumps({"meta": meta, "columns": columns}, indent=2) + "\n"


def _emit(meta: dict, columns: dict[str, list], out: str | None, fmt: str) -> str:
    text = render_json(meta, columns) if fmt == "json" else render_csv(meta, columns)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# experiment data builders (pure; used directly by the test suite)
# ---------------------------------------------------------------------------


def _chunked(trials: int, row_len: int, seed: int, draw, cell: int = 0, cells: int = 1) -> np.ndarray:
    """Concatenated ``draw(rows, RngState(seed, c * cells + cell))`` over chunks c
    of ``row_len``-entry trials, in chunk order: cell ``cell`` of ``cells`` gets
    its own streams, and a chunk's draws share its stream's one generator, or
    draw apart on that stream and its child."""
    rows = min(_CHUNK, _CHUNK_ENTRIES // row_len)
    if rows < 1:
        raise ValueError(f"a row of {row_len} entries exceeds the chunk budget of {_CHUNK_ENTRIES}")
    return np.concatenate([draw(min(rows, trials - s), sampling.RngState(seed, c * cells + cell)) for c, s in enumerate(range(0, trials, rows))])


def _chi2_sf(df: int, x: float) -> float:
    """P(chi-square with ``df`` >= 1 degrees of freedom > x), in closed form.

    With lam = x / 2 and d = (df mod 2) / 2 it is the sum over j < df // 2 of
    e^-lam lam^(j+d) / Gamma(j+1+d), plus erfc(sqrt(lam)) when df is odd. The
    terms are summed outward from the largest, each scaled by it, so none
    underflows before the one ``exp``. The largest term's logarithm takes
    ``lgamma`` below z = j+1+d = ``_STIRLING_FROM``, and above it Stirling's
    series with its exponent in log1p form (Loader, "Fast and accurate
    computation of binomial probabilities", 2000): ``lgamma`` of a large z
    cancels against (z-1) log lam, losing ~7e-11 at df ~ 35000. Against
    ``scipy.special.chdtrc`` it is within 1e-12 relative for p >= 1e-12 and
    within 1e-9 down to p = 1e-300, for every df a subcommand reaches (up to
    32767, nonsimple ``gepp-check --n 4``)."""
    if x <= 0:
        return 1.0
    lam, d, terms = x / 2, (df & 1) / 2, df >> 1
    tail = math.erfc(math.sqrt(lam)) if d else 0.0
    if not terms:
        return tail
    top = min(terms - 1, max(0, math.ceil(lam - 1 - d)))  # the largest term: they grow while lam > j+1+d
    z = top + 1 + d
    if z < _STIRLING_FROM:
        log_top = (z - 1) * math.log(lam) - lam - math.lgamma(z)
    else:
        r, zz = (lam - z) / z, z * z
        series = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * zz)) / zz) / zz) / z  # lgamma's Stirling remainder
        log_top = 0.5 * math.log(z / (2 * math.pi)) - math.log(lam) - z * (r - math.log1p(r)) - series
    # away from the largest term the ratios fall, so once a term is below 2^-60 of the sum the rest is too small to count
    total = t = 1.0
    for j in range(top + 1, terms):
        t *= lam / (j + d)
        total += t
        if t < total * 2**-60:
            break
    t = 1.0
    for j in range(top, 0, -1):
        t *= (j + d) / lam
        total += t
        if t < total * 2**-60:
            break
    return min(1.0, tail + math.exp(log_top) * total)


def _chi_square(observed, expected) -> tuple[float, float, str]:
    """(statistic, pvalue, band text) of Pearson's test of counts against an exact
    law's expected counts. The statistic's chi-square law needs 5 expected draws a
    cell, so adjacent cells pool in order until each expects 5, a short last run
    joining the cell before it; under two cells the test does not apply (NaN). A
    count where the law expects none gives p = 0, however the cells pool. Against
    ``scipy.stats.chisquare`` the statistic is bit for bit, the p-value (``_chi2_sf``)
    within 1e-12 relative for p >= 1e-12 and within 1e-9 down to p = 1e-300."""
    obs, exp = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    if (obs[exp == 0] > 0).any():
        return math.inf, 0.0, "pvalue > 0.001"
    cell, run, ids = 0, 0.0, []
    for e in exp.tolist():
        if run >= 5:
            cell, run = cell + 1, 0.0
        ids.append(cell)
        run += e
    cells = cell if run < 5 and cell else cell + 1
    if cells < 2:
        return math.nan, math.nan, "pvalue does not apply (fewer than 2 cells expect >= 5 when pooled)"
    ids = np.minimum(ids, cells - 1)
    o, e = np.bincount(ids, obs), np.bincount(ids, exp)
    o_sum, e_sum = o.sum(), e.sum()
    if abs(o_sum - e_sum) > np.finfo(float).eps ** 0.5 * min(o_sum, e_sum):  # chisquare's sum check
        raise ValueError(f"observed and expected counts sum to {o_sum} and {e_sum}")
    stat = float(((o - e) ** 2 / e).sum())
    return stat, _chi2_sf(cells - 1, stat), "pvalue > 0.001" if cells == len(obs) else f"pvalue > 0.001 over {cells} pooled cells"


def table1_data() -> tuple[dict, dict]:
    """Height counts of the 1024 depth-10 simple butterfly trees, law vs
    enumeration by the level recursion over all of them at once."""
    n = 10
    law = exact.simple_height_counts(n)
    h, _, _ = butterfly.simple_stats(n)
    values, freqs = np.unique(h, return_counts=True)
    enum = {int(v): int(c) for v, c in zip(values, freqs)}
    heights = sorted(law, reverse=True)
    meta = {"subcommand": "table1", "n": n, "total": 1 << n}
    cols = {
        "k": list(range(len(heights))),
        "height": heights,
        "count_law": [law[x] for x in heights],
        "count_enum": [enum.get(x, 0) for x in heights],
        "equal": [int(law[x] == enum.get(x, 0)) for x in heights],
    }
    return meta, cols


def fig8_data(n: int, trials: int, seed: int) -> tuple[dict, dict]:
    """Height histogram of seeded uniform nonsimple butterfly trees. Up to
    ``EXACT_MAX_CAP`` the band is the exact mean ± 5 standard errors, as at
    n = 2 and 3 a correct sample falls below the lower mean bound half the time."""
    h = _chunked(trials, (1 << n) - 1, seed, lambda b, s: sampling.nonsimple_butterfly_stats(n, b, s.generator())[0])
    lower, upper = exact.nonsimple_mean_bounds(n)
    if n == 10:
        band = "n=10: mean in [113,126]"
    elif n > EXACT_MAX_CAP:
        band = "mean in [lower, upper]"
    elif trials < 2:
        band = f"does not apply (the standard error needs trials >= 2); exact mean {exact.exact_mean_height(n)!r}"
    else:
        e, se = exact.exact_mean_height(n), float(h.std(ddof=1)) / math.sqrt(trials)
        band = f"mean in [{e - 5 * se!r}, {e + 5 * se!r}]: exact mean {e!r} +/- 5 standard errors"
    meta = {
        "subcommand": "fig8",
        "n": n,
        "trials": trials,
        "seed": seed,
        "mean": float(h.mean()),
        "min": int(h.min()),
        "max": int(h.max()),
        "mean_lower_bound": lower,
        "mean_upper_bound": upper,
        "band": band,
    }
    values, freqs = np.unique(h, return_counts=True)
    cols = {"height": [int(v) for v in values], "count": [int(c) for c in freqs]}
    return meta, cols


def theorem2_diff_data(n: int, m: int, trials: int, seed: int) -> tuple[dict, dict]:
    """Paired scaled mean-height difference: S_n wr S_m sample vs uniform S_{nm}.

    Chunk c draws its wreath heights from ``RngState(seed, c)`` while one worker
    thread draws its uniform heights from that stream's child, and the two join
    before the next chunk: numpy's draws and large array operations release the
    GIL, so the halves overlap.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported where used, off the package's import time

    scale = math.log(n * m)
    with ThreadPoolExecutor(1) as worker:

        def draw(b, state):
            child = sampling.RngState(state.seed, state.stream, child=True)
            uniform = worker.submit(sampling.uniform_bst_stats, n * m, b, child.generator(), edges=False)
            hw = sampling.wreath_heights(n, m, b, state.generator())
            return (hw - uniform.result()[0]) / scale

        d = _chunked(trials, n * m, seed, draw)
    band, note = (float("nan"), float("nan")), "exploratory"
    if n == 1:
        note = "degenerate: S_1 wr S_m is S_m, so the difference has mean 0 in law"
    elif m == 1:
        note = "degenerate: S_n wr S_1 is S_n, so the difference has mean 0 in law"
    elif m == 2:
        band = (0.6, 1.4)
        note = f"m=2: scaled difference in [{band[0]}, {band[1]}]"
    meta = {
        "subcommand": "theorem2-diff",
        "n": n,
        "m": m,
        "trials": trials,
        "seed": seed,
        "band": note,
    }
    cols = {
        "n": [n],
        "m": [m],
        "trials": [trials],
        "scaled_diff_mean": [float(d.mean())],
        "scaled_diff_sem": [float(d.std(ddof=1) / math.sqrt(len(d)))],
        "band_lo": [band[0]],
        "band_hi": [band[1]],
    }
    return meta, cols


def clt_simple_data(n: int, samples: int, seed: int) -> tuple[dict, dict]:
    """KS distance of the standardized log-height (exact binomial law) to |N(0,1)|:
    ``scipy.stats.kstest``'s statistic against ``halfnorm.cdf``, within 1e-15, as
    the CDF is ``math.erf``'s, which is within 5e-16 relative of scipy's.

    The statistic takes at most n + 1 values, so it is computed once per distinct
    draw x and merged where x and n - x meet. Over a run of equal sorted
    statistics, kstest's largest ``i / samples - cdf`` is at the run's end and its
    largest ``cdf - (i - 1) / samples`` at its start, i counting samples from 1.
    """
    g = sampling.RngState(seed).generator()
    x, count = np.unique(g.binomial(n, 0.5, size=samples), return_counts=True)
    a = np.maximum(x, n - x).astype(float)
    b = np.minimum(x, n - x).astype(float)
    log2h = a + np.log1p(np.exp2(b - a) - np.exp2(1.0 - a)) / math.log(2)
    stat, run = np.unique((log2h - n / 2) / (math.sqrt(n) / 2), return_inverse=True)
    merged = np.bincount(run, weights=count)  # samples at each statistic, exact in float64
    end = np.cumsum(merged)
    z = np.maximum(stat, 0.0) / math.sqrt(2)  # |N(0,1)|'s CDF is erf(stat / sqrt 2), 0 off its support
    cdf = np.fromiter(map(math.erf, memoryview(z)), float, len(z))  # one float at a time: a list of all would hold ~35 MB at 10^6 statistics
    ks = float(max((end / samples - cdf).max(), (cdf - (end - merged) / samples).max()))
    meta = {
        "subcommand": "clt-simple",
        "n": n,
        "samples": samples,
        "seed": seed,
        "band": "ks_distance <= 0.05 for n >= 100",
    }
    cols = {
        "n": [n],
        "samples": [samples],
        "ks_distance": [ks],
        "threshold": [0.05],
        "passed": [int(ks <= 0.05)],
    }
    return meta, cols


def bounds_data(n_max: int, exact_max: int = 4) -> tuple[dict, dict]:
    """Mean-height bounds table with exact means where the joint law is computed."""
    rows_n = list(range(1, n_max + 1))
    lowers, exacts, uppers = [], [], []
    for n in rows_n:
        lo, up = exact.nonsimple_mean_bounds(n)
        lowers.append(f"{lo:.2f}")
        uppers.append(f"{up:.2f}")
        exacts.append(repr(exact.exact_mean_height(n)) if n <= exact_max else "")
    meta = {"subcommand": "bounds", "n_max": n_max, "exact_max": exact_max}
    cols = {"n": rows_n, "lower": lowers, "exact_mean": exacts, "upper": uppers}
    return meta, cols


def explore_conjecture_data(grid: Sequence[tuple[int, int]], trials: int, seed: int) -> tuple[dict, dict]:
    """Exploratory h/(log n log m) ratios and threshold-exceedance frequencies.

    No acceptance band is attached; the n = 1 and m = 1 columns degenerate
    (log 1 = 0) and are emitted as NaN with a flag.
    """
    cstar = exact.constants().cstar
    out = {k: [] for k in ("n", "m", "trials", "ratio_mean", "degenerate", "threshold", "exceed_freq")}
    for idx, (n, m) in enumerate(grid):
        h = _chunked(trials, n * m, seed, lambda b, s: sampling.wreath_heights(n, m, b, s.generator()), idx, len(grid))
        thresh = cstar * math.fsum(1 / j for j in range(1, n + 1)) * math.log(m) if m > 1 else float("nan")
        out["n"].append(n)
        out["m"].append(m)
        out["trials"].append(trials)
        if n == 1 or m == 1:
            out["ratio_mean"].append(float("nan"))
            out["degenerate"].append(1)
        else:
            out["ratio_mean"].append(float(h.mean()) / (math.log(n) * math.log(m)))
            out["degenerate"].append(0)
        out["threshold"].append(thresh)
        out["exceed_freq"].append(float((h >= thresh).mean()) if m > 1 else float("nan"))
    meta = {"subcommand": "explore-conjecture", "trials": trials, "seed": seed, "band": "exploratory (none)"}
    return meta, out


def gepp_check_data(n: int, trials: int, seed: int, family: str) -> tuple[dict, dict]:
    """GEPP membership + uniformity + reconstruction check for one butterfly family."""
    counts, plu_error = uniformity_check(n, trials, sampling.RngState(seed).generator(), family=family)
    chi2, pvalue, test = _chi_square(counts, np.full(len(counts), trials / len(counts)))
    meta = {
        "subcommand": "gepp-check",
        "family": family,
        "n": n,
        "trials": trials,
        "seed": seed,
        "band": f"{test}, plu_error <= 1e-9, all members",
    }
    cols = {
        "family": [family],
        "n": [n],
        "trials": [trials],
        "classes": [len(counts)],
        "chi2": [chi2],
        "pvalue": [pvalue],
        "max_plu_error": [plu_error],
    }
    return meta, cols


def lattice_degrees_data(n: int) -> tuple[dict, dict]:
    """Degree multiset of the Boolean lattice's comparability graph next to the
    height counts of the 2^n simple butterfly trees (``butterfly.simple_stats``).
    A subset of size k, counted from its bitmask, is comparable to its 2^k - 1
    proper subsets and 2^(n-k) - 1 proper supersets."""
    values, freqs = np.unique(butterfly.simple_stats(n)[0], return_counts=True)
    heights = dict(zip(values.tolist(), freqs.tolist()))  # the trees are freed before the masks are built
    masks = np.arange(1 << n, dtype=np.int64)
    size = np.zeros_like(masks)
    for i in range(n):
        size += masks >> i & 1
    values, freqs = np.unique((1 << size) + (1 << (n - size)) - 2, return_counts=True)
    degs = dict(zip(values.tolist(), freqs.tolist()))
    keys = sorted(degs.keys() | heights.keys())
    meta = {"subcommand": "lattice-degrees", "n": n}
    cols = {
        "degree": keys,
        "count": [degs.get(k, 0) for k in keys],
        "height_count": [heights.get(k, 0) for k in keys],
        "equal": [int(degs.get(k, 0) == heights.get(k, 0)) for k in keys],
    }
    return meta, cols


def pmf_data(which: str, n: int) -> tuple[dict, dict]:
    """Exact pmf/moment export: value, numerator, denominator, probability."""
    if which == "stirling":
        fracs = {k: p for k, p in zip(range(1, n + 1), exact.stirling1_pmf(n))}
    elif which == "simple-height":
        fracs = dict(sorted(exact.simple_height_pmf(n).items()))
    elif which == "cycle-moments":
        fracs = {k: exact.cycle_moment(k) for k in range(n + 1)}
    else:
        raise ValueError(f"unknown pmf kind {which!r}")
    meta = {"subcommand": "pmf", "which": which, "n": n}
    cols = {
        "value": list(fracs),
        "numerator": [f.numerator for f in fracs.values()],
        "denominator": [f.denominator for f in fracs.values()],
        "probability": [float(f) for f in fracs.values()],
    }
    return meta, cols


def law_hist_data(law: str, n: int, trials: int, seed: int) -> tuple[dict, dict]:
    """Histogram of a recursion-law sampler next to its exact dyadic law, with
    the pooled chi-square p-value up to n = ``LAW_EXACT_CAP``."""
    if law == "lis":
        sampler, law_counts = sampling.lis_law_samples, exact.lis_law_counts
    elif law == "cycle":
        sampler, law_counts = sampling.cycle_law_samples, exact.cycle_law_counts
    else:
        raise ValueError(f"unknown law {law!r}")
    x = _chunked(trials, 1 << n, seed, lambda b, s: sampler(n, b, s.generator()))
    values, freqs = np.unique(x, return_counts=True)
    observed = {int(v): int(c) for v, c in zip(values, freqs)}
    meta = {"subcommand": "law-hist", "law": law, "n": n, "trials": trials, "seed": seed}
    if n <= LAW_EXACT_CAP:
        counts, denom_exp = law_counts(n)
        support = sorted(set(observed) | set(counts))
        # int / int is correctly rounded; a float denominator overflows from n = 10
        expected = [trials * counts.get(v, 0) / (1 << denom_exp) for v in support]
        obs = [observed.get(v, 0) for v in support]
        _, meta["pvalue"], meta["band"] = _chi_square(obs, expected)
        cols = {"value": support, "observed": obs, "expected": expected}
    else:
        meta["band"] = "exploratory (law too large for exact columns)"
        cols = {"value": list(observed), "observed": list(observed.values())}
    return meta, cols


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> list[tuple[int, int]]:
    grid = []
    for part in text.split(","):
        a, _, b = part.partition("x")
        try:
            n, m = int(a), int(b)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected NxM pairs like 50x50,100x20, got {part!r}") from None
        if n < 1 or m < 1:
            raise argparse.ArgumentTypeError(f"grid entries must be >= 1, got {part!r}")
        if n * m > _CHUNK_ENTRIES:
            raise argparse.ArgumentTypeError(f"need n*m <= {_CHUNK_ENTRIES} (one row must fit a chunk), got {part!r}")
        grid.append((n, m))
    return grid


def _bounded_int(low: int | None, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if high is None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if low is None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        if None not in (low, high) and not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _out_path(text: str) -> str:
    """An ``--out`` path that can be written once the run ends, checked before it starts."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: {parent!r} is not a writable directory")
    return text


def _joint_range_error(args: argparse.Namespace) -> str | None:
    """The message for a bound that the per-argument types do not check, or None."""
    if args.cmd == "theorem2-diff" and args.n * args.m < 2:
        return f"need n*m >= 2 (differences are scaled by log(n*m)), got n={args.n}, m={args.m}"
    if args.cmd == "theorem2-diff" and args.n * args.m > _CHUNK_ENTRIES:
        return f"need n*m <= {_CHUNK_ENTRIES} (one row must fit a chunk), got n={args.n}, m={args.m}"
    if args.cmd == "pmf" and args.which != "cycle-moments" and args.n < 1:
        return f"argument --n: must be >= 1 for --which {args.which}, got {args.n}"
    if args.cmd == "pmf" and args.n > PMF_CAP[args.which]:
        return f"argument --n: must be <= {PMF_CAP[args.which]} for --which {args.which}, got {args.n}"
    if args.cmd == "gepp-check" and args.n > UNIFORMITY_CAP[args.family]:
        return f"argument --n: must be <= {UNIFORMITY_CAP[args.family]} for --family {args.family}, got {args.n}"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="butterfly-trees", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=_out_path, default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    seeded = argparse.ArgumentParser(add_help=False)  # the subcommands that sample
    seeded.add_argument("--seed", type=_bounded_int(0, 2**64 - 1), default=DEFAULT_SEED, help="64-bit experiment seed")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sub.add_parser("table1", parents=[common]).set_defaults(build=lambda a: table1_data())
    p = sub.add_parser("fig8", parents=[common, seeded])
    p.set_defaults(build=lambda a: fig8_data(a.n, a.trials, a.seed))
    p.add_argument("--n", type=_bounded_int(1, _LEVEL_CAP), default=10)
    p.add_argument("--trials", type=_bounded_int(1), default=10_000)
    p = sub.add_parser("theorem2-diff", parents=[common, seeded])
    p.set_defaults(build=lambda a: theorem2_diff_data(a.n, a.m, a.trials, a.seed))
    p.add_argument("--n", type=_bounded_int(1), default=10_000)
    p.add_argument("--m", type=_bounded_int(1), default=2)
    p.add_argument("--trials", type=_bounded_int(2), default=2000, help="at least 2: the SEM needs two trials")
    p = sub.add_parser("clt-simple", parents=[common, seeded])
    p.set_defaults(build=lambda a: clt_simple_data(a.n, a.samples, a.seed))
    p.add_argument("--n", type=_bounded_int(1, 2**63 - 1), default=400, help="at most 2^63 - 1, numpy's binomial count")
    p.add_argument("--samples", type=_bounded_int(1, _CHUNK_ENTRIES), default=100_000)
    p = sub.add_parser("bounds", parents=[common])
    p.set_defaults(build=lambda a: bounds_data(a.n_max, a.exact_max))
    p.add_argument("--n-max", type=_bounded_int(1, N_MAX_CAP), default=10)
    p.add_argument("--exact-max", type=_bounded_int(None, EXACT_MAX_CAP), default=4, help="negative: no exact column")
    p = sub.add_parser("explore-conjecture", parents=[common, seeded])
    p.set_defaults(build=lambda a: explore_conjecture_data(a.grid, a.trials, a.seed))
    p.add_argument("--grid", type=_parse_grid, default=[(50, 50)], help="pairs like 50x50,100x20")
    p.add_argument("--trials", type=_bounded_int(1), default=500, help="trials per grid cell")
    p = sub.add_parser("gepp-check", parents=[common, seeded])
    p.set_defaults(build=lambda a: gepp_check_data(a.n, a.trials, a.seed, a.family))
    p.add_argument("--n", type=_bounded_int(1), default=2)
    p.add_argument("--family", choices=("simple", "nonsimple"), default="nonsimple")
    p.add_argument("--trials", type=_bounded_int(1), default=80_000)
    p = sub.add_parser("lattice-degrees", parents=[common])
    p.set_defaults(build=lambda a: lattice_degrees_data(a.n))
    p.add_argument("--n", type=_bounded_int(1, LATTICE_CAP), default=10)
    p = sub.add_parser("pmf", parents=[common])
    p.set_defaults(build=lambda a: pmf_data(a.which, a.n))
    p.add_argument("--which", choices=("stirling", "simple-height", "cycle-moments"), default="stirling")
    p.add_argument("--n", type=_bounded_int(0), default=10)
    p = sub.add_parser("law-hist", parents=[common, seeded])
    p.set_defaults(build=lambda a: law_hist_data(a.law, a.n, a.trials, a.seed))
    p.add_argument("--law", choices=("lis", "cycle"), default="cycle")
    p.add_argument("--n", type=_bounded_int(0, _LEVEL_CAP), default=4)
    p.add_argument("--trials", type=_bounded_int(1), default=100_000)

    args = parser.parse_args(argv)
    problem = _joint_range_error(args)
    if problem:
        sub.choices[args.cmd].error(problem)

    meta, cols = args.build(args)
    meta["format"] = args.format
    _emit(meta, cols, args.out, args.format)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
