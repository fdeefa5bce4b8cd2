import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from butterfly_trees import cli, exact, gepp

from conftest import explicit_degree_multiset
from butterfly_trees.sampling import (
    RngState,
    cycle_law_samples,
    lis_law_samples,
    nonsimple_butterfly_stats,
    uniform_bst_stats,
    wreath_heights,
)


def run_cli(capsys, args):
    assert cli.main(args) == 0
    return capsys.readouterr().out


def test_table1(capsys):
    out = run_cli(capsys, ["table1"])
    lines = out.strip().split("\n")
    assert lines[0] == "# subcommand=table1"
    assert "k,height,count_law,count_enum,equal" in lines
    assert "5,62,252,252,1" in lines
    assert "0,1023,2,2,1" in lines


FIG8_GOLDEN = [
    ([], "87d62406bac85388ae2a77f735f218af48612b0df0094d266157a183af9322eb"),
    (["--n", "6", "--trials", "777", "--seed", "5", "--format", "json"], "45bc60793aef24faa0c6e44140be95fe6b623204e452f5472f7a1fe13a1edf95"),
    (["--n", "4", "--trials", "3000", "--seed", "9"], "8bc49989a7e87d25927f03429de14551d7e608c21da14c5a0b97d5d49932ab23"),
    (["--n", "5", "--trials", "1001", "--seed", "13", "--format", "json"], "6a02708a4da704e0951d19ea76fc3bba1b9e066c314c840d9238aa18b4d78b1c"),
]


@pytest.mark.parametrize("args,digest", FIG8_GOLDEN, ids=["default-csv", "n6-json", "n4-csv", "n5-json"])
def test_fig8_golden_digest(capsys, args, digest):
    # re-recorded when each chunk drew its top-level bits and then one uniform index per
    # bottom subtree instead of all 2^n - 1 shape bits: the same law, each chunk's stream
    # consumed differently (the n = 10 band also lost its sampled-minimum clause); and again
    # when a subtree index came to mean the shape of that class index (its level-ordered
    # bits), not the root / first subtree / second subtree numbering: the same draws and
    # law, each drawn index mapped to another shape. The n = 4, 5 and 6 digests were
    # re-recorded again when the band below n = 9 became the exact mean +/- 5 standard
    # errors instead of "mean in [lower, upper]": the band line alone moved
    out = run_cli(capsys, ["fig8"] + args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TREE_GOLDEN = [
    (["table1"], "5ce51e718033b657db914dba4ce0c8317cff73d866fb90823e95de864dbebe6a"),
    (["theorem2-diff", "--n", "500", "--m", "2", "--trials", "600", "--seed", "7"], "ed8b4717c90d5546ed47098b5a2520ef5282e0ea62662b01551fde2b1131b6a7"),
    (["theorem2-diff", "--n", "37", "--m", "3", "--trials", "251", "--seed", "11", "--format", "json"], "a9130b240527e77abfd0dc9c57e2e0543d429f11764a05b82d6a6ae0f11e2df0"),
    (
        ["explore-conjecture", "--grid", "20x5,1x3,30x1", "--trials", "300", "--seed", "3", "--format", "json"],
        "ce722150ee4e143e0cf7afcd27c70b90b8e5cd3111bef3c5a9bb906ad43bfb37",
    ),
]


@pytest.mark.parametrize("args,digest", TREE_GOLDEN, ids=["table1", "theorem2-csv", "theorem2-json", "explore-json"])
def test_tree_golden_digest(capsys, args, digest):
    # table1 was recorded from the two-pass depth-array batch_summaries. The theorem2 and
    # explore digests were re-recorded when their trees came from root splits instead of
    # words (explore-conjecture also moved to one stream per cell and chunk), and again
    # when every subtree of at most 20 keys came whole from the alias table: each change
    # consumes each chunk's stream differently. The theorem2 digests were re-recorded again
    # when each chunk's uniform heights moved to the child of its stream, drawn on a worker
    # thread beside the wreath heights, which keep the chunk's stream. table1 was re-recorded
    # when the subcommands that sample nothing stopped writing a seed line: that line alone left.
    out = run_cli(capsys, args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CHUNK_GOLDEN = [
    (["law-hist"], "5a012084df0058578ebd6bda750a19a143e03b97e30997641f81b0bf8e815435"),
    (["fig8", "--n", "16", "--trials", "130"], "86bc54b46d6071b9f82532ea10db60ccfa79fb3ef6acd9f0dbdefb2d88d1bdbe"),
]


@pytest.mark.parametrize("args,digest", CHUNK_GOLDEN, ids=["law-hist-default", "fig8-n16"])
def test_chunk_golden_digest(capsys, args, digest):
    # recorded from the one chunk driver, whose row budget moved these outputs:
    # law-hist n = 4 now samples 250-row chunks (16000 before), fig8 n = 16 128-row ones (250 before);
    # fig8 n = 16 re-recorded when chunks drew subtree indices instead of shape bits, and
    # again when those indices came to be class indices (same draws, another index-to-shape map);
    # law-hist re-recorded when its chi-square pooled cells to an expected 5 (only pvalue and band moved)
    out = run_cli(capsys, args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_theorem2_chunks_draw_each_family_from_its_own_stream(monkeypatch):
    # chunk c draws its wreath heights from RngState(seed, c), as explore-conjecture's one-cell
    # grid does, and its uniform heights from that stream's child
    n, m, trials, seed = 7, 3, 7, 21
    monkeypatch.setattr(cli, "_CHUNK", 3)
    _, cols = cli.theorem2_diff_data(n, m, trials, seed)
    diffs = []
    for c, b in enumerate([3, 3, 1]):
        hw = wreath_heights(n, m, b, RngState(seed, c).generator())
        hu, _, _ = uniform_bst_stats(n * m, b, RngState(seed, c, child=True).generator())
        diffs.append((hw - hu) / math.log(n * m))
    d = np.concatenate(diffs)
    assert cols["scaled_diff_mean"] == [float(d.mean())]
    assert cols["scaled_diff_sem"] == [float(d.std(ddof=1) / math.sqrt(trials))]


def test_explore_conjecture_chunks_are_per_cell_streams(monkeypatch):
    # cell i of G draws chunk c from RngState(seed, c * G + i)
    grid, trials, seed = [(3, 4), (5, 2), (3, 4)], 5, 9
    monkeypatch.setattr(cli, "_CHUNK", 2)
    _, cols = cli.explore_conjecture_data(grid, trials, seed)
    for i, (n, m) in enumerate(grid):
        h = np.concatenate([wreath_heights(n, m, b, RngState(seed, c * 3 + i).generator()) for c, b in enumerate([2, 2, 1])])
        assert cols["ratio_mean"][i] == float(h.mean()) / (math.log(n) * math.log(m))
        assert cols["exceed_freq"][i] == float((h >= cols["threshold"][i]).mean())


def test_explore_conjecture_equal_cells_draw_apart(monkeypatch):
    drawn = []

    def recording(*args):
        drawn.append(wreath_heights(*args))
        return drawn[-1]

    monkeypatch.setattr(cli.sampling, "wreath_heights", recording)
    cli.explore_conjecture_data([(4, 50), (4, 50)], 200, seed=5)
    assert len(drawn) == 2 and not np.array_equal(drawn[0], drawn[1])


def test_fig8_and_law_hist_chunks_are_per_chunk_streams(monkeypatch):
    n, trials, seed = 3, 5, 8
    monkeypatch.setattr(cli, "_CHUNK_ENTRIES", (1 << n) - 1)  # one shape-bit row per chunk
    meta, cols = cli.fig8_data(n, trials, seed)
    h = np.concatenate([nonsimple_butterfly_stats(n, 1, RngState(seed, c).generator())[0] for c in range(trials)])
    values, counts = np.unique(h, return_counts=True)
    assert (cols["height"], cols["count"]) == (values.tolist(), counts.tolist())
    assert meta["mean"] == float(h.mean())

    monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 1 << n)  # one law row per chunk
    for law, sampler in (("cycle", cycle_law_samples), ("lis", lis_law_samples)):
        _, cols = cli.law_hist_data(law, n, trials, seed)
        x = np.concatenate([sampler(n, 1, RngState(seed, c).generator()) for c in range(trials)])
        values, counts = np.unique(x, return_counts=True)
        assert [o for o in cols["observed"] if o] == counts.tolist()
        assert [v for v, o in zip(cols["value"], cols["observed"]) if o] == values.tolist()

    with pytest.raises(ValueError, match="exceeds the chunk budget"):
        cli.fig8_data(n + 1, trials, seed)


EXACT_GOLDEN = [
    (["bounds"], "1199bb8e2c065b0809d61c03ac322ddb6ce11cadbede192cd61edebce8b53dd3"),
    (["bounds", "--n-max", "10", "--exact-max", "5"], "5a60af97847216aa4fea104769be2e2e2d39ceb999c93d3dba1e01d83e6a2d3e"),
    (["law-hist", "--law", "cycle", "--n", "10", "--trials", "2000"], "9cab477b6e5993dd1cc8e0c8bba33ef9ecb63f16a9225555e5498f0023101c5f"),
    (["law-hist", "--law", "lis", "--n", "10", "--trials", "2000"], "73b99f2f1a07acf97d3374609a1808c25f3813ef0f1a75ee738354938094c66f"),
    (["law-hist", "--law", "cycle", "--n", "12", "--trials", "2000"], "40efdad84611c7c41e057b20e60222fb87560559aae593db611e80c8cd63e90c"),
    (["law-hist", "--law", "lis", "--n", "12", "--trials", "2000"], "bbc6900ae9ecf94d91c3c64661cd883d62a01b52689710c83b9f655b3deeae21"),
    (["pmf", "--which", "stirling"], "a2a4f5b961e5a54f0330c66111af992aacdd46b286118c77ec8df8e1f88acf9c"),
    (["pmf", "--which", "stirling", "--n", "300"], "f02911378c8aa26980f4dd3b73836b8ff4a6ada06a5ea92b30201a0a43ecef06"),
]


@pytest.mark.parametrize(
    "args,digest",
    EXACT_GOLDEN,
    ids=["bounds", "bounds-exact5", "law-cycle-n10", "law-lis-n10", "law-cycle-n12", "law-lis-n12", "pmf-stirling", "pmf-stirling-n300"],
)
def test_exact_golden_digest(capsys, args, digest):
    # recorded from the dict convolutions; the dense and Kronecker laws must reproduce it.
    # The law-hist digests were re-recorded when its chi-square pooled cells to an expected 5
    # (only pvalue and band moved: unpooled, both read p = 1.0), and again when the p-value
    # came from cli._chi2_sf instead of scipy.special.chdtrc: pvalue moved in its last digits
    # (0.5258576811653656 -> ...659 cycle, 0.7325172688098454 -> ...451 lis), within its bound.
    # The bounds and pmf digests were re-recorded when the subcommands that sample nothing
    # stopped writing a seed line: that line alone left. The n = 12 law-hist digests were
    # recorded from the unsplit Kronecker square and numpy's own fair-bit draws.
    out = run_cli(capsys, args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


GEPP_LATTICE_CLT_GOLDEN = [
    (["gepp-check"], "e0dcf11b4c2a399eef65672739e4eb39294af9c58930baecdbc88d9cdbd05c07"),
    (["gepp-check", "--family", "nonsimple", "--n", "3", "--trials", "20000"], "e5787b63c9b778253be67004e8840c6618ea3cde182e3667faa4f6c648bc9a1c"),
    (["gepp-check", "--family", "simple", "--n", "4", "--trials", "20000"], "aec1b555a6b923d841a3490c01612e55257362651d9460baf44d8d1ec7fea7fa"),
    (["gepp-check", "--family", "simple", "--n", "6", "--trials", "20000"], "58e6c061700ae7b2ffc0fc2ccbfdd36453514f052c9a1c2625dedd3f9411daad"),
    (["gepp-check", "--family", "nonsimple", "--n", "4", "--trials", "2000"], "f1865535453845f7f3d33982ed451914864cb62f1b2cc493aa3e098bc8f29e46"),
    (["gepp-check", "--family", "simple", "--n", "7", "--trials", "128"], "693652fa4afcd1a2b344b61c1bec70ad91bbaa2cd62356dbfb74db6d84abbaa8"),
    (["lattice-degrees"], "e0394c8c1e1a5ac6c0462fe8710652b47788836139b10713587a7f9087abf56c"),
    (["clt-simple", "--n", "400", "--samples", "20000"], "b540af079c80921dc576ec18a23fddceab1ea252bdc0ce2b0dd31816768acf15"),
]


@pytest.mark.parametrize(
    "args,digest", GEPP_LATTICE_CLT_GOLDEN, ids=["gepp-default", "gepp-nonsimple-n3", "gepp-simple-n4", "gepp-simple-n6", "gepp-nonsimple-n4", "gepp-simple-n7", "lattice-degrees", "clt-simple-n400"]
)
def test_gepp_lattice_clt_golden_digest(capsys, args, digest):
    # recorded from the block-recursive matrices and the tuple-dict class count; the XOR masks must reproduce it.
    # The gepp-check digests were re-recorded when max_plu_error became the residual of the class check's own
    # GEPP sample instead of 50 matrices from a second stream; classes, chi2 and pvalue did not change.
    # They were re-recorded again when the p-value came from cli._chi2_sf instead of scipy.special.chdtrc:
    # only pvalue moved, by at most 2.3e-15 relative (nonsimple n = 3), within _chi_square's stated bound.
    # gepp-nonsimple-n4 and gepp-simple-n7 (a 128-matrix GEPP sample of order 128) were recorded while batch_gepp
    # still eliminated every stack batch-first; they pin that the batch-last memory order moves no bit.
    # lattice-degrees was re-recorded when the subcommands that sample nothing stopped writing a
    # seed line: that line alone left.
    out = run_cli(capsys, args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The ids are literals, the names these cases had when pytest derived them from the
# messages, so rewording a message does not rename its case.
@pytest.mark.parametrize(
    "args,message",
    [
        pytest.param(["fig8", "--trials", "0"], "argument --trials: must be >= 1", id="args0-argument --trials: must be >= 1"),
        pytest.param(["law-hist", "--trials", "-5"], "argument --trials: must be >= 1", id="args1-argument --trials: must be >= 1"),
        pytest.param(["fig8", "--seed", "-1"], "argument --seed: must be in 0..18446744073709551615, got -1", id="args2-argument --seed: must be in 0..18446744073709551615, got -1"),
        pytest.param(["fig8", "--seed", "-7"], "argument --seed: must be in 0..18446744073709551615, got -7", id="args3-argument --seed: must be in 0..18446744073709551615, got -7"),
        pytest.param(["fig8", "--n", "0"], "argument --n: must be in 1..23, got 0", id="args4-argument --n: must be in 1..23, got 0"),
        pytest.param(["fig8", "--n", "-3"], "argument --n: must be in 1..23, got -3", id="args5-argument --n: must be in 1..23, got -3"),
        pytest.param(["fig8", "--trials", "ten"], "argument --trials: invalid int value", id="args6-argument --trials: invalid int value"),
        pytest.param(["law-hist", "--n", "-1"], "argument --n: must be in 0..23", id="args7-argument --n: must be in 0..23"),
        pytest.param(["theorem2-diff", "--n", "-4"], "argument --n: must be >= 1", id="args8-argument --n: must be >= 1"),
        pytest.param(["theorem2-diff", "--m", "0"], "argument --m: must be >= 1", id="args9-argument --m: must be >= 1"),
        pytest.param(["theorem2-diff", "--n", "1", "--m", "1"], "need n*m >= 2", id="args10-need n*m >= 2"),
        pytest.param(["clt-simple", "--n", "0"], "argument --n: must be in 1..9223372036854775807, got 0", id="args11-argument --n: must be >= 1"),
        pytest.param(["clt-simple", "--samples", "0"], "argument --samples: must be in 1..8388608, got 0", id="args12-argument --samples: must be in 1..8388608, got 0"),
        pytest.param(["gepp-check", "--n", "0"], "argument --n: must be >= 1", id="args13-argument --n: must be >= 1"),
        pytest.param(["gepp-check", "--n", "5"], "argument --n: must be <= 4 for --family nonsimple", id="args14-argument --n: must be <= 3 for --family nonsimple"),
        pytest.param(["gepp-check", "--n", "11", "--family", "simple"], "argument --n: must be <= 10 for --family simple", id="args15-argument --n: must be <= 10 for --family simple"),
        pytest.param(["pmf", "--n", "-2"], "argument --n: must be >= 0", id="args16-argument --n: must be >= 0"),
        pytest.param(["pmf", "--which", "simple-height", "--n", "0"], "argument --n: must be >= 1 for --which simple-height", id="args17-argument --n: must be >= 1 for --which simple-height"),
        pytest.param(["lattice-degrees", "--n", "-1"], "argument --n: must be in 1..20", id="args18-argument --n: must be in 1..20"),
        pytest.param(["lattice-degrees", "--n", "21"], "argument --n: must be in 1..20", id="args19-argument --n: must be in 1..20"),
        pytest.param(["bounds", "--n-max", "-1"], "argument --n-max: must be in 1..1119, got -1", id="args20-argument --n-max: must be in 1..1119, got -1"),
        pytest.param(["explore-conjecture", "--grid", "0x5"], "argument --grid: grid entries must be >= 1", id="args21-argument --grid: grid entries must be >= 1"),
        pytest.param(["explore-conjecture", "--grid", "4x6,5x0"], "argument --grid: grid entries must be >= 1", id="args22-argument --grid: grid entries must be >= 1"),
        pytest.param(["bounds", "--exact-max", "9"], "argument --exact-max: must be <= 8, got 9", id="args23-argument --exact-max: must be <= 8, got 9"),
        pytest.param(["law-hist", "--n", "24"], "argument --n: must be in 0..23, got 24", id="args24-argument --n: must be in 0..23, got 24"),
        pytest.param(["explore-conjecture", "--grid", "5"], "argument --grid: expected NxM pairs like 50x50,100x20, got '5'", id="args25-argument --grid: expected NxM pairs like 50x50,100x20, got '5'"),
        pytest.param(["explore-conjecture", "--grid", "4x6,ax5"], "argument --grid: expected NxM pairs like 50x50,100x20, got 'ax5'", id="args26-argument --grid: expected NxM pairs like 50x50,100x20, got 'ax5'"),
        pytest.param(["theorem2-diff", "--trials", "1"], "theorem2-diff: error: argument --trials: must be >= 2, got 1", id="args27-theorem2-diff: error: argument --trials: must be >= 2, got 1"),
        pytest.param(["fig8", "--n", "24"], "argument --n: must be in 1..23, got 24", id="args28-argument --n: must be in 1..23, got 24"),
        pytest.param(["theorem2-diff", "--n", "5000000", "--m", "2"], "need n*m <= 8388608", id="args29-need n*m <= 8388608"),
        pytest.param(["theorem2-diff", "--n", "8388609", "--m", "1"], "need n*m <= 8388608", id="args30-need n*m <= 8388608"),
        pytest.param(["pmf", "--which", "stirling", "--n", "1001"], "argument --n: must be <= 1000 for --which stirling, got 1001", id="args31-argument --n: must be <= 1000 for --which stirling, got 1001"),
        pytest.param(["pmf", "--which", "cycle-moments", "--n", "101"], "argument --n: must be <= 100 for --which cycle-moments, got 101", id="args32-argument --n: must be <= 100 for --which cycle-moments, got 101"),
        pytest.param(["pmf", "--which", "simple-height", "--n", "10001"], "argument --n: must be <= 10000 for --which simple-height, got 10001", id="args33-argument --n: must be <= 10000 for --which simple-height, got 10001"),
        pytest.param(["pmf", "--out", "no-such-dir/x.csv"], "argument --out: cannot write 'no-such-dir/x.csv': 'no-such-dir' is not a writable directory", id="args34-argument --out: cannot write 'no-such-dir/x.csv': 'no-such-dir' is not a writable directory"),
        pytest.param(["gepp-check", "--out", "."], "argument --out: '.' is a directory", id="args35-argument --out: '.' is a directory"),
        pytest.param(["table1", "--trials", "5"], "unrecognized arguments: --trials 5", id="args36-unrecognized arguments: --trials 5"),
        pytest.param(["clt-simple", "--trials", "5"], "unrecognized arguments: --trials 5", id="args37-unrecognized arguments: --trials 5"),
        pytest.param(["bounds", "--trials", "5"], "unrecognized arguments: --trials 5", id="args38-unrecognized arguments: --trials 5"),
        pytest.param(["lattice-degrees", "--trials", "5"], "unrecognized arguments: --trials 5", id="args39-unrecognized arguments: --trials 5"),
        pytest.param(["pmf", "--trials", "5"], "unrecognized arguments: --trials 5", id="args40-unrecognized arguments: --trials 5"),
        pytest.param(["clt-simple", "--samples", "8388609"], "argument --samples: must be in 1..8388608, got 8388609", id="args41-argument --samples: must be in 1..8388608, got 8388609"),
        pytest.param(["explore-conjecture", "--grid", "4x6,3000x3000"], "argument --grid: need n*m <= 8388608 (one row must fit a chunk), got '3000x3000'", id="args42-argument --grid: need n*m <= 8388608 (one row must fit a chunk), got '3000x3000'"),
        pytest.param(["bounds", "--n-max", "1120"], "argument --n-max: must be in 1..1119, got 1120", id="args43-argument --n-max: must be in 1..1119, got 1120"),
        pytest.param(["fig8", "--seed", str(10**26)], f"argument --seed: must be in 0..18446744073709551615, got {10**26}", id="args44-argument --seed: must be in 0..18446744073709551615, got 100000000000000000000000000"),
        pytest.param(["bounds", "--seed", "5"], "unrecognized arguments: --seed 5", id="seed-bounds"),
        pytest.param(["table1", "--seed", "5"], "unrecognized arguments: --seed 5", id="seed-table1"),
        pytest.param(["lattice-degrees", "--seed", "5"], "unrecognized arguments: --seed 5", id="seed-lattice-degrees"),
        pytest.param(["pmf", "--seed", "5"], "unrecognized arguments: --seed 5", id="seed-pmf"),
        pytest.param(["table1", "--out", ""], "argument --out: must not be empty", id="out-empty"),
        pytest.param(["clt-simple", "--n", str(2**63), "--samples", "3"], f"argument --n: must be in 1..{2**63 - 1}, got {2**63}", id="clt-n-past-int64"),
    ],
)
def test_bad_arguments_are_argparse_errors(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["theorem2-diff", "--n", "1", "--m", "2", "--trials", "3"],
        ["pmf", "--which", "cycle-moments", "--n", "0"],
        ["law-hist", "--n", "0", "--trials", "3"],
        ["lattice-degrees", "--n", "20"],
        ["gepp-check", "--n", "3", "--trials", "10"],
    ],
    ids=lambda a: a[0],
)
def test_edge_arguments_are_accepted(capsys, args):
    assert run_cli(capsys, args).startswith(f"# subcommand={args[0]}")


def test_upper_bounds_accept_their_edge(capsys):
    out = run_cli(capsys, ["bounds", "--n-max", "2", "--exact-max", "8"])
    assert out.endswith("1,1.00,1.0,1.00\n2,2.50,2.5,3.38\n")
    out = run_cli(capsys, ["bounds", "--n-max", "2", "--exact-max", "-3"])
    assert out.endswith("1,1.00,,1.00\n2,2.50,,3.38\n")
    # the last finite upper bound; one row further it is inf
    out = run_cli(capsys, ["bounds", "--n-max", str(cli.N_MAX_CAP), "--exact-max", "-1"])
    assert math.isfinite(float(out.splitlines()[-1].split(",")[-1]))
    assert exact.nonsimple_mean_bounds(cli.N_MAX_CAP + 1)[1] == math.inf
    out = run_cli(capsys, ["fig8", "--n", "2", "--trials", "10", "--seed", str(2**64 - 1)])
    assert f"# seed={2**64 - 1}\n" in out
    # one row of 2^23 entries fills a chunk: ~0.7 s and ~250 MB each on a 2-vCPU Xeon
    doc = json.loads(run_cli(capsys, ["law-hist", "--n", "23", "--trials", "3", "--format", "json"]))
    assert sum(doc["columns"]["observed"]) == 3
    doc = json.loads(run_cli(capsys, ["fig8", "--n", "23", "--trials", "1", "--format", "json"]))
    assert sum(doc["columns"]["count"]) == 1


def test_trials_default_only_when_omitted(capsys):
    doc = json.loads(run_cli(capsys, ["law-hist", "--n", "2", "--format", "json"]))
    assert doc["meta"]["trials"] == 100_000
    doc = json.loads(run_cli(capsys, ["law-hist", "--n", "2", "--trials", "1", "--format", "json"]))
    assert doc["meta"]["trials"] == 1 and sum(doc["columns"]["observed"]) == 1


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)


def test_import_leaves_scipy_unloaded():
    # no subcommand loads scipy: the chi-square p-value and the half-normal CDF come from math
    code = (
        "import sys, butterfly_trees.cli as c\n"
        "for args in (['law-hist', '--n', '4', '--trials', '2000'], ['gepp-check', '--n', '2', '--trials', '400'],"
        " ['clt-simple', '--n', '100', '--samples', '1000']):\n"
        "    assert c.main(args) == 0\n"
        "print([m for m in sys.modules if m.startswith('scipy')], file=sys.stderr)"
    )
    assert fresh_python(code).stderr == "[]\n"


def test_import_leaves_the_thread_pool_unloaded():
    # theorem2-diff imports concurrent.futures where it starts its worker thread
    run = fresh_python("import sys, butterfly_trees.cli; print('concurrent.futures' in sys.modules)")
    assert run.stdout == "False\n"


def test_import_builds_no_alias_table():
    # the alias table and the subtree tables are built on first use, never at import,
    # and no subcommand pulls in the tree builder
    code = (
        "import sys, butterfly_trees.cli as c; print('butterfly_trees.bst' in sys.modules); "
        "print(c.sampling._alias_table.cache_info().currsize, c.butterfly._subtree_table.cache_info().currsize)"
    )
    assert fresh_python(code).stdout == "False\n0 0\n"


def test_first_theorem2_runs_build_the_alias_table_once():
    # a chunk's two halves, and here four runs at once on more threads than cores, all ask
    # for the alias table before it exists: one builds it, and every run keeps its numbers
    code = (
        "import sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import butterfly_trees.cli as c\n"
        "sys.setswitchinterval(1e-6)\n"
        "with ThreadPoolExecutor(4) as pool:\n"
        "    runs = list(pool.map(lambda s: c.theorem2_diff_data(30, 2, 300, s), range(4)))\n"
        "sys.setswitchinterval(0.005)\n"
        "assert runs == [c.theorem2_diff_data(30, 2, 300, s) for s in range(4)]\n"
        "print(c.sampling._alias_table.cache_info().misses)"
    )
    assert fresh_python(code).stdout == "1\n"


def test_fmt_numpy_scalars():
    assert cli._fmt(np.float64(0.1)) == "0.1" == cli._fmt(0.1)
    assert cli._fmt(np.float32(0.5)) == "0.5"
    assert cli._fmt(np.int64(7)) == "7" == cli._fmt(7)
    assert cli._fmt(np.uint8(255)) == "255"
    assert cli._fmt(Fraction(3, 4)) == "3/4"
    text = cli.render_csv({"mean": np.float64(2.5)}, {"h": [np.int64(3)], "x": [np.float64(1.0)]})
    assert text == "# mean=2.5\nh,x\n3,1.0\n"


@pytest.mark.parametrize("law", ["cycle", "lis"])
def test_law_hist_exact_columns_at_n10(law):
    trials = 2000
    meta, cols = cli.law_hist_data(law, 10, trials, seed=3)
    counts, denom_exp = getattr(exact, f"{law}_law_counts")(10)
    mean = Fraction(sum(v * c for v, c in counts.items()), 1 << denom_exp)
    expected = cols["expected"]
    assert sum(cols["observed"]) == trials
    assert math.isclose(math.fsum(expected), trials, rel_tol=1e-9)
    assert math.isclose(math.fsum(v * e for v, e in zip(cols["value"], expected)) / trials, float(mean), rel_tol=1e-12)
    assert 0.0 <= meta["pvalue"] <= 1.0


def test_output_is_deterministic(capsys):
    a = run_cli(capsys, ["fig8", "--n", "5", "--trials", "300", "--seed", "9"])
    b = run_cli(capsys, ["fig8", "--n", "5", "--trials", "300", "--seed", "9"])
    assert a == b
    c = run_cli(capsys, ["fig8", "--n", "5", "--trials", "300", "--seed", "10"])
    assert a != c


def test_out_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    cli.main(["bounds", "--n-max", "3", "--out", str(path)])
    text = path.read_text()
    assert text.startswith("# subcommand=bounds")
    assert "n,lower,exact_mean,upper" in text


def test_json_mirrors_columns(capsys):
    out = run_cli(capsys, ["lattice-degrees", "--n", "3", "--format", "json"])
    doc = json.loads(out)
    assert doc["meta"]["subcommand"] == "lattice-degrees"
    assert "seed" not in doc["meta"]
    assert doc["columns"]["degree"] == [4, 7]
    assert doc["columns"]["count"] == [6, 2]
    assert doc["columns"]["equal"] == [1, 1]


@pytest.mark.parametrize("n", range(1, 13))
def test_lattice_degrees_compare_the_lattice_with_the_trees(n):
    _, cols = cli.lattice_degrees_data(n)
    assert dict(zip(cols["degree"], cols["count"])) == explicit_degree_multiset(n)
    assert dict(zip(cols["degree"], cols["height_count"])) == exact.simple_height_counts(n)
    assert cols["equal"] == [1] * len(cols["degree"])


def test_lattice_degrees_flag_a_wrong_tree_height(capsys, monkeypatch):
    # the all-12 tree of 2^4 keys is a path of height 15, the degree of the empty set and of the full set
    real = cli.butterfly.simple_stats

    def one_wrong(n):
        h, l, r = real(n)
        h[0] += 1
        return h, l, r

    monkeypatch.setattr(cli.butterfly, "simple_stats", one_wrong)
    rows = [l.split(",") for l in run_cli(capsys, ["lattice-degrees", "--n", "4"]).split("\n") if l and not l.startswith("#")]
    assert rows[0] == ["degree", "count", "height_count", "equal"]
    assert {r[0]: r[1:] for r in rows[1:]} == {"6": ["6", "6", "1"], "8": ["8", "8", "1"], "15": ["2", "1", "0"], "16": ["0", "1", "0"]}


def test_lattice_degrees_peak_memory_at_the_cap():
    tracemalloc.start()
    try:
        cli.lattice_degrees_data(cli.LATTICE_CAP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 80.0 MiB measured, all of it butterfly.simple_stats(20): the trees are freed before the masks are built
    assert peak <= 96 * 2**20


@pytest.mark.parametrize("law", ["cycle", "lis"])
def test_law_hist_exact_columns_end_at_the_cap(law):
    meta, cols = cli.law_hist_data(law, cli.LAW_EXACT_CAP, 20, seed=5)
    assert list(cols) == ["value", "observed", "expected"] and "pvalue" in meta
    meta, cols = cli.law_hist_data(law, cli.LAW_EXACT_CAP + 1, 20, seed=5)
    assert list(cols) == ["value", "observed"] and "pvalue" not in meta
    assert meta["band"] == "exploratory (law too large for exact columns)"


def test_bounds_two_decimal_format(capsys):
    out = run_cli(capsys, ["bounds", "--n-max", "10", "--exact-max", "2"])
    rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header == "n,lower,exact_mean,upper"
    last = data[-1].split(",")
    assert last[0] == "10" and last[1] == "113.33" and last[3] == "1313.53"
    n2 = data[1].split(",")
    assert n2[1] == "2.50" and n2[2] == "2.5"


def test_fig8_meta_bands(capsys):
    out = run_cli(capsys, ["fig8", "--n", "4", "--trials", "200"])
    assert "# mean=" in out and "# mean_lower_bound=" in out and "# mean_upper_bound=" in out
    counts = [int(l.split(",")[1]) for l in out.strip().split("\n") if not l.startswith("#") and not l.startswith("height")]
    assert sum(counts) == 200


def fig8_band(meta: dict) -> tuple[float, float]:
    """The [lo, hi] interval that a fig8 band line states."""
    lo, _, rest = meta["band"].removeprefix("mean in [").partition(", ")
    return float(lo), float(rest.partition("]")[0])


def test_fig8_band_is_the_exact_mean_up_to_the_cap(monkeypatch):
    # n = 3: the paper's lower bound equals the exact mean 4.75, and this seed's mean lies below it
    meta, _ = cli.fig8_data(3, 10_000, 2)
    lo, hi = fig8_band(meta)
    assert meta["mean"] < meta["mean_lower_bound"] == exact.exact_mean_height(3)
    assert lo <= meta["mean"] <= hi
    assert meta["band"].endswith(f": exact mean {exact.exact_mean_height(3)!r} +/- 5 standard errors")
    # a sampler whose heights are all one too high fails the band
    real = cli.sampling.nonsimple_butterfly_stats
    monkeypatch.setattr(cli.sampling, "nonsimple_butterfly_stats", lambda n, b, g: (real(n, b, g)[0] + 1, None, None))
    meta, _ = cli.fig8_data(5, 10_000, 2)
    lo, hi = fig8_band(meta)
    assert not lo <= meta["mean"] <= hi
    monkeypatch.undo()
    meta, _ = cli.fig8_data(5, 10_000, 2)
    lo, hi = fig8_band(meta)
    assert lo <= meta["mean"] <= hi


def test_fig8_band_past_the_cap_and_below_two_trials():
    assert cli.fig8_data(3, 1, 2)[0]["band"] == "does not apply (the standard error needs trials >= 2); exact mean 4.75"
    assert cli.fig8_data(cli.EXACT_MAX_CAP + 1, 20, 2)[0]["band"] == "mean in [lower, upper]"
    assert cli.fig8_data(10, 20, 2)[0]["band"] == "n=10: mean in [113,126]"


def test_theorem2_small(capsys):
    out = run_cli(capsys, ["theorem2-diff", "--n", "200", "--m", "1", "--trials", "100"])
    rows = out.strip().split("\n")
    data = rows[-1].split(",")
    assert data[0] == "200" and data[1] == "1"
    assert abs(float(data[3])) <= 0.2  # identical laws at m=1


def test_theorem2_n1_band_is_degenerate(capsys):
    # S_1 wr S_m is S_m: the difference has mean 0 in law, and the m = 2 band (asymptotic in n) does not apply
    # and S_n wr S_1 is S_n, so m = 1 is degenerate at every n
    for n, m in ((1, 2), (1, 3), (5, 1)):
        doc = json.loads(run_cli(capsys, ["theorem2-diff", "--n", str(n), "--m", str(m), "--trials", "40", "--format", "json"]))
        assert doc["meta"]["band"].startswith("degenerate")
        assert math.isnan(doc["columns"]["band_lo"][0]) and math.isnan(doc["columns"]["band_hi"][0])
    doc = json.loads(run_cli(capsys, ["theorem2-diff", "--n", "2", "--m", "2", "--trials", "40", "--format", "json"]))
    assert doc["meta"]["band"] == "m=2: scaled difference in [0.6, 1.4]" and doc["columns"]["band_lo"] == [0.6]


@pytest.mark.parametrize("trials,cells", [(1, 1), (9, 1), (10, 2), (39, 4), (40, 8)])
def test_gepp_check_band_needs_five_per_class(capsys, trials, cells):
    # nonsimple n = 2 has 8 classes, and the chi-square p-value needs an expected count of 5 per cell:
    # classes pool in runs until they expect 5 (9 trials make one cell, 10 two), and from 40 trials none pool
    doc = json.loads(run_cli(capsys, ["gepp-check", "--trials", str(trials), "--format", "json"]))
    assert doc["columns"]["classes"] == [8]
    band = doc["meta"]["band"]
    if cells == 1:
        assert band == "pvalue does not apply (fewer than 2 cells expect >= 5 when pooled), plu_error <= 1e-9, all members"
        assert math.isnan(doc["columns"]["chi2"][0]) and math.isnan(doc["columns"]["pvalue"][0])
    elif cells < 8:
        assert band == f"pvalue > 0.001 over {cells} pooled cells, plu_error <= 1e-9, all members"
    else:
        assert band == "pvalue > 0.001, plu_error <= 1e-9, all members"


def test_clt_simple_reports_band(capsys):
    out = run_cli(capsys, ["clt-simple", "--n", "1600", "--samples", "20000"])
    rows = out.strip().split("\n")
    vals = rows[-1].split(",")
    assert float(vals[2]) <= 0.05 and vals[4] == "1"
    out = run_cli(capsys, ["clt-simple", "--n", "4", "--samples", "5000"])
    assert float(out.strip().split("\n")[-1].split(",")[2]) > 0.1


def test_explore_conjecture_degenerate_flag(capsys):
    out = run_cli(capsys, ["explore-conjecture", "--grid", "1x8,4x6", "--trials", "40"])
    rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")]
    assert rows[0] == ["n", "m", "trials", "ratio_mean", "degenerate", "threshold", "exceed_freq"]
    assert rows[1][3] == "nan" and rows[1][4] == "1"
    assert rows[2][4] == "0" and float(rows[2][3]) > 0


def test_gepp_check(capsys):
    out = run_cli(capsys, ["gepp-check", "--n", "2", "--family", "simple", "--trials", "3000"])
    rows = out.strip().split("\n")
    vals = rows[-1].split(",")
    assert vals[0] == "simple" and int(vals[3]) == 4
    assert float(vals[5]) > 0.001
    assert float(vals[6]) <= 1e-9


@pytest.mark.parametrize("family,n", [("simple", 4), ("nonsimple", 3)])
def test_gepp_check_residual_is_the_reports(monkeypatch, family, n):
    # one stream, RngState(seed).generator(), and one angle draw from it: the residual is that of the sample the class check factors
    streams, draws = [], []
    real_generator, real_angles = RngState.generator, gepp.random_angles

    def generator(state):
        streams.append(state)
        return real_generator(state)

    def random_angles(family, n, count, rng):
        draws.append(count)
        return real_angles(family, n, count, rng)

    monkeypatch.setattr(RngState, "generator", generator)
    monkeypatch.setattr(gepp, "random_angles", random_angles)
    _, cols = cli.gepp_check_data(n, 3000, 99, family)
    assert streams == [RngState(99)] and draws == [3000]
    assert cols["max_plu_error"] == [gepp.uniformity_check(n, 3000, RngState(99).generator(), family=family)[1]]


def test_pmf_export(capsys):
    out = run_cli(capsys, ["pmf", "--which", "stirling", "--n", "3"])
    rows = out.strip().split("\n")
    assert "value,numerator,denominator,probability" in rows
    assert "1,1,3,0.3333333333333333" in rows
    out = run_cli(capsys, ["pmf", "--which", "cycle-moments", "--n", "3"])
    assert "2,4,5,0.8" in out
    out = run_cli(capsys, ["pmf", "--which", "simple-height", "--n", "2"])
    assert "2,1,2,0.5" in out


def test_pmf_stirling_row_deeper_than_the_recursion_limit(capsys):
    # the row recursion used to recurse once per row and raised RecursionError here
    rows = run_cli(capsys, ["pmf", "--which", "stirling", "--n", "500"]).strip().split("\n")
    head = rows.index("value,numerator,denominator,probability")
    assert rows[head + 1] == f"1,1,500,{1 / 500!r}"
    assert len(rows) == head + 1 + 500 and rows[-1] == f"500,1,{math.factorial(500)},0.0"


def test_law_hist(capsys):
    out = run_cli(capsys, ["law-hist", "--law", "cycle", "--n", "3", "--trials", "4000"])
    assert "# pvalue=" in out
    doc_rows = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert doc_rows[0] == "value,observed,expected"
    pvalue = float(next(l for l in out.split("\n") if l.startswith("# pvalue=")).split("=")[1])
    assert pvalue > 0.001


def assert_pvalue_is_scipys(p, ref):
    # _chi2_sf's stated bound: 1e-12 relative for p >= 1e-12, 1e-9 down to p = 1e-300
    assert 0.0 <= p <= 1.0 and abs(p - ref) <= (1e-12 if ref >= 1e-12 else 1e-9) * ref


def assert_chi_square_is_scipys(obs, exp, band, pooled_obs=None, pooled_exp=None):
    """The statistic and band bit for bit, the p-value within its bound of scipy's."""
    from scipy import stats

    res = stats.chisquare(obs if pooled_obs is None else pooled_obs, f_exp=exp if pooled_exp is None else pooled_exp)
    stat, p, text = cli._chi_square(obs, exp)
    assert (stat, text) == (res.statistic, band)
    assert_pvalue_is_scipys(p, res.pvalue)


def test_chi_square_without_rare_cells_is_scipys():
    assert_chi_square_is_scipys([12, 7, 9, 12], [10.0, 10.0, 5.0, 15.0], "pvalue > 0.001")


def test_chi_square_is_scipys_on_random_counts():
    g = np.random.default_rng(31)
    for _ in range(50):
        cells = int(g.integers(2, 40))
        p = g.dirichlet(np.ones(cells))
        trials = int(g.integers(5 / p.min(), 20 / p.min() + 1000))
        obs, exp = g.multinomial(trials, p), trials * p
        assert exp.min() >= 5
        assert_chi_square_is_scipys(obs, exp, "pvalue > 0.001")


def test_chi_square_rejects_counts_whose_sums_disagree():
    with pytest.raises(ValueError, match="sum to 40.0 and 41.0"):
        cli._chi_square([10, 10, 10, 10], [10.0, 10.0, 10.0, 11.0])


def test_chi_square_pools_a_short_tail_into_the_cell_before():
    # 3 + 3 reach 5 and 6 stands alone; the last run, 2, is short and joins it: cells expect 6 and 8
    assert_chi_square_is_scipys([4, 1, 9, 0], [3.0, 3.0, 6.0, 2.0], "pvalue > 0.001 over 2 pooled cells", [5, 9], [6.0, 8.0])


CHI2_SF_DFS = [1, 2, 3, 7, 31, 32, 33, 39, 40, 41, 127, 367, 1023, 4095, 32767]


@pytest.mark.parametrize("df", CHI2_SF_DFS)
def test_chi2_sf_is_scipys_at_quantiles(df):
    # up to 32767, the most cells nonsimple gepp-check --n 4 tests; z = df / 2 crosses the
    # lgamma / Stirling switch at 39, 40 and 41 when the largest term is the last one
    from scipy import special

    assert cli._chi2_sf(df, 0.0) == 1.0
    for p in [1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-9]:
        x = float(special.chdtri(df, p))
        assert_pvalue_is_scipys(cli._chi2_sf(df, x), float(special.chdtrc(df, x)))


@pytest.mark.parametrize("z", [cli._STIRLING_FROM + k / 2 for k in range(-3, 3)])
def test_chi2_sf_is_scipys_beside_the_stirling_switch(z):
    # x in (2z - 2, 2z] makes the term of z = j + 1 + d the largest, once df reaches it: its
    # logarithm takes lgamma below _STIRLING_FROM and Stirling's series from it on
    from scipy import special

    least = int(2 * z)  # the least df with that term, odd where z is a half-integer
    for df in (least, least + 2, 4 * least + least % 2):
        for x in np.linspace(2 * z - 2, 2 * z, 9)[1:].tolist():
            assert_pvalue_is_scipys(cli._chi2_sf(df, x), float(special.chdtrc(df, x)))


def test_chi2_sf_is_scipys_on_random_points():
    from scipy import special

    g = np.random.default_rng(7)
    for df in g.integers(1, 33_000, size=400).tolist():
        x = float(max(0.0, df + g.normal() * 6 * math.sqrt(2 * df)))
        assert_pvalue_is_scipys(cli._chi2_sf(df, x), float(special.chdtrc(df, x)))


@pytest.mark.parametrize("obs,exp", [([3], [3.0]), ([7], [7.0]), ([4, 5], [4.5, 4.5]), ([1, 2, 3, 3], [2.0, 2.0, 2.0, 3.0])])
def test_chi_square_needs_two_cells(obs, exp):
    stat, p, band = cli._chi_square(obs, exp)
    assert math.isnan(stat) and math.isnan(p)
    assert band == "pvalue does not apply (fewer than 2 cells expect >= 5 when pooled)"


@pytest.mark.parametrize("obs,exp", [([6, 0, 1], [3.0, 4.0, 0.0]), ([2, 2, 1, 2, 3], [2.5, 2.5, 0.0, 2.5, 2.5]), ([10, 1, 10], [10.5, 0.0, 10.5])])
def test_chi_square_fails_a_count_outside_the_law(obs, exp):
    # a draw where the exact law has no mass fails the band, even where its cell would pool into a likely one
    assert cli._chi_square(obs, exp)[:2] == (math.inf, 0.0)


@pytest.mark.parametrize("trials", [[], ["--trials", "10000"]], ids=["default-trials", "10000-trials"])
@pytest.mark.parametrize("law", ["cycle", "lis"])
def test_law_hist_band_fails_a_shifted_sampler(capsys, monkeypatch, law, trials):
    # at n = 8 most values expect under one draw; unpooled, a sampler off by one read p = 0.998 (cycle)
    # and 1.0 (lis) at 10000 trials, and p < 1e-50 only at the default 100000
    name = f"{law}_law_samples"
    real = getattr(cli.sampling, name)
    monkeypatch.setattr(cli.sampling, name, lambda n, rows, g: real(n, rows, g) + 1)
    meta = json.loads(run_cli(capsys, ["law-hist", "--law", law, "--n", "8", "--format", "json", *trials]))["meta"]
    assert meta["band"].startswith("pvalue > 0.001") and not meta["pvalue"] > 0.001


@pytest.mark.parametrize("n", [11, 12])
def test_law_hist_pvalue_is_finite_past_n10(capsys, n):
    # expected counts below the least double round to 0.0; unpooled, they met observed zeros as 0/0
    out = run_cli(capsys, ["law-hist", "--n", str(n), "--trials", "2000"])
    pvalue = float(next(l for l in out.split("\n") if l.startswith("# pvalue=")).split("=")[1])
    assert 0.001 < pvalue <= 1.0 and capsys.readouterr().err == ""


SMALL_ARGS = [
    ["table1"],
    ["fig8", "--n", "4", "--trials", "120"],
    ["theorem2-diff", "--n", "60", "--m", "2", "--trials", "40"],
    ["clt-simple", "--n", "100", "--samples", "2000"],
    ["bounds", "--n-max", "4", "--exact-max", "3"],
    ["explore-conjecture", "--grid", "3x6", "--trials", "30"],
    ["gepp-check", "--n", "2", "--family", "nonsimple", "--trials", "1500"],
    ["lattice-degrees", "--n", "5"],
    ["pmf", "--which", "simple-height", "--n", "6"],
    ["law-hist", "--law", "lis", "--n", "4", "--trials", "1500"],
]


# the builders that draw nothing and take no --seed; every other subcommand samples and records its seed
DRAWS_NOTHING = {"table1", "bounds", "lattice-degrees", "pmf"}


def seeded(args: list[str]) -> list[str]:
    """``args`` with ``--seed 55`` where the subcommand samples."""
    return args if args[0] in DRAWS_NOTHING else args + ["--seed", "55"]


@pytest.mark.parametrize("args", SMALL_ARGS, ids=lambda a: a[0])
def test_every_subcommand_is_byte_deterministic(capsys, args):
    for fmt in ("csv", "json"):
        first = run_cli(capsys, seeded(args) + ["--format", fmt])
        second = run_cli(capsys, seeded(args) + ["--format", fmt])
        assert first == second


@pytest.mark.parametrize("args", SMALL_ARGS, ids=lambda a: a[0])
def test_only_sampling_subcommands_record_a_seed(capsys, args):
    out = run_cli(capsys, seeded(args))
    seeds = [line for line in out.split("\n") if line.startswith("# seed=")]
    assert seeds == ([] if args[0] in DRAWS_NOTHING else ["# seed=55"])
    doc = json.loads(run_cli(capsys, seeded(args) + ["--format", "json"]))
    assert doc["meta"].get("seed") == (None if args[0] in DRAWS_NOTHING else 55)
    if args[0] in DRAWS_NOTHING:
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--seed", "55"])
        assert exc.value.code == 2 and "unrecognized arguments: --seed 55" in capsys.readouterr().err


def test_fig8_small_mean_matches_exact():
    meta, _ = cli.fig8_data(2, 20_000, seed=5150)
    three_sigma = 3 * 0.5 / math.sqrt(20_000)  # heights are {2, 3} with variance 1/4
    assert abs(meta["mean"] - 2.5) <= three_sigma


def test_theorem2_diff_trend_toward_limit():
    # the scaled paired difference drifts toward 1 as n grows (same seed schedule)
    _, small = cli.theorem2_diff_data(1000, 2, 400, seed=777)
    _, large = cli.theorem2_diff_data(10_000, 2, 400, seed=777)
    d_small = small["scaled_diff_mean"][0]
    d_large = large["scaled_diff_mean"][0]
    assert abs(d_large - 1) < abs(d_small - 1)


# Exceedances of the (3, m) cells over 240000 trials each: explore_conjecture_data
# at seeds 1001-1004, 60000 trials a seed. Rates 0.003338, 0.005208 and 0.006821,
# standard errors 0.000118, 0.000147 and 0.000168.
EXCEEDANCES = {100: 801, 1000: 1250, 10_000: 1637}
EXCEEDANCE_TRIALS = 240_000


def test_explore_conjecture_exceedance_trend():
    # The threshold-exceedance frequency grows with m at fixed inner size: the
    # measured rates rise by at least 3 combined standard errors from cell to
    # cell. A fresh 1500-trial run cannot show that order reliably, so each
    # of its cells is checked against its rate instead: its count must lie in
    # the two-sided binomial band of tail 1/6000 a side around the rate, moved
    # 4 standard errors out. By the union bound the three cells fail together
    # with probability at most 1e-3 while every true rate lies within 4 standard
    # errors of the measured one.
    from scipy import stats as sps

    grid, trials, tail = [(3, 100), (3, 1000), (3, 10_000)], 1500, 1e-3 / 6
    p = np.array([EXCEEDANCES[m] for _, m in grid]) / EXCEEDANCE_TRIALS
    se = np.sqrt(p * (1 - p) / EXCEEDANCE_TRIALS)
    assert (np.diff(p) >= 3 * np.hypot(se[1:], se[:-1])).all()
    _, cols = cli.explore_conjecture_data(grid, trials=trials, seed=7)
    counts = np.rint(np.array(cols["exceed_freq"]) * trials)
    assert (counts >= sps.binom.ppf(tail, trials, p - 4 * se)).all()
    assert (counts <= sps.binom.isf(tail, trials, p + 4 * se)).all()


@pytest.mark.parametrize("n,samples", [(1, 50), (2, 7), (400, 1), (400, 20_000)])
def test_clt_ks_distance_is_scipys(n, samples):
    # n = 1 gives negative statistics, off the half-normal's support
    from scipy import stats as sps

    g = cli.sampling.RngState(99).generator()
    x = g.binomial(n, 0.5, size=samples).astype(np.int64)
    a = np.maximum(x, n - x).astype(float)
    b = np.minimum(x, n - x).astype(float)
    log2_h = a + np.log1p(np.exp2(b - a) - np.exp2(1.0 - a)) / math.log(2)
    ks = sps.kstest((log2_h - n / 2) / (math.sqrt(n) / 2), sps.halfnorm.cdf).statistic
    _, cols = cli.clt_simple_data(n, samples, seed=99)
    assert abs(cols["ks_distance"][0] - ks) <= 1e-15  # the bound stated in clt_simple_data


def test_clt_statistic_shift_insensitive():
    # adding 2 to every height moves the KS distance only marginally at large n
    import numpy as np
    from scipy import stats as sps

    n, samples = 1600, 50_000
    g = cli.sampling.RngState(1234).generator()
    x = g.binomial(n, 0.5, size=samples).astype(np.int64)
    a = np.maximum(x, n - x).astype(float)
    b = np.minimum(x, n - x).astype(float)
    log2_h = a + np.log1p(np.exp2(b - a) - np.exp2(1.0 - a)) / math.log(2)
    log2_h2 = a + np.log1p(np.exp2(b - a)) / math.log(2)
    ks1 = sps.kstest((log2_h - n / 2) / (math.sqrt(n) / 2), sps.halfnorm.cdf).statistic
    ks2 = sps.kstest((log2_h2 - n / 2) / (math.sqrt(n) / 2), sps.halfnorm.cdf).statistic
    assert abs(ks1 - ks2) < 0.005
