"""
Tracing must not change what the program computes, and must leave the
package as it found it; the checks and parsers the benchmark relies on
must accept correct output.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import inspect

import pytest

import run
import spans
import workloads


def _functions() -> dict:
    return {
        (mod.__name__, attr): val
        for mod in spans.package_modules()
        for attr, val in vars(mod).items()
        if inspect.isfunction(val)
    }


def test_traced_units_are_byte_identical_and_functions_restored():
    cli = workloads.import_cli()
    before = _functions()
    summary = before[("butterfly_trees.bst", "summary")]
    for wl in workloads.build_workloads(cli, workloads.load_reference()).values():
        for index, kind in enumerate(dict.fromkeys(wl.kinds)):
            seed = run.unit_seed(7, index)
            sampler = spans.Sampler()
            with spans.instrument(sampler, only=spans.ORACLE):
                plain = run.run_unit(cli, kind, seed)
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                traced = run.run_unit(cli, kind, seed, traced=True)
            assert (traced.text, traced.error, traced.wrong) == (plain.text, plain.error, plain.wrong), kind.name
            assert tracer.spans[0][0].startswith("cli."), kind.name
            assert len(sampler.samples) == len(tracer.samples), kind.name
            assert run.oracle_check(summary, sampler.samples) is None
            assert run.oracle_check(summary, tracer.samples) is None
    assert _functions() == before


def test_law_hist_check_accepts_correct_output():
    # n=8 is the largest level law_hist_data builds at the seed commit
    cli = workloads.import_cli()
    from butterfly_trees import exact

    trials = workloads.LAW_HIST["trials"]
    for index, law in enumerate(("cycle", "lis")):
        check = workloads.check_law_hist(law, trials, workloads.law_mean(exact, law, 8))
        meta, cols = cli.law_hist_data(law, 8, trials, run.unit_seed(7, index))
        assert check(meta, cols) is None, law
        cols["observed"] = [o + (i == 0) for i, o in enumerate(cols["observed"])]
        assert check(meta, cols) is not None, law


def test_import_shares_counts_each_module_with_its_nearest_group():
    importtime = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | encodings
import time:        10 |         10 |         pickle
import time:        20 |         30 |       numpy.core
import time:         5 |          5 |         scipy._lib.numpy
import time:        40 |         45 |       scipy.stats
import time:       300 |        375 |     numpy
import time:         7 |          7 |       fractions
import time:         3 |        385 |   butterfly_trees.bst
import time:         1 |        386 | butterfly_trees
"""
    shares = run.import_shares(importtime)
    assert shares == pytest.approx({"numpy_s": 330e-6, "scipy_stats_s": 45e-6, "butterfly_trees_s": 11e-6})
