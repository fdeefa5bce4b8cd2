"""
Record the values the benchmark checks unit outputs against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: exact rationals (the nonsimple mean
heights of ``bounds`` and the means of the two recursion laws at the
law-hist level) and the mean and standard error of large seeded runs of
the two Monte Carlo builders. Takes about a minute. Re-record only when a
change is meant to alter these values, and say so where the change is
described.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import workloads

SEED = 20250707
THEOREM2_TRIALS = 2000
FIG8_TRIALS = 20_000


def _rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def main() -> None:
    cli = workloads.import_cli()
    from butterfly_trees import exact

    _, cols = cli.theorem2_diff_data(workloads.THEOREM2["n"], workloads.THEOREM2["m"], THEOREM2_TRIALS, SEED)
    theorem2 = {"trials": THEOREM2_TRIALS, "mean": cols["scaled_diff_mean"][0], "sem": cols["scaled_diff_sem"][0]}

    _, cols = cli.fig8_data(workloads.FIG8["n"], FIG8_TRIALS, SEED)
    mean, sem = workloads.hist_mean_sem(np.asarray(cols["height"], dtype=float), np.asarray(cols["count"]))
    fig8 = {"trials": FIG8_TRIALS, "mean": mean, "sem": sem}

    _, cols = cli.bounds_data(workloads.BOUNDS["n_max"], exact_max=workloads.BOUNDS["exact_max"])
    bounds = {
        "lower": cols["lower"],
        "upper": cols["upper"],
        "exact_mean": [_rational(exact.exact_mean_height(n)) for n in range(1, workloads.BOUNDS["exact_max"] + 1)],
    }

    law_mean = {law: _rational(workloads.law_mean(exact, law, workloads.LAW_HIST["n"])) for law in ("cycle", "lis")}

    ref = {"src_sha256": workloads.src_sha256(), "seed": SEED, "theorem2": theorem2, "fig8": fig8, "bounds": bounds, "law_mean": law_mean}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
