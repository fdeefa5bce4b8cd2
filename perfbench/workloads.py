"""
The benchmark's workloads: unit kinds at fixed arguments, and the checks
that each unit's output must pass.

A unit is one data-builder call of ``butterfly_trees.cli`` (the same
builders the subcommands and the acceptance tests use) plus rendering its
CSV. A workload repeats one round of unit kinds in order. Every unit gets
its own seed, derived from the workload seed and the unit's index.

Statistical checks take their tolerance from the unit's own standard
error, because the acceptance bands do not hold at unit size. Exact
checks compare with values recorded from the seed code in
``reference.json`` (see ``record_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"
Z = 6.0  # statistical checks allow this many standard errors

THEOREM2 = dict(n=10_000, m=2, trials=250)  # one 250-row chunk of each family
FIG8 = dict(n=10, trials=500)
BOUNDS = dict(n_max=10, exact_max=5)
LAW_HIST = dict(n=10, trials=2000)
GEPP = dict(n=3, trials=20_000, family="nonsimple")


def import_cli():
    """``butterfly_trees.cli`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from butterfly_trees import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"butterfly_trees was imported from {cli.__file__}, not from {src}")
    return cli


def src_sha256() -> str:
    """Digest of every source file of the package, in path order."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


@dataclass(frozen=True)
class Kind:
    """One kind of unit: its builder call, its output check and a warm-up."""

    name: str
    build: Callable[[int], tuple[dict, dict]]  # unit seed -> (meta, columns)
    check: Callable[[dict, dict], str | None]  # reason the output is wrong, or None
    warm: Callable[[], object]  # the same code path at a small size


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[Kind, ...]  # one round


def _within(what: str, x: float, sem: float, ref: float, ref_sem: float) -> str | None:
    tol = Z * math.hypot(sem, ref_sem)
    if not (sem > 0 and abs(x - ref) <= tol):
        return f"{what}={x!r} is not within {Z} se ({tol:.4g}) of {ref!r}"
    return None


def hist_mean_sem(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    total = counts.sum()
    mean = float((values * counts).sum() / total)
    var = float(((values - mean) ** 2 * counts).sum() / (total - 1))
    return mean, math.sqrt(var / total)


def law_mean(exact, law: str, n: int) -> Fraction:
    """Exact mean of the ``law`` recursion law at level ``n``."""
    counts, denom_exp = getattr(exact, f"{law}_law_counts")(n)
    return Fraction(sum(v * c for v, c in counts.items()), 1 << denom_exp)


def check_law_hist(law: str, trials: int, mean: Fraction) -> Callable[[dict, dict], str | None]:
    """Check of a ``law_hist_data`` output of ``trials`` samples from a law
    with exact mean ``mean``."""

    def check(meta, cols):
        m = float(mean)
        v = np.asarray(cols["value"], dtype=float)
        obs = np.asarray(cols["observed"], dtype=np.int64)
        exp = np.asarray(cols["expected"], dtype=float)
        if obs.sum() != trials:
            return f"histogram holds {obs.sum()} samples, not {trials}"
        if not math.isclose(exp.sum(), trials, rel_tol=1e-9):
            return f"expected column sums to {exp.sum()!r}, not {trials}"
        if not math.isclose((v * exp).sum() / trials, m, rel_tol=1e-9):
            return f"expected column has mean {(v * exp).sum() / trials!r}, not {m!r}"
        sample_mean, sem = hist_mean_sem(v, obs)
        return _within(f"{law} sample mean", sample_mean, sem, m, 0.0)

    return check


def build_workloads(cli, ref: dict) -> dict[str, Workload]:
    """The four workloads, with builders looked up on ``cli`` at call time."""

    def check_theorem2(meta, cols):
        if cols["trials"] != [THEOREM2["trials"]]:
            return f"trials column {cols['trials']}"
        r = ref["theorem2"]
        return _within("scaled_diff_mean", cols["scaled_diff_mean"][0], cols["scaled_diff_sem"][0], r["mean"], r["sem"])

    def check_fig8(meta, cols):
        h = np.asarray(cols["height"], dtype=float)
        c = np.asarray(cols["count"], dtype=np.int64)
        keys = 1 << FIG8["n"]
        if c.sum() != FIG8["trials"]:
            return f"histogram holds {c.sum()} trees, not {FIG8['trials']}"
        if h.min() < math.log2(keys) - 1 or h.max() > keys - 1:
            return f"heights {h.min()}..{h.max()} impossible for {keys} keys"
        mean, sem = hist_mean_sem(h, c)
        if not math.isclose(mean, meta["mean"], rel_tol=1e-12):
            return f"meta mean {meta['mean']!r} disagrees with the histogram ({mean!r})"
        return _within("mean height", mean, sem, ref["fig8"]["mean"], ref["fig8"]["sem"])

    def check_bounds(meta, cols):
        r = ref["bounds"]
        want = [repr(float(Fraction(q))) for q in r["exact_mean"]]
        want += [""] * (BOUNDS["n_max"] - len(want))
        for name, expected in (("lower", r["lower"]), ("upper", r["upper"]), ("exact_mean", want)):
            if cols[name] != expected:
                return f"{name} column {cols[name]} != {expected}"
        return None

    def check_gepp(meta, cols):
        if cols["classes"] != [128]:
            return f"classes column {cols['classes']}, not [128]"
        if not cols["max_plu_error"][0] <= 1e-9:
            return f"max_plu_error {cols['max_plu_error'][0]!r} > 1e-9"
        # chi-square with df degrees of freedom has mean df and sd sqrt(2 df)
        df = cols["classes"][0] - 1
        return _within("chi2", cols["chi2"][0], math.sqrt(2 * df), df, 0.0)

    def law_kind(law):
        return Kind(
            f"law-hist-{law}",
            lambda s: cli.law_hist_data(law, LAW_HIST["n"], LAW_HIST["trials"], s),
            check_law_hist(law, LAW_HIST["trials"], Fraction(ref["law_mean"][law])),
            lambda: cli.law_hist_data(law, 4, 250, 0),
        )

    bounds = Kind(
        "bounds",
        lambda s: cli.bounds_data(BOUNDS["n_max"], exact_max=BOUNDS["exact_max"]),
        check_bounds,
        lambda: cli.bounds_data(4, exact_max=3),
    )
    kinds = [
        Kind(
            "theorem2",
            lambda s: cli.theorem2_diff_data(THEOREM2["n"], THEOREM2["m"], THEOREM2["trials"], s),
            check_theorem2,
            lambda: cli.theorem2_diff_data(100, 2, THEOREM2["trials"], 0),
        ),
        Kind(
            "fig8",
            lambda s: cli.fig8_data(FIG8["n"], FIG8["trials"], s),
            check_fig8,
            lambda: cli.fig8_data(4, FIG8["trials"], 0),
        ),
        Kind(
            "gepp-check",
            lambda s: cli.gepp_check_data(GEPP["n"], GEPP["trials"], s, GEPP["family"]),
            check_gepp,
            lambda: cli.gepp_check_data(2, 1000, 0, GEPP["family"]),
        ),
    ]
    out = {k.name: Workload(k.name, (k,)) for k in kinds}
    out["exact-laws"] = Workload("exact-laws", (bounds, law_kind("cycle"), bounds, law_kind("lis")))
    return out
