"""
Out-of-process benchmark of butterfly_trees.

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's units (see ``workloads.py``) for
``--seconds`` seconds in this one process, checks every unit's output
outside the timed region, and prints two JSON lines on stdout: the
environment and unit counts, then the result. With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, from every second round run with spans recorded (see
``spans.py``) and the rounds between run plain, for the tracing overhead.
Set-up time is measured in fresh interpreters, ``SETUP_REPEATS`` times.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
import scipy

import spans
import workloads

SETUP_REPEATS = 5
# Median bare_interpreter_s() on a shared 2-vCPU Xeon virtual machine.
# Set-up times are scaled by it, because import time swings by up to 50%
# with the load of other tenants, and the Python probe does not see that
# load (README.md).
BARE_REF_S = 0.047
# The set-up interpreter imports the program and nothing else (sys and time
# are built into the interpreter), so set-up time is the program's own.
SETUP_CODE = "import sys, time; sys.path.insert(0, sys.argv[1]); import butterfly_trees.cli as c; print(time.time(), c.__file__)"
# Import-time groups: a module counts with the nearest import, itself
# included, whose name falls under one of these packages.
SETUP_GROUPS = {"numpy": "numpy_s", "scipy": "scipy_stats_s", "butterfly_trees": "butterfly_trees_s"}


@dataclass
class Unit:
    kind: str
    raw_s: float  # wall time
    traced: bool
    error: str | None  # the builder raised
    wrong: str | None  # the output failed its check
    text: str | None  # the rendered CSV
    scale: float = 1.0  # the probe's reference time over its time around the unit
    first_span: int = 0  # index of the unit's first span, when traced

    @property
    def seconds(self) -> float:
        return self.raw_s * self.scale


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches the
    program: how fast this machine runs Python at the moment."""
    t = time.perf_counter()
    table = {i: i for i in range(1 << 15)}
    s = 0
    for i in range(120_000):
        s += table[i & 0x7FFF]
    return time.perf_counter() - t


def big_int_probe() -> float:
    """Seconds taken by a fixed loop of tuple-keyed dict updates with big
    integers, the kind of work the ``exact`` layer does, never touching the
    program."""
    t = time.perf_counter()
    table = {}
    x = 1 << 200
    for i in range(30_000):
        key = (i & 1023, i % 7, i % 13)
        table[key] = table.get(key, 0) + x * i
    return time.perf_counter() - t


# Unit times are scaled by a probe's median time on a shared 2-vCPU Xeon
# virtual machine over its time measured around each unit, so they read as
# seconds on that machine at its median speed. Each workload uses the probe whose
# time follows its own best as other tenants load the machine (README.md).
PROBES = {
    "theorem2": (probe, 0.0135),
    "fig8": (probe, 0.0135),
    "exact-laws": (big_int_probe, 0.0136),
    "gepp-check": (probe, 0.0135),
}


def unit_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_unit(cli, kind: workloads.Kind, seed: int, traced: bool = False) -> Unit:
    t0 = time.perf_counter()
    try:
        meta, cols = kind.build(seed)
        text = cli.render_csv(meta, cols)
    except Exception as e:  # a failing unit is counted, and the run goes on
        return Unit(kind.name, time.perf_counter() - t0, traced, f"{type(e).__name__}: {e}", None, None)
    raw_s = time.perf_counter() - t0
    return Unit(kind.name, raw_s, traced, None, kind.check(meta, cols), text)


def oracle_check(bst_summary, samples: list) -> str | None:
    """Sampled rows of every batch_summaries call against the scalar summary."""
    for words, h, l, r in samples:
        for i, word in enumerate(words):
            s = bst_summary([int(x) for x in word])
            batch = (int(h[i]), int(l[i]), int(r[i]))
            if (s.h, s.l, s.r) != batch:
                return f"batch_summaries gave {batch}, summary gave {(s.h, s.l, s.r)}"
    return None


def run_rounds(cli, wl: workloads.Workload, seed: int, seconds: float, tracer: spans.Tracer | None) -> list[Unit]:
    """Whole rounds until ``seconds`` have passed; with a tracer, every second
    round is traced, and there are at least two rounds."""
    from butterfly_trees.bst import summary

    for kind in wl.kinds:
        kind.warm()
    units: list[Unit] = []
    deadline = time.perf_counter() + seconds
    speed_probe, ref_s = PROBES[wl.name]
    speed_probe()  # the first call pays for growing the heap
    before = speed_probe()
    min_rounds = 2 if tracer else 1
    r = 0
    while r < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and r % 2 == 1
        for kind in wl.kinds:
            first = len(tracer.spans) if traced else 0
            sampler = tracer if traced else spans.Sampler()
            with spans.instrument(sampler, only=None if traced else spans.ORACLE):
                u = run_unit(cli, kind, unit_seed(seed, len(units)), traced)
            u.first_span = first
            u.wrong = u.wrong or oracle_check(summary, sampler.samples)
            sampler.samples.clear()
            after = speed_probe()
            u.scale = ref_s / ((before + after) / 2)
            before = after
            units.append(u)
        r += 1
    return units


def kind_medians(units: list[Unit], seconds=lambda u: u.seconds) -> dict[str, float]:
    by_kind = defaultdict(list)
    for u in units:
        by_kind[u.kind].append(seconds(u))
    return {k: statistics.median(v) for k, v in by_kind.items()}


def p50(units: list[Unit], wl: workloads.Workload, seconds=lambda u: u.seconds) -> float:
    """Median unit time. For a round of several kinds, the median of the
    kinds' own medians, each counted as often as it occurs in a round, so
    the value does not jump between kinds with the number of units."""
    medians = kind_medians(units, seconds)
    return statistics.median(medians[k.name] for k in wl.kinds)


def tail(units: list[Unit]) -> tuple[float, float]:
    """(seconds, percentile) of the highest percentile with ten units beyond
    it, but never below the median: with fewer than twenty units a run has
    no tail to report, and gives its median at percentile 50."""
    t = sorted(u.seconds for u in units)
    if len(t) < 20:
        return statistics.median(t), 50.0
    return t[-11], 100.0 * (len(t) - 10) / len(t)


def import_shares(importtime: str) -> dict:
    """Seconds of ``-X importtime`` self time per ``SETUP_GROUPS`` package.
    The output lists each import after the imports it made, indented one
    level deeper, so read backwards it lists every import after its parent."""
    shares = dict.fromkeys(SETUP_GROUPS.values(), 0.0)
    stack = []  # (depth, group) of the imports enclosing the current line
    for line in reversed(importtime.splitlines()):
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        depth = len(fields[2]) - len(fields[2].lstrip())
        name = fields[2].strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        group = next((g for p, g in SETUP_GROUPS.items() if name == p or name.startswith(p + ".")), stack[-1][1] if stack else None)
        stack.append((depth, group))
        if group:
            shares[group] += int(fields[0]) / 1e6
    return shares


def bare_interpreter_s() -> float:
    """Seconds a fresh interpreter takes to start and run nothing: how fast
    this machine starts processes at the moment."""
    t = time.perf_counter()
    # with its output captured, the wait ends when the pipes close; without,
    # a timeout makes subprocess poll at growing intervals that quantise this
    subprocess.run([sys.executable, "-I", "-c", "pass"], capture_output=True, check=True, timeout=120)
    return time.perf_counter() - t


def measure_setup(importtime: bool) -> list[dict]:
    """Fresh interpreters that only import ``butterfly_trees.cli``: the time
    until it is imported, and with ``importtime`` the shares of it that
    ``import_shares`` finds (the flag itself slows imports by about 10%).
    Times are scaled like unit times, by ``BARE_REF_S`` over the mean time
    of a bare interpreter started just before and just after."""
    src = str(workloads.ROOT / "src")
    flags = ["-X", "importtime"] if importtime else []
    out = []
    before = bare_interpreter_s()
    for _ in range(SETUP_REPEATS):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-I", *flags, "-c", SETUP_CODE, src],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        end, file = proc.stdout.split(maxsplit=1)
        if not file.strip().startswith(src):
            raise ImportError("the set-up interpreter imported butterfly_trees from outside src/")
        after = bare_interpreter_s()
        scale = BARE_REF_S / ((before + after) / 2)
        before = after
        rec = {"raw_setup_s": float(end) - start, "scale": scale, "setup_s": (float(end) - start) * scale}
        if importtime:
            rec |= {k: v * scale for k, v in import_shares(proc.stderr).items()}
        out.append(rec)
    return out


def end_to_end(units: list[Unit], wl: workloads.Workload, setup: list[dict]) -> dict:
    ok = sum(u.error is None and u.wrong is None for u in units)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "unit_s.p50": (p50(units, wl), "s"),
        "unit_s.tail": (tail(units)[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (ok / len(units), "ratio"),
    }


def per_layer(units: list[Unit], wl: workloads.Workload, setup: list[dict], tracer: spans.Tracer) -> dict:
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    n = len(traced)
    starts = [u.first_span for u in traced]
    calls, self_s, work = Counter(), Counter(), Counter()
    layer_s = Counter()
    chunks = rows = 0
    for i, ((name, _, _, parent, w), st) in enumerate(zip(tracer.spans, spans.self_times(tracer.spans))):
        st *= traced[bisect.bisect_right(starts, i) - 1].scale
        calls[name] += 1
        self_s[name] += st
        work[name] += w
        layer_s[name.split(".")[0] if name != "cli.render_csv" else name] += st
        parent_layer = tracer.spans[parent][0].split(".")[0] if parent >= 0 else None
        if name.startswith("sampling.") and parent_layer != "sampling":
            rows += w
            chunks += parent_layer == "cli"

    def rate(name, scale):
        return self_s[name] / work[name] * scale if work[name] else 0.0

    traced_p50 = p50(traced, wl)
    m = {f"setup.{k}": (statistics.median(s[k] for s in setup), "s") for k in SETUP_GROUPS.values()}
    m |= {
        "bst.batch_summaries.calls": (calls["bst.batch_summaries"] / n, "count"),
        "bst.batch_summaries.self_s": (self_s["bst.batch_summaries"] / n, "s"),
        "bst.keys": (work["bst.batch_summaries"] / n, "count"),
        "bst.ns_per_key": (rate("bst.batch_summaries", 1e9), "ns/key"),
        "butterfly.words_from_shape_bits.calls": (calls["butterfly.words_from_shape_bits"] / n, "count"),
        "butterfly.words_from_shape_bits.self_s": (self_s["butterfly.words_from_shape_bits"] / n, "s"),
        "butterfly.words": (work["butterfly.words_from_shape_bits"] / n, "count"),
        "butterfly.us_per_word": (rate("butterfly.words_from_shape_bits", 1e6), "us/word"),
        "sampling.uniform_words.self_s": (self_s["sampling.uniform_words"] / n, "s"),
        "sampling.wreath_words.self_s": (self_s["sampling.wreath_words"] / n, "s"),
        "sampling.nonsimple_butterfly_words.self_s": (self_s["sampling.nonsimple_butterfly_words"] / n, "s"),
        "sampling.law_samples.self_s": ((self_s["sampling.lis_law_samples"] + self_s["sampling.cycle_law_samples"]) / n, "s"),
        "sampling.rows": (rows / n, "count"),
        "exact.triple_dist_nonsimple.self_s": (self_s["exact.triple_dist_nonsimple"] / n, "s"),
        "exact.support": (work["exact.triple_dist_nonsimple"] / n, "count"),
        "exact.law_counts.self_s": ((self_s["exact.lis_law_counts"] + self_s["exact.cycle_law_counts"]) / n, "s"),
        "exact.law_support": ((work["exact.lis_law_counts"] + work["exact.cycle_law_counts"]) / n, "count"),
        "gepp.nonsimple_matrices.self_s": (self_s["gepp.nonsimple_matrices"] / n, "s"),
        "gepp.batch_gepp_words.self_s": (self_s["gepp.batch_gepp_words"] / n, "s"),
        "gepp.uniformity_check.self_s": (self_s["gepp.uniformity_check"] / n, "s"),
        "gepp.gepp_factorization.self_s": (self_s["gepp.gepp_factorization"] / n, "s"),
        "gepp.matrices": (work["gepp.nonsimple_matrices"] / n, "count"),
        "cli.self_s": (layer_s["cli"] / n, "s"),
        "cli.render_csv.self_s": (layer_s["cli.render_csv"] / n, "s"),
        "cli.chunks": (chunks / n, "count"),
    }
    m |= {
        "trace.units": (n, "count"),
        "trace.unit_s.p50": (traced_p50, "s"),
        "trace.overhead_frac": (traced_p50 / p50(plain, wl) - 1, "ratio"),
        "trace.accounted_frac": (sum(layer_s.values()) / sum(u.seconds for u in traced), "ratio"),
    }
    return m


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_dir = workloads.ROOT / ".git"
    revision = "none (not a git checkout)"
    if git_dir.is_dir():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], env={**os.environ, "GIT_DIR": str(git_dir)},
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": workloads.src_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("theorem2", "fig8", "exact-laws", "gepp-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = workloads.import_cli()
    except ImportError as e:
        print(f"cannot import the program from src/: {e}", file=sys.stderr)
        return 2
    wl = workloads.build_workloads(cli, workloads.load_reference())[args.workload]
    setup = measure_setup(importtime=bool(args.trace))
    tracer = spans.Tracer() if args.trace else None
    units = run_rounds(cli, wl, args.seed, args.seconds, tracer)
    metrics = per_layer(units, wl, setup, tracer) if args.trace else end_to_end(units, wl, setup)

    failures = Counter(f"{u.kind}: {u.error or u.wrong}" for u in units if u.error or u.wrong)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "units": len(units),
        "units_by_kind": dict(Counter(u.kind for u in units)),
        "unit_s.tail_percentile": tail(units)[1],
        "raw_unit_s.p50": p50(units, wl, lambda u: u.raw_s),
        "unit_s.p50_by_kind": kind_medians(units),
        "scale.p50": statistics.median(u.scale for u in units),
        "setup_runs": setup,
        "failures": dict(failures),
        **environment(),
    }
    result = {
        "correct": not any(u.wrong for u in units),
        "attempted": len(units),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
