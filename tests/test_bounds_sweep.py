"""Every bound of the CLI, read back from ``cli._parser()`` and tried at each edge.

The bounds are each integer argument's ``low`` and ``high``, which its type
carries, each per-choice range of ``--n`` (``cli._N_RANGES``), and the n*m
ranges of ``theorem2-diff`` and of an ``explore-conjecture --grid`` cell.
Each is tried one below its low, at its low, at its high and one above its
high, wherever that end exists:

- a value past a bound exits 2 with the exact message and prints nothing;
- a value at a bound parses, and runs end to end with the cheapest companion
  arguments, except the upper edges listed in ``SLOW``. A run passes if it
  exits 0, writes nothing to stderr and prints strict JSON whose numbers are
  all finite, but for the NaN cells the builders document.
"""

import json
import re

import pytest

from butterfly_trees import cli

PARSER, SUBCOMMANDS = cli._parser()
CHUNK = cli._CHUNK_ENTRIES
# theorem2-diff's n*m: the differences are scaled by log(n*m), and one row must fit a chunk
NM_RANGE = (2, CHUNK)

# the cheapest arguments of each subcommand; a case appends its own, and argparse keeps the last
# value given. theorem2-diff's n*m stays >= 2 with either of --n and --m at its low, and its
# m = 2 band and the 2x2 grid cell are not degenerate, so that no NaN cell is excused there
CHEAPEST = {
    "table1": [],
    "fig8": ["--n", "1", "--trials", "1"],
    "theorem2-diff": ["--n", "2", "--m", "2", "--trials", "2"],
    "clt-simple": ["--n", "1", "--samples", "1"],
    "bounds": ["--n-max", "1"],
    "explore-conjecture": ["--grid", "2x2", "--trials", "1"],
    "gepp-check": ["--n", "1", "--trials", "1"],
    "lattice-degrees": ["--n", "1"],
    "pmf": ["--which", "cycle-moments", "--n", "0"],
    "law-hist": ["--n", "0", "--trials", "1"],
}

# upper edges that parse but are not run: each takes over 0.5 s in-process on a 2-vCPU Xeon
SLOW = {
    "lattice-degrees --n 20",  # 0.55 s
    "pmf --which stirling --n 1000",  # 0.53 s
    "pmf --which simple-height --n 10000",  # ~3.7 s
    "pmf --which cycle-moments --n 100",  # 0.82 s
    "gepp-check --family simple --n 10",  # 1.0 s
    f"theorem2-diff --n 1 --m {CHUNK}",  # 1.8 s
    f"explore-conjecture --grid 1x{CHUNK}",  # 0.7 s
}


def bound_message(low, high, value) -> str:
    """The message of a bounded integer type for ``value``, past its bounds."""
    if high is None:
        return f"must be >= {low}, got {value}"
    if low is None:
        return f"must be <= {high}, got {value}"
    return f"must be in {low}..{high}, got {value}"


def edges(low, high) -> list[tuple[int, bool]]:
    """(value, whether it is in range) one past and at each end that exists."""
    return ([(low - 1, False), (low, True)] if low is not None else []) + ([(high, True), (high + 1, False)] if high is not None else [])


def cases() -> list:
    """(subcommand, its edge arguments, the error message or None) of every edge."""
    found = []
    for cmd, sub in SUBCOMMANDS.items():
        types = {a.option_strings[0]: a.type for a in sub._actions if hasattr(a.type, "low")}
        for option, t in types.items():
            for value, ok in edges(t.low, t.high):
                found.append((cmd, [option, str(value)], None if ok else f"argument {option}: {bound_message(t.low, t.high, value)}"))
        if cmd in cli._N_RANGES:
            key, ranges = cli._N_RANGES[cmd]
            t = types["--n"]
            for choice, (low, high) in ranges.items():
                for value, ok in edges(low, high):
                    if value < t.low:  # the type's own bound comes first
                        message = f"argument --n: {bound_message(t.low, t.high, value)}"
                    else:
                        message = None if ok else f"argument --n: must be {f'>= {low}' if value < low else f'<= {high}'} for --{key} {choice}, got {value}"
                    found.append((cmd, [f"--{key}", choice, "--n", str(value)], message))
    low, high = NM_RANGE
    for product, ok in edges(low, high):
        for n, m in dict.fromkeys([(1, product), (product, 1)]):
            got = f"got n={n}, m={m}"
            if ok:
                message = None
            elif product < low:
                message = f"need n*m >= {low} (differences are scaled by log(n*m)), {got}"
            else:
                message = f"need n*m <= {high} (one row must fit a chunk), {got}"
            found.append(("theorem2-diff", ["--n", str(n), "--m", str(m)], message))
    # a grid cell's sides are each >= 1, and its n*m fits a chunk
    for cell, message in [
        ("0x1", "grid entries must be >= 1, got '0x1'"),
        ("1x0", "grid entries must be >= 1, got '1x0'"),
        ("1x1", None),
        (f"1x{CHUNK}", None),
        (f"{CHUNK}x1", None),
        (f"1x{CHUNK + 1}", f"need n*m <= {CHUNK} (one row must fit a chunk), got '1x{CHUNK + 1}'"),
        (f"{CHUNK + 1}x1", f"need n*m <= {CHUNK} (one row must fit a chunk), got '{CHUNK + 1}x1'"),
    ]:
        found.append(("explore-conjecture", ["--grid", cell], message and f"argument --grid: {message}"))
    return found


CASES = cases()


def reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def documented_nans(doc: dict) -> set:
    """(part, key) or (part, key, row) of every cell that a builder documents as NaN (null in
    JSON): a chi-square over fewer than two cells, theorem2-diff's band columns outside its
    m = 2 band, and the ratio and threshold cells of a degenerate grid cell."""
    meta, cols = doc["meta"], doc["columns"]
    band = meta.get("band", "")
    nans = set()
    if band.startswith("pvalue does not apply"):
        nans |= {("meta", "pvalue"), ("columns", "chi2", 0), ("columns", "pvalue", 0)}
    if meta["subcommand"] == "theorem2-diff" and not band.startswith("m=2:"):
        nans |= {("columns", "band_lo", 0), ("columns", "band_hi", 0)}
    for row, degenerate in enumerate(cols.get("degenerate", [])):
        if degenerate:
            nans |= {("columns", key, row) for key in ("ratio_mean", "threshold", "exceed_freq")}
    return nans


def assert_runs_clean(capsys, args: list[str]) -> None:
    assert cli.main(args + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out, parse_constant=reject_constant)
    nulls = {("meta", k) for k, v in doc["meta"].items() if v is None}
    nulls |= {("columns", k, row) for k, column in doc["columns"].items() for row, v in enumerate(column) if v is None}
    assert nulls <= documented_nans(doc), sorted(nulls - documented_nans(doc))
    # a non-finite float written into a string, as bounds writes its bounds, is no number either
    texts = [v for v in doc["meta"].values() if isinstance(v, str)]
    texts += [v for column in doc["columns"].values() for v in column if isinstance(v, str)]
    assert not [t for t in texts if re.search(r"\b(nan|inf)\b", t, re.IGNORECASE)]


@pytest.mark.parametrize("cmd,args,message", CASES, ids=[" ".join([cmd, *args]) for cmd, args, _ in CASES])
def test_every_bound_holds_at_its_edges(capsys, cmd, args, message):
    argv = [cmd, *CHEAPEST[cmd], *args]
    if message is not None:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"butterfly-trees {cmd}: error: {message}\n")
        return
    parsed = PARSER.parse_args(argv)
    assert cli._joint_error(parsed) is None
    if " ".join([cmd, *args]) not in SLOW:
        assert_runs_clean(capsys, argv)


def test_every_subcommand_has_cheapest_arguments_and_every_slow_edge_is_swept():
    assert set(CHEAPEST) == set(SUBCOMMANDS)
    assert SLOW <= {" ".join([cmd, *args]) for cmd, args, message in CASES if message is None}
