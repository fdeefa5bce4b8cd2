"""
Span tracing of the butterfly_trees layers from outside the package.

``instrument`` replaces every public module-level function of the layer
modules with a wrapper that records a span (name, start, end, parent) and
restores the originals on exit. A function imported by name into another
module (``cli`` imports ``nonsimple_matrices``, ``sampling`` imports
``words_from_shape_bits``, ...) is patched under every name that refers
to it, so the caller's lookup finds the wrapper.

``instrument(spans.Sampler(), only=spans.ORACLE)`` wraps just
``bst.batch_summaries`` and records no spans, only the sampled rows that
untraced units check against the scalar ``bst.summary``.

Generator functions are left alone: their body runs interleaved with the
consumer, so their time is counted as the consumer's self time. Functions
behind ``functools.lru_cache`` are not plain functions and are left alone
too; their time goes to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "butterfly_trees"
# perms, blocks and lattice get no spans: no benchmark unit spends
# measurable time in them, and what they do take is their caller's.
LAYERS = ("cli", "sampling", "butterfly", "bst", "exact", "gepp")
ORACLE = frozenset({"bst.batch_summaries"})


def _work(name: str, args: tuple, result) -> int:
    """Work count recorded on a span: keys, words, rows, support or matrices."""
    if name == "bst.batch_summaries":
        return int(np.asarray(args[0]).size)
    if name in ("exact.lis_law_counts", "exact.cycle_law_counts"):
        return len(result[0])
    if name == "exact.triple_dist_nonsimple":
        return result.support()
    if isinstance(result, np.ndarray) and result.ndim >= 1:
        return int(result.shape[0])
    return 0


def _sample(samples: list, name: str, args: tuple, result) -> None:
    """Keep three rows of a batch_summaries call, to re-check with bst.summary."""
    if name == "bst.batch_summaries":
        words = np.asarray(args[0])
        rows = sorted({0, len(words) // 2, len(words) - 1})
        samples.append((words[rows].copy(), *(np.asarray(a)[rows].copy() for a in result)))


@dataclass
class Sampler:
    """(word rows, h, l, r) samples of batch_summaries calls, for the oracle."""

    samples: list = field(default_factory=list)

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        result = fn(*args, **kwargs)
        _sample(self.samples, name, args, result)
        return result


@dataclass
class Tracer(Sampler):
    """Spans kept in memory as [name, start, end, parent, work] rows."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()
        self.spans[idx][4] = _work(name, args, result)
        _sample(self.samples, name, args, result)
        return result


def _wrapper(tracer: Sampler, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def package_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]


@contextmanager
def instrument(tracer: Sampler, only: frozenset | None = None):
    """Patch every layer's public functions, or those named in ``only``, to
    call through ``tracer``."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, fn in vars(mod).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or inspect.isgeneratorfunction(fn)
                or (only is not None and f"{layer}.{attr}" not in only)
            ):
                continue
            wrappers[fn] = _wrapper(tracer, f"{layer}.{fn.__name__}", fn)
    patched = []
    try:
        for mod in package_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    patched.append((mod, attr, val))
        yield tracer
    finally:
        for mod, attr, val in reversed(patched):
            setattr(mod, attr, val)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
