"""Spans around calls into the engine's public functions.

The traced run replaces module attributes of `hybridoa` with wrappers
that record one span per call: name, start, end and the span that was
open when the call began. Spans stay in memory and are written out when
the probe process ends. Nothing inside `src/hybridoa` is changed; the
wrappers take effect because the engine calls these functions through
their module attribute (for example `artifacts.classified_from_line`).
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# (module name, attribute, span name). Spans nest: the decodes that
# `analytics.aggregate` pulls through its lazy stream are its children,
# so its self time excludes them.
WRAPPED = (
    ("artifacts", "classified_from_line", "artifacts.decode"),
    ("artifacts", "classified_to_line", "artifacts.encode"),
    ("artifacts", "sha256_file", "artifacts.hash"),
    ("artifacts", "write_csv", "artifacts.write_csv"),
    ("ingest", "parse_article_line", "ingest.parse"),
    ("classify", "classify_article", "classify.classify_article"),
    ("reconcile", "build_bridge", "reconcile.build_bridge"),
    ("reconcile", "tally_pairs", "reconcile.tally_pairs"),
    ("attribute", "match_agreements", "attribute.match_agreements"),
    ("analytics", "aggregate", "analytics.aggregate"),
    ("analytics", "coverage_summary", "analytics.coverage_summary"),
    ("analytics", "upset_sets", "analytics.upset_sets"),
    ("analytics", "spearman", "analytics.spearman"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, 0, 0, stack[-1] if stack else -1])
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index][1] = start
            spans[index][2] = end

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(module, attr, wrapper)

    def install(self, hybridoa_modules: dict) -> None:
        """Wrap every function in WRAPPED plus the pool and hash-size hooks."""
        for module_name, attr, name in WRAPPED:
            self.wrap(hybridoa_modules[module_name], attr, name)

        artifacts = hybridoa_modules["artifacts"]
        traced_hash = artifacts.sha256_file
        counters = self.counters

        def sized_hash(path):
            counters["hash_bytes"] += os.path.getsize(path)
            return traced_hash(path)

        artifacts.sha256_file = functools.wraps(traced_hash)(sized_hash)

        pipeline = hybridoa_modules["pipeline"]
        base = pipeline.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counters["pool_starts"] += 1
                super().__init__(*args, **kwargs)

        pipeline.ProcessPoolExecutor = CountingPool


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        cell = out[name]
        cell["calls"] += 1
        cell["self_s"] += (end - start - child_ns[index]) / 1e9
    return dict(out)
