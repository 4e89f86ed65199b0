"""Per-layer metrics of the traced run (`run.py --trace 1`).

Stage figures (wall, CPU, peak RSS, bytes read) come from the untraced
stage-per-process round; per-function counts and self times come from
the spans of the traced round (at workers=1). Every time is in
reference seconds: span times are scaled by the speed factor of the
step they belong to (see `speed.py`).
"""

from __future__ import annotations

import json
import os

import checks
from tracer import summarize

MB = float(1 << 20)
STAGES = checks.STAGES


def _manifest(tree: str, stage: str) -> dict:
    try:
        with open(os.path.join(tree, "manifests", f"{stage}.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except OSError:
        return {"outputs": [], "counters": {}}


def per_layer(tree, plain, traced, functions, lookup, scaled_steps) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit). `plain`, `traced` and `functions` map a
    stage to its probe result; `lookup` is the traced lookups probe."""
    metrics: dict[str, tuple[float, str]] = {}
    manifests = {stage: _manifest(tree, stage) for stage in STAGES}
    for stage in STAGES:
        result = plain[stage]
        wall, cpu = scaled_steps(result)[0]
        metrics[f"{stage}.wall_s"] = (wall, "s")
        metrics[f"{stage}.cpu_s"] = (cpu, "s")
        metrics[f"{stage}.peak_rss_mb"] = (result["peak_rss_kb"] / 1024, "MB")
        metrics[f"{stage}.read_mb"] = (result["rchar"] / MB, "MB")
        metrics[f"{stage}.rows_out"] = (
            sum(o.get("rows", 0) for o in manifests[stage]["outputs"]), "count"
        )

    metrics["pipeline.pool_starts"] = (
        sum(traced[s]["counters"].get("pool_starts", 0) for s in STAGES), "count"
    )
    written = sum(plain[s]["wchar"] for s in STAGES)
    metrics["pipeline.ipc_mb"] = ((written - checks.tree_bytes(tree)) / MB, "MB")

    # name -> {calls, self_s} per stage, self times in reference seconds
    by_stage = {}
    for stage in STAGES:
        result = functions[stage]
        raw = result["end"][0] - result["start"][0]
        scale = scaled_steps(result)[0][0] / raw
        by_stage[stage] = {
            name: {"calls": cell["calls"], "self_s": cell["self_s"] * scale}
            for name, cell in summarize(result["spans"]).items()
        }

    def calls(name: str, stages=STAGES) -> int:
        return sum(by_stage[s].get(name, {}).get("calls", 0) for s in stages)

    def self_s(name: str) -> float:
        return sum(by_stage[s].get(name, {}).get("self_s", 0.0) for s in STAGES)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decodes = calls("artifacts.decode")
    metrics["artifacts.decode_calls"] = (decodes, "count")
    for stage in ("reconcile", "attribute", "aggregate", "compare"):
        metrics[f"{stage}.decode_calls"] = (calls("artifacts.decode", [stage]), "count")
    metrics["artifacts.decodes_per_record"] = (ratio(decodes, metrics["classify.rows_out"][0]), "ratio")
    metrics["artifacts.decode_us"] = (ratio(self_s("artifacts.decode"), decodes) * 1e6, "us")
    metrics["artifacts.encode_calls"] = (calls("artifacts.encode"), "count")
    metrics["artifacts.encode_s"] = (self_s("artifacts.encode"), "s")
    hashed = sum(functions[s]["counters"].get("hash_bytes", 0) for s in STAGES)
    metrics["artifacts.hash_mb"] = (hashed / MB, "MB")
    metrics["artifacts.hash_s"] = (self_s("artifacts.hash"), "s")
    metrics["artifacts.write_csv_s"] = (self_s("artifacts.write_csv"), "s")

    ingest_counters = manifests["ingest"]["counters"]
    metrics["ingest.parse_calls"] = (calls("ingest.parse"), "count")
    metrics["ingest.parse_s"] = (self_s("ingest.parse"), "s")
    metrics["ingest.rejects"] = (
        sum(v for k, v in ingest_counters.items() if k.startswith("rejects_")), "count"
    )

    metrics["classify.calls"] = (calls("classify.classify_article"), "count")
    metrics["classify.self_s"] = (self_s("classify.classify_article"), "s")

    reconcile_counters = manifests["reconcile"]["counters"]
    metrics["reconcile.bridge_s"] = (self_s("reconcile.build_bridge"), "s")
    metrics["reconcile.bridged_dois"] = (
        sum(v for k, v in reconcile_counters.items() if k.startswith("bridged_")), "count"
    )
    metrics["reconcile.tally_s"] = (self_s("reconcile.tally_pairs"), "s")
    metrics["reconcile.pairs"] = (reconcile_counters.get("pairs", 0), "count")
    metrics["reconcile.crosswalk_entries"] = (reconcile_counters.get("crosswalk_entries", 0), "count")

    matches = calls("attribute.match_agreements")
    metrics["attribute.match_calls"] = (matches, "count")
    metrics["attribute.match_s"] = (self_s("attribute.match_agreements"), "s")
    metrics["attribute.useful_decode_ratio"] = (
        ratio(matches, calls("artifacts.decode", ["attribute"])), "ratio"
    )

    metrics["analytics.aggregate_calls"] = (calls("analytics.aggregate"), "count")
    metrics["analytics.aggregate_self_s"] = (self_s("analytics.aggregate"), "s")
    metrics["analytics.coverage_self_s"] = (self_s("analytics.coverage_summary"), "s")
    metrics["analytics.upset_s"] = (self_s("analytics.upset_sets"), "s")
    metrics["analytics.spearman_calls"] = (calls("analytics.spearman"), "count")

    lookup = lookup or {"spans": [], "rchar": 0, "start": [], "end": [], "cpu_s": [], "cpus": []}
    explain = summarize(lookup["spans"])
    n = explain.get("explain.lookup", {}).get("calls", 0)
    raw = sum(e - s for s, e in zip(lookup["start"], lookup["end"]))
    scale = sum(wall for wall, _ in scaled_steps(lookup)) / raw if raw else 1.0
    metrics["explain.decode_calls_per_lookup"] = (
        ratio(explain.get("artifacts.decode", {}).get("calls", 0), n), "count"
    )
    metrics["explain.read_mb_per_lookup"] = (ratio(lookup["rchar"] / MB, n), "MB")
    metrics["explain.self_ms"] = (
        ratio(explain.get("explain.lookup", {}).get("self_s", 0.0) * scale, n) * 1000, "ms"
    )

    untraced = sum(scaled_steps(plain[s])[0][0] for s in STAGES)
    metrics["trace.untraced_run_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (
        sum(scaled_steps(traced[s])[0][0] for s in STAGES) - untraced, "s"
    )
    return metrics
