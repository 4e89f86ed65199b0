"""One timed phase in a process of its own.

    python3 benchmark/probe.py SPEC.json RESULT.json

SPEC names a mode: `run` calls `pipeline.run(config, [stage])` for each
stage in order (the same calls `pipeline.run(config)` makes); `lookups`
calls `pipeline.explain_doi` for each DOI in a closed loop. The engine
is imported before the clock starts.

RESULT holds, per timed step (a stage or a lookup), its start and end on
the monotonic clock the speed samplers share, and its user+sys CPU (this
process plus reaped workers, and the workers' part alone); plus for the whole phase the largest
resident set of this process or a worker and the `rchar`/`wchar` deltas
of `/proc/self/io` (which include reaped workers). With `"trace": true`
the engine's public functions are wrapped and the spans are returned.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hybridoa import analytics, artifacts, attribute, classify, ingest, pipeline, reconcile  # noqa: E402
from hybridoa.artifacts import STAGES  # noqa: E402
from hybridoa.config import load_config  # noqa: E402

from tracer import Tracer  # noqa: E402


def read_io() -> dict[str, int]:
    out = {}
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            key, value = line.split(":")
            out[key] = int(value)
    return out


def own_peak_rss_kb() -> int:
    """VmHWM of this process's own address space.

    `ru_maxrss` of RUSAGE_SELF would also count the launching process's
    resident set, which the kernel carries across exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    config = replace(
        load_config(spec["config"]), out_dir=spec["out_dir"], workers=spec["workers"]
    )
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install(
            {
                "analytics": analytics,
                "artifacts": artifacts,
                "attribute": attribute,
                "classify": classify,
                "ingest": ingest,
                "pipeline": pipeline,
                "reconcile": reconcile,
            }
        )

    if spec["mode"] == "run":
        steps = [
            ("stage." + stage, pipeline.run, (config, [stage]))
            for stage in spec.get("stages") or STAGES
        ]
    else:
        steps = [("explain.lookup", pipeline.explain_doi, (config, doi)) for doi in spec["dois"]]

    result: dict = {"error": None, "start": [], "end": [], "cpu_s": [], "child_cpu_s": [], "texts": []}
    io0 = read_io()
    for name, fn, args in steps:
        own0 = cpu_seconds(resource.RUSAGE_SELF)
        children0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        out = None
        try:
            out = tracer.call(name, fn, *args) if tracer is not None else fn(*args)
        except Exception:  # reported to the parent, which counts failed operations
            result["error"] = traceback.format_exc()
        result["start"].append(start)
        result["end"].append(time.perf_counter())
        children = cpu_seconds(resource.RUSAGE_CHILDREN) - children0
        result["child_cpu_s"].append(children)
        result["cpu_s"].append(cpu_seconds(resource.RUSAGE_SELF) - own0 + children)
        if spec["mode"] == "lookups":
            result["texts"].append(out)
        elif result["error"]:
            break  # later stages need this one's artifacts
    io1 = read_io()
    result["rchar"] = io1["rchar"] - io0["rchar"]
    result["wchar"] = io1["wchar"] - io0["wchar"]
    result["peak_rss_kb"] = max(
        own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
