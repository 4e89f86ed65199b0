#!/usr/bin/env python3
"""Ingestion throughput and memory profile on bulk interchange files.

Writes synthetic article files of increasing size, streams each through
the parser in a subprocess, and reports wall time plus peak RSS. The
peak should stay flat as files grow.

    python scripts/bench_ingest.py [--sizes 100000,1000000]
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hybridoa.fixture import write_bulk_articles

CONSUMER = """
import json, resource, sys, time
from hybridoa.ingest import load_article_stream

start = time.perf_counter()
stream, manifest = load_article_stream(sys.argv[1], "open")
count = sum(1 for _ in stream)
print(json.dumps({
    "records": count,
    "rejects": manifest.reject_count,
    "seconds": time.perf_counter() - start,
    "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""

def write_bulk(path: Path, n: int):
    start = time.perf_counter()
    write_bulk_articles(str(path), n)
    print(f"  wrote {n:,} lines in {time.perf_counter() - start:.1f}s")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="100000,1000000")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    results = []
    with tempfile.TemporaryDirectory(prefix="hybridoa_bench_") as tmp:
        for n in sizes:
            path = Path(tmp) / f"bulk_{n}.ndjson"
            write_bulk(path, n)
            proc = subprocess.run(
                [sys.executable, "-c", CONSUMER, str(path)],
                capture_output=True, text=True, check=True,
            )
            stats = json.loads(proc.stdout)
            stats["lines"] = n
            results.append(stats)
            rate = stats["records"] / stats["seconds"]
            print(
                f"  {n:>9,} lines: {stats['seconds']:6.1f}s "
                f"({rate:,.0f} rec/s), peak RSS {stats['peak_kb'] / 1024:.0f} MB"
            )
    if len(results) >= 2:
        ratio = results[-1]["peak_kb"] / results[0]["peak_kb"]
        growth = results[-1]["lines"] / results[0]["lines"]
        print(f"memory growth x{ratio:.2f} for x{growth:.0f} input size")


if __name__ == "__main__":
    main()
