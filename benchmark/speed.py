"""Machine-speed sampling for scaling measured times.

Each core of the machine slows down by up to about 2x, for a second or so
at a time, as other tenants load it; the two cores do so independently,
and CPU time slows down with wall time. A speed sample taken next to a
step is not enough, because the speed changes within a multi-second
stage.

So a sampler process pinned to a core runs a fixed unit of stdlib-only
work (JSON decoding and small containers, the engine's kind of work) 50
times a second, and records when each unit ran and how long it took.
Single-process timed phases are pinned to the sampled core. A timed step
is then reported in reference seconds:

    measured seconds x REFERENCE_UNIT_S / mean(unit time during the step)

`REFERENCE_UNIT_S` is the unit's time on an unloaded core of the machine
the bounds were set on, so on an unloaded core scaled and raw times
agree. The sampler never calls the engine, so no change to the engine can
move it; it takes about 2 % of the sampled core.

    python3 benchmark/speed.py CPU OUTFILE   # sample until SIGTERM
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import struct
import sys
import time

REFERENCE_UNIT_S = 0.00040
INTERVAL_S = 0.02
PAD_S = 0.05  # a short step is also judged by the samples this close to it

_LINE = json.dumps(
    {
        "record": {
            "doi": "10.5555/j44.000000",
            "authors": [
                {"position": p, "org_ids": [f"srcA:A{p:04d}"], "countries": ["DE"]}
                for p in range(1, 5)
            ],
        },
        "countable": True,
    }
)
_RECORD = struct.Struct("<dd")


def unit_s() -> float:
    """Seconds this process now takes for one unit of fixed decoding work."""
    start = time.perf_counter()
    for _ in range(50):
        obj = json.loads(_LINE)
        tuple(frozenset(a["org_ids"]) for a in obj["record"]["authors"])
    return time.perf_counter() - start


def sample(cpu: int, path: str) -> None:
    """Append (start, unit seconds) records to `path` until SIGTERM."""
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    with open(path, "wb") as fh:
        while not stop:
            began = time.perf_counter()
            fh.write(_RECORD.pack(began, unit_s()))
            fh.flush()
            time.sleep(INTERVAL_S)


class Samples:
    """Unit times recorded by the samplers of one run, per core."""

    def __init__(self, paths: dict[int, str]):
        self.points: dict[int, list[tuple[float, float]]] = {}
        for cpu, path in paths.items():
            with open(path, "rb") as fh:
                data = fh.read()
            usable = len(data) - len(data) % _RECORD.size
            self.points[cpu] = list(_RECORD.iter_unpack(data[:usable]))

    def factor(self, start: float, end: float, cpus) -> float:
        """Multiplier from measured to reference seconds for a step that ran
        on `cpus` over [start, end]."""
        window = []
        for cpu in cpus:
            points = self.points[cpu]
            lo = bisect.bisect_left(points, (start - PAD_S,))
            hi = bisect.bisect_right(points, (end + PAD_S, float("inf")))
            window.extend(unit for _, unit in points[lo:hi])
        if not window:
            raise ValueError(f"no speed samples between {start} and {end}")
        return REFERENCE_UNIT_S * len(window) / sum(window)


if __name__ == "__main__":
    sample(int(sys.argv[1]), sys.argv[2])
