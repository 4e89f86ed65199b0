#!/usr/bin/env python3
"""hybridoa benchmark: one workload, timed, checked, one JSON result line.

    python3 benchmark/run.py --workload pipeline-w1 --seed 1 --seconds 18 --trace 0

Run from the root of a checkout (the engine is imported from `src/`).
The seed feeds the fixture generator and the DOI sample, so the same
seed gives the same inputs. Timed phases run in a process of their own
(`probe.py`); their outputs are checked against the fixture's planted
truth and recounts made here (`checks.py`). Times are reported in
reference seconds (`speed.py`). `--trace 1` prints per-layer metrics
instead of end-to-end ones and writes its spans under
`benchmark/results/`. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

MB = float(1 << 20)
STAGES = checks.STAGES
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # every run ends within 180 s


@dataclass(frozen=True)
class Workload:
    works: int  # fixture works; records are about 2.5x
    workers: int
    lookups_per_round: int
    batch_in_setup: bool  # True: the tree is built in set-up and only lookups are timed


WORKLOADS = {
    "pipeline-w1": Workload(works=10_000, workers=1, lookups_per_round=4, batch_in_setup=False),
    "pipeline-w2": Workload(works=10_000, workers=2, lookups_per_round=4, batch_in_setup=False),
    "explain-lookups": Workload(works=1_000, workers=1, lookups_per_round=150, batch_in_setup=True),
}


class SetupFailed(Exception):
    pass


class Run:
    """State of one benchmark invocation."""

    def __init__(self, name: str, seed: int, seconds: float, workload: Workload | None = None):
        self.name = name
        self.workload = workload or WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = os.path.join(WORK, f"{name}-s{seed}-{os.getpid()}")
        self.corpus = os.path.join(self.work, "corpus")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []
        self.children = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=os.path.join(self.work, "tmp"))
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samplers: dict[int, tuple[subprocess.Popen, str]] = {}
        self.samples: speed.Samples | None = None

    # --- speed sampling ----------------------------------------------------

    def start_samplers(self) -> None:
        for cpu in self.cpus:
            path = os.path.join(self.work, f"speed{cpu}.bin")
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "speed.py"), str(cpu), path])
            self.samplers[cpu] = (proc, path)
        time.sleep(2 * speed.PAD_S)

    def stop_samplers(self) -> None:
        """Stop and reap every sampler; load what they recorded."""
        if not self.samplers:
            return
        time.sleep(2 * speed.PAD_S)
        for proc, _ in self.samplers.values():
            proc.terminate()
        for proc, _ in self.samplers.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.samples = speed.Samples({cpu: path for cpu, (_, path) in self.samplers.items()})
        self.samplers = {}

    def scaled(self, start: float, end: float, cpus) -> float:
        return (end - start) * self.samples.factor(start, end, cpus)

    def scaled_steps(self, result: dict) -> list[tuple[float, float]]:
        """(wall, cpu) of each timed step of a probe, in reference seconds.

        A pinned probe is judged by its core. An unpinned one is judged by
        every core while its workers ran (their CPU time shows when the
        step reaps them), and otherwise by the cores it was seen on."""
        out = []
        steps = zip(result["start"], result["end"], result["cpu_s"], result["child_cpu_s"])
        for start, end, cpu, child_cpu in steps:
            cpus = result["cpus"]
            if len(cpus) > 1 and child_cpu == 0:
                cpus = [c for t, c in result["placement"] if start <= t <= end] or cpus
            f = self.samples.factor(start, end, cpus)
            out.append(((end - start) * f, cpu * f))
        return out

    # --- processes ---------------------------------------------------------

    def child(
        self, argv: list[str], hash_seed: str | None = None, cpu: int | None = None,
        placement: list | None = None,
    ) -> bool:
        """Run a child in its own process group, pinned to `cpu` if given;
        kill the group on timeout. `placement` collects (time, core) of
        the child every INTERVAL_S while it runs."""
        self.children += 1
        log = os.path.join(self.work, f"child{self.children}.log")
        env = self.env if hash_seed is None else dict(self.env, PYTHONHASHSEED=hash_seed)
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.Popen(
                [sys.executable] + argv, cwd=ROOT, env=env, stdout=fh,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            watcher = None
            if placement is not None:
                watcher = threading.Thread(target=_watch, args=(proc, placement), daemon=True)
                watcher.start()
            try:
                if cpu is not None:
                    with contextlib.suppress(ProcessLookupError):
                        os.sched_setaffinity(proc.pid, {cpu})
                code = proc.wait(timeout=max(1.0, remaining))
            except BaseException as exc:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
                self.note(f"timed out: {' '.join(argv[:3])}")
                return False
            finally:
                if watcher is not None:
                    watcher.join()
        if code != 0:
            with open(log, encoding="utf-8") as fh:
                self.note(f"exit {code}: {' '.join(argv[:3])}: {fh.read()[-400:]}")
        return code == 0

    def probe(self, spec: dict) -> dict | None:
        """Run one timed phase in probe.py; None when the process failed.

        A single-process phase is pinned to the first core, whose speed is
        sampled; a phase with a worker pool may use every core."""
        self.children += 1
        spec_path = os.path.join(self.work, f"probe{self.children}.json")
        result_path = spec_path + ".out"
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(dict(spec, config=os.path.join(self.corpus, "config.json")), fh)
        cpu = self.cpus[0] if spec["workers"] == 1 else None
        placement = [] if cpu is None else None
        argv = [os.path.join(HERE, "probe.py"), spec_path, result_path]
        if not self.child(argv, cpu=cpu, placement=placement):
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        result["cpus"] = self.cpus if cpu is None else [cpu]
        result["placement"] = placement or []
        if result["error"]:
            self.note(result["error"][-400:])
        return result

    def note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    # --- set-up --------------------------------------------------------------

    def timed_child(self, argv: list[str], hash_seed: str | None = None) -> tuple[bool, tuple]:
        """Run one single-process set-up command; (ok, (start, end))."""
        start = time.perf_counter()
        ok = self.child(argv, hash_seed, cpu=self.cpus[0])
        return ok, (start, time.perf_counter())

    def setup(self, repeats: int) -> list[list[tuple]]:
        """Build the inputs with the engine's own CLI; the (start, end) of
        each command, per repetition."""
        w = self.workload
        repetitions, digests = [], set()
        tree = os.path.join(self.work, "setup_tree")
        for _ in range(repeats):
            for path in (self.corpus, tree):
                shutil.rmtree(path, ignore_errors=True)
            # the generator's output depends on string hashing (a FOUND line
            # in CHANGES.md), so the hash seed is pinned to make the inputs
            # a function of --seed alone
            ok, span = self.timed_child(
                ["-m", "hybridoa.cli", "gen-fixture", "--out", self.corpus,
                 "--seed", str(self.seed), "--articles", str(w.works)],
                hash_seed="0",
            )
            spans = [span]
            if ok and w.batch_in_setup:
                ok, span = self.timed_child(
                    ["-m", "hybridoa.cli", "run", "--config",
                     os.path.join(self.corpus, "config.json"), "--workers", "1", "--out", tree]
                )
                spans.append(span)
            if not ok:
                raise SetupFailed("set-up command failed")
            repetitions.append(spans)
            digests.add(checks.tree_digest(self.corpus))
        if len(digests) != 1:
            raise SetupFailed("fixture generation is not deterministic for this seed")
        self.corpus_sha256 = digests.pop()
        self.truth = checks.Truth(self.corpus)
        self.dois = pick_dois(self.truth, self.seed)
        return repetitions

    # --- operations ------------------------------------------------------------

    def count_stages(self, tree: str, result: dict | None, failures: dict[str, list[str]]) -> None:
        """Six operations per batch run, one per stage."""
        raised = result is None or bool(result["error"])
        self.attempted += len(STAGES)
        for stage in checks.failed_stages(tree, raised, failures):
            self.failed += 1
            for message in failures.get(stage, [])[:3]:
                self.note(message)

    def check_stage_tree(self, tree: str, result: dict | None, reference: str | None = None) -> None:
        """Full checks, or byte comparison with an already checked tree."""
        if reference is None:
            failures = checks.check_tree(self.truth, tree)
        else:
            failures = checks.compare_trees(tree, reference)
        self.count_stages(tree, result, failures)

    def lookups(self, tree: str, dois: list[str], trace: bool = False) -> dict | None:
        """Closed loop of explain lookups; each lookup is one operation."""
        result = self.probe(
            {"mode": "lookups", "out_dir": tree, "workers": 1, "dois": dois, "trace": trace}
        )
        attributions = {}
        try:
            for role in self.truth.roles:
                attributions.update(checks.attribution_rows(tree, role))
        except OSError as exc:
            self.note(f"attributions unreadable: {exc}")
        texts = result["texts"] if result else []
        for index, doi in enumerate(dois):
            self.attempted += 1
            text = texts[index] if index < len(texts) else None
            problems = [f"explain {doi}: no trace"] if text is None else checks.check_explain(
                self.truth, attributions, doi, text
            )
            if problems:
                self.failed += 1
                for message in problems[:3]:
                    self.note(message)
        return result

    def round_dois(self, index: int) -> list[str]:
        n = self.workload.lookups_per_round
        return [self.dois[(index * n + k) % len(self.dois)] for k in range(n)]

    def check_setup_tree(self, tree: str) -> None:
        """The tree the lookups read must itself pass every check."""
        for problems in checks.check_tree(self.truth, tree).values():
            for message in problems[:3]:
                self.correct = False
                self.note(f"set-up tree: {message}")

    # --- untraced run -------------------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """Whole rounds until --seconds of timed work; medians over rounds."""
        w = self.workload
        setup = self.setup(SETUP_REPEATS)
        tree0 = os.path.join(self.work, "setup_tree" if w.batch_in_setup else "tree0")
        if w.batch_in_setup:
            self.check_setup_tree(tree0)
        rounds = []  # (timed phase, its lookups); the same probe on explain-lookups
        measured = 0.0
        while measured < self.seconds and self.elapsed() < DEADLINE_S / 2:
            index = len(rounds)
            if w.batch_in_setup:
                timed = lookup = self.lookups(tree0, self.round_dois(index))
            else:
                tree = os.path.join(self.work, f"tree{index}")
                timed = self.probe({"mode": "run", "out_dir": tree, "workers": w.workers})
                self.check_stage_tree(tree, timed, reference=None if index == 0 else tree0)
                lookup = self.lookups(tree, self.round_dois(index))
                if index > 0:
                    shutil.rmtree(tree)
            if timed is None or lookup is None:
                break
            rounds.append((timed, lookup))
            measured += _span(timed) + (0.0 if lookup is timed else _span(lookup))
        if not rounds:
            raise SetupFailed("no timed round completed")
        self.stop_samplers()

        runs, raw_runs, cpus, lookup_rounds, latencies = [], [], [], [], []
        for timed, lookup in rounds:
            steps = self.scaled_steps(timed)
            runs.append(sum(wall for wall, _ in steps))
            raw_runs.append(sum(e - s for s, e in zip(timed["start"], timed["end"])))
            cpus.append(sum(cpu for _, cpu in steps))
            walls = [wall for wall, _ in self.scaled_steps(lookup)]
            lookup_rounds.append(sum(walls))
            latencies.extend(1000 * wall for wall in walls)
        setup_times = [sum(self.scaled(s, e, self.cpus[:1]) for s, e in spans) for spans in setup]
        run_s = statistics.median(runs)
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "run_s": (run_s, "s"),
            "records_per_s": (self.truth.total_input_lines / run_s, "records/s"),
            "lookups_per_s": (w.lookups_per_round / statistics.median(lookup_rounds), "lookups/s"),
            "lookup_p50_ms": (deciles[4], "ms"),
            "lookup_p90_ms": (deciles[8], "ms"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(t["peak_rss_kb"] for t, _ in rounds) / 1024, "MB"),
            "read_mb": (statistics.median(t["rchar"] for t, _ in rounds) / MB, "MB"),
            "output_mb": (checks.tree_bytes(tree0) / MB, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        info = {
            "rounds": len(rounds),
            "lookups": len(latencies),
            "raw_run_s": round(statistics.median(raw_runs), 4),
            "raw_setup_s": round(statistics.median(sum(e - s for s, e in spans) for spans in setup), 4),
        }
        return metrics, info

    # --- traced run -----------------------------------------------------------------

    def stage_round(self, label: str, workers: int, trace: bool) -> tuple[str, dict[str, dict]]:
        """Each stage via pipeline.run(config, [S]) in its own process."""
        tree = os.path.join(self.work, label)
        results = {}
        for stage in STAGES:
            result = self.probe(
                {"mode": "run", "out_dir": tree, "workers": workers, "stages": [stage], "trace": trace}
            )
            if result is None:
                raise SetupFailed(f"traced {stage} probe failed")
            results[stage] = result
        return tree, results

    def measure_traced(self) -> tuple[dict, dict]:
        """Untraced and traced stage-per-process rounds, then traced lookups."""
        w = self.workload
        self.setup(1)
        plain_tree, plain = self.stage_round("stages_plain", w.workers, trace=False)
        self.check_stage_tree(plain_tree, _merged(plain))
        traced_tree, traced = self.stage_round("stages_traced", w.workers, trace=True)
        self.check_stage_tree(traced_tree, _merged(traced), reference=plain_tree)
        functions = traced
        if w.workers != 1:
            # spans inside pool workers are lost, so per-function figures
            # come from a workers=1 trace of the same corpus; its tree is
            # also the reference the workers=N tree must equal byte for byte
            w1_tree, functions = self.stage_round("stages_traced_w1", 1, trace=True)
            self.check_stage_tree(plain_tree, _merged(functions), reference=w1_tree)
        lookup = self.lookups(plain_tree, self.round_dois(0), trace=True)

        processes = [{"label": f"traced {s}", "spans": traced[s]["spans"]} for s in STAGES]
        if functions is not traced:
            processes += [{"label": f"traced workers=1 {s}", "spans": functions[s]["spans"]} for s in STAGES]
        processes.append({"label": "traced lookups", "spans": (lookup or {}).get("spans", [])})
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"trace-{self.name}-seed{self.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"workload": self.name, "seed": self.seed,
                 "span_fields": ["name", "start_ns", "end_ns", "parent"], "processes": processes},
                fh,
            )
        self.stop_samplers()
        metrics = layers.per_layer(plain_tree, plain, traced, functions, lookup, self.scaled_steps)
        return metrics, {"spans": os.path.relpath(path, ROOT)}

    # --- output ---------------------------------------------------------------------

    def report(self, metrics: dict, info: dict) -> None:
        for message in self.messages:
            print(f"note: {message}")
        print(
            f"workload={self.name} seed={self.seed} corpus_sha256={self.corpus_sha256} "
            + " ".join(f"{k}={v}" for k, v in info.items())
        )
        print(
            json.dumps(
                {
                    "correct": self.correct,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                }
            )
        )


def _watch(proc: subprocess.Popen, placement: list) -> None:
    """Record the core `proc` last ran on until it exits."""
    path = f"/proc/{proc.pid}/stat"
    while proc.poll() is None:
        try:
            with open(path, encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            return
        placement.append((time.perf_counter(), int(stat[stat.rindex(")") + 2:].split()[36])))
        time.sleep(speed.INTERVAL_S)


def _span(result: dict) -> float:
    """Wall seconds from the first step's start to the last step's end."""
    return result["end"][-1] - result["start"][0]


def _merged(results: dict[str, dict]) -> dict:
    errors = [r["error"] for r in results.values() if r.get("error")]
    return {"error": "\n".join(errors) if errors else None}


def pick_dois(truth: checks.Truth, seed: int) -> list[str]:
    """Seeded order of distinct DOIs, interleaving six kinds of record sets:
    (held by one source | several) x (TA-enabled | eligible | ineligible)."""
    kinds: dict[tuple, list[str]] = {}
    for doi in sorted(truth.by_doi):
        holders = truth.by_doi[doi]
        eligible = any(truth.hybrid_oa(h) for h in holders)
        enabled = any(
            truth.attributions.get(h + (role,), (frozenset(),))[0]
            for h in holders
            for role in truth.roles
        )
        kind = (len(holders) > 1, "ta" if enabled else "eligible" if eligible else "ineligible")
        kinds.setdefault(kind, []).append(doi)
    rng = random.Random(seed)
    queues = []
    for kind in sorted(kinds):
        rng.shuffle(kinds[kind])
        queues.append(kinds[kind])
    order = []
    for position in range(max(len(q) for q in queues)):
        order.extend(q[position] for q in queues if position < len(q))
    return order


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "hybridoa", "__init__.py")):
        print(f"benchmark: no engine source under {SRC}; run from a checkout root", file=sys.stderr)
        return 2

    # a terminated run still stops its samplers and children (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.start_samplers()
        metrics, info = run.measure_traced() if args.trace else run.measure()
        run.report(metrics, info)
    except SetupFailed as exc:
        for message in run.messages:
            print(f"note: {message}", file=sys.stderr)
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        run.stop_samplers()
        shutil.rmtree(run.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
