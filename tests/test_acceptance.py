"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace

import pytest

from hybridoa import fixture, pipeline
from hybridoa.analytics import spearman
from hybridoa.artifacts import Layout
from hybridoa.attribute import agreements_by_journal, match_agreements
from hybridoa.config import load_config
from hybridoa.fixture import write_bulk_articles
from hybridoa.model import ROLE_CORRESPONDING, ROLE_FIRST

from conftest import load_truth_attributions, load_truth_crosswalk
from oracles import as_row, oracle_match, random_world


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# --- criterion 1: oracle equivalence -----------------------------------------------

def test_criterion_1_oracle_equivalence():
    """match_agreements equals the brute-force triple loop on 100 random
    corpora (<= 1,000 articles, <= 20 agreements), exactly, in < 60 s."""
    start = time.perf_counter()
    discrepancies = 0
    total = 0
    for trial in range(100):
        rng = random.Random(1000 + trial)
        articles, agreements, inverse, index = random_world(
            rng, rng.randint(50, 1000), rng.randint(1, 20)
        )
        journal_index = agreements_by_journal(agreements)
        for article in articles:
            for role in (ROLE_FIRST, ROLE_CORRESPONDING):
                total += 1
                got = match_agreements(as_row(article), role, journal_index, inverse, index)
                want = oracle_match(article, role, agreements, inverse, index)
                if got != want:
                    discrepancies += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (oracle equivalence)",
        discrepancies == 0 and elapsed < 60,
        f"{total} comparisons, {discrepancies} discrepancies, {elapsed:.1f}s",
    )


# --- criterion 2: planted-truth end-to-end -------------------------------------------

@pytest.fixture(scope="module")
def timed_full_run(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("acceptance_corpus")
    start = time.perf_counter()
    fixture.generate(fixture.FixtureParams(seed=7), str(corpus))
    config = replace(load_config(str(corpus / "config.json")), workers=1)
    pipeline.run(config)
    elapsed = time.perf_counter() - start
    return corpus, config, elapsed


def test_criterion_2_planted_truth(timed_full_run):
    """Full pipeline on ~10k records with planted truth: attribution
    precision = recall = 1.0 on noise-free articles, crosswalk accuracy
    >= 0.95, in < 10 s."""
    corpus, config, elapsed = timed_full_run
    layout = Layout(config.out_dir)

    truth = load_truth_attributions(corpus)
    pipe = {}
    for role in config.roles:
        with open(layout.attributions(role), encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["source"], row["native_id"], row["role"])
                pipe[key] = set(row["agreement_ids"].split("|")) - {""}

    noise_free_truth = {k: v[0] for k, v in truth.items() if v[1]}
    true_positive = sum(
        1 for k, want in noise_free_truth.items() if want and pipe.get(k) == want
    )
    truth_positive = sum(1 for want in noise_free_truth.values() if bool(want))
    pipe_positive = sum(
        1 for k, got in pipe.items() if got and k in noise_free_truth
    )
    recall = true_positive / truth_positive if truth_positive else 1.0
    precision = true_positive / pipe_positive if pipe_positive else 1.0

    truth_xw = load_truth_crosswalk(corpus)
    with open(layout.crosswalk, encoding="utf-8") as fh:
        entries = list(csv.DictReader(fh))
    correct = sum(
        1 for e in entries if truth_xw.get((e["open_id"], e["scheme"])) == e["proprietary_id"]
    )
    accuracy = correct / len(entries) if entries else 0.0

    records = 0
    for s in config.sources:
        with open(layout.articles(s.label), encoding="utf-8") as fh:
            records += sum(1 for _ in fh)
    ok = (
        precision == 1.0
        and recall == 1.0
        and accuracy >= 0.95
        and elapsed < 10
        and records > 9000
    )
    report(
        "criterion 2 (planted truth end-to-end)",
        ok,
        f"precision={precision:.3f} recall={recall:.3f} "
        f"crosswalk_accuracy={accuracy:.3f} ({len(entries)} entries) "
        f"records={records} runtime={elapsed:.1f}s",
    )


# --- criterion 3: partition invariants -------------------------------------------------

def check_partition_invariants(layout: Layout):
    failures = []
    with open(layout.journal_volumes, encoding="utf-8") as fh:
        universe_rows = list(csv.DictReader(fh))
    with open(layout.intersections, encoding="utf-8") as fh:
        set_rows = list(csv.DictReader(fh))
    if sum(int(r["n_journals"]) for r in set_rows) != len(universe_rows):
        failures.append("upset journal counts do not sum to universe size")

    with open(layout.indicators, encoding="utf-8") as fh:
        indicator_rows = list(csv.DictReader(fh))
    for row in indicator_rows:
        chain = (int(row["n_ta_oa"]), int(row["n_oa"]), int(row["n_original"]), int(row["n_total"]))
        if not (chain[0] <= chain[1] <= chain[2] <= chain[3]):
            failures.append(f"count chain violated in {row}")
            break

    totals = defaultdict(lambda: [0, 0, 0, 0])
    globals_ = {}
    for row in indicator_rows:
        key = (row["year"], row["source"], row["role"])
        values = [int(row["n_total"]), int(row["n_original"]), int(row["n_oa"]), int(row["n_ta_oa"])]
        if row["group_kind"] == "PUBLISHER":
            cell = totals[key]
            for i, v in enumerate(values):
                cell[i] += v
        elif row["group_kind"] == "GLOBAL":
            globals_[key] = values
    for key, values in globals_.items():
        if totals[key] != values:
            failures.append(f"GLOBAL != sum(PUBLISHER) at {key}: {values} vs {totals[key]}")
            break
    return failures


def test_criterion_3_partition_invariants(pipeline_run, timed_full_run):
    """Exclusive UpSet journal counts partition the universe; indicator
    chains are ordered; GLOBAL equals the publisher sum. Zero tolerance."""
    failures = []
    for layout in (pipeline_run[0], Layout(timed_full_run[1].out_dir)):
        failures.extend(check_partition_invariants(layout))
    report("criterion 3 (partition invariants)", not failures, "; ".join(failures) or "exact")


# --- criterion 4: correlation correctness ------------------------------------------------

def test_criterion_4_correlation_correctness():
    identity = spearman(
        {f"k{i}": float(i) for i in range(8)}, {f"k{i}": float(i * 3) for i in range(8)}
    )
    reversed_ = spearman(
        {f"k{i}": float(i) for i in range(8)}, {f"k{i}": float(-i) for i in range(8)}
    )
    # hand-computed tied-rank oracle: x=(1,2,2,4) -> ranks (1,2.5,2.5,4),
    # y=(1,3,2,4) -> ranks (1,3,2,4), rho = 4.5/sqrt(4.5*5) = 3/sqrt(10)
    tied = spearman(
        {"a": 1.0, "b": 2.0, "c": 2.0, "d": 4.0},
        {"a": 1.0, "b": 3.0, "c": 2.0, "d": 4.0},
    )
    rng = random.Random(17)
    x = {f"k{i}": float(rng.randint(1, 500)) for i in range(40)}
    y = {f"k{i}": float(rng.randint(1, 500)) for i in range(40)}
    base = spearman(x, y)
    transformed = spearman({k: v**3 for k, v in x.items()}, y)

    checks = {
        "identity": abs(identity.rho - 1.0) < 1e-12,
        "reversal": abs(reversed_.rho + 1.0) < 1e-12,
        "tied oracle": abs(tied.rho - 3 / math.sqrt(10)) < 1e-9,
        "monotone invariance": abs(base.rho - transformed.rho) < 1e-12,
    }
    report(
        "criterion 4 (correlation correctness)",
        all(checks.values()),
        ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()),
    )


# --- criterion 5: mechanism reproduction ---------------------------------------------------

def publisher_shares(layout: Layout, source: str, publisher: str) -> list[float]:
    values = {}
    with open(layout.uptake_publisher, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if (
                row["source"] == source
                and row["publisher"] == publisher
                and row["role"] == "first"
                and row["oa_share"]
            ):
                values[int(row["year"])] = float(row["oa_share"])
    return [values[y] for y in sorted(values)]


def global_shares(layout: Layout, source: str) -> list[float]:
    values = {}
    with open(layout.uptake_global, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["source"] == source and row["role"] == "first" and row["oa_share"]:
                values[int(row["year"])] = float(row["oa_share"])
    return [values[y] for y in sorted(values)]


def test_criterion_5a_withheld_cc_metadata(tmp_path):
    """Withholding CC licenses from the open source for one publisher
    leaves that publisher's journals only in proprietary coverage sets."""
    corpus = tmp_path / "corpus"
    fixture.generate(
        fixture.FixtureParams(seed=11, withhold_cc_publisher="Boreal"), str(corpus)
    )
    config = replace(load_config(str(corpus / "config.json")), workers=1)
    pipeline.run(config)
    layout = Layout(config.out_dir)

    publishers = {}
    with open(layout.journals, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            publishers[row["issn_l"]] = row["publisher"]
    memberships = {}
    with open(layout.journal_volumes, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            memberships[row["issn_l"]] = set(row["membership"].split("|"))

    withheld = {j: m for j, m in memberships.items() if publishers.get(j) == "Boreal"}
    others = {j: m for j, m in memberships.items() if publishers.get(j) != "Boreal"}
    ok = (
        len(withheld) > 0
        and all("open" not in m for m in withheld.values())
        and any("open" in m for m in others.values())
    )
    report(
        "criterion 5a (publisher missing from open source)",
        ok,
        f"{len(withheld)} withheld-publisher journals, all proprietary-only",
    )


def test_criterion_5b_delayed_oa_divergence(tmp_path):
    """Delayed-OA licenses plus lenient labelling in one source reproduce
    inflated early uptake that converges toward the open source."""
    corpus = tmp_path / "corpus"
    fixture.generate(
        fixture.FixtureParams(seed=13, delayed_oa_publisher="Elbe"), str(corpus)
    )
    base_config = replace(load_config(str(corpus / "config.json")), workers=1)

    lenient_sources = tuple(
        replace(s, lenient_oa=True) if s.label == "srcB" else s
        for s in base_config.sources
    )
    plain = replace(base_config, out_dir=str(corpus / "out_plain"))
    lenient = replace(base_config, sources=lenient_sources, out_dir=str(corpus / "out_lenient"))
    pipeline.run(plain)
    pipeline.run(lenient)

    open_global = global_shares(Layout(lenient.out_dir), "open")
    open_shares = publisher_shares(Layout(lenient.out_dir), "open", "Elbe")
    lenient_shares = publisher_shares(Layout(lenient.out_dir), "srcB", "Elbe")
    plain_shares = publisher_shares(Layout(plain.out_dir), "srcB", "Elbe")

    gaps = [b - a for a, b in zip(open_shares, lenient_shares)]
    checks = {
        "open uptake grows every year": all(b > a for a, b in zip(open_global, open_global[1:])),
        "flagged source inflated in earliest year": gaps[0] > 0,
        "divergence shrinks over the window": gaps[-1] < gaps[0],
        "flag is the cause (plain source not inflated early)": lenient_shares[0] > plain_shares[0],
    }
    report(
        "criterion 5b (divergent early-uptake curve)",
        all(checks.values()),
        ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()),
    )


# --- criterion 6: determinism and scale -------------------------------------------------------

def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_criterion_6a_worker_count_invariance(tmp_path):
    corpus = tmp_path / "corpus"
    fixture.generate(fixture.FixtureParams(seed=3, n_articles=1000), str(corpus))
    digests = []
    for workers in (1, 2, 8):
        config = replace(
            load_config(str(corpus / "config.json")),
            workers=workers,
            out_dir=str(tmp_path / f"out_w{workers}"),
        )
        pipeline.run(config)
        digests.append(tree_digest(config.out_dir))
    report(
        "criterion 6a (byte-identical at 1/2/8 workers)",
        len(set(digests)) == 1,
        digests[0][:16],
    )


_CONSUMER = """
import json, resource, sys, time
from hybridoa.ingest import load_article_stream

path = sys.argv[1]
start = time.perf_counter()
stream, manifest = load_article_stream(path, "open")
count = sum(1 for _ in stream)
elapsed = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"records": count, "rejects": manifest.reject_count,
                  "seconds": elapsed, "peak_kb": peak_kb}))
"""


def ingest_in_subprocess(path: str) -> dict:
    # the child imports hybridoa from where this process found it
    package_root = os.path.dirname(os.path.dirname(fixture.__file__))
    pythonpath = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _CONSUMER, path],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    return json.loads(proc.stdout)


def test_criterion_6b_streaming_scale(tmp_path):
    """1,000,000 interchange lines ingest in < 60 s with peak memory
    growing <= 2x when the file grows 10x."""
    small = str(tmp_path / "bulk_100k.ndjson")
    large = str(tmp_path / "bulk_1m.ndjson")
    write_bulk_articles(small, 100_000)
    write_bulk_articles(large, 1_000_000)

    small_run = ingest_in_subprocess(small)
    large_run = ingest_in_subprocess(large)
    ratio = large_run["peak_kb"] / small_run["peak_kb"]
    ok = (
        large_run["records"] == 1_000_000
        and large_run["rejects"] == 0
        and large_run["seconds"] < 60
        and ratio <= 2.0
    )
    report(
        "criterion 6b (1M-line ingest, flat memory)",
        ok,
        f"1M lines in {large_run['seconds']:.1f}s, "
        f"peak {small_run['peak_kb'] / 1024:.0f}MB -> {large_run['peak_kb'] / 1024:.0f}MB "
        f"(x{ratio:.2f})",
    )
