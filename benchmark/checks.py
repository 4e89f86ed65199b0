"""Output checks made apart from the engine.

Everything here reads the fixture's planted truth, its raw inputs and
the artifact tree with `csv`/`json` only; nothing imports `hybridoa`.
Each check names the stage whose outputs it judges, so a failed check
turns that stage (one benchmark operation) into a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from collections import defaultdict

STAGES = ("ingest", "classify", "reconcile", "attribute", "aggregate", "compare")


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _ndjson(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _split_ids(text: str) -> frozenset[str]:
    return frozenset(x for x in text.split("|") if x)


def tree_digest(root: str) -> str:
    """sha256 over every relative path and file content under `root`."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, filenames in os.walk(root)
        for name in filenames
    )


class Truth:
    """The fixture's planted truth plus the raw facts a recount needs."""

    def __init__(self, corpus: str):
        with open(os.path.join(corpus, "config.json"), encoding="utf-8") as fh:
            self.config = json.load(fh)
        self.sources = [s["label"] for s in self.config["sources"]]
        self.open_source = next(s["label"] for s in self.config["sources"] if s.get("open_baseline"))
        self.roles = list(self.config["roles"])
        self.years = tuple(self.config["years"])

        self.labels = {
            (r["source"], r["native_id"]): r
            for r in _csv_rows(os.path.join(corpus, "truth", "labels.csv"))
        }
        self.by_doi: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for (source, native_id), row in self.labels.items():
            if row["doi"]:
                self.by_doi[row["doi"]].append((source, native_id))
        self.attributions = {
            (r["source"], r["native_id"], r["role"]): (
                _split_ids(r["agreement_ids"]),
                r["noise_free"] == "true",
            )
            for r in _csv_rows(os.path.join(corpus, "truth", "attributions.csv"))
        }
        self.crosswalk = {
            (r["open_id"], r["scheme"]): r["proprietary_id"]
            for r in _csv_rows(os.path.join(corpus, "truth", "crosswalk.csv"))
        }

        links = {
            r["issn"]: r["issn_l"]
            for r in _csv_rows(os.path.join(corpus, self.config["issn_links"]))
        }
        dump_journals = {
            links.get(r["issn"], r["issn"])
            for r in _csv_rows(os.path.join(corpus, self.config["agreement_dump"]))
        }
        fully_oa = set()
        for name in self.config["fully_oa_lists"]:
            with open(os.path.join(corpus, name), encoding="utf-8") as fh:
                for line in fh:
                    issn = line.split("#", 1)[0].strip()
                    if issn:
                        fully_oa.add(links.get(issn, issn))
        # A journal is in scope (hybrid) when the agreement dump names it
        # and no fully-OA list does.
        self.hybrid_journals = dump_journals - fully_oa

        self.input_lines: dict[str, int] = {}
        self.has_corresponding: dict[str, bool] = {}
        for source in self.config["sources"]:
            records = _ndjson(os.path.join(corpus, source["articles"]))
            self.input_lines[source["label"]] = len(records)
            self.has_corresponding[source["label"]] = any(
                a.get("corresponding") is not None for r in records for a in r.get("authors") or ()
            )

    def hybrid_oa(self, key: tuple[str, str]) -> bool:
        row = self.labels[key]
        return row["countable"] == "true" and row["is_oa"] == "true"

    @property
    def total_input_lines(self) -> int:
        return sum(self.input_lines.values())


# --- stage checks ---------------------------------------------------------


def check_ingest(truth: Truth, tree: str) -> list[str]:
    """records + rejects = input lines, and the records file holds the records."""
    with open(os.path.join(tree, "manifests", "ingest.json"), encoding="utf-8") as fh:
        counters = json.load(fh)["counters"]
    failures = []
    for source in truth.sources:
        records, rejects = counters[f"records_{source}"], counters[f"rejects_{source}"]
        if records + rejects != truth.input_lines[source]:
            failures.append(
                f"ingest {source}: {records} records + {rejects} rejects != "
                f"{truth.input_lines[source]} input lines"
            )
        with open(os.path.join(tree, "ingest", f"articles_{source}.ndjson"), encoding="utf-8") as fh:
            written = sum(1 for line in fh if line.strip())
        if written != records:
            failures.append(f"ingest {source}: {written} lines written, manifest says {records}")
    return failures


def classified(tree: str, source: str) -> list[dict]:
    return _ndjson(os.path.join(tree, "classify", f"articles_{source}.ndjson"))


def check_classify(truth: Truth, tree: str) -> list[str]:
    """Every record's countable and is_hybrid_oa equal the planted labels."""
    failures = []
    seen = 0
    for source in truth.sources:
        for obj in classified(tree, source):
            key = (source, obj["record"]["native_id"])
            seen += 1
            if key not in truth.labels:
                failures.append(f"classify: {key} has no truth label")
                continue
            want_countable = truth.labels[key]["countable"] == "true"
            if obj["countable"] != want_countable or obj["is_hybrid_oa"] != truth.hybrid_oa(key):
                failures.append(
                    f"classify: {key} countable={obj['countable']} hybrid_oa={obj['is_hybrid_oa']},"
                    f" truth countable={want_countable} hybrid_oa={truth.hybrid_oa(key)}"
                )
    if seen != len(truth.labels):
        failures.append(f"classify: {seen} records classified, truth has {len(truth.labels)}")
    return failures[:20]


def recount_crosswalk(truth: Truth, tree: str) -> dict[tuple[str, str], tuple[str, int]]:
    """DOI-bridge recount: (open_id, scheme) -> (winning proprietary id, support).

    Records are joined on DOIs that occur once on each side; every pair of
    the first authors' open and proprietary IDs counts once per DOI; the
    most frequent partner wins, ties to the smallest ID, support >= min.
    """

    def first_authors(source: str) -> dict[str, list[str]]:
        unique: dict[str, list[str]] = {}
        repeated: set[str] = set()
        for obj in classified(tree, source):
            record = obj["record"]
            doi = record.get("doi")
            if not doi or doi in repeated:
                continue
            if doi in unique:
                repeated.add(doi)
                del unique[doi]
                continue
            first = [a for a in record.get("authors") or () if a["position"] == 1]
            unique[doi] = first[0]["org_ids"] if first else None
        return unique

    open_side = first_authors(truth.open_source)
    tallies: dict[tuple[str, str], int] = defaultdict(int)
    for source in truth.sources:
        if source == truth.open_source:
            continue
        for doi, prop_ids in first_authors(source).items():
            open_ids = open_side.get(doi)
            if open_ids is None or prop_ids is None:
                continue
            for o in open_ids:
                if not o.startswith("ror:"):
                    continue
                for p in prop_ids:
                    if not p.startswith("ror:"):
                        tallies[(o, p)] += 1
    best: dict[tuple[str, str], tuple[int, str]] = {}
    for (o, p), count in tallies.items():
        key = (o.split(":", 1)[1], p.split(":", 1)[0])
        candidate = (-count, p.split(":", 1)[1])
        if key not in best or candidate < best[key]:
            best[key] = candidate
    min_support = int(truth.config.get("min_support", 1))
    return {key: (p, -neg) for key, (neg, p) in best.items() if -neg >= min_support}


def check_reconcile(truth: Truth, tree: str) -> list[str]:
    """Crosswalk equals a DOI-bridge recount and is >= 95 % correct vs truth."""
    entries = _csv_rows(os.path.join(tree, "reconcile", "crosswalk.csv"))
    got = {(e["open_id"], e["scheme"]): (e["proprietary_id"], int(e["support"])) for e in entries}
    want = recount_crosswalk(truth, tree)
    failures = []
    if len(got) != len(entries):
        failures.append("reconcile: duplicate (open_id, scheme) entries")
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            failures.append(f"reconcile: crosswalk {key} = {got.get(key)}, recount {want.get(key)}")
    correct = sum(1 for key, (p, _) in got.items() if truth.crosswalk.get(key) == p)
    accuracy = correct / len(got) if got else 0.0
    if accuracy < 0.95:
        failures.append(f"reconcile: crosswalk accuracy {accuracy:.3f} < 0.95")
    return failures[:20]


def attribution_rows(tree: str, role: str) -> dict[tuple[str, str, str], tuple[bool, frozenset[str]]]:
    return {
        (r["source"], r["native_id"], r["role"]): (r["ta_enabled"] == "true", _split_ids(r["agreement_ids"]))
        for r in _csv_rows(os.path.join(tree, "attribute", f"attributions_{role}.csv"))
    }


def check_attribute(truth: Truth, tree: str) -> list[str]:
    """Precision = recall = 1 on noise-free truth rows; flags agree with IDs."""
    failures = []
    pipe: dict = {}
    for role in truth.roles:
        for key, (ta, ids) in attribution_rows(tree, role).items():
            if ta != bool(ids):
                failures.append(f"attribute: {key} ta_enabled={ta} with agreement_ids={sorted(ids)}")
            pipe[key] = ids if ta else frozenset()
    noise_free = {k: ids for k, (ids, clean) in truth.attributions.items() if clean}
    true_pos = sum(1 for k, ids in noise_free.items() if ids and pipe.get(k) == ids)
    truth_pos = sum(1 for ids in noise_free.values() if ids)
    pipe_pos = sum(1 for k, ids in pipe.items() if ids and k in noise_free)
    recall = true_pos / truth_pos if truth_pos else 1.0
    precision = true_pos / pipe_pos if pipe_pos else 1.0
    if precision != 1.0 or recall != 1.0:
        failures.append(f"attribute: precision={precision:.4f} recall={recall:.4f} on noise-free rows")
    return failures[:20]


def recount_indicators(truth: Truth) -> dict[tuple, tuple[int, int, int, int]]:
    """GLOBAL and PUBLISHER cells recounted from truth labels and attributions."""
    cells: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    lo, hi = truth.years
    for role in truth.roles:
        for (source, native_id), row in truth.labels.items():
            if role != "first" and not truth.has_corresponding[source]:
                continue
            year = int(row["year"])
            if row["issn_l"] not in truth.hybrid_journals or not lo <= year <= hi:
                continue
            countable = row["countable"] == "true"
            oa = countable and row["is_oa"] == "true"
            ta = oa and bool(truth.attributions.get((source, native_id, role), (None,))[0])
            for kind, key in (("GLOBAL", ""), ("PUBLISHER", row["publisher"])):
                cell = cells[(str(year), source, role, kind, key)]
                cell[0] += 1
                cell[1] += countable
                cell[2] += oa
                cell[3] += ta
    return {key: tuple(cell) for key, cell in cells.items()}


def _share(num: int, den: int) -> str:
    return "" if den == 0 else f"{num / den:.6f}"


def check_aggregate(truth: Truth, tree: str) -> list[str]:
    """GLOBAL/PUBLISHER rows equal a recount; count chains and partitions hold."""
    rows = _csv_rows(os.path.join(tree, "aggregate", "indicators.csv"))
    failures = []
    got = {}
    publisher_sums: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    globals_ = {}
    for r in rows:
        counts = (int(r["n_total"]), int(r["n_original"]), int(r["n_oa"]), int(r["n_ta_oa"]))
        if not counts[3] <= counts[2] <= counts[1] <= counts[0]:
            failures.append(f"aggregate: count chain violated in {r}")
        if r["oa_share"] != _share(counts[2], counts[1]) or r["ta_share_of_oa"] != _share(counts[3], counts[2]):
            failures.append(f"aggregate: shares do not match counts in {r}")
        if r["group_kind"] in ("GLOBAL", "PUBLISHER"):
            got[(r["year"], r["source"], r["role"], r["group_kind"], r["group_key"])] = counts
        cell_key = (r["year"], r["source"], r["role"])
        if r["group_kind"] == "PUBLISHER":
            cell = publisher_sums[cell_key]
            for i, v in enumerate(counts):
                cell[i] += v
        elif r["group_kind"] == "GLOBAL":
            globals_[cell_key] = list(counts)
    for key, counts in globals_.items():
        if publisher_sums[key] != counts:
            failures.append(f"aggregate: GLOBAL != sum(PUBLISHER) at {key}")
    want = recount_indicators(truth)
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            failures.append(f"aggregate: {key} = {got.get(key)}, recount {want.get(key)}")
    return failures[:20]


def _average_ranks(values: list[float]) -> list[float]:
    ordered = sorted(values)
    first: dict[float, int] = {}
    last: dict[float, int] = {}
    for position, value in enumerate(ordered, 1):
        first.setdefault(value, position)
        last[value] = position
    return [(first[v] + last[v]) / 2 for v in values]


def plain_spearman(pairs: list[tuple[float, float]]) -> float | None:
    if len(pairs) < 2:
        return None
    rx = _average_ranks([x for x, _ in pairs])
    ry = _average_ranks([y for _, y in pairs])
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def check_compare(truth: Truth, tree: str) -> list[str]:
    """Correlations match a tied-rank recount of the scatter; UpSet partitions."""
    failures = []
    compare = os.path.join(tree, "compare")
    groups: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for r in _csv_rows(os.path.join(compare, "country_scatter.csv")):
        key = (r["metric"], r["x_source"], r["x_role"], r["y_source"], r["y_role"])
        groups[key].append((float(r["x_value"]), float(r["y_value"])))
    want = {}
    for key, pairs in groups.items():
        rho = plain_spearman(pairs)
        if rho is not None:
            want[key] = (len(pairs), rho)
    got = {}
    for r in _csv_rows(os.path.join(compare, "correlations.csv")):
        key = (r["metric"], r["x_source"], r["x_role"], r["y_source"], r["y_role"])
        got[key] = (int(r["n"]), float(r["rho"]))
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key), want.get(key)
        if g is None or w is None or g[0] != w[0] or abs(g[1] - w[1]) > 1.5e-6:
            failures.append(f"compare: correlation {key} = {g}, recount {w}")

    universe = _csv_rows(os.path.join(compare, "journal_volumes.csv"))
    sets = _csv_rows(os.path.join(compare, "intersections.csv"))
    if sum(int(r["n_journals"]) for r in sets) != len(universe):
        failures.append("compare: UpSet journal counts do not sum to the universe size")
    return failures[:20]


STAGE_CHECKS = {
    "ingest": check_ingest,
    "classify": check_classify,
    "reconcile": check_reconcile,
    "attribute": check_attribute,
    "aggregate": check_aggregate,
    "compare": check_compare,
}


def check_tree(truth: Truth, tree: str) -> dict[str, list[str]]:
    """Stage -> failure messages (empty when the stage's outputs are right)."""
    out = {}
    for stage, check in STAGE_CHECKS.items():
        try:
            out[stage] = check(truth, tree)
        except (OSError, KeyError, ValueError) as exc:
            out[stage] = [f"{stage}: unreadable output ({type(exc).__name__}: {exc})"]
    return out


def failed_stages(tree: str, raised: bool, failures: dict[str, list[str]]) -> list[str]:
    """Stages that count as failed operations.

    A stage fails when its outputs failed a check, or when the run raised
    before the stage wrote its manifest (then every later stage fails too).
    """
    out = []
    broken = False
    for stage in STAGES:
        if raised and not os.path.exists(os.path.join(tree, "manifests", f"{stage}.json")):
            broken = True
        if broken or failures.get(stage):
            out.append(stage)
    return out


def stage_files(tree: str, stage: str) -> list[str]:
    paths = [os.path.join("manifests", f"{stage}.json")]
    for dirname in [stage] + (["rejects"] if stage == "ingest" else []):
        base = os.path.join(tree, dirname)
        for dirpath, _, filenames in os.walk(base):
            paths.extend(os.path.relpath(os.path.join(dirpath, f), tree) for f in filenames)
    return sorted(paths)


def compare_trees(tree: str, reference: str) -> dict[str, list[str]]:
    """Stage -> files whose bytes differ from the reference tree."""
    out = {}
    for stage in STAGES:
        names = sorted(set(stage_files(tree, stage)) | set(stage_files(reference, stage)))
        differing = []
        for name in names:
            a, b = os.path.join(tree, name), os.path.join(reference, name)
            if not (os.path.exists(a) and os.path.exists(b)):
                differing.append(name)
                continue
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    differing.append(name)
        out[stage] = [f"{stage}: {name} differs from the workers=1 tree" for name in differing]
    return out


# --- explain ----------------------------------------------------------------

_BLOCK = re.compile(r"^\[(?P<source>[^\]]+)\] native_id=(?P<native_id>\S+)$")
_FLAGS = re.compile(r"countable=(?P<countable>yes|no) hybrid_oa=(?P<hybrid_oa>yes|no)")
_ROLE = re.compile(r"^  role (?P<role>\S+): (?P<rest>.*)$")


def parse_explain(text: str) -> dict[tuple[str, str], dict]:
    """(source, native_id) -> {countable, hybrid_oa, eligible, roles}.

    roles maps a role to None (no author data) or the frozenset of
    agreement IDs the trace reports as enabling the article.
    """
    blocks: dict[tuple[str, str], dict] = {}
    current = None
    role = None
    for line in text.splitlines()[1:]:
        block = _BLOCK.match(line)
        if block:
            current = {"countable": None, "hybrid_oa": None, "eligible": True, "roles": {}}
            blocks[(block["source"], block["native_id"])] = current
            role = None
            continue
        if current is None:
            continue
        flags = _FLAGS.search(line)
        if flags and line.startswith("  year="):
            current["countable"] = flags["countable"] == "yes"
            current["hybrid_oa"] = flags["hybrid_oa"] == "yes"
        elif line.startswith("  not eligible for attribution"):
            current["eligible"] = False
        elif _ROLE.match(line):
            match = _ROLE.match(line)
            role = match["role"]
            current["roles"][role] = None if match["rest"] == "no author data" else frozenset()
        elif role is not None and line.startswith("    TA-enabled via "):
            current["roles"][role] = frozenset(line[len("    TA-enabled via "):].split(", "))
    return blocks


def check_explain(
    truth: Truth,
    attributions: dict[tuple[str, str, str], tuple[bool, frozenset[str]]],
    doi: str,
    text: str,
) -> list[str]:
    """One trace against the truth labels, the attributions artifact and,
    on noise-free rows, the attribution truth."""
    failures = []
    if not text.startswith(f"DOI {doi}\n"):
        return [f"explain {doi}: trace does not start with the DOI"]
    blocks = parse_explain(text)
    holders = set(truth.by_doi.get(doi, ()))
    if set(blocks) != holders:
        failures.append(f"explain {doi}: sources {sorted(blocks)} != holders {sorted(holders)}")
    for key in sorted(holders & set(blocks)):
        block = blocks[key]
        want_countable = truth.labels[key]["countable"] == "true"
        want_oa = truth.hybrid_oa(key)
        if block["countable"] != want_countable or block["hybrid_oa"] != want_oa:
            failures.append(
                f"explain {doi} {key}: countable={block['countable']} hybrid_oa={block['hybrid_oa']},"
                f" truth {want_countable}/{want_oa}"
            )
        if block["eligible"] != want_oa:
            failures.append(f"explain {doi} {key}: eligible={block['eligible']}, truth {want_oa}")
        for role in truth.roles:
            row = attributions.get(key + (role,))
            if not block["eligible"]:
                if row is not None:
                    failures.append(f"explain {doi} {key} {role}: ineligible but attributed")
                continue
            if role not in block["roles"]:
                failures.append(f"explain {doi} {key}: no line for role {role}")
                continue
            shown = block["roles"][role]
            if shown is None:
                if row is not None:
                    failures.append(f"explain {doi} {key} {role}: no author data, artifact has a row")
                continue
            if row is None:
                failures.append(f"explain {doi} {key} {role}: missing from the attributions artifact")
                continue
            if bool(shown) != row[0] or shown != row[1]:
                failures.append(
                    f"explain {doi} {key} {role}: trace {sorted(shown)} != artifact {row[0]} {sorted(row[1])}"
                )
            want = truth.attributions.get(key + (role,))
            if want is not None and want[1] and shown != want[0]:
                failures.append(f"explain {doi} {key} {role}: trace {sorted(shown)} != truth {sorted(want[0])}")
    return failures
