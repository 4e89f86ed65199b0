#!/usr/bin/env python3
"""Self-test of the benchmark's checks at tiny scale.

    python3 benchmark/selftest.py

Builds a 600-work fixture and its artifact tree at workers=1 and 2,
shows that every check passes on the untouched outputs, then tampers
with one artifact at a time and shows that the matching check turns
exactly that operation into a failure. Exits 0 when every case holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402


def _edit_csv(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    edit(header, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")


def flip_ta_enabled(header, rows):
    col = header.index("ta_enabled")
    row = next(r for r in rows if r[col] == "true")
    row[col] = "false"


def off_by_one_indicator(header, rows):
    kind, n_oa = header.index("group_kind"), header.index("n_oa")
    row = next(r for r in rows if r[kind] == "PUBLISHER" and int(r[n_oa]) > 0)
    row[n_oa] = str(int(row[n_oa]) - 1)


def swap_crosswalk_entry(header, rows):
    scheme, prop = header.index("scheme"), header.index("proprietary_id")
    first = rows[0]
    second = next(r for r in rows if r[scheme] == first[scheme] and r[prop] != first[prop])
    first[prop], second[prop] = second[prop], first[prop]


def change_rho(header, rows):
    col = header.index("rho")
    rows[0][col] = f"{float(rows[0][col]) - 0.01:.6f}"


TAMPERS = (
    ("flipped ta_enabled", "attribute", ("attribute", "attributions_first.csv"), flip_ta_enabled),
    ("off-by-one indicator count", "aggregate", ("aggregate", "indicators.csv"), off_by_one_indicator),
    ("swapped crosswalk entry", "reconcile", ("reconcile", "crosswalk.csv"), swap_crosswalk_entry),
    ("changed rho", "compare", ("compare", "correlations.csv"), change_rho),
)


def main() -> int:
    bench = run.Run("selftest", seed=5, seconds=1, workload=run.Workload(600, 1, 40, True))
    results = []

    def case(name: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"[selftest] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))

    try:
        bench.setup(1)
        # thresholds low enough that a tiny corpus yields correlation rows
        config_path = os.path.join(bench.corpus, "config.json")
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        config.update(correlation_min_articles=5, correlation_min_ta_oa=1)
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        bench.truth = checks.Truth(bench.corpus)

        trees = {}
        for workers in (1, 2):
            trees[workers] = os.path.join(bench.work, f"tree_w{workers}")
            result = bench.probe({"mode": "run", "out_dir": trees[workers], "workers": workers})
            if result is None or result["error"]:
                case(f"pipeline run at workers={workers}", False, "\n".join(bench.messages))
                return 1
        tree = trees[1]

        clean = checks.check_tree(bench.truth, tree)
        case("clean tree passes every check", not any(clean.values()), json.dumps(clean)[:300])
        with open(os.path.join(tree, "compare", "correlations.csv"), encoding="utf-8") as fh:
            case("tiny corpus has correlation rows", len(fh.readlines()) > 1)
        identical = checks.compare_trees(trees[2], tree)
        case("workers=2 tree equals workers=1 tree", not any(identical.values()))

        for name, stage, relpath, edit in TAMPERS:
            copy = os.path.join(bench.work, "tampered")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(tree, copy)
            _edit_csv(os.path.join(copy, *relpath), edit)
            failed = checks.failed_stages(copy, False, checks.check_tree(bench.truth, copy))
            case(f"{name} fails {stage} only", failed == [stage], f"failed stages {failed}")

        with open(os.path.join(trees[2], "classify", "articles_srcA.ndjson"), "r+b") as fh:
            fh.seek(10)
            byte = fh.read(1)
            fh.seek(10)
            fh.write(b"X" if byte != b"X" else b"Y")
        failed = checks.failed_stages(trees[2], False, checks.compare_trees(trees[2], tree))
        case("changed byte in the workers=2 tree fails classify only", failed == ["classify"], f"{failed}")

        before = bench.failed
        result = bench.lookups(tree, bench.round_dois(0))
        case(
            "clean explain traces pass",
            result is not None and bench.failed == before and bench.attempted == 40,
            "; ".join(bench.messages[-3:]),
        )
        attributions = {}
        for role in bench.truth.roles:
            attributions.update(checks.attribution_rows(tree, role))
        index, text = next(
            (i, t) for i, t in enumerate(result["texts"]) if "countable=yes hybrid_oa=yes" in t
        )
        tampered = text.replace("countable=yes hybrid_oa=yes", "countable=yes hybrid_oa=no", 1)
        problems = checks.check_explain(bench.truth, attributions, bench.round_dois(0)[index], tampered)
        case("explain trace with a wrong flag fails its lookup", bool(problems), "; ".join(problems[:1]))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
