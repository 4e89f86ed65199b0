"""Stage orchestration: ingest -> classify -> reconcile -> attribute ->
aggregate -> compare.

Each stage reads the previous stage's artifacts, writes its own plus a
run manifest, and never mutates inputs. Classification and attribution
apply their pure per-record functions over chunked record streams, so a
worker pool changes wall time but never output bytes.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import pickle
import re
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from typing import Callable, Iterable, Iterator

from . import analytics, artifacts, attribute, classify, ingest, reconcile
from .artifacts import Layout
from .config import PipelineConfig
from .errors import DependencyError, UnknownDoi
from .identifiers import normalize_doi, org_value
from .model import (
    ClassifiedArticle,
    GROUP_GLOBAL,
    GROUP_PUBLISHER,
    IndicatorRow,
    Journal,
    ROLE_FIRST,
)

log = logging.getLogger(__name__)

CHUNK_LINES = 2000


def run(config: PipelineConfig, stages: Iterable[str] | None = None) -> list[str]:
    """Run the requested stages in dependency order; returns what ran."""
    wanted = set(stages) if stages else set(artifacts.STAGES)
    unknown = wanted - set(artifacts.STAGES)
    if unknown:
        raise DependencyError(f"unknown stage(s): {', '.join(sorted(unknown))}")
    executed = []
    for stage in artifacts.STAGES:
        if stage not in wanted:
            continue
        log.info("stage %s", stage)
        STAGE_FUNCTIONS[stage](config)
        executed.append(stage)
    return executed


def _require(paths: Iterable[str], stage: str) -> None:
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise DependencyError(
            f"stage {stage!r} needs artifacts that do not exist: {', '.join(missing)}"
        )


# --- chunked worker execution ----------------------------------------------

_WORKER_CTX = None


def _init_worker(ctx_bytes: bytes) -> None:
    global _WORKER_CTX
    _WORKER_CTX = pickle.loads(ctx_bytes)


def _map_chunks(
    fn: Callable,
    chunks: Iterable,
    ctx,
    workers: int,
) -> Iterator:
    """Order-preserving chunk map with a bounded number of in-flight tasks.

    workers <= 1 runs inline; more workers fan out to processes. Either
    path applies the same function in the same order, so results are
    worker-count-invariant.
    """
    global _WORKER_CTX
    if workers <= 1:
        _WORKER_CTX = ctx
        for chunk in chunks:
            yield fn(chunk)
        return
    ctx_bytes = pickle.dumps(ctx)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(ctx_bytes,)
    ) as pool:
        pending = []
        iterator = iter(chunks)
        for chunk in iterator:
            pending.append(pool.submit(fn, chunk))
            if len(pending) >= workers * 2:
                yield pending.pop(0).result()
        for future in pending:
            yield future.result()


def _chunked_lines(path: str, size: int = CHUNK_LINES) -> Iterator[list[str]]:
    chunk: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            chunk.append(line)
            if len(chunk) >= size:
                yield chunk
                chunk = []
    if chunk:
        yield chunk


def _effective_workers(config: PipelineConfig) -> int:
    if config.workers is not None:
        return max(1, int(config.workers))
    return os.cpu_count() or 1


# --- ingest ------------------------------------------------------------------

def run_ingest(config: PipelineConfig) -> None:
    """Parse all inputs into normalized artifacts with reject sidecars."""
    layout = Layout(config.out_dir)
    counters: dict = {}
    inputs: list[dict] = []
    outputs: list[str] = []

    with ingest.RejectLog(layout.reject_log("issn_links")) as rej:
        links = ingest.load_issn_link_table(config.issn_links, rej)
        counters["issn_links_rejects"] = rej.count
    inputs.append(artifacts.describe_input(config.issn_links))
    counters["issn_links"] = len(links)

    with ingest.RejectLog(layout.reject_log("fully_oa")) as rej:
        fully_oa = ingest.load_fully_oa_lists(config.fully_oa_lists, links, rej)
        counters["fully_oa_rejects"] = rej.count
    inputs.extend(artifacts.describe_input(p) for p in config.fully_oa_lists)
    counters["fully_oa_journals"] = len(fully_oa)

    aliases = None
    if config.publisher_aliases:
        with ingest.RejectLog(layout.reject_log("publisher_aliases")) as rej:
            aliases = ingest.load_publisher_aliases(config.publisher_aliases, rej)
        inputs.append(artifacts.describe_input(config.publisher_aliases))

    with ingest.RejectLog(layout.reject_log("agreement_dump")) as rej:
        dump = ingest.load_agreement_dump(config.agreement_dump, links, aliases, rej)
        counters["agreement_dump_rejects"] = rej.count
    inputs.append(artifacts.describe_input(config.agreement_dump))

    with ingest.RejectLog(layout.reject_log("durations")) as rej:
        agreements = ingest.load_durations(config.durations, dump.agreements, rej)
        counters["durations_rejects"] = rej.count
    inputs.append(artifacts.describe_input(config.durations))
    counters["agreements_undated"] = len(dump.agreements)
    counters["agreements"] = len(agreements)

    journals = ingest.build_journals(dump.publisher_votes, dump.variants, fully_oa)
    counters["journals"] = len(journals)

    with ingest.RejectLog(layout.reject_log("institutions")) as rej:
        institutions = ingest.load_institutions(config.institutions, rej)
        counters["institutions_rejects"] = rej.count
    inputs.append(artifacts.describe_input(config.institutions))
    counters["institutions"] = len(institutions)

    artifacts.write_agreements(layout.agreements, agreements)
    outputs.append(layout.agreements)
    artifacts.write_csv(
        layout.journals,
        ("issn_l", "publisher", "is_hybrid", "issn_variants"),
        [
            (j.issn_l, j.publisher, str(j.is_hybrid).lower(), "|".join(sorted(j.issn_variants)))
            for j in sorted(journals.values(), key=lambda j: j.issn_l)
        ],
    )
    outputs.append(layout.journals)
    artifacts.write_institutions(layout.institutions, institutions)
    outputs.append(layout.institutions)

    for source in config.sources:
        path = layout.articles(source.label)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with ingest.RejectLog(layout.reject_log(f"articles_{source.label}")) as rej:
            stream, manifest = ingest.load_article_stream(
                source.articles, source.label, links, rej
            )
            with open(path, "w", encoding="utf-8", newline="") as fh:
                for record in stream:
                    fh.write(artifacts.dump_canonical(artifacts.record_to_dict(record)))
                    fh.write("\n")
        inputs.append(artifacts.describe_input(source.articles, rows=manifest.total_lines))
        outputs.append(path)
        counters[f"records_{source.label}"] = manifest.record_count
        counters[f"rejects_{source.label}"] = manifest.reject_count

    artifacts.write_manifest(layout, "ingest", config.digest(), inputs, outputs, counters)


# --- classify ----------------------------------------------------------------

def _load_journal_table(layout: Layout) -> dict[str, Journal]:
    journals: dict[str, Journal] = {}
    with open(layout.journals, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            journals[row["issn_l"]] = Journal(
                issn_l=row["issn_l"],
                issn_variants=frozenset(v for v in row["issn_variants"].split("|") if v),
                publisher=row["publisher"],
                is_hybrid=row["is_hybrid"] == "true",
            )
    return journals


def _classifier_config(config: PipelineConfig) -> classify.ClassifierConfig:
    policies = {
        s.label: classify.SourcePolicy(
            mode=s.doc_class_mode,
            allowlist=frozenset(c.casefold() for c in s.doc_class_allowlist),
            journal_article_classes=frozenset(
                c.casefold() for c in s.journal_article_classes
            ),
        )
        for s in config.sources
    }
    return classify.ClassifierConfig(
        policies=policies,
        paratext_patterns=classify.load_paratext_patterns(config.paratext_patterns),
        cc_license_re=re.compile(config.cc_license_pattern, re.IGNORECASE),
        user_license_re=re.compile(config.user_license_pattern, re.IGNORECASE),
        license_grace_days=config.license_grace_days,
        lenient_oa_sources=frozenset(s.label for s in config.sources if s.lenient_oa),
    )


def _classify_chunk(item: tuple[str, list[str]]) -> tuple[str, list[str]]:
    source, lines = item
    cfg, journals = _WORKER_CTX
    out = []
    for line in lines:
        record = artifacts.record_from_dict(json.loads(line), source)
        journal = journals.get(record.journal_issn_l)
        out.append(artifacts.classified_to_line(classify.classify_article(record, journal, cfg)))
    return source, out


def _source_chunks(config: PipelineConfig, path_of: Callable[[str], str]) -> Iterator:
    """(source label, lines) chunks of every source's file, in config order."""
    for source in config.sources:
        for chunk in _chunked_lines(path_of(source.label)):
            yield source.label, chunk


def run_classify(config: PipelineConfig) -> None:
    """Apply all classification rules to every ingested record.

    One chunk map covers every source; each result goes to its source's file.
    """
    layout = Layout(config.out_dir)
    needed = [layout.journals] + [layout.articles(s.label) for s in config.sources]
    _require(needed, "classify")
    journals = _load_journal_table(layout)
    cfg = _classifier_config(config)
    workers = _effective_workers(config)
    inputs = [artifacts.describe_input(p) for p in needed]
    outputs = [layout.classified(s.label) for s in config.sources]
    rows = {s.label: 0 for s in config.sources}

    with ExitStack() as stack:
        files = {}
        for source, path in zip(config.sources, outputs):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            files[source.label] = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
        chunks = _source_chunks(config, layout.articles)
        for label, lines in _map_chunks(_classify_chunk, chunks, (cfg, journals), workers):
            fh = files[label]
            for line in lines:
                fh.write(line)
                fh.write("\n")
            rows[label] += len(lines)

    counters = {f"classified_{label}": n for label, n in rows.items()}
    artifacts.write_manifest(layout, "classify", config.digest(), inputs, outputs, counters)


# --- reconcile ----------------------------------------------------------------

def _first_author_ids(layout: Layout, label: str, open_side: bool) -> reconcile.Projection:
    records = (c.record for c in artifacts.iter_classified(layout.classified(label), label))
    return reconcile.first_author_ids(records, open_side)


def run_reconcile(config: PipelineConfig) -> None:
    """Build the open/proprietary crosswalk by DOI bridging, plus an audit sample.

    The open side is projected once and bridged with each proprietary
    source in turn; every source's pairs add to one tally.
    """
    layout = Layout(config.out_dir)
    open_label = config.open_source
    needed = [layout.classified(s.label) for s in config.sources]
    _require(needed, "reconcile")
    counters: dict = {}

    open_ids = _first_author_ids(layout, open_label, open_side=True)
    counts: Counter = Counter()
    examples: dict = {}
    for source in config.sources:
        if source.label == open_label:
            continue
        prop_ids = _first_author_ids(layout, source.label, open_side=False)
        bridge = reconcile.build_bridge(open_ids, prop_ids)
        counters[f"bridged_{source.label}"] = len(bridge)
        examples.update(reconcile.tally_pairs(bridge, open_ids, prop_ids, counts))

    crosswalk = reconcile.select_crosswalk(counts, config.min_support)
    counters["pairs"] = len(counts)
    counters["crosswalk_entries"] = len(crosswalk)
    artifacts.write_crosswalk(layout.crosswalk, crosswalk)

    k = min(config.audit_sample_size, len(crosswalk))
    sample = reconcile.audit_sample(crosswalk, k, config.seed)
    artifacts.write_csv(
        layout.audit,
        ("open_id", "scheme", "proprietary_id", "support", "example_dois"),
        [
            (
                org_value(e.open_id),
                e.scheme,
                org_value(e.proprietary_id),
                e.support,
                "|".join(examples.get((e.open_id, e.proprietary_id), ())),
            )
            for e in sample
        ],
    )

    artifacts.write_manifest(
        layout,
        "reconcile",
        config.digest(),
        [artifacts.describe_input(p) for p in needed],
        [layout.crosswalk, layout.audit],
        counters,
    )


# --- attribute ----------------------------------------------------------------

def _attribution_indexes(layout: Layout) -> tuple:
    """Agreements by journal, proprietary -> open IDs, and the institution index."""
    return (
        attribute.agreements_by_journal(artifacts.read_agreements(layout.agreements)),
        reconcile.invert_crosswalk(artifacts.read_crosswalk(layout.crosswalk)),
        ingest.institution_index(artifacts.read_institutions(layout.institutions)),
    )


def _attribute_chunk(item: tuple[str, list[str]]) -> dict[str, list[tuple]]:
    """Role -> attribution rows of one chunk; each line is decoded once."""
    source, lines = item
    roles, journal_agreements, crosswalk_inverse, inst_index = _WORKER_CTX
    rows: dict[str, list[tuple]] = {role: [] for role in roles}
    for line in lines:
        article = artifacts.classified_from_line(line, source)
        if not article.countable or not article.is_hybrid_oa:
            continue
        for role in roles:
            if attribute.role_author(article, role) is None:
                continue
            record = attribute.match_agreements(
                article, role, journal_agreements, crosswalk_inverse, inst_index
            )
            rows[role].append(
                (
                    source,
                    article.record.native_id,
                    article.record.doi or "",
                    article.year,
                    role,
                    "true" if record is not None else "false",
                    "|".join(record.agreement_ids) if record is not None else "",
                    record.matched_institution if record is not None else "",
                )
            )
    return rows


def run_attribute(config: PipelineConfig) -> None:
    """Evaluate every eligible OA article against the agreement registry.

    One chunk map over every source evaluates every role on each decoded
    record.
    """
    layout = Layout(config.out_dir)
    needed = [layout.agreements, layout.institutions, layout.crosswalk]
    needed += [layout.classified(s.label) for s in config.sources]
    _require(needed, "attribute")

    ctx = (tuple(config.roles), *_attribution_indexes(layout))
    workers = _effective_workers(config)
    counters: dict = {}
    outputs = []

    rows: dict[str, list[tuple]] = {role: [] for role in config.roles}
    chunks = _source_chunks(config, layout.classified)
    for result in _map_chunks(_attribute_chunk, chunks, ctx, workers):
        for role, role_rows in result.items():
            rows[role].extend(role_rows)

    for role, role_rows in rows.items():
        role_rows.sort(key=lambda r: (r[0], r[1]))
        path = layout.attributions(role)
        artifacts.write_csv(
            path,
            (
                "source",
                "native_id",
                "doi",
                "year",
                "role",
                "ta_enabled",
                "agreement_ids",
                "matched_institution",
            ),
            role_rows,
        )
        outputs.append(path)
        counters[f"evaluated_{role}"] = len(role_rows)
        counters[f"ta_enabled_{role}"] = sum(1 for r in role_rows if r[5] == "true")

    artifacts.write_manifest(
        layout,
        "attribute",
        config.digest(),
        [artifacts.describe_input(p) for p in needed],
        outputs,
        counters,
    )


# --- aggregate ----------------------------------------------------------------

def _load_ta_keys(layout: Layout, role: str) -> set[tuple[str, str]]:
    keys: set[tuple[str, str]] = set()
    with open(layout.attributions(role), encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["ta_enabled"] == "true":
                keys.add((row["source"], row["native_id"]))
    return keys


def run_aggregate(config: PipelineConfig) -> None:
    """Turn classified and attributed articles into indicator tables.

    One pass per source: each classified record is decoded once and feeds
    every (role, group kind) indicator cell and the coverage tallies.
    """
    layout = Layout(config.out_dir)
    needed = [layout.classified(s.label) for s in config.sources]
    needed += [layout.attributions(role) for role in config.roles]
    _require(needed, "aggregate")
    counters: dict = {}

    ta_keys = {role: _load_ta_keys(layout, role) for role in config.roles}
    folds = []
    rows: list[IndicatorRow] = []
    for source in config.sources:
        articles = artifacts.iter_classified(layout.classified(source.label), source.label)
        fold = analytics.aggregate(source.label, articles, ta_keys, config.years)
        folds.append(fold)
        rows.extend(fold.rows)
        for role in fold.skipped_roles:
            counters[f"skipped_{source.label}_{role}"] = 1

    rows.sort(key=lambda r: (r.role, r.group_kind, r.source, r.year, r.group_key))
    artifacts.write_csv(
        layout.indicators,
        (
            "year",
            "source",
            "role",
            "group_kind",
            "group_key",
            "n_total",
            "n_original",
            "n_oa",
            "n_ta_oa",
            "oa_share",
            "ta_share_of_oa",
        ),
        [
            (
                r.year,
                r.source,
                r.role,
                r.group_kind,
                r.group_key,
                r.n_total,
                r.n_original,
                r.n_oa,
                r.n_ta_oa,
                artifacts.format_share(r.oa_share),
                artifacts.format_share(r.ta_share_of_oa),
            )
            for r in rows
        ],
    )
    counters["indicator_rows"] = len(rows)

    coverage = analytics.coverage_summary(folds)
    artifacts.write_csv(layout.coverage, ("source", "measure", "value"), coverage)

    artifacts.write_manifest(
        layout,
        "aggregate",
        config.digest(),
        [artifacts.describe_input(p) for p in needed],
        [layout.indicators, layout.coverage],
        counters,
    )


# --- compare ------------------------------------------------------------------

def _uptake_row(r: IndicatorRow, extra: tuple = ()) -> tuple:
    return extra + (
        r.year,
        r.source,
        r.role,
        r.n_original,
        r.n_oa,
        artifacts.format_share(r.oa_share),
        r.n_ta_oa,
        artifacts.format_share(r.ta_share_of_oa),
    )


def run_compare(config: PipelineConfig) -> None:
    """Coverage intersections, per-figure plot series, and rank correlations.

    Each classified file is read once, as a stream, into the journal index.
    """
    layout = Layout(config.out_dir)
    needed = [layout.classified(s.label) for s in config.sources] + [layout.indicators]
    _require(needed, "compare")
    open_label = config.open_source
    counters: dict = {}

    corpora = {
        s.label: artifacts.iter_classified(layout.classified(s.label), s.label)
        for s in config.sources
    }
    index = analytics.journal_index(corpora, config.years)
    overlaps = analytics.journal_overlaps(index.universe, index.doi_sets, open_label)
    sets = analytics.upset_sets(index.universe, overlaps)
    counters["universe_journals"] = len(index.universe)
    artifacts.write_csv(
        layout.intersections,
        ("membership", "n_journals", "n_articles_shared", "n_articles_surplus_open"),
        [
            (
                analytics.membership_key(s.membership),
                s.n_journals,
                s.n_articles_shared,
                s.n_articles_surplus_open,
            )
            for s in sets
        ],
    )
    per_journal, per_publisher = analytics.journal_volumes(index, overlaps)
    artifacts.write_csv(
        layout.journal_volumes,
        ("membership", "issn_l", "publisher", "n_articles_shared"),
        per_journal,
    )
    artifacts.write_csv(
        layout.intersections_publisher,
        ("membership", "publisher", "n_journals", "n_articles_shared"),
        per_publisher,
    )

    indicator_rows = artifacts.read_indicators(layout.indicators)
    uptake_header = (
        "year", "source", "role", "n_original", "n_oa", "oa_share", "n_ta_oa", "ta_share_of_oa"
    )
    artifacts.write_csv(
        layout.uptake_global,
        uptake_header,
        [_uptake_row(r) for r in indicator_rows if r.group_kind == GROUP_GLOBAL],
    )
    artifacts.write_csv(
        layout.uptake_publisher,
        ("publisher",) + uptake_header,
        [_uptake_row(r, (r.group_key,)) for r in indicator_rows if r.group_kind == GROUP_PUBLISHER],
    )

    thresholds = {
        "article_volume": config.correlation_min_articles,
        "ta_oa_volume": config.correlation_min_ta_oa,
    }
    correlation_rows, scatter_rows = analytics.country_correlations(
        indicator_rows, (open_label, ROLE_FIRST), thresholds
    )
    artifacts.write_csv(
        layout.correlations,
        ("metric", "x_source", "x_role", "y_source", "y_role", "filter_threshold", "n", "rho"),
        correlation_rows,
    )
    artifacts.write_csv(
        layout.country_scatter,
        ("metric", "country", "x_source", "x_role", "x_value", "y_source", "y_role", "y_value"),
        scatter_rows,
    )
    counters["correlations"] = len(correlation_rows)

    outputs = [
        layout.intersections, layout.intersections_publisher, layout.journal_volumes,
        layout.correlations, layout.uptake_global, layout.uptake_publisher, layout.country_scatter,
    ]
    inputs = [artifacts.describe_input(p) for p in needed]
    artifacts.write_manifest(layout, "compare", config.digest(), inputs, outputs, counters)


STAGE_FUNCTIONS = {
    "ingest": run_ingest,
    "classify": run_classify,
    "reconcile": run_reconcile,
    "attribute": run_attribute,
    "aggregate": run_aggregate,
    "compare": run_compare,
}


# --- explain ------------------------------------------------------------------

def explain_doi(config: PipelineConfig, raw_doi: str) -> str:
    """Human-readable attribution trace for one DOI across all sources."""
    layout = Layout(config.out_dir)
    needed = [layout.classified(s.label) for s in config.sources]
    needed += [layout.agreements, layout.institutions, layout.crosswalk]
    _require(needed, "explain")
    doi = normalize_doi(raw_doi)
    if doi is None:
        raise UnknownDoi(f"not a DOI: {raw_doi!r}")

    hits: list[ClassifiedArticle] = []
    for source in config.sources:
        for article in artifacts.iter_classified(layout.classified(source.label), source.label):
            if article.record.doi == doi:
                hits.append(article)
    if not hits:
        raise UnknownDoi(doi)

    journal_agreements, crosswalk_inverse, inst_index = _attribution_indexes(layout)
    cls_cfg = _classifier_config(config)

    lines = [f"DOI {doi}"]
    for article in hits:
        record = article.record
        lines.append(f"[{record.source}] native_id={record.native_id}")
        lines.append(
            f"  journal {record.journal_issn_l} ({article.publisher or 'unknown publisher'}),"
            f" hybrid={'yes' if article.journal_is_hybrid else 'no'}"
        )
        lines.append(
            f"  year={article.year} original={_yn(article.is_original)}"
            f" paratext={_yn(article.is_paratext)}"
            f" regular_issue={_yn(article.in_regular_issue)}"
            f" countable={_yn(article.countable)} hybrid_oa={_yn(article.is_hybrid_oa)}"
        )
        if record.licenses:
            lines.append("  licenses:")
            for lic in record.licenses:
                start = f" start={lic.start_date.isoformat()}" if lic.start_date is not None else ""
                is_cc = bool(cls_cfg.cc_license_re.search(lic.url))
                failure = classify.license_failure(lic, record, cls_cfg)
                verdict = f"FAIL ({failure})" if failure else "PASS"
                lines.append(
                    f"    - {lic.url} vor={_yn(lic.applies_to_vor)}{start}"
                    f" cc={_yn(is_cc)} -> {verdict}"
                )
        else:
            lines.append("  licenses: none (closed)")
        if not article.countable or not article.is_hybrid_oa:
            lines.append("  not eligible for attribution (needs countable + hybrid OA)")
            continue
        for role in config.roles:
            author = attribute.role_author(article, role)
            if author is None:
                lines.append(f"  role {role}: no author data")
                continue
            orgs = attribute.resolve_org(author, crosswalk_inverse, inst_index)
            lines.append(
                f"  role {role}: orgs {sorted(author.org_ids)} -> resolved {sorted(orgs)}"
            )
            verdicts = attribute.agreement_verdicts(record, orgs, journal_agreements)
            if not verdicts:
                lines.append("    no agreements cover this journal")
                continue
            for v in verdicts:
                agreement = v.agreement
                lines.append(
                    f"    - {agreement.agreement_id}: journal PASS;"
                    f" institutions {'PASS ' + min(v.institutions) if v.institutions else 'FAIL'};"
                    f" window {agreement.start_date}..{agreement.end_date}"
                    f" {'PASS' if v.in_window else 'FAIL'}"
                    f" -> {'MATCH' if v.matched else 'no match'}"
                )
            matched = [v.agreement.agreement_id for v in verdicts if v.matched]
            if matched:
                lines.append(f"    TA-enabled via {', '.join(matched)}")
            else:
                lines.append("    not TA-enabled")
    return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"

