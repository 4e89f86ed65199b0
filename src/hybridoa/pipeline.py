"""Stage orchestration: ingest -> classify -> reconcile -> attribute ->
aggregate -> compare.

Each stage reads the previous stage's artifacts, writes its own, and
never mutates inputs; `run` checks a stage's declared inputs against the
bytes the stage read, and the manifests upstream of them against each
other, and publishes its outputs and manifest together.

Ingest, classify, attribute and aggregate are per-source folds
(`_source_folds`): one task per source, which carries only paths. A
stage function is `fn(ctx, task)`, where `ctx` is what all of the
stage's tasks share and travels with each task. `run` opens one worker
pool for all its stages, or none, and the folds map over it or inline.
The task reads its source's files and writes its own outputs where it
runs, and only its result, the digests of what it read and its
unpublished writes cross a pipe; no article line does. A worker pool
changes wall time but never output bytes.

Besides each source's classified file, classify writes its attributable
lines apart (the countable hybrid OA ones, `artifacts.is_attributable`)
and its journal summary, and one DOI file for every source together,
`classify/dois.ndjson` (`artifacts.SourceStreams`), sorted in bounded
memory into run files (`artifacts.SortedRuns`) that each task hands back
by path. Attribute reads only the attributable files. Reconcile and
compare read only the DOI file and the summaries, in this process, each
in one pass over the DOI file's groups of lines (`artifacts.doi_groups`),
so neither holds anything per record. Explain bisects the DOI file for
the classified lines of one DOI.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import multiprocessing
import os
import re
import tempfile
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Iterable, Iterator

from . import analytics, artifacts, attribute, classify, ingest, reconcile
from .artifacts import Layout
from .config import PipelineConfig
from .errors import DependencyError, UnknownDoi
from .identifiers import normalize_doi
from .model import ROLE_FIRST

log = logging.getLogger(__name__)

# A stage body's output paths and manifest counters.
StageResult = tuple[list[str], dict]


def run(config: PipelineConfig, stages: Iterable[str] | None = None) -> list[str]:
    """Run the requested stages in dependency order; returns what ran.

    This is the one stage boundary. Before a stage's body runs, its
    declared inputs must exist, and the manifest of each input's producer
    must exist and carry this config's digest; so must every manifest
    upstream, each recording inputs that their producers' manifests still
    record (`_check_upstream`), so a tree that a rerun of an earlier stage
    left stale is refused. The body returns (outputs, counters). Each
    input is hashed from the bytes the body read (`artifacts.reading`);
    only one it did not read to the end is hashed here. Then each input
    under out_dir must have the sha256 its producer's manifest recorded
    (`_check_producers`). Only then are the stage's outputs, and after
    them its manifest, published together (`artifacts.recording`); a
    mismatch or an exception publishes none.

    `stages=None` runs every stage; a list that names none is an error.
    One pool of min(workers, sources) processes serves every stage; at
    one process there is none, and the folds run inline. An unset
    `workers` is the number of CPUs this process may run on.
    """
    wanted = set(artifacts.STAGES) if stages is None else set(stages)
    if not wanted:
        raise DependencyError(f"no stage named; choose from: {', '.join(artifacts.STAGES)}")
    unknown = wanted - set(artifacts.STAGES)
    if unknown:
        raise DependencyError(f"unknown stage(s): {', '.join(sorted(unknown))}")
    layout = Layout(config.out_dir)
    digest = config.digest()
    workers = _usable_cpus() if config.workers is None else config.workers
    size = min(workers, len(config.sources))
    executed = []
    with ProcessPoolExecutor(max_workers=size) if size > 1 else contextlib.nullcontext() as pool:
        for stage in artifacts.STAGES:
            if stage not in wanted:
                continue
            log.info("stage %s", stage)
            needed = STAGE_INPUTS[stage](layout, config)
            _require(needed, stage)
            manifest = _manifest_reader(layout, digest, stage)
            recorded = _producer_records(layout, manifest, needed)
            _check_upstream(manifest, stage, {producer for producer, _ in recorded.values()})
            inputs = [{"path": p} for p in needed]
            with artifacts.reading() as read, artifacts.recording() as written:
                try:
                    outputs, counters = STAGE_FUNCTIONS[stage](config, layout, inputs, pool)
                except Exception:
                    # an input that is not what its producer recorded may
                    # be what broke the body: name it
                    _check_producers(layout, recorded, read, stage)
                    raise
                _check_producers(layout, recorded, read, stage)
                for entry in inputs:
                    entry["sha256"] = _digest(entry["path"], read)
                artifacts.write_manifest(layout, stage, digest, inputs, outputs, counters, written)
            executed.append(stage)
    return executed


def _require(paths: Iterable[str], stage: str) -> None:
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise DependencyError(
            f"stage {stage!r} needs artifacts that do not exist: {', '.join(missing)}"
        )


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform tells them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _manifest_reader(layout: Layout, digest: str, stage: str) -> Callable:
    """producer -> (its manifest's output path -> sha256, its inputs), each
    manifest read once. Raises DependencyError when the manifest is
    missing or has another config digest than `digest`."""

    @functools.cache
    def manifest(producer: str) -> tuple[dict[str, str], list[dict]]:
        path = layout.manifest(producer)
        try:
            found = artifacts.read_manifest(layout, producer)
        except FileNotFoundError:
            raise DependencyError(
                f"stage {stage!r} needs the manifest of stage {producer!r}, which does"
                f" not exist: {path}"
            ) from None
        if found["config_digest"] != digest:
            raise DependencyError(
                f"stage {stage!r}: {path} was written under another"
                f" config; run stage {producer!r} again"
            )
        return {e["path"]: e["sha256"] for e in found["outputs"]}, found["inputs"]

    return manifest


def _producer(relative: str) -> str | None:
    """The stage that produces an out_dir-relative path, None for an
    external input."""
    producer = relative.split(os.sep, 1)[0]
    return producer if producer in artifacts.STAGES else None


def _producer_records(
    layout: Layout, manifest: Callable, paths: Iterable[str]
) -> dict[str, tuple[str, str | None]]:
    """Path -> (producer, the sha256 its manifest records for the path) of
    each of `paths` under `layout`'s stage directories.

    The producer of `<out_dir>/<stage>/...` is that stage; an input
    elsewhere is external and has no record.
    """
    recorded = {}
    for path in paths:
        relative = os.path.relpath(path, layout.out_dir)
        producer = _producer(relative)
        if producer is not None:
            recorded[path] = (producer, manifest(producer)[0].get(relative))
    return recorded


def _check_upstream(manifest: Callable, stage: str, producers: Iterable[str]) -> None:
    """Walk the manifests upstream from `producers`: each input under
    out_dir that a manifest on the walk records must have the sha256 its
    own producer's manifest records now, and every manifest on the walk
    this run's config digest. Only manifests are read. Raises
    DependencyError naming the first stale link.
    """
    todo = sorted(producers)
    seen = set(todo)
    while todo:
        consumer = todo.pop(0)
        for entry in manifest(consumer)[1]:
            producer = _producer(entry["path"])
            if producer is None:
                continue
            now = manifest(producer)[0].get(entry["path"])
            if now != entry["sha256"]:
                raise DependencyError(
                    f"stage {stage!r}: stage {consumer!r} was built from"
                    f" {entry['path']} sha256 {entry['sha256'][:12]}..., but stage"
                    f" {producer!r} now records {now[:12] + '...' if now else 'no such output'};"
                    f" run stage {consumer!r} and the stages after it again"
                )
            if producer not in seen:
                seen.add(producer)
                todo.append(producer)


def _digest(path: str, read: dict[str, str]) -> str:
    """The sha256 of the bytes a stage read of `path`; of the file now,
    kept in `read`, when the stage did not read it to the end."""
    key = os.path.abspath(path)
    if key not in read:
        read[key] = artifacts.sha256_file(path)
    return read[key]


def _check_producers(
    layout: Layout, recorded: dict[str, tuple[str, str | None]], read: dict[str, str], stage: str
) -> None:
    """Raise DependencyError unless each input that `_producer_records`
    gave a record has the sha256 its producer recorded (`_digest`)."""
    for path, (producer, sha256) in recorded.items():
        if _digest(path, read) != sha256:
            raise DependencyError(
                f"stage {stage!r}: {path} is not what stage {producer!r} recorded"
                f" in {layout.manifest(producer)}; run stage {producer!r} again"
            )


def _classified(layout: Layout, config: PipelineConfig) -> list[str]:
    return [layout.classified(s.label) for s in config.sources]


def _registry(layout: Layout) -> list[str]:
    """The files the attribution indexes are built from (`_attribution_indexes`)."""
    return [layout.agreements, layout.crosswalk, layout.institutions]


# Each stage's inputs under out_dir; ingest reads only the config's files.
STAGE_INPUTS: dict[str, Callable[[Layout, PipelineConfig], list[str]]] = {
    "ingest": lambda layout, config: [],
    "classify": lambda layout, config: (
        [layout.journals] + [layout.articles(s.label) for s in config.sources]
        + ([config.paratext_patterns] if config.paratext_patterns else [])
    ),
    "reconcile": lambda layout, config: [layout.dois],
    "attribute": lambda layout, config: (
        _registry(layout) + [layout.attributable(s.label) for s in config.sources]
    ),
    "aggregate": lambda layout, config: (
        _classified(layout, config) + [layout.attributions(role) for role in config.roles]
    ),
    "compare": lambda layout, config: (
        [layout.journal_summary(s.label) for s in config.sources]
        + [layout.dois, layout.indicators]
    ),
}


# --- per-source folds --------------------------------------------------------

def _source_folds(
    pool: ProcessPoolExecutor | None, fn: Callable, ctx, sources: list[tuple]
) -> Iterator:
    """fn(ctx, source) for each source's task of paths, in task order:
    inline when `pool` is None, else on the pool, each task with its own
    pickled copy of `ctx`.

    The digests of the files each task read, and the files it wrote
    (`artifacts.holding`), come back with its result and join this
    process's `artifacts.reading` and `artifacts.recording` records. A
    task that raises does not stop its siblings: the exception is raised
    once every task has run and handed back its writes, so the recording
    block deletes them all.
    """
    failure = None
    mapped = map if pool is None else pool.map
    for result, read, held in mapped(partial(_fold_task, fn, ctx), sources):
        artifacts.note_reads(read)
        artifacts.note_writes(held)
        if isinstance(result, Exception):
            failure = failure or result
        elif failure is None:
            yield result
    if failure is not None:
        raise failure


def _fold_task(fn: Callable, ctx, source: tuple) -> tuple:
    """(fn(ctx, source), the digests of the files it read to the end, the
    files it wrote, held unpublished); the exception it raised in place of
    its result, its own files deleted."""
    with artifacts.reading() as read:
        try:
            with artifacts.holding() as held:
                return fn(ctx, source), read, held
        except Exception as exc:
            if multiprocessing.parent_process() is not None:
                # a traceback is not pickled; its text, as a note, is
                exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc()]
            return exc, read, ({}, {})


def _classified_sources(layout: Layout, labels: Iterable[str]) -> list[tuple[str, str]]:
    """The (path, label) task of each source's classified file."""
    return [(layout.classified(label), label) for label in labels]


# --- ingest ------------------------------------------------------------------

def run_ingest(
    config: PipelineConfig, layout: Layout, inputs: list[dict], pool: ProcessPoolExecutor | None
) -> StageResult:
    """Parse all inputs into normalized artifacts with reject sidecars.

    Appends the path of every external input it reads to `inputs`, with
    the number of countable lines of each article file. One per-source
    fold parses each source's article file into its ingest file and
    reject log.
    """
    counters: dict = {}

    def load(stem: str, loader: Callable, path, *args):
        """One loader run with its reject sidecar; `path` is a path or a tuple of them."""
        with ingest.RejectLog(layout.reject_log(stem)) as rej:
            loaded = loader(path, *args, rej)
        counters[f"{stem}_rejects"] = rej.count
        paths = (path,) if isinstance(path, str) else path
        inputs.extend({"path": p} for p in paths)
        return loaded

    links = load("issn_links", ingest.load_issn_link_table, config.issn_links)
    # the stage's memos of ISSN, date and org-ID verdicts, for the dump
    # and every article line
    checks = ingest.TextChecks(links)
    fully_oa = load("fully_oa", ingest.load_fully_oa_lists, config.fully_oa_lists, links)
    aliases = None
    if config.publisher_aliases:
        aliases = load("publisher_aliases", ingest.load_publisher_aliases, config.publisher_aliases)
    dump = load("agreement_dump", ingest.load_agreement_dump, config.agreement_dump, checks, aliases)
    agreements = load("durations", ingest.load_durations, config.durations, dump.agreements)
    institutions = load("institutions", ingest.load_institutions, config.institutions)
    journals = ingest.build_journals(dump.publisher_votes, dump.variants, fully_oa)
    counters.update(
        issn_links=len(links),
        fully_oa_journals=len(fully_oa),
        agreements_undated=len(dump.agreements),
        agreements=len(agreements),
        journals=len(journals),
        institutions=len(institutions),
    )
    artifacts.write_agreements(layout.agreements, agreements)
    artifacts.write_journals(layout.journals, journals.values())
    artifacts.write_institutions(layout.institutions, institutions)
    outputs = [layout.agreements, layout.journals, layout.institutions]

    sources = [
        (s.label, s.articles, layout.articles(s.label), layout.reject_log(f"articles_{s.label}"))
        for s in config.sources
    ]
    for source, manifest in zip(
        config.sources, _source_folds(pool, _ingest_source, checks, sources), strict=True
    ):
        inputs.append({"path": source.articles, "rows": manifest.total_lines})
        counters[f"records_{source.label}"] = manifest.record_count
        counters[f"rejects_{source.label}"] = manifest.reject_count
        outputs.append(layout.articles(source.label))
    return outputs, counters


def _ingest_source(
    checks: ingest.TextChecks, source: tuple[str, str, str, str]
) -> ingest.CorpusManifest:
    """One source's article file, parsed into its ingest file and reject log."""
    label, path, out_path, reject_path = source
    with artifacts.open_artifact(out_path) as out, ingest.RejectLog(reject_path) as rejects:
        return ingest.write_article_stream(path, label, checks, out, rejects)


# --- classify ----------------------------------------------------------------

def _license_settings(config: PipelineConfig) -> dict:
    """The `ClassifierConfig` fields that `classify.license_failure` reads."""
    return dict(
        cc_license_re=re.compile(config.cc_license_pattern, re.IGNORECASE),
        user_license_re=re.compile(config.user_license_pattern, re.IGNORECASE),
        license_grace_days=config.license_grace_days,
        lenient_oa_sources=frozenset(s.label for s in config.sources if s.lenient_oa),
    )


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
        **_license_settings(config),
    )


def _classify_source(ctx: tuple, source: tuple[str, ...]) -> tuple[int, Counter, list[str]]:
    """One source's ingest file, classified into its classified file, its
    attributable file (the classified lines that `artifacts.is_attributable`
    accepts, in file order) and its journal summary: its rows, its records
    per unknown document class and the paths of the run files in
    `spill_dir` that hold its lines of the DOI file, each run sorted."""
    cfg, journals, years, spill_dir = ctx
    label, path, out_path, attributable_path, summary_path = source
    policy = cfg.policies[label]
    rows = 0
    unknown: Counter = Counter()
    streams = artifacts.SourceStreams(label, years, spill_dir)
    with artifacts.open_artifact(out_path) as out, \
            artifacts.open_artifact(attributable_path) as attributable:
        for _, lines in artifacts.line_chunks(path):
            articles, classified = [], []
            for line in lines:
                record = artifacts.ingest_from_line(line, label)
                journal = journals.get(record.journal_issn_l)
                article = classify.classify_article(record, journal, cfg)
                if classify.is_unknown_class(record, policy):
                    unknown[record.document_class] += 1
                articles.append(article)
                classified.append(artifacts.classified_to_line(article))
            out.write("".join(f"{line}\n" for line in classified))
            attributable.write(
                "".join(f"{line}\n" for line in classified if artifacts.is_attributable(line))
            )
            streams.add(articles, classified)
            rows += len(classified)
    with artifacts.open_artifact(summary_path) as out:
        out.writelines(streams.journal_lines())
    return rows, unknown, streams.dois.spill()


def run_classify(
    config: PipelineConfig, layout: Layout, inputs: list[dict], pool: ProcessPoolExecutor | None
) -> StageResult:
    """Apply all classification rules to every ingested record.

    One per-source fold classifies each source's ingest file into its
    classified file, attributable file and journal summary. Each fold
    writes its source's DOI lines to sorted run files in the stage's spill
    directory and hands back their paths; every source's run files are
    merged into the DOI file here, and deleted with the spill directory.
    """
    labels = [s.label for s in config.sources]
    outputs = [layout.classified(label) for label in labels]
    attributable = [layout.attributable(label) for label in labels]
    summaries = [layout.journal_summary(label) for label in labels]
    sources = [
        (label, layout.articles(label), *paths)
        for label, *paths in zip(labels, outputs, attributable, summaries)
    ]
    counters = {}
    runs: list[str] = []
    with tempfile.TemporaryDirectory(prefix="hybridoa-sort-") as spill_dir:
        ctx = (
            _classifier_config(config), artifacts.read_journals(layout.journals), config.years,
            spill_dir,
        )
        for label, (rows, unknown, paths) in zip(
            labels, _source_folds(pool, _classify_source, ctx, sources), strict=True
        ):
            runs.extend(paths)
            counters[f"classified_{label}"] = rows
            counters[f"unknown_doc_class_{label}"] = sum(unknown.values())
            for doc_class, count in sorted(unknown.items()):
                log.warning(
                    "unknown document class %r in source %s: %d records", doc_class, label, count
                )
        with artifacts.open_artifact(layout.dois) as out, \
                contextlib.closing(artifacts.merge_runs(runs)) as lines:
            out.writelines(lines)
    return outputs + attributable + summaries + [layout.dois], counters


# --- reconcile ----------------------------------------------------------------

def run_reconcile(
    config: PipelineConfig, layout: Layout, inputs: list[dict], pool: ProcessPoolExecutor | None
) -> StageResult:
    """Build the open/proprietary crosswalk by DOI bridging, plus an audit sample.

    One pass over the DOI file, in this process: `reconcile.build_bridge`
    yields the bridged DOIs as the pass reaches them, each source ranked,
    the open source first and the others in config order, and
    `reconcile.tally_pairs` adds each source's pairs and example DOIs to
    one tally, as if the sources were tallied in rank order.
    """
    open_label = config.open_source
    labels = [open_label] + [s.label for s in config.sources if s.label != open_label]
    ranks = {label: rank for rank, label in enumerate(labels)}
    bridged: Counter = Counter()
    counts: Counter = Counter()
    examples: dict = {}
    with artifacts.open_input_text(layout.dois) as fh:
        bridge = reconcile.build_bridge(artifacts.doi_groups(fh), ranks, bridged)
        reconcile.tally_pairs(bridge, counts, examples)
    counters = {f"bridged_{label}": bridged[rank] for rank, label in enumerate(labels) if rank}

    crosswalk = reconcile.select_crosswalk(counts, config.min_support)
    counters["pairs"] = len(counts)
    counters["crosswalk_entries"] = len(crosswalk)
    artifacts.write_crosswalk(layout.crosswalk, crosswalk)
    k = min(config.audit_sample_size, len(crosswalk))
    artifacts.write_audit(layout.audit, reconcile.audit_sample(crosswalk, k, config.seed), examples)
    return [layout.crosswalk, layout.audit], counters


# --- attribute ----------------------------------------------------------------

def _attribution_indexes(layout: Layout) -> tuple:
    """Agreements by journal, proprietary -> open IDs, and the institution index."""
    return (
        attribute.agreements_by_journal(artifacts.read_agreements(layout.agreements)),
        reconcile.invert_crosswalk(artifacts.read_crosswalk(layout.crosswalk)),
        ingest.institution_index(artifacts.read_institutions(layout.institutions)),
    )


def _attribute_source(ctx: tuple, source: tuple[str, str]) -> tuple[dict[str, list[tuple]], dict]:
    """Role -> attribution rows of one source's attributable file, and role
    -> `resolve_org` diagnostics. Every line in the file is countable
    hybrid OA, and each is decoded once."""
    roles, journal_agreements, crosswalk_inverse, inst_index = ctx
    path, label = source
    rows: dict[str, list[tuple]] = {role: [] for role in roles}
    diagnostics: dict[str, dict] = {role: {} for role in roles}
    with artifacts.open_input_text(path) as fh:
        for line in fh:
            article = artifacts.classified_from_line(line, label)
            for role in roles:
                if attribute.role_author(article, role) is None:
                    continue
                match = attribute.match_agreements(
                    article, role, journal_agreements, crosswalk_inverse, inst_index,
                    diagnostics[role],
                )
                rows[role].append(artifacts.attribution_row(article, role, match))
    return rows, diagnostics


def run_attribute(
    config: PipelineConfig, layout: Layout, inputs: list[dict], pool: ProcessPoolExecutor | None
) -> StageResult:
    """Evaluate every eligible OA article against the agreement registry.

    One per-source fold evaluates every role on each record of the
    source's attributable file, which classify wrote; no classified file
    is read.
    """
    ctx = (tuple(config.roles), *_attribution_indexes(layout))
    rows: dict[str, list[tuple]] = {role: [] for role in config.roles}
    unresolved = dict.fromkeys(config.roles, 0)
    sources = [(layout.attributable(s.label), s.label) for s in config.sources]
    for result, diagnostics in _source_folds(pool, _attribute_source, ctx, sources):
        for role, role_rows in result.items():
            rows[role].extend(role_rows)
            unresolved[role] += diagnostics[role].get("unresolved_org_ids", 0)

    counters: dict = {}
    for role, role_rows in rows.items():
        counters[f"evaluated_{role}"] = len(role_rows)
        counters[f"ta_enabled_{role}"] = artifacts.write_attributions(
            layout.attributions(role), role_rows
        )
        counters[f"unresolved_org_ids_{role}"] = unresolved[role]
    return [layout.attributions(role) for role in rows], counters


# --- aggregate ----------------------------------------------------------------

def _aggregate_source(ctx: tuple, source: tuple[str, str]) -> analytics.SourceFold:
    """One source's fold, read from its classified file."""
    ta_keys, years = ctx
    path, label = source
    with artifacts.open_input_text(path) as fh:
        return analytics.aggregate(label, fh, ta_keys, years)


def run_aggregate(
    config: PipelineConfig, layout: Layout, inputs: list[dict], pool: ProcessPoolExecutor | None
) -> StageResult:
    """Turn classified and attributed articles into indicator tables.

    One per-source fold: each classified record in a hybrid journal is
    decoded once and feeds every (role, group kind) indicator cell and the
    coverage tallies; the others are not decoded. The folds come back in
    config order.
    """
    ta_keys = {role: artifacts.read_ta_keys(layout.attributions(role)) for role in config.roles}
    sources = _classified_sources(layout, [s.label for s in config.sources])
    folds = list(_source_folds(pool, _aggregate_source, (ta_keys, config.years), sources))
    counters: dict = {}
    for fold in folds:
        for role in fold.skipped_roles:
            counters[f"skipped_{fold.source}_{role}"] = 1

    rows = [row for fold in folds for row in fold.rows]
    counters["indicator_rows"] = artifacts.write_indicators(layout.indicators, rows)
    artifacts.write_table(layout.coverage, analytics.coverage_summary(folds))
    return [layout.indicators, layout.coverage], counters


# --- compare ------------------------------------------------------------------

def run_compare(
    config: PipelineConfig, layout: Layout, inputs: list[dict], pool: ProcessPoolExecutor | None
) -> StageResult:
    """Coverage intersections, per-figure plot series, and rank correlations.

    The journal summaries give the journal index; one pass over the DOI
    file gives each journal's shared and surplus DOIs. No classified line
    is read.
    """
    open_label = config.open_source
    summaries = {}
    for source in config.sources:
        with artifacts.open_input_text(layout.journal_summary(source.label)) as fh:
            summaries[source.label] = list(artifacts.json_rows(fh))
    index = analytics.journal_index(summaries)
    with artifacts.open_input_text(layout.dois) as fh:
        overlaps = analytics.journal_overlaps(index.universe, artifacts.doi_groups(fh), open_label)
    sets = analytics.upset_sets(index.universe, overlaps)
    artifacts.write_intersections(layout.intersections, sets)
    per_journal, per_publisher = analytics.journal_volumes(index, overlaps)
    artifacts.write_table(layout.journal_volumes, per_journal)
    artifacts.write_table(layout.intersections_publisher, per_publisher)

    indicator_rows = artifacts.read_indicators(layout.indicators)
    artifacts.write_uptake(layout.uptake_global, layout.uptake_publisher, indicator_rows)
    thresholds = {
        "article_volume": config.correlation_min_articles,
        "ta_oa_volume": config.correlation_min_ta_oa,
    }
    correlation_rows, scatter_rows = analytics.country_correlations(
        indicator_rows, (open_label, ROLE_FIRST), thresholds
    )
    artifacts.write_table(layout.correlations, correlation_rows)
    artifacts.write_table(layout.country_scatter, scatter_rows)

    outputs = [
        layout.intersections, layout.intersections_publisher, layout.journal_volumes,
        layout.correlations, layout.uptake_global, layout.uptake_publisher, layout.country_scatter,
    ]
    counters = {"universe_journals": len(index.universe), "correlations": len(correlation_rows)}
    return outputs, counters


STAGE_FUNCTIONS = {
    "ingest": run_ingest,
    "classify": run_classify,
    "reconcile": run_reconcile,
    "attribute": run_attribute,
    "aggregate": run_aggregate,
    "compare": run_compare,
}


# --- explain ------------------------------------------------------------------

# The attribution indexes `explain_doi` built last, keyed on the bytes of
# the three files they come from: (key, indexes), or None. The key is the
# content, not `os.stat`: a file republished at the same size within one
# tick of the mtime clock, on a reused inode, would look unchanged.
_explain_registry: tuple[list[bytes], tuple] | None = None


def _registry_indexes(layout: Layout) -> tuple:
    """`_attribution_indexes(layout)`, rebuilt only when one of its files'
    bytes changed since the last call in this process."""
    global _explain_registry
    key = []
    for path in _registry(layout):
        with open(path, "rb") as fh:
            key.append(fh.read())
    if _explain_registry is None or _explain_registry[0] != key:
        _explain_registry = (key, _attribution_indexes(layout))
    return _explain_registry[1]


def explain_doi(config: PipelineConfig, raw_doi: str) -> str:
    """Human-readable attribution trace for one DOI across all sources.

    Finds the DOI's records through classify's DOI file and decodes only
    their lines, in config source order, then file order.
    """
    layout = Layout(config.out_dir)
    _require(_registry(layout) + [layout.dois] + _classified(layout, config), "explain")
    doi = normalize_doi(raw_doi)
    if doi is None:
        raise UnknownDoi(f"not a DOI: {raw_doi!r}")

    order = {s.label: k for k, s in enumerate(config.sources)}
    located = sorted(
        (order[label], offset, label)
        for label, offset in artifacts.doi_index_hits(layout.dois, doi)
        if label in order
    )
    hits = []
    for _, offset, label in located:
        article = artifacts.classified_at(layout.classified(label), label, offset)
        if article.doi == doi:
            hits.append(article)
    if not hits:
        raise UnknownDoi(doi)

    journal_agreements, crosswalk_inverse, inst_index = _registry_indexes(layout)
    # the license verdicts need no source policy and no paratext pattern
    cls_cfg = classify.ClassifierConfig(
        policies={}, paratext_patterns=(), **_license_settings(config)
    )

    lines = [f"DOI {doi}"]
    for article in hits:
        lines.append(f"[{article.source}] native_id={article.native_id}")
        lines.append(
            f"  journal {article.journal_issn_l} ({article.publisher or 'unknown publisher'}),"
            f" hybrid={'yes' if article.journal_is_hybrid else 'no'}"
        )
        lines.append(
            f"  year={article.year} original={_yn(article.is_original)}"
            f" paratext={_yn(article.is_paratext)}"
            f" regular_issue={_yn(article.in_regular_issue)}"
            f" countable={_yn(article.countable)} hybrid_oa={_yn(article.is_hybrid_oa)}"
        )
        licenses = article.licenses
        if licenses:
            lines.append("  licenses:")
            for lic in licenses:
                start = f" start={lic.start_date.isoformat()}" if lic.start_date is not None else ""
                is_cc = bool(cls_cfg.cc_license_re.search(lic.url))
                failure = classify.license_failure(lic, article, cls_cfg)
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
            verdicts = attribute.agreement_verdicts(article, orgs, journal_agreements)
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

