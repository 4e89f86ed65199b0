"""Stage orchestration: ingest -> classify -> reconcile -> attribute ->
aggregate -> compare.

Each stage reads the previous stage's artifacts, writes its own, and
never mutates inputs; `run` checks a stage's declared inputs against the
bytes the stage read, and publishes its outputs and manifest together.

A pooled stage function is `fn(ctx, task)`: `ctx` is what all of the
stage's tasks share, and `_map_chunks` yields `(task, result)` pairs in
task order, inline or on a worker pool. Ingest and classify map over
`(source, line numbers, lines)` chunks of every source's file
(`_source_chunks`); reconcile, attribute and aggregate fold each
source's classified file in a `(path, label)` task of its own
(`_source_folds`). Either way a worker pool changes wall time but never
output bytes.
"""

from __future__ import annotations

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
from .identifiers import normalize_doi
from .model import ROLE_FIRST

log = logging.getLogger(__name__)

# A stage body's output paths and manifest counters.
StageResult = tuple[list[str], dict]


def run(config: PipelineConfig, stages: Iterable[str] | None = None) -> list[str]:
    """Run the requested stages in dependency order; returns what ran.

    This is the one stage boundary. Before a stage's body runs, its
    declared inputs must exist, and the manifest of each input's producer
    must exist and carry this config's digest. The body returns (outputs,
    counters). Each input is hashed from the bytes the body read
    (`artifacts.reading`); only one it did not read to the end is hashed
    here. Then each input under out_dir must have the sha256 its
    producer's manifest recorded (`_check_producers`). Only then are the
    stage's outputs, and after them its manifest, published together
    (`artifacts.recording`); a mismatch or an exception publishes none.
    """
    wanted = set(stages) if stages else set(artifacts.STAGES)
    unknown = wanted - set(artifacts.STAGES)
    if unknown:
        raise DependencyError(f"unknown stage(s): {', '.join(sorted(unknown))}")
    layout = Layout(config.out_dir)
    digest = config.digest()
    executed = []
    for stage in artifacts.STAGES:
        if stage not in wanted:
            continue
        log.info("stage %s", stage)
        needed = STAGE_INPUTS[stage](layout, config)
        _require(needed, stage)
        recorded = _producer_records(layout, digest, needed, stage)
        inputs = [{"path": p} for p in needed]
        with artifacts.reading() as read, artifacts.recording() as written:
            try:
                outputs, counters = STAGE_FUNCTIONS[stage](config, layout, inputs)
            except Exception:
                # an input that is not what its producer recorded may be
                # what broke the body: name it
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


def _producer_records(
    layout: Layout, digest: str, paths: Iterable[str], stage: str
) -> dict[str, tuple[str, str | None]]:
    """Path -> (producer, the sha256 its manifest records for the path) of
    each of `paths` under `layout`'s stage directories.

    The producer of `<out_dir>/<stage>/...` is that stage; an input
    elsewhere is external and has no record. Raises DependencyError when
    a producer's manifest is missing or has another config digest than
    `digest`.
    """
    manifests: dict[str, dict] = {}
    recorded = {}
    for path in paths:
        relative = os.path.relpath(path, layout.out_dir)
        producer = relative.split(os.sep, 1)[0]
        if producer not in artifacts.STAGES:
            continue
        if producer not in manifests:
            try:
                manifest = artifacts.read_manifest(layout, producer)
            except FileNotFoundError:
                raise DependencyError(
                    f"stage {stage!r} needs the manifest of stage {producer!r}, which does"
                    f" not exist: {layout.manifest(producer)}"
                ) from None
            if manifest["config_digest"] != digest:
                raise DependencyError(
                    f"stage {stage!r}: {layout.manifest(producer)} was written under another"
                    f" config; run stage {producer!r} again"
                )
            manifests[producer] = {e["path"]: e["sha256"] for e in manifest["outputs"]}
        recorded[path] = (producer, manifests[producer].get(relative))
    return recorded


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


# Each stage's inputs under out_dir; ingest reads only the config's files.
STAGE_INPUTS: dict[str, Callable[[Layout, PipelineConfig], list[str]]] = {
    "ingest": lambda layout, config: [],
    "classify": lambda layout, config: (
        [layout.journals] + [layout.articles(s.label) for s in config.sources]
        + ([config.paratext_patterns] if config.paratext_patterns else [])
    ),
    "reconcile": _classified,
    "attribute": lambda layout, config: (
        [layout.agreements, layout.institutions, layout.crosswalk] + _classified(layout, config)
    ),
    "aggregate": lambda layout, config: (
        _classified(layout, config) + [layout.attributions(role) for role in config.roles]
    ),
    "compare": lambda layout, config: _classified(layout, config) + [layout.indicators],
}


# --- chunked worker execution ----------------------------------------------

# A pool worker's copy of its stage's ctx, set once by `_init_worker`.
_WORKER_CTX = None


def _init_worker(ctx_bytes: bytes) -> None:
    global _WORKER_CTX
    _WORKER_CTX = pickle.loads(ctx_bytes)


def _in_worker(fn: Callable, task):
    """fn(this worker's context, task): what a pool worker runs."""
    return fn(_WORKER_CTX, task)


def _map_chunks(fn: Callable, tasks: Iterable, ctx, workers: int) -> Iterator[tuple]:
    """(task, fn(ctx, task)) for each task, in task order, with a bounded
    number of tasks in flight.

    workers <= 1 runs inline; more workers fan out to processes, each of
    which unpickles `ctx` once. Either path applies the same function in
    the same order, so results are worker-count-invariant.
    """
    if workers <= 1:
        for task in tasks:
            yield task, fn(ctx, task)
        return
    ctx_bytes = pickle.dumps(ctx)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(ctx_bytes,)
    ) as pool:
        pending = []
        for task in tasks:
            pending.append((task, pool.submit(_in_worker, fn, task)))
            if len(pending) >= workers * 2:
                task, future = pending.pop(0)
                yield task, future.result()
        for task, future in pending:
            yield task, future.result()


def _effective_workers(config: PipelineConfig) -> int:
    if config.workers is not None:
        return max(1, int(config.workers))
    return os.cpu_count() or 1


def _source_chunks(
    config: PipelineConfig, path_of: Callable, fn: Callable, ctx
) -> Iterator[tuple[tuple[str, list[int], list[str]], object]]:
    """The line map: ((source label, line numbers, lines), fn's result) of
    every chunk of every source's file, in config order.

    `path_of(source)` is a source's file, read here through
    `artifacts.line_chunks`; `fn` gets (ctx, chunk) on the pool.
    """
    chunks = (
        (source.label, linenos, lines)
        for source in config.sources
        for linenos, lines in artifacts.line_chunks(path_of(source))
    )
    return _map_chunks(fn, chunks, ctx, _effective_workers(config))


def _source_folds(
    config: PipelineConfig, layout: Layout, fn: Callable, ctx, labels: Iterable[str] | None = None
) -> Iterator:
    """The per-source fold: fn(ctx, (path, label)) for each source's
    classified file, one task per source, in `labels` order (default:
    config order). The digests of the files each task read come back with
    its result and join this process's `artifacts.reading` record."""
    labels = labels or [s.label for s in config.sources]
    tasks = [(fn, layout.classified(label), label) for label in labels]
    for _, (result, read) in _map_chunks(_fold_task, tasks, ctx, _effective_workers(config)):
        artifacts.note_reads(read)
        yield result


def _fold_task(ctx, task: tuple[Callable, str, str]) -> tuple[object, dict[str, str]]:
    """fn(ctx, (path, label)), and the digests of the files it read to the end."""
    fn, path, label = task
    with artifacts.reading() as read:
        return fn(ctx, (path, label)), read


# --- ingest ------------------------------------------------------------------

def run_ingest(config: PipelineConfig, layout: Layout, inputs: list[dict]) -> StageResult:
    """Parse all inputs into normalized artifacts with reject sidecars.

    Appends the path of every external input it reads to `inputs`, with
    the number of countable lines of each article file.
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

    # the ledgers dedupe and write in input order
    with ExitStack() as stack:
        files, ledgers = {}, {}
        for source in config.sources:
            label = source.label
            files[label] = stack.enter_context(artifacts.open_artifact(layout.articles(label)))
            rejects = stack.enter_context(ingest.RejectLog(layout.reject_log(f"articles_{label}")))
            ledgers[label] = stack.enter_context(
                ingest.ArticleLedger(rejects, ingest.CorpusManifest())
            )
        for (label, linenos, lines), outcomes in _source_chunks(
            config, lambda s: s.articles, _ingest_chunk, checks
        ):
            admitted = ledgers[label].admit(linenos, lines, outcomes)
            files[label].write("".join(f"{line}\n" for line in admitted))

    for source in config.sources:
        manifest = ledgers[source.label].manifest
        inputs.append({"path": source.articles, "rows": manifest.total_lines})
        counters[f"records_{source.label}"] = manifest.record_count
        counters[f"rejects_{source.label}"] = manifest.reject_count
        outputs.append(layout.articles(source.label))
    return outputs, counters


def _ingest_chunk(
    checks: ingest.TextChecks, chunk: tuple[str, list[int], list[str]]
) -> list:
    """Each line of one chunk as (native_id, ingest line), or its reject code."""
    source, _, lines = chunk
    return ingest.article_outcomes(lines, source, checks)


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


def _classify_chunk(
    ctx: tuple[classify.ClassifierConfig, dict], chunk: tuple[str, list[int], list[str]]
) -> tuple[list[str], list[str | None], Counter]:
    """The chunk's classified lines, each line's DOI (or None), and its
    records per unknown document class."""
    cfg, journals = ctx
    source, _, lines = chunk
    policy = cfg.policies[source]
    out = []
    dois = []
    unknown: Counter = Counter()
    for line in lines:
        record = artifacts.ingest_from_line(line, source)
        article = classify.classify_article(record, journals.get(record.journal_issn_l), cfg)
        if classify.is_unknown_class(record, policy):
            unknown[record.document_class] += 1
        out.append(artifacts.classified_to_line(article))
        dois.append(record.doi)
    return out, dois, unknown


def run_classify(config: PipelineConfig, layout: Layout, inputs: list[dict]) -> StageResult:
    """Apply all classification rules to every ingested record.

    One line map covers every source; each result goes to its source's
    file, and each record with a DOI gets an entry in the DOI index.
    """
    journals = artifacts.read_journals(layout.journals)
    cfg = _classifier_config(config)
    outputs = [layout.classified(s.label) for s in config.sources]
    rows = {s.label: 0 for s in config.sources}
    offsets = {s.label: 0 for s in config.sources}
    unknown = {s.label: Counter() for s in config.sources}
    entries: list[str] = []

    with ExitStack() as stack:
        files = {
            source.label: stack.enter_context(artifacts.open_artifact(path))
            for source, path in zip(config.sources, outputs)
        }
        index = stack.enter_context(artifacts.open_artifact(layout.doi_index))
        chunks = _source_chunks(
            config, lambda s: layout.articles(s.label), _classify_chunk, (cfg, journals)
        )
        for (label, _, _), (lines, dois, classes) in chunks:
            files[label].write("".join(f"{line}\n" for line in lines))
            offsets[label] = artifacts.doi_index_entries(
                label, lines, dois, offsets[label], entries
            )
            rows[label] += len(lines)
            unknown[label].update(classes)
        artifacts.write_doi_index(index, entries)

    counters = {}
    for label, n in rows.items():
        counters[f"classified_{label}"] = n
        counters[f"unknown_doc_class_{label}"] = sum(unknown[label].values())
        for doc_class, count in sorted(unknown[label].items()):
            log.warning(
                "unknown document class %r in source %s: %d records", doc_class, label, count
            )
    return outputs + [layout.doi_index], counters


# --- reconcile ----------------------------------------------------------------

def _project_source(open_label: str, source: tuple[str, str]) -> reconcile.Projection:
    """One source's first-author projection, read from the text of its
    classified file (`artifacts.bridge_row`)."""
    path, label = source
    with artifacts.open_input_text(path) as fh:
        return reconcile.first_author_ids(map(artifacts.bridge_row, fh), label == open_label)


def run_reconcile(config: PipelineConfig, layout: Layout, inputs: list[dict]) -> StageResult:
    """Build the open/proprietary crosswalk by DOI bridging, plus an audit sample.

    One per-source fold projects every source, the open source first.
    Each proprietary projection is bridged with the open one and tallied
    as it arrives, in config order, so every source's pairs and example
    DOIs add to one tally in that order.
    """
    open_label = config.open_source
    proprietary = [s.label for s in config.sources if s.label != open_label]
    projections = _source_folds(
        config, layout, _project_source, open_label, [open_label] + proprietary
    )
    open_ids = next(projections)
    counters: dict = {}
    counts: Counter = Counter()
    examples: dict = {}
    for label, prop_ids in zip(proprietary, projections, strict=True):
        bridge = reconcile.build_bridge(open_ids, prop_ids)
        counters[f"bridged_{label}"] = len(bridge)
        reconcile.tally_pairs(bridge, open_ids, prop_ids, counts, examples)

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
    """Role -> attribution rows of one source's classified file, and role ->
    `resolve_org` diagnostics. Lines that are not countable hybrid OA are
    skipped before they are decoded; the others are decoded once."""
    roles, journal_agreements, crosswalk_inverse, inst_index = ctx
    path, label = source
    rows: dict[str, list[tuple]] = {role: [] for role in roles}
    diagnostics: dict[str, dict] = {role: {} for role in roles}
    with artifacts.open_input_text(path) as fh:
        for line in fh:
            if not artifacts.is_attributable(line):
                continue
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


def run_attribute(config: PipelineConfig, layout: Layout, inputs: list[dict]) -> StageResult:
    """Evaluate every eligible OA article against the agreement registry.

    One per-source fold evaluates every role on each eligible record.
    """
    ctx = (tuple(config.roles), *_attribution_indexes(layout))
    rows: dict[str, list[tuple]] = {role: [] for role in config.roles}
    unresolved = dict.fromkeys(config.roles, 0)
    for result, diagnostics in _source_folds(config, layout, _attribute_source, ctx):
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


def run_aggregate(config: PipelineConfig, layout: Layout, inputs: list[dict]) -> StageResult:
    """Turn classified and attributed articles into indicator tables.

    One per-source fold: each classified record in a hybrid journal is
    decoded once and feeds every (role, group kind) indicator cell and the
    coverage tallies; the others are not decoded. The folds come back in
    config order.
    """
    ta_keys = {role: artifacts.read_ta_keys(layout.attributions(role)) for role in config.roles}
    folds = list(_source_folds(config, layout, _aggregate_source, (ta_keys, config.years)))
    counters: dict = {}
    for fold in folds:
        for role in fold.skipped_roles:
            counters[f"skipped_{fold.source}_{role}"] = 1

    rows = [row for fold in folds for row in fold.rows]
    counters["indicator_rows"] = artifacts.write_indicators(layout.indicators, rows)
    artifacts.write_table(layout.coverage, analytics.coverage_summary(folds))
    return [layout.indicators, layout.coverage], counters


# --- compare ------------------------------------------------------------------

def _head_rows(path: str) -> Iterator[artifacts.HeadRow]:
    """The `artifacts.head_row` of each line of a classified file."""
    with artifacts.open_input_text(path) as fh:
        yield from map(artifacts.head_row, fh)


def run_compare(config: PipelineConfig, layout: Layout, inputs: list[dict]) -> StageResult:
    """Coverage intersections, per-figure plot series, and rank correlations.

    Each classified file is read once, as a stream of `artifacts.head_row`
    rows, into the journal index.
    """
    open_label = config.open_source
    corpora = {s.label: _head_rows(layout.classified(s.label)) for s in config.sources}
    index = analytics.journal_index(corpora, config.years)
    overlaps = analytics.journal_overlaps(index.universe, index.doi_sets, open_label)
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
    for path in (layout.agreements, layout.crosswalk, layout.institutions):
        with open(path, "rb") as fh:
            key.append(fh.read())
    if _explain_registry is None or _explain_registry[0] != key:
        _explain_registry = (key, _attribution_indexes(layout))
    return _explain_registry[1]


def explain_doi(config: PipelineConfig, raw_doi: str) -> str:
    """Human-readable attribution trace for one DOI across all sources.

    Finds the DOI's records through classify's DOI index and decodes only
    their lines, in config source order, then file order.
    """
    layout = Layout(config.out_dir)
    _require(STAGE_INPUTS["attribute"](layout, config) + [layout.doi_index], "explain")
    doi = normalize_doi(raw_doi)
    if doi is None:
        raise UnknownDoi(f"not a DOI: {raw_doi!r}")

    order = {s.label: k for k, s in enumerate(config.sources)}
    located = sorted(
        (order[label], offset, label)
        for label, offset in artifacts.doi_index_hits(layout.doi_index, doi)
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

