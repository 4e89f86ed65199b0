"""Classify's attributable files, DOI file and journal summaries, and the
passes that reconcile and compare make over the DOI file.

The files are recounted from the classified files (`oracle_attributable`,
`oracle_dois`, `oracle_journal_summary`), and the passes are checked
against the dict-based reconcile and compare they replaced
(`dict_reconcile`, `dict_journal_overlaps`).
"""

import json
import os
import pickle
import tempfile
from collections import Counter
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import date
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridoa import artifacts, fixture, pipeline
from hybridoa.analytics import journal_index, journal_overlaps
from hybridoa.artifacts import Layout, SortedRuns, doi_groups, json_rows, merge_runs
from hybridoa.classify import (
    DOC_MODE_HEURISTIC,
    ClassifierConfig,
    SourcePolicy,
    load_paratext_patterns,
)
from hybridoa.config import PipelineConfig, SourceConfig, load_config
from hybridoa.model import Authorship, ClassifiedArticle, Journal, LicenseStatement
from hybridoa.reconcile import build_bridge, tally_pairs
from oracles import (
    ArticleRecord,
    as_row,
    dict_journal_overlaps,
    dict_reconcile,
    doi_lines,
    filled_streams,
    ingested,
    oracle_attributable,
    oracle_dois,
    oracle_journal_index,
    oracle_journal_summary,
    record_to_dict,
    written_line,
)

YEARS = (2019, 2023)
SOURCES = ("open", "srcA", "srcB")


# --- the external sort ---------------------------------------------------------------

def test_sorted_runs_spill_and_merge_into_text_order(tmp_path, monkeypatch):
    """Runs that reach SORT_RUN_BYTES spill to files of their own; the
    merge of them and the rest of the lines, spilled last, is the text
    order of every line."""
    monkeypatch.setattr(artifacts, "SORT_RUN_BYTES", 3 * (artifacts.LINE_OVERHEAD + 4))
    lines = [f"{n:03d}\n" for n in (5, 3, 9, 1, 7, 3, 0, 8)]
    runs = SortedRuns(str(tmp_path))
    for line in lines:
        runs.extend([line])
    assert len(runs.files) == 2 and sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(path) for path in runs.files
    )
    assert list(merge_runs(runs.spill())) == sorted(lines)


@pytest.mark.parametrize("works", [10, 1000])
def test_classify_tasks_hand_back_their_runs_as_paths(tmp_path, two_workers, works):
    """A classify task on a pool hands back its DOI lines as the paths of
    run files in the spill directory, so its pickled result stays under
    1 KB whatever the size of its source; the run files merge into the
    recount of the classified files."""
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    layout = Layout(str(tmp_path / "out"))
    drawn = [("1111-1111", "Article", "A study", "10-19", LICENSES[1], 2020)] * works
    tasks = []
    for source in SOURCES:
        path = str(tmp_path / f"ingest_{source}.ndjson")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(ingest_lines(source, drawn, False))
        tasks.append((
            source, path, layout.classified(source), layout.attributable(source),
            layout.journal_summary(source),
        ))
    ctx = (CLASSIFY_CFG, CLASSIFY_JOURNALS, YEARS, str(spill_dir))
    results = list(pipeline._source_folds(two_workers, pipeline._classify_source, ctx, tasks))
    paths = [path for _, _, runs in results for path in runs]
    assert len(paths) == len(SOURCES)
    assert all(os.path.dirname(path) == str(spill_dir) for path in paths)
    assert all(len(pickle.dumps(result)) < 1024 for result in results)
    classified = {source: read_lines(layout.classified(source)) for source in SOURCES}
    assert list(merge_runs(paths)) == oracle_dois(classified, YEARS)


# --- reconcile's and compare's passes against the dict-based stages -------------------

# DOIs that are text prefixes of one another, and characters that sort
# below or above the closing quote of a DOI's JSON string, so the DOI
# file's line order is not the DOIs' sorted order.
DOIS = (None, "10.1/a", "10.1/ab", "10.1/a b", "10.1/a!", "10.1/aé", '10.1/a"', "10.1/b")
ORGS = ("ror:r0", "ror:r1", "srcA:p0", "srcA:p1", "srcB:q0")

authors = st.one_of(
    st.just(()),  # no authors
    st.tuples(  # a first author, or only an author at position 2
        st.builds(Authorship, position=st.sampled_from([1, 1, 2]),
                  org_ids=st.frozensets(st.sampled_from(ORGS), max_size=3))
    ),
)
articles = st.tuples(
    st.sampled_from(DOIS),
    st.sampled_from(["1111-1111", "2222-2222"]),  # a DOI may be held under two journals
    st.sampled_from([2018, 2020, 2024]),
    st.sampled_from([(False, False), (True, False), (True, True)]),  # countable, hybrid OA
    st.sampled_from(["P1", "P2"]),
    authors,
)
corpora_strategy = st.tuples(*(st.lists(articles, max_size=12) for _ in SOURCES))


def article(source, i, drawn):
    doi, issn_l, year, (countable, hybrid_oa), publisher, people = drawn
    record = ArticleRecord(
        source=source, native_id=f"{source}{i}", journal_issn_l=issn_l,
        pub_date=date(year, 3, 1), document_class="Article", doi=doi, authors=people,
    )
    return ClassifiedArticle(
        record=record, year=year, is_original=countable, is_paratext=False,
        in_regular_issue=countable, is_hybrid_oa=hybrid_oa, countable=countable,
        journal_is_hybrid=True, publisher=publisher,
    )


REPEATS_AND_PREFIXES = (
    [("10.1/a", "1111-1111", 2020, (True, True), "P1", ()),
     ("10.1/ab", "1111-1111", 2020, (True, True), "P1", ())],
    [("10.1/a", "1111-1111", 2020, (True, False), "P2", ()),
     ("10.1/a", "2222-2222", 2020, (True, True), "P2", ())],  # repeated, two journals
    [("10.1/a!", "1111-1111", 2020, (True, True), "P1", ())],
)


@settings(max_examples=300, deadline=None)
@given(corpora_strategy, st.booleans())
@example(REPEATS_AND_PREFIXES, False)
@example(REPEATS_AND_PREFIXES, True)
def test_merge_join_and_merge_count_equal_the_dict_based_stages(drawn, spill):
    """Reconcile's pass over the DOI file gives the bridged counts, pair
    counts and example DOIs of the projections it replaced, and compare's
    the journal index and overlaps of the per-journal DOI sets, whether the
    DOI lines were sorted in memory or spilled in runs of a line or two."""
    corpora = {
        source: [article(source, i, a) for i, a in enumerate(raw)]
        for source, raw in zip(SOURCES, drawn)
    }
    run_bytes = 2 * (artifacts.LINE_OVERHEAD + 40) if spill else artifacts.SORT_RUN_BYTES
    with mock.patch.object(artifacts, "SORT_RUN_BYTES", run_bytes):
        streams = {
            source: filled_streams(source, map(ingested, corpora[source]), YEARS)
            for source in SOURCES
        }
        for source in SOURCES:
            # a DOI line takes at least 98 bytes, so two spill a run
            if not spill or sum(bool(a.record.doi) for a in corpora[source]) >= 2:
                assert bool(streams[source].dois.files) == spill
        lines = doi_lines(streams[source] for source in SOURCES)
    classified = {source: [written_line(a) for a in corpora[source]] for source in SOURCES}
    assert lines == oracle_dois(classified, YEARS)

    bridged, counts, examples = Counter(), Counter(), {}
    ranks = {source: rank for rank, source in enumerate(SOURCES)}
    tally_pairs(build_bridge(doi_groups(lines), ranks, bridged), counts, examples)
    rows = {source: [as_row(a) for a in corpora[source]] for source in SOURCES}
    want_bridged, want_counts, want_examples = dict_reconcile(
        rows["open"], {label: rows[label] for label in SOURCES[1:]}
    )
    assert {label: bridged[rank] for rank, label in enumerate(SOURCES) if rank} == want_bridged
    assert (counts, examples) == (want_counts, want_examples)

    index = journal_index(
        {source: json_rows(streams[source].journal_lines()) for source in SOURCES}
    )
    universe, doi_sets, publishers = oracle_journal_index(corpora, YEARS)
    assert (index.universe, index.publishers) == (universe, publishers)
    assert journal_overlaps(index.universe, doi_groups(lines), "open") == dict_journal_overlaps(
        universe, doi_sets, "open"
    )


# --- what classify writes --------------------------------------------------------------

def small_config(tmp_path, works=300):
    corpus = tmp_path / "corpus"
    fixture.generate(fixture.FixtureParams(seed=5, n_articles=works), str(corpus))
    return replace(load_config(str(corpus / "config.json")), workers=1)


def read_lines(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.readlines()


def assert_offsets_seek(layout, lines):
    """Each DOI line's offset is the start of a line of its source's
    classified file that holds its DOI."""
    for line in lines:
        doi, source, offset, *_ = json.loads(line)
        with open(layout.classified(source), "rb") as fh:
            if offset:
                fh.seek(offset - 1)
                assert fh.read(1) == b"\n", line
            assert json.loads(fh.readline())["record"]["doi"] == doi, line


@pytest.mark.parametrize("workers", [1, 2])
def test_streams_and_summaries_recount_from_the_classified_files(tmp_path, workers):
    config = replace(small_config(tmp_path), workers=workers)
    pipeline.run(config, ["ingest", "classify"])
    layout = Layout(config.out_dir)
    classified = {s.label: read_lines(layout.classified(s.label)) for s in config.sources}
    dois = read_lines(layout.dois)
    assert dois and dois == oracle_dois(classified, config.years)
    assert_offsets_seek(layout, dois)
    for source in config.sources:
        assert read_lines(layout.journal_summary(source.label)) == oracle_journal_summary(
            classified[source.label], source.label, config.years
        )


# Each flag that classify's verdict of countable hybrid OA depends on, drawn
# both ways: the journal (hybrid, fully OA, in no journal table), the
# document class, a paratext title, the pagination and the licenses.
CC_BY = "https://creativecommons.org/licenses/by/4.0/"
CLASSIFY_JOURNALS = {
    "1111-1111": Journal(issn_l="1111-1111", publisher="P1", is_hybrid=True),
    "2222-2222": Journal(issn_l="2222-2222", publisher="P2", is_hybrid=False),
}
CLASSIFY_CFG = ClassifierConfig(
    policies={
        "open": SourcePolicy(mode=DOC_MODE_HEURISTIC), "srcA": SourcePolicy(), "srcB": SourcePolicy(),
    },
    paratext_patterns=load_paratext_patterns(),
    lenient_oa_sources=frozenset({"srcB"}),
)
LICENSES = (
    (),
    (LicenseStatement(CC_BY, True, None),),
    (LicenseStatement(CC_BY, False, None),),
    (LicenseStatement(CC_BY, True, date(2024, 1, 1)),),  # delayed
    (LicenseStatement("https://publisher.example/user-license", True, None),),
)
records = st.tuples(
    st.sampled_from(["1111-1111", "2222-2222", "3333-3333"]),
    st.sampled_from(["journal-article", "Article", "editorial"]),
    st.sampled_from(["A study", "Editorial Board"]),
    st.sampled_from(["10-19", "S1", None]),
    st.sampled_from(LICENSES),
    st.sampled_from([2018, 2020, 2024]),
)


def ingest_lines(source, drawn, closed):
    """Ingest's lines of the drawn records of `source`; every license
    dropped when `closed`, so that no record is OA."""
    lines = []
    for i, (issn_l, doc_class, title, pagination, licenses, year) in enumerate(drawn):
        record = ArticleRecord(
            source=source, native_id=f"{source}{i}", journal_issn_l=issn_l,
            pub_date=date(year, 3, 1), document_class=doc_class, doi=f"10.1/{source}{i}",
            pagination=pagination, title=title, licenses=() if closed else licenses,
        )
        lines.append(artifacts.dump_canonical(record_to_dict(record)) + "\n")
    return lines


@pytest.fixture(scope="module")
def two_workers():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


# Runs of a line or two, and chunks of two lines, so that every sort with
# more than a line or two spills.
SMALL_RUNS = {"SORT_RUN_BYTES": 2 * (artifacts.LINE_OVERHEAD + 40), "CHUNK_LINES": 2}


def use_small_runs():
    for name, value in SMALL_RUNS.items():
        setattr(artifacts, name, value)


@pytest.fixture(scope="module")
def two_spilling_workers():
    with ProcessPoolExecutor(max_workers=2, initializer=use_small_runs) as pool:
        yield pool


@settings(max_examples=60, deadline=None)
@given(st.tuples(*(st.lists(records, max_size=10) for _ in SOURCES)), st.sampled_from(SOURCES))
@example(([], [], []), "open")
@example(([("1111-1111", "journal-article", "A study", "10-19", LICENSES[1], 2020)],) * 3, "srcB")
def test_each_attributable_file_equals_its_oracle(two_workers, drawn, closed):
    """Classify's attributable file of each source holds the lines of its
    classified file that are countable, in a regular issue and hybrid OA,
    in file order, inline and on a two-process pool alike; the source whose
    records carry no license has an empty one."""
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for pool in (None, two_workers):
            layout = Layout(os.path.join(tmp, "inline" if pool is None else "pool"))
            tasks = []
            for source, raw in zip(SOURCES, drawn):
                path = os.path.join(tmp, f"ingest_{source}.ndjson")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(ingest_lines(source, raw, source == closed))
                tasks.append((
                    source, path, layout.classified(source), layout.attributable(source),
                    layout.journal_summary(source),
                ))
            ctx = (CLASSIFY_CFG, CLASSIFY_JOURNALS, YEARS, tmp)
            list(pipeline._source_folds(pool, pipeline._classify_source, ctx, tasks))
            files = {}
            for source in SOURCES:
                classified = read_lines(layout.classified(source))
                attributable = read_lines(layout.attributable(source))
                assert attributable == oracle_attributable(classified), source
                files[source] = (classified, attributable)
            assert files[closed][1] == []
            written.append(files)
    assert written[0] == written[1]


doi_records = st.tuples(
    st.sampled_from(DOIS),
    st.sampled_from(["1111-1111", "2222-2222", "3333-3333"]),
    st.sampled_from(["journal-article", "Article", "editorial"]),
    st.sampled_from(LICENSES),
    st.sampled_from([2018, 2020, 2024]),
    authors,
)


def doi_ingest_lines(source, drawn):
    """Ingest's lines of the drawn records of `source`."""
    lines = []
    for i, (doi, issn_l, doc_class, licenses, year, people) in enumerate(drawn):
        record = ArticleRecord(
            source=source, native_id=f"{source}{i}", journal_issn_l=issn_l,
            pub_date=date(year, 3, 1), document_class=doc_class, doi=doi, pagination="10-19",
            title="A study", licenses=licenses, authors=people,
        )
        lines.append(artifacts.dump_canonical(record_to_dict(record)) + "\n")
    return lines


def classify_config(out_dir):
    """The config of `CLASSIFY_CFG`'s sources; classify reads no input path of it."""
    return PipelineConfig(
        sources=(
            SourceConfig("open", "", "ror", open_baseline=True, doc_class_mode=DOC_MODE_HEURISTIC),
            SourceConfig("srcA", "", "srcA"),
            SourceConfig("srcB", "", "srcB", lenient_oa=True),
        ),
        agreement_dump="", durations="", issn_links="", institutions="", years=YEARS,
        out_dir=out_dir,
    )


@settings(max_examples=40, deadline=None)
@given(st.tuples(*(st.lists(doi_records, max_size=8) for _ in SOURCES)))
@example(([], [], []))
@example((  # a DOI held twice by one source, and DOIs that are prefixes of one another
    [("10.1/a", "1111-1111", "Article", LICENSES[1], 2020, ())] * 2,
    [("10.1/ab", "1111-1111", "Article", LICENSES[1], 2020, ())],
    [("10.1/a!", "2222-2222", "Article", (), 2020, ()),
     ("10.1/a", "1111-1111", "Article", (), 2024, ())],
))
def test_the_doi_file_equals_its_oracle(two_workers, two_spilling_workers, drawn):
    """Classify's DOI file is the recount of the classified files, and each
    line's offset seeks to a classified line of its source with its DOI:
    inline and on a two-process pool, with runs that spill and without,
    in the same bytes."""
    written = set()
    with tempfile.TemporaryDirectory() as tmp:
        for name, pool, small in (
            ("inline", None, False), ("pool", two_workers, False),
            ("inline-spilled", None, True), ("pool-spilled", two_spilling_workers, True),
        ):
            config = classify_config(os.path.join(tmp, name))
            layout = Layout(config.out_dir)
            artifacts.write_journals(layout.journals, CLASSIFY_JOURNALS.values())
            for source, raw in zip(SOURCES, drawn):
                with artifacts.open_artifact(layout.articles(source)) as fh:
                    fh.writelines(doi_ingest_lines(source, raw))
            runs = mock.patch.multiple(artifacts, **SMALL_RUNS) if small else nullcontext()
            with runs:
                pipeline.run_classify(config, layout, [], pool)
            dois = read_lines(layout.dois)
            classified = {source: read_lines(layout.classified(source)) for source in SOURCES}
            assert dois == oracle_dois(classified, YEARS), name
            assert_offsets_seek(layout, dois)
            written.add("".join(dois))
    assert len(written) == 1


def test_attribute_reads_no_classified_file(tmp_path):
    """Attribute's manifest records the registry and the attributable
    files as its inputs, and no classified file."""
    config = small_config(tmp_path)
    pipeline.run(config, ["ingest", "classify", "reconcile", "attribute"])
    layout = Layout(config.out_dir)
    inputs = [e["path"] for e in artifacts.read_manifest(layout, "attribute")["inputs"]]
    assert not [path for path in inputs if path.startswith(os.path.join("classify", "articles_"))]
    assert sorted(inputs) == sorted(
        os.path.relpath(path, config.out_dir)
        for path in [layout.agreements, layout.crosswalk, layout.institutions]
        + [layout.attributable(s.label) for s in config.sources]
    )


def tree_bytes(root):
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(folder, name), "rb") as fh:
                out[os.path.relpath(os.path.join(folder, name), root)] = fh.read()
    return out


def test_a_spilling_sort_writes_the_same_tree_and_leaves_no_run(tmp_path, monkeypatch):
    """At the default SORT_RUN_BYTES each sort of classify writes one run,
    when its task ends; with runs of a few KB every sort spills several.
    The tree keeps every byte, manifests included, and neither leaves a
    run file or spill directory behind."""
    config = small_config(tmp_path)
    spills = tmp_path / "spills"
    spills.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spills))
    made = set()
    spill = SortedRuns.spill

    def counted(self):
        files = spill(self)
        made.update(files)
        return files

    monkeypatch.setattr(SortedRuns, "spill", counted)
    pipeline.run(config)
    assert len(made) == len(config.sources)
    assert os.listdir(spills) == []
    before = tree_bytes(config.out_dir)
    made.clear()
    monkeypatch.setattr(artifacts, "SORT_RUN_BYTES", 4 << 10)
    monkeypatch.setattr(artifacts, "CHUNK_LINES", 20)  # a run spills after a chunk
    pipeline.run(config, ["classify", "reconcile", "compare"])
    assert len(made) > 2 * len(config.sources)
    assert tree_bytes(config.out_dir) == before
    assert os.listdir(spills) == []
