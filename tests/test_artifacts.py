import json
import os
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridoa.artifacts import (
    IngestRow,
    Layout,
    classified_to_line,
    dump_canonical,
    has_corresponding_data,
    holding,
    in_hybrid_journal,
    ingest_from_line,
    is_attributable,
    note_writes,
    open_artifact,
    open_input_text,
    read_manifest,
    reading,
    recording,
    sha256_file,
    write_manifest,
)
from hybridoa.attribute import role_author
from hybridoa.errors import DependencyError
from hybridoa.model import (
    Authorship,
    ClassifiedArticle,
    LicenseStatement,
    ROLES,
)
from oracles import (
    ArticleRecord,
    as_row,
    filled_streams,
    oracle_doi_stream,
    oracle_first_author,
    oracle_has_corresponding_data,
    oracle_journal_summary,
    oracle_role_author,
    written_line,
)

ORGS = ("ror:r1", "ror:r2", "srcA:p1", "srcB:q1")
COUNTRIES = ("CH", "DE", "NL")
DATES = st.dates(date(2015, 1, 1), date(2025, 12, 31))

authors_strategy = st.lists(
    st.builds(
        Authorship,
        position=st.integers(1, 4),
        is_corresponding=st.sampled_from([None, True, False]),
        org_ids=st.frozensets(st.sampled_from(ORGS), max_size=3),
        countries=st.frozensets(st.sampled_from(COUNTRIES), max_size=2),
    ),
    max_size=5,
).map(tuple)

licenses_strategy = st.lists(
    st.builds(
        LicenseStatement,
        url=st.sampled_from(
            ["https://creativecommons.org/licenses/by/4.0/", "https://publisher.example/license"]
        ),
        applies_to_vor=st.booleans(),
        start_date=st.one_of(st.none(), DATES),
    ),
    max_size=2,
).map(tuple)


def article(authors, pub_date, licenses=(), countable=True, oa=True, regular=True):
    record = ArticleRecord(
        source="srcA",
        native_id="A1",
        journal_issn_l="0378-5955",
        pub_date=pub_date,
        document_class="Article",
        doi="10.1/a",
        pagination="1-9",
        title="A title the row drops",
        licenses=licenses,
        authors=authors,
    )
    return ClassifiedArticle(
        record=record,
        year=pub_date.year if pub_date else 2021,
        is_original=countable,
        is_paratext=False,
        # a countable article is in a regular issue
        in_regular_issue=countable or regular,
        is_hybrid_oa=countable and oa,
        countable=countable,
        journal_is_hybrid=True,
        publisher="Pub",
    )


def author(position, corresponding=None, *orgs):
    return Authorship(position, corresponding, frozenset(orgs), frozenset({"DE"}))


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        article,
        authors_strategy,
        st.one_of(st.none(), DATES),
        licenses_strategy,
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
)
@example(article((author(2, None, "ror:r1"), author(3, None)), date(2021, 1, 1)))  # no first author
@example(  # several corresponding authors, the first of them not first in the tuple
    article(
        (author(1, False, "ror:r1"), author(3, True, "srcA:p1"), author(2, True, "ror:r2")),
        date(2021, 1, 1),
    )
)
@example(article((author(1, None, "ror:r1"),), None))  # corresponding null, no pub_date
def test_row_equals_full_record_path(full):
    """The row read back from a classified line answers as the full record."""
    line = written_line(full)
    row = as_row(full)
    record = full.record
    assert row.first_author() == oracle_first_author(record)
    for role in ROLES:
        assert role_author(row, role) == oracle_role_author(record, role)
    assert has_corresponding_data(line) == oracle_has_corresponding_data(record)
    assert row.pub_date == record.pub_date
    assert row.licenses == record.licenses
    assert (row.source, row.native_id, row.doi, row.journal_issn_l) == (
        record.source, record.native_id, record.doi, record.journal_issn_l,
    )
    flags = (
        "year", "publisher", "is_original", "is_paratext", "in_regular_issue", "is_hybrid_oa",
        "countable", "journal_is_hybrid",
    )
    assert [getattr(row, f) for f in flags] == [getattr(full, f) for f in flags]
    assert is_attributable(line) == (full.countable and full.is_hybrid_oa)
    assert in_hybrid_journal(line) == full.journal_is_hybrid
    assert "title" not in line and "pagination" not in line


# Text that spells, once its quotes are escaped, the keys the text predicates look for.
KEY_TEXTS = st.sampled_from([
    '"corresponding":true', '"corresponding":false', ',"journal_is_hybrid":true,',
    '\\"corresponding\\":true', "corresponding", "x",
])


@settings(max_examples=300, deadline=None)
@given(
    authors_strategy, st.booleans(), KEY_TEXTS, KEY_TEXTS, KEY_TEXTS, KEY_TEXTS,
    st.lists(KEY_TEXTS, max_size=2),
)
def test_text_predicates_equal_the_decoded_line(authors, hybrid, publisher, doi, org, url, extra):
    """`in_hybrid_journal` and `has_corresponding_data` tell from the text
    what the decoded line says, whatever the line's strings spell."""
    full = article(
        tuple(replace(a, org_ids=a.org_ids | {f"ror:{org}"}) for a in authors),
        date(2021, 1, 1),
        (LicenseStatement(url=f"https://{url}", applies_to_vor=True),),
    )
    full = replace(
        full,
        record=replace(full.record, doi=f"10.1/{doi}", native_id="".join(extra) or "A1"),
        journal_is_hybrid=hybrid,
        publisher=publisher,
    )
    line = written_line(full)
    obj = json.loads(line)
    assert in_hybrid_journal(line) == obj["journal_is_hybrid"]
    assert has_corresponding_data(line) == any(
        a["corresponding"] is not None for a in obj["record"]["authors"]
    )


# Text that spells the keys and ends the text readers look for, plus
# quotes, backslashes and non-ASCII text.
READER_PIECES = [
    ',"doi":', ',"issn":', '"position":1}', ',"year":', ',"record":{"authors":[',
    '"publisher":"', "null", '"', "\\", "\\u0022", "é", "中", "\U0001F600", "x", ":",
]
reader_text = st.lists(st.sampled_from(READER_PIECES), max_size=5).map("".join)
reader_org_ids = st.lists(
    st.tuples(st.sampled_from(["ror", "srcA", "srcB"]), reader_text).map(":".join),
    max_size=3, unique=True,
).map(sorted)


def classified_object(authors, doi, issn, publisher, urls, flags, year):
    """A classified line's object; `authors` holds (position, org IDs,
    countries) and is written in position order, as ingest writes it."""
    return {
        "countable": flags[0], "in_regular_issue": flags[1], "is_hybrid_oa": flags[2],
        "is_original": flags[3], "is_paratext": flags[4], "journal_is_hybrid": flags[5],
        "publisher": publisher,
        "record": {
            "authors": [
                {"corresponding": None, "countries": countries, "org_ids": org_ids,
                 "position": position}
                for position, org_ids, countries in sorted(authors, key=lambda a: a[0])
            ],
            "doi": doi, "issn": issn,
            "licenses": [
                {"applies_to_vor": True, "start_date": None, "url": url} for url in urls
            ],
            "native_id": "A1", "pub_date": "2021-03-04",
        },
        "year": year,
    }


SPELLED = ',"doi":"10.1/x","issn":"x"' + '"position":1}'


@settings(max_examples=400, deadline=None)
@given(
    st.builds(
        classified_object,
        st.lists(
            st.tuples(st.integers(1, 3), reader_org_ids, st.lists(reader_text, max_size=2)),
            max_size=3,
        ),
        st.none() | reader_text.map(lambda t: "10.1/" + t),
        reader_text,
        reader_text,
        st.lists(reader_text.map(lambda t: "https://" + t), max_size=2),
        st.lists(st.booleans(), min_size=6, max_size=6),
        st.integers(1900, 2100),
    )
)
@example(classified_object([], None, "0378-5955", "", [], [False] * 6, 2021))  # no DOI, no authors
@example(classified_object(  # a DOI holding a quote, a backslash and non-ASCII text
    [(1, ["ror:r1"], ["DE"])], '10.1/"a\\b"é中', "0378-5955", "P", [], [True] * 6, 2021
))
@example(classified_object(  # no author at position 1
    [(2, ["ror:r2", "srcA:p2"], ["DE"]), (3, ["ror:r3"], [])], "10.1/a", "x", "P", [],
    [True] * 6, 2021,
))
@example(classified_object(  # two authors at position 1: the first is the first author
    [(1, ["ror:r1", "srcB:q1"], []), (1, ["ror:r2"], [])], "10.1/a", "x", "P", [], [True] * 6,
    2021,
))
@example(classified_object(  # keys spelled inside every string before and after them
    [(2, ["ror:" + SPELLED], [SPELLED]), (2, ["srcA:" + SPELLED], [])], "10.1/" + SPELLED,
    SPELLED, SPELLED, ["https://" + SPELLED], [False, True] * 3, 2019,
))
def test_text_readers_equal_the_decoded_line(obj):
    """The DOI stream line and journal summary line that classify reads
    from the text of the ingest line (`SourceStreams`) equal those recounted
    from a full decode of the classified line."""
    years = (2000, 2050)
    record = {
        **obj["record"], "article_number": None, "document_class": "Article",
        "pagination": None, "source": "srcA", "title": "",
    }
    for text in (dump_canonical(record), dump_canonical(record) + "\n"):
        article = ClassifiedArticle(
            record=IngestRow(text, "srcA"), year=obj["year"], countable=obj["countable"],
            in_regular_issue=obj["in_regular_issue"], is_hybrid_oa=obj["is_hybrid_oa"],
            is_original=obj["is_original"], is_paratext=obj["is_paratext"],
            journal_is_hybrid=obj["journal_is_hybrid"], publisher=obj["publisher"],
        )
        line = classified_to_line(article)
        assert json.loads(line) == obj
        streams = filled_streams("srcA", [article], years)
        assert list(streams.dois.merged()) == oracle_doi_stream([line], "srcA", years)
        assert streams.journal_lines() == oracle_journal_summary([line], "srcA", years)


@pytest.mark.parametrize(
    "text", ["20210304", "2021-W09-4", "2021-03", "٢٠٢١-٠٣-٠٤", "2021-03-04T00"]
)
def test_artifact_dates_are_yyyy_mm_dd_only(text):
    """An artifact date is read only in the one form every interpreter reads alike."""
    obj = {
        "native_id": "W1", "issn": "0378-5955", "pub_date": "2021-03-04",
        "document_class": "journal-article", "title": "", "pagination": None,
        "article_number": None, "authors": [],
    }
    assert ingest_from_line(dump_canonical(obj), "open").pub_date == date(2021, 3, 4)
    with pytest.raises(ValueError):
        ingest_from_line(dump_canonical({**obj, "pub_date": text}), "open")


def test_manifest_digest_and_rows_are_taken_while_writing(tmp_path):
    layout = Layout(str(tmp_path))
    path = os.path.join(str(tmp_path), "stage", "table.ndjson")
    with recording() as written:
        with open_artifact(path) as fh:
            fh.write('{"a":"\u00e9"}\n{"b":1}')  # non-ASCII, and no newline at the end
    write_manifest(layout, "stage", "digest", [], [path], {}, written)
    (entry,) = read_manifest(layout, "stage")["outputs"]
    assert entry == {
        "path": os.path.join("stage", "table.ndjson"), "sha256": sha256_file(path), "rows": 2
    }


def test_reading_keeps_the_digest_of_each_input_read_to_its_end(tmp_path):
    """A file read to its end has the sha256 of the bytes read; one read in
    part has none; a second read that finds other bytes raises."""
    whole, part = tmp_path / "whole.csv", tmp_path / "part.csv"
    whole.write_bytes(b"a,b\n\xc3\xa9,2\n" * 5000)
    part.write_bytes(b"a,b\n" * 5000)
    with reading() as read:
        with open_input_text(str(whole)) as fh:
            assert sum(1 for _ in fh) == 10000
        with open_input_text(str(part)) as fh:
            fh.readline()
    assert read == {str(whole): sha256_file(str(whole))}

    with reading() as read:
        with open_input_text(str(whole)) as fh:
            fh.read()
        with open(whole, "ab") as fh:
            fh.write(b"c,3\n")
        with pytest.raises(DependencyError, match="changed between two reads"):
            with open_input_text(str(whole)) as fh:
                fh.read()


def test_recording_publishes_every_file_only_when_the_block_succeeds(tmp_path):
    """Files written in a `recording` block replace their targets when the
    block exits cleanly; when it raises, none does and no temp file stays."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    for path in (first, second):
        with open_artifact(str(path)) as fh:
            fh.write("old\n")
    with pytest.raises(RuntimeError):
        with recording():
            with open_artifact(str(first)) as fh:
                fh.write("new\n")
            assert first.read_text(encoding="utf-8") == "old\n"  # not yet published
            raise RuntimeError("the stage failed after its first file")
    assert sorted(os.listdir(tmp_path)) == ["first.csv", "second.csv"]
    assert first.read_text(encoding="utf-8") == "old\n"
    with recording() as written:
        for path in (first, second):
            with open_artifact(str(path)) as fh:
                fh.write("new\n")
    assert sorted(written) == [str(first), str(second)]
    assert sorted(os.listdir(tmp_path)) == ["first.csv", "second.csv"]
    assert {p.read_text(encoding="utf-8") for p in (first, second)} == {"new\n"}


@pytest.mark.parametrize("fails", [False, True])
def test_held_writes_are_published_or_deleted_with_the_recording_block(tmp_path, fails):
    """Files written in a `holding` block stay temp files when it exits
    cleanly, and it deletes them when it raises. Handed to a `recording`
    block (`note_writes`), they join its record and are published with
    its own files, or deleted with them when it raises."""
    held, own = tmp_path / "held.csv", tmp_path / "own.csv"
    with pytest.raises(RuntimeError):
        with holding():
            with open_artifact(str(held)) as fh:
                fh.write("lost\n")
            raise RuntimeError("the task failed after its first file")
    assert os.listdir(tmp_path) == []
    with holding() as files:
        with open_artifact(str(held)) as fh:
            fh.write("held\n")
    assert os.listdir(tmp_path) == ["held.csv.tmp"]
    try:
        with recording() as written:
            with open_artifact(str(own)) as fh:
                fh.write("own\n")
            note_writes(files)
            if fails:
                raise RuntimeError("the stage failed after its task")
    except RuntimeError:
        assert fails
        assert os.listdir(tmp_path) == []
        return
    assert sorted(written) == [str(held), str(own)]
    assert written[str(held)] == (sha256_file(str(held)), 1)
    assert sorted(os.listdir(tmp_path)) == ["held.csv", "own.csv"]
