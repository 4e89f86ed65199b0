import json
import os
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridoa.artifacts import (
    Layout,
    has_corresponding_data,
    in_hybrid_journal,
    ingest_from_line,
    is_attributable,
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
    oracle_first_author,
    oracle_has_corresponding_data,
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


@pytest.mark.parametrize(
    "text", ["20210304", "2021-W09-4", "2021-03", "٢٠٢١-٠٣-٠٤", "2021-03-04T00"]
)
def test_artifact_dates_are_yyyy_mm_dd_only(text):
    """An artifact date is read only in the one form every interpreter reads alike."""
    obj = {
        "native_id": "W1", "issn": "0378-5955", "pub_date": "2021-03-04",
        "document_class": "journal-article", "title": "", "pagination": None,
        "article_number": None,
    }
    assert ingest_from_line(json.dumps(obj), "open").pub_date == date(2021, 3, 4)
    with pytest.raises(ValueError):
        ingest_from_line(json.dumps({**obj, "pub_date": text}), "open")


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
