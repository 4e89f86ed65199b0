import csv
import io
import json
import os
import random
import tempfile
from collections import Counter
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridoa import ingest, pipeline
from hybridoa.artifacts import classified_to_line, ingest_from_line
from hybridoa.classify import (
    DOC_MODE_HEURISTIC,
    ClassifierConfig,
    SourcePolicy,
    classify_article,
    load_paratext_patterns,
)
from hybridoa.errors import MissingColumn, SchemaViolation
from hybridoa.ingest import (
    RejectLog,
    TextChecks,
    article_outcomes,
    institution_index,
    load_agreement_dump,
    load_durations,
    load_fully_oa_lists,
    load_institutions,
    load_issn_link_table,
    load_publisher_aliases,
    parse_article_line,
    write_article_stream,
)
from hybridoa.model import Agreement, Journal, LicenseStatement

from conftest import article_line, write_lines
from oracles import (
    dictreader_csv_rows,
    encoded_classified_line,
    oracle_doi_stream,
    oracle_ingest_and_classify,
    oracle_journal_summary,
)

ISSN_A = "0378-5955"
ISSN_B = "0024-9319"  # valid: 0*8+0*7+2*6+4*5+9*4+3*3+1*2 = 79, 11-(79%11)=9
ISSN_BAD = "0000-0001"


def parsed(text, source, links=None):
    """The object of the ingest line `parse_article_line` makes of `text`."""
    return json.loads(parse_article_line(text, source, links)[1])


def test_issn_b_is_valid_per_oracle():
    total = sum(int(d) * w for d, w in zip("0024931", (8, 7, 6, 5, 4, 3, 2)))
    assert (11 - total % 11) % 11 == 9


# --- agreement dump ----------------------------------------------------------

def dump_file(tmp_path, rows):
    lines = ["agreement_id,issn,org_id,publisher"] + rows
    return write_lines(tmp_path / "agreements.csv", lines)


def test_dump_groups_rows_by_agreement(tmp_path):
    path = dump_file(
        tmp_path,
        [
            f"esac-x-1,{ISSN_A},ror:r1,Pub",
            f"esac-x-1,{ISSN_B},ror:r1,Pub",
            f"esac-x-1,{ISSN_B},ror:r2,Pub",
        ],
    )
    dump = load_agreement_dump(path)
    (agreement,) = dump.agreements
    assert agreement.agreement_id == "esac-x-1"
    assert len(agreement.journal_issn_ls) == 2
    assert len(agreement.institution_ids) == 2


def test_dump_rejects_bad_checksum_row_but_keeps_agreement(tmp_path):
    path = dump_file(
        tmp_path,
        [
            f"esac-x-1,{ISSN_A},ror:r1,Pub",
            f"esac-x-1,{ISSN_BAD},ror:r2,Pub",
        ],
    )
    rejects = RejectLog(str(tmp_path / "rej.csv"))
    dump = load_agreement_dump(path, rejects=rejects)
    rejects.close()
    (agreement,) = dump.agreements
    assert agreement.journal_issn_ls == frozenset({ISSN_A})
    assert agreement.institution_ids == frozenset({"ror:r1"})
    assert rejects.count == 1


def test_dump_empty_file_yields_empty_set(tmp_path):
    dump = load_agreement_dump(dump_file(tmp_path, []))
    assert dump.agreements == set()


def test_dump_resolves_issn_variants(tmp_path):
    path = dump_file(tmp_path, [f"a1,{ISSN_B},ror:r1,Pub"])
    dump = load_agreement_dump(path, links={ISSN_B: ISSN_A})
    (agreement,) = dump.agreements
    assert agreement.journal_issn_ls == frozenset({ISSN_A})


def test_dump_missing_column_raises(tmp_path):
    path = write_lines(tmp_path / "bad.csv", ["agreement_id,issn", "a,b"])
    with pytest.raises(MissingColumn):
        load_agreement_dump(path)


# --- durations ----------------------------------------------------------------

def undated(agreement_id="esac-x-1"):
    return Agreement(
        agreement_id=agreement_id,
        publisher="Pub",
        journal_issn_ls=frozenset({ISSN_A}),
        institution_ids=frozenset({"ror:r1"}),
    )


def durations_file(tmp_path, rows):
    return write_lines(tmp_path / "durations.csv", ["agreement_id,start_date,end_date"] + rows)


def test_durations_attach_window(tmp_path):
    path = durations_file(tmp_path, ["esac-x-1,2019-07-01,2022-12-31"])
    dated = load_durations(path, {undated()})
    (agreement,) = dated
    assert agreement.start_date == date(2019, 7, 1)
    assert agreement.end_date == date(2022, 12, 31)


def test_durations_drop_agreements_without_row(tmp_path):
    path = durations_file(tmp_path, ["other,2020-01-01,2020-12-31"])
    assert load_durations(path, {undated()}) == set()


def test_durations_reject_inverted_window(tmp_path):
    path = durations_file(tmp_path, ["esac-x-1,2023-01-01,2022-01-01"])
    rejects = RejectLog(str(tmp_path / "rej.csv"))
    dated = load_durations(path, {undated()}, rejects)
    assert dated == set()
    assert rejects.count == 1


def test_durations_conflicting_window_rejected_first_row_wins(tmp_path):
    path = durations_file(
        tmp_path,
        [
            "esac-x-1,2019-07-01,2022-12-31",
            "esac-x-1,2020-01-01,2020-12-31",
            "esac-x-1,2019-07-01,2022-12-31",
        ],
    )
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        (agreement,) = load_durations(path, {undated()}, rejects)
    assert (agreement.start_date, agreement.end_date) == (date(2019, 7, 1), date(2022, 12, 31))
    assert logged_rejects(tmp_path / "rej.csv") == [
        ("conflicting_window", "esac-x-1,2020-01-01,2020-12-31")
    ]


def test_durations_empty_agreement_id_rejected(tmp_path):
    path = durations_file(
        tmp_path, [",2019-07-01,2022-12-31", "  ,2019-07-01,2022-12-31", "esac-x-1,2020-01-01,"]
    )
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        assert load_durations(path, {undated()}, rejects) == set()
    assert logged_rejects(tmp_path / "rej.csv") == [
        ("schema_violation", ",2019-07-01,2022-12-31"),
        ("schema_violation", "  ,2019-07-01,2022-12-31"),
        ("bad_date", "esac-x-1,2020-01-01,"),
    ]


# --- link table ----------------------------------------------------------------

def test_link_table_identity_allowed(tmp_path):
    path = write_lines(tmp_path / "l.csv", ["issn,issn_l", f"{ISSN_A},{ISSN_A}"])
    assert load_issn_link_table(path) == {ISSN_A: ISSN_A}


def test_link_table_conflicting_key_rejected(tmp_path):
    path = write_lines(
        tmp_path / "l.csv",
        ["issn,issn_l", f"{ISSN_B},{ISSN_A}", f"{ISSN_B},{ISSN_B}"],
    )
    rejects = RejectLog(str(tmp_path / "rej.csv"))
    links = load_issn_link_table(path, rejects)
    assert links == {ISSN_B: ISSN_A}
    assert rejects.count == 1


def logged_rejects(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [(row["reason"], row["raw"]) for row in csv.DictReader(fh)]


def test_link_table_short_row_logs_missing_field_as_empty(tmp_path):
    path = write_lines(tmp_path / "l.csv", ["issn,issn_l", ISSN_A, f"{ISSN_BAD},{ISSN_A}"])
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        assert load_issn_link_table(path, rejects) == {}
    assert logged_rejects(tmp_path / "rej.csv") == [
        ("malformed_issn", f"{ISSN_A},"),
        ("checksum_failure", f"{ISSN_BAD},{ISSN_A}"),
    ]


def test_unknown_issn_falls_back_to_itself(tmp_path):
    path = write_lines(tmp_path / "l.csv", ["issn,issn_l"])
    links = load_issn_link_table(path)
    record = parsed(article_line(issn=ISSN_A), "open", links)
    assert record["issn"] == ISSN_A


# --- fully-OA lists -------------------------------------------------------------

ISSN_C = "0002-9327"  # valid: 2*5+9*4+3*3+2*2 = 59, 11-(59%11)=7


def test_fully_oa_union(tmp_path):
    a = write_lines(tmp_path / "a.txt", [ISSN_A, ISSN_B])
    b = write_lines(tmp_path / "b.txt", [ISSN_B, ISSN_C])
    out = load_fully_oa_lists([a, b])
    assert out == {ISSN_A, ISSN_B, ISSN_C}


def test_fully_oa_resolves_variants_to_issn_l(tmp_path):
    a = write_lines(tmp_path / "a.txt", [ISSN_B])
    assert load_fully_oa_lists([a], links={ISSN_B: ISSN_A}) == {ISSN_A}


def test_fully_oa_empty_path_list():
    assert load_fully_oa_lists([]) == set()


def test_fully_oa_rejects_bad_checksums(tmp_path):
    a = write_lines(tmp_path / "a.txt", [ISSN_BAD, ISSN_A, "# comment", ""])
    rejects = RejectLog(None)
    assert load_fully_oa_lists([a], rejects=rejects) == {ISSN_A}
    assert rejects.count == 1


# --- institutions ----------------------------------------------------------------

def inst_file(tmp_path, rows):
    return write_lines(tmp_path / "inst.csv", ["org_id,country,associated_ids"] + rows)


def test_institution_index_expands_associates(tmp_path):
    path = inst_file(tmp_path, ["ror:p1,DE,ror:h1|ror:h2"])
    institutions = load_institutions(path)
    index = institution_index(institutions)
    assert index == {"ror:p1": "ror:p1", "ror:h1": "ror:p1", "ror:h2": "ror:p1"}


def test_institution_without_associates(tmp_path):
    institutions = load_institutions(inst_file(tmp_path, ["ror:p1,DE,"]))
    assert institution_index(institutions) == {"ror:p1": "ror:p1"}


def test_institution_self_association_rejected(tmp_path):
    rejects = RejectLog(None)
    out = load_institutions(inst_file(tmp_path, ["ror:p1,DE,ror:p1"]), rejects)
    assert out == set()
    assert rejects.count == 1


# --- publisher aliases ------------------------------------------------------------

def test_publisher_aliases(tmp_path):
    path = write_lines(tmp_path / "al.csv", ["alias,canonical", "Imprint GmbH,Parent"])
    assert load_publisher_aliases(path) == {"imprint gmbh": "Parent"}


def test_publisher_aliases_short_row_logs_missing_field_as_empty(tmp_path):
    path = write_lines(tmp_path / "al.csv", ["alias,canonical", "Imprint GmbH", "Other,Parent"])
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        assert load_publisher_aliases(path, rejects) == {"other": "Parent"}
    assert logged_rejects(tmp_path / "rej.csv") == [("schema_violation", "Imprint GmbH,")]


# --- bytes that are not UTF-8 ---------------------------------------------------

# (loader, header, a row holding a byte that is not UTF-8, a good row, the
# logged raw text). Each bad row would fail a field check too, or sit in a
# column no loader reads; the UTF-8 check comes first.
NON_UTF8_ROWS = {
    "links": (
        load_issn_link_table, b"issn,issn_l", b"\xff0378-5955,0378-5955",
        b"0024-9319,0378-5955", "\\xff0378-5955,0378-5955",
    ),
    "fully_oa": (
        lambda path, rejects: load_fully_oa_lists([path], None, rejects), None, b"\xff",
        b"0378-5955", "\\xff",
    ),
    "aliases": (
        load_publisher_aliases, b"alias,canonical", b"Imprint\xff GmbH,Parent", b"Other,Parent",
        "Imprint\\xff GmbH,Parent",
    ),
    "dump": (
        lambda path, rejects: load_agreement_dump(path, rejects=rejects),
        b"agreement_id,issn,org_id,publisher", b"esac-x-1,0378-5955,ror:r1,Pub\xff",
        b"esac-x-1,0378-5955,ror:r1,Pub", "esac-x-1,0378-5955,ror:r1,Pub\\xff",
    ),
    "durations": (
        lambda path, rejects: load_durations(path, {undated()}, rejects),
        b"agreement_id,start_date,end_date", b"esac-x-1,2019-07-01,2022-12-31\xff",
        b"esac-x-1,2019-07-01,2022-12-31", "esac-x-1,2019-07-01,2022-12-31\\xff",
    ),
    "institutions": (
        load_institutions, b"org_id,country,associated_ids", b"ror:p1,DE,,note \xff",
        b"ror:p2,DE,", "ror:p1,DE,",
    ),
}


@pytest.mark.parametrize("name", sorted(NON_UTF8_ROWS))
def test_row_that_is_not_utf8_is_a_schema_violation(tmp_path, name):
    """A tabular or list row holding a byte that is not UTF-8 is rejected,
    logged with a backslash escape; the loader reads on and gives what the
    good rows alone give."""
    loader, header, bad, good, logged = NON_UTF8_ROWS[name]
    head = [header] if header else []
    path, clean = tmp_path / "input", tmp_path / "clean"
    path.write_bytes(b"\n".join(head + [bad, good]) + b"\n")
    clean.write_bytes(b"\n".join(head + [good]) + b"\n")
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        loaded = loader(str(path), rejects)
    assert loaded == loader(str(clean), RejectLog(None))
    assert logged_rejects(tmp_path / "rej.csv") == [("schema_violation", logged)]


# (loader, CSV bytes) of each tabular loader: quoted commas, empty fields,
# a blank line, short rows, extra fields, and bytes that are not UTF-8 in an
# extra field
TABULAR_INPUTS = {
    "links": (
        load_issn_link_table,
        b'issn,issn_l\n"0378-5955","0378-5955"\n"0024-9319, x",0378-5955\n0024-9319,\n\n'
        b"0024-9319\n0024-9319,0378-5955,extra,\"x,y\"\n1234-5679,0378-5955,\xff\n",
    ),
    "dump": (
        lambda path, rejects: load_agreement_dump(path, rejects=rejects),
        b'agreement_id,issn,org_id,publisher\na1,0378-5955,ror:r1,"Pub, Inc."\n'
        b"a2,0378-5955,ror:r1,\n,0378-5955,ror:r1,Pub\na3,0378-5955\n\n"
        b"a4,0024-9319,ror:r2,Pub,extra\na5,0378-5955,ror:r3,Pub,\xff\n",
    ),
    "dump_reordered": (
        lambda path, rejects: load_agreement_dump(path, rejects=rejects),
        b'publisher,note,org_id,issn,agreement_id\n"Pub, Inc.",n,ror:r1,0378-5955,a1\n'
        b"Pub,,ror:r2,0024-9319\nPub,n,ror:r3,0378-5955,a2,\xff\nPub\n",
    ),
    "durations": (
        lambda path, rejects: load_durations(
            path, {undated(f"a{k}") for k in range(1, 6)}, rejects
        ),
        b'agreement_id,start_date,end_date\n"a1",2019-01-01,2020-12-31\na2,,2020-01-01\n'
        b"a3,2019-01-01\n\na1,2019-01-01,2020-12-31,extra\na4,2019-01-01,2020-12-31,\xff\n"
        b'"a5, x",2019-01-01,2020-12-31\n',
    ),
    "aliases": (
        load_publisher_aliases,
        b'alias,canonical\n"Imprint, Ltd",Parent\nEmpty,\nShort\n\nA,B,extra\nC,D,\xff\n',
    ),
    "institutions": (
        load_institutions,
        b'org_id,country,associated_ids\nror:p1,DE,"ror:c1|ror:c2"\nror:p2,,\nror:p3\n\n'
        b'ror:p4,FR,,extra\nror:p5,FR,,\xff\n"ror:p6, x",DE,\nror:p7,de,ror:p7\n',
    ),
}


@pytest.mark.parametrize("name", sorted(TABULAR_INPUTS))
def test_tabular_loaders_equal_the_dictreader_oracle(tmp_path, monkeypatch, name):
    """Each tabular loader reads its rows with `csv.reader`, not a dict per
    row: what it loads and its reject log's bytes are those of the
    `csv.DictReader` reading, on every kind of row, and so are the
    MissingColumn errors of a header-only, an empty and a short header."""
    loader, data = TABULAR_INPUTS[name]
    inputs = {"rows": data, "header_only": data.split(b"\n", 1)[0] + b"\n"}
    inputs.update(empty=b"", short_header=b"issn\n0378-5955\n")

    def load_each(tag):
        out = {}
        for case, content in inputs.items():
            path = tmp_path / case
            path.write_bytes(content)
            log = tmp_path / f"{tag}_{case}.csv"
            try:
                with RejectLog(str(log)) as rejects:
                    loaded = loader(str(path), rejects)
            except MissingColumn as exc:
                out[case] = ("MissingColumn", str(exc))
            else:
                out[case] = (loaded, log.read_bytes())
        return out

    engine = load_each("engine")
    assert engine["rows"][1].count(b"\n") > 2  # the rows hold rejects
    assert engine["empty"][0] == engine["short_header"][0] == "MissingColumn"
    monkeypatch.setattr(ingest, "_csv_rows", dictreader_csv_rows)
    assert load_each("oracle") == engine


# --- article stream ----------------------------------------------------------------

def consume(path, source, links=None, rejects=None):
    out = io.StringIO()
    manifest = write_article_stream(str(path), source, links, out, rejects or RejectLog(None))
    return [json.loads(line) for line in out.getvalue().splitlines()], manifest


def test_stream_well_formed_lines(tmp_path):
    lines = [article_line(native_id=f"W{i}") for i in range(50)]
    path = write_lines(tmp_path / "a.ndjson", lines)
    records, manifest = consume(path, "open")
    assert len(records) == 50
    assert manifest.record_count == 50
    assert manifest.reject_count == 0


def test_stream_missing_issn_rejected_stream_continues(tmp_path):
    bad = json.loads(article_line(native_id="W-bad"))
    del bad["issn"]
    path = write_lines(
        tmp_path / "a.ndjson",
        [article_line(native_id="W1"), json.dumps(bad), article_line(native_id="W2")],
    )
    rejects = RejectLog(str(tmp_path / "rej.csv"))
    records, manifest = consume(path, "open", rejects=rejects)
    rejects.close()
    assert [r["native_id"] for r in records] == ["W1", "W2"]
    assert manifest.reject_count == 1
    with open(tmp_path / "rej.csv") as fh:
        content = fh.read()
    assert "missing_field" in content


def test_stream_duplicate_native_id_rejected(tmp_path):
    path = write_lines(
        tmp_path / "a.ndjson",
        [article_line(native_id="W1"), article_line(native_id="W1")],
    )
    rejects = RejectLog(str(tmp_path / "rej.csv"))
    records, manifest = consume(path, "open", rejects=rejects)
    rejects.close()
    assert len(records) == 1
    assert manifest.record_count == 1 and manifest.reject_count == 1
    assert "duplicate_record" in (tmp_path / "rej.csv").read_text()


def test_stream_source_mismatch_rejected(tmp_path):
    path = write_lines(tmp_path / "a.ndjson", [article_line(source="other")])
    records, manifest = consume(path, "open")
    assert records == [] and manifest.reject_count == 1


def test_stream_blank_lines_not_counted(tmp_path):
    path = write_lines(tmp_path / "a.ndjson", [article_line(), "", "   ", ""])
    records, manifest = consume(path, "open")
    assert manifest.total_lines == 1


def test_parse_multiple_dates_takes_minimum():
    record = parsed(
        article_line(pub_date=["2022-01-02", "2021-12-30"]), "open"
    )
    assert record["pub_date"] == "2021-12-30"


def test_parse_truncated_date_pinned():
    record = parsed(article_line(pub_date="2019"), "open")
    assert record["pub_date"] == "2019-01-01"


def test_parse_normalizes_doi_and_issn():
    record = parsed(
        article_line(doi="https://doi.org/10.5555/UP", issn="03785955"), "open"
    )
    assert record["doi"] == "10.5555/up"
    assert record["issn"] == ISSN_A


def test_parse_untagged_org_id_rejected():
    line = article_line(authors=[{"position": 1, "org_ids": ["not-tagged"]}])
    with pytest.raises(SchemaViolation):
        parse_article_line(line, "open")


def test_parse_licenses():
    line = article_line(
        licenses=[
            {"url": "https://creativecommons.org/licenses/by/4.0/", "applies_to_vor": True,
             "start_date": "2021-03"},
        ]
    )
    record = parsed(line, "open")
    assert record["licenses"][0]["applies_to_vor"]
    assert record["licenses"][0]["start_date"] == "2021-03-01"



CC_BY = "https://creativecommons.org/licenses/by/4.0/"

# Date forms outside the YYYY[-MM[-DD]] grammar: compact, week, ordinal and
# date-time forms that some interpreters' date.fromisoformat reads, and
# digits that are not ASCII.
OFF_GRAMMAR_DATES = [
    "20210304", "2021-W09-4", "2021W094", "2021-063", "2021-03-04T00:00",
    "٢٠٢١", "٢٠٢١-٠٣",
]


@pytest.mark.parametrize("text", OFF_GRAMMAR_DATES)
def test_date_outside_the_grammar_is_a_bad_date_reject(tmp_path, text):
    """As a publication date, a license start date or an agreement window end."""
    lines = [
        article_line(pub_date=text),
        article_line(pub_date=["2021-03-04", text]),
        article_line(licenses=[{"url": CC_BY, "applies_to_vor": True, "start_date": text}]),
    ]
    for line in lines:
        with pytest.raises(SchemaViolation) as excinfo:
            parse_article_line(line, "open")
        assert excinfo.value.code == "bad_date"
    durations = write_lines(
        tmp_path / "d.csv", ["agreement_id,start_date,end_date", f"ag1,2021-01-01,{text}"]
    )
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        load_durations(durations, [], rejects)
    assert [reason for reason, _ in logged_rejects(tmp_path / "rej.csv")] == ["bad_date"]


@pytest.mark.parametrize("value", [2021, 20210304, 0, 2021.5, True, False, {"year": 2021}])
def test_date_that_is_not_a_string_is_a_bad_date_everywhere(value):
    """As the publication date, inside a list of publication dates, and as a
    license start date."""
    lines = [
        article_line(pub_date=value),
        article_line(pub_date=["2021-03-04", value]),
        article_line(pub_date=[value]),
        article_line(licenses=[{"url": CC_BY, "applies_to_vor": True, "start_date": value}]),
    ]
    for line in lines:
        with pytest.raises(SchemaViolation) as excinfo:
            parse_article_line(line, "open")
        assert excinfo.value.code == "bad_date", line


def test_absent_null_or_empty_license_start_date_is_none():
    for start in ({}, {"start_date": None}, {"start_date": ""}):
        lic = {"url": CC_BY, **start}
        record = parsed(article_line(licenses=[lic]), "open")
        assert record["licenses"][0]["start_date"] is None


# --- memoized checks ----------------------------------------------------------------

@pytest.fixture
def check_calls(monkeypatch):
    """(check, text) -> calls of the ISSN, date and org-ID checks ingest makes."""
    calls = Counter()
    for name in ("validate_issn", "parse_date_pinned", "is_org_id"):
        def counted(text, check=getattr(ingest, name), name=name):
            calls[name, text] += 1
            return check(text)

        monkeypatch.setattr(ingest, name, counted)
    return calls


def test_each_distinct_issn_date_and_org_id_text_is_checked_once(tmp_path, check_calls):
    """One `TextChecks` serves the dump and every article line; whatever a
    text's verdict, and however often the text recurs, it is checked once."""
    issns = [ISSN_A, "03785955", ISSN_B, ISSN_BAD, "1234"]
    dates = ["2021", ["2021-03-04", "2020"], "2021-03-04", "2021-13", [" 2020 ", "2021"]]
    orgs = [["ror:r1"], ["ror:r1", "srcA:p1"], ["untagged"], []]
    lines = [
        article_line(
            native_id=f"W{i}", issn=issns[i % 5], pub_date=dates[i % 7 % 5],
            authors=[{"position": 1, "org_ids": orgs[i % 4]}],
            licenses=[{"url": CC_BY, "applies_to_vor": True, "start_date": ["2021-04", None][i % 2]}],
        )
        for i in range(140)
    ]
    dump = dump_file(tmp_path, [
        f"ta-{i % 3},{issns[i % 5]},{['ror:r1', 'ror:r2', 'bad'][i % 3]},Pub" for i in range(30)
    ])
    checks = TextChecks({ISSN_B: ISSN_A})
    load_agreement_dump(dump, checks)
    outcomes = article_outcomes(lines, "open", checks)
    assert set(check_calls.values()) == {1}
    assert {text for name, text in check_calls if name == "validate_issn"} == set(issns)
    assert {text for name, text in check_calls if name == "is_org_id"} == {
        "ror:r1", "ror:r2", "bad", "srcA:p1", "untagged"
    }
    assert {text for name, text in check_calls if name == "parse_date_pinned"} == {
        "2021", "2021-03-04", "2020", "2021-13", " 2020 ", "2021-04"
    }
    # the memos change no verdict
    assert outcomes == article_outcomes(lines, "open", {ISSN_B: ISSN_A})


def test_a_memoized_failure_rejects_every_line_that_carries_it(tmp_path, check_calls):
    """Each line or row that carries a text whose failure is memoized is
    rejected with the code and raw text of its own."""
    lines, expected = [], []
    for i in range(9):
        bad = [
            ("checksum_failure", {"issn": "0378-5954"}),
            ("malformed_issn", {"issn": "1234"}),
            ("bad_date", {"pub_date": ["2021", "2021-13"]}),
        ][i % 3]
        lines.append(article_line(native_id=f"B{i}", title=f"Bad {i}", **bad[1]))
        expected.append((str(len(lines)), bad[0], lines[-1]))
        lines.append(article_line(native_id=f"G{i}"))
    path = write_lines(tmp_path / "a.ndjson", lines)
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        records, manifest = consume(path, "open", None, rejects)
    assert [r["native_id"] for r in records] == [f"G{i}" for i in range(9)]
    assert manifest.reject_count == 9
    with open(tmp_path / "rej.csv", encoding="utf-8", newline="") as fh:
        assert [tuple(row) for row in csv.reader(fh)][1:] == expected
    assert check_calls["validate_issn", "0378-5954"] == 1
    assert check_calls["validate_issn", "1234"] == 1
    assert check_calls["parse_date_pinned", "2021-13"] == 1

    rows = [
        f"ta-1,{['0378-5954', ISSN_A][i % 2]},{['ror:r1', 'nope'][i // 2 % 2]},Pub{i}"
        for i in range(8)
    ]
    with RejectLog(str(tmp_path / "dump_rej.csv")) as rejects:
        load_agreement_dump(dump_file(tmp_path, rows), None, None, rejects)
    assert logged_rejects(tmp_path / "dump_rej.csv") == [
        ("checksum_failure" if i % 4 == 0 else "schema_violation", rows[i])
        for i in range(8) if i % 4 != 1
    ]


# Author fields: values the parse accepts, then values that compare or
# read alike but parse apart (`True == 1 == 1.0`, `tuple("AU") ==
# ("A", "U")`, `false` reads as an empty list) or are rejected. ABSENT
# leaves the key out.
ABSENT = object()
AUTHOR_FIELDS = {
    "position": ([1, 2], [True, 1.0, "1", 0, ABSENT]),
    "corresponding": ([ABSENT, None, True, False], [1, 0]),
    "countries": (
        [ABSENT, False, [], ["AU"], ["A", "U"], [" au ", "AU"]], ["AU", " au ", [["AU"]], [1]]
    ),
    "org_ids": (
        [ABSENT, False, [], ["ror:x"], ["ror:x", "ror:x"], ["srcA:p", "ror:x"]],
        ["ror:x", [["ror:x"]], [True], ["bad"]],
    ),
}


def present(fields):
    return {name: value for name, value in fields.items() if value is not ABSENT}


@st.composite
def author_streams(draw):
    """Lines of up to three authors, each one of a few accepted base
    authors with at most one field drawn again from every value: authors
    recur, and near twins meet."""
    base_author = st.fixed_dictionaries(
        {name: st.sampled_from(accepted) for name, (accepted, _) in AUTHOR_FIELDS.items()},
        optional={"name": st.just("Ada")},  # a key the parse ignores
    )
    bases = draw(st.lists(base_author, min_size=1, max_size=3))
    fields = st.sampled_from([None, *AUTHOR_FIELDS])

    def author():
        base = draw(st.sampled_from(bases))
        name = draw(fields)
        if name is not None:
            accepted, twins = AUTHOR_FIELDS[name]
            base = {**base, name: draw(st.sampled_from(twins) | st.sampled_from(accepted))}
        return present(base)

    lines = draw(st.integers(1, 12))
    return [[author() for _ in range(draw(st.integers(0, 3)))] for _ in range(lines)]


def outcome(line, checks):
    """The ingest line `parse_article_line` makes of `line`, or its
    reject's (code, detail)."""
    try:
        return parse_article_line(line, "open", checks)
    except SchemaViolation as exc:
        return exc.code, exc.detail


def author_stream(authors_per_line):
    return [
        article_line(native_id=f"W{i}", authors=authors)
        for i, authors in enumerate(authors_per_line)
    ]


@settings(max_examples=300, deadline=None)
@given(author_streams())
@example([  # the same author at two positions, and an extra key
    [{"position": 1, "countries": ["AU"], "org_ids": ["ror:x"]}],
    [{"position": 2, "countries": ["AU"], "org_ids": ["ror:x"], "name": "Ada"}],
])
@example([  # an accepted author, then inputs its key would equal without types
    [{"position": 1, "corresponding": True, "countries": ["A", "U"], "org_ids": []}],
    [{"position": True, "corresponding": True, "countries": ["A", "U"], "org_ids": []}],
    [{"position": 1.0, "corresponding": True, "countries": ["A", "U"], "org_ids": []}],
    [{"position": 1, "corresponding": 1, "countries": ["A", "U"], "org_ids": []}],
    [{"position": 1, "corresponding": True, "countries": "AU", "org_ids": []}],
    [{"position": 1, "corresponding": True, "countries": ["A", "U"], "org_ids": False}],
])
@example([  # an accepted author after its rejected twins
    [{"position": "1", "corresponding": 0, "countries": ["AU"], "org_ids": ["ror:x"]}],
    [{"position": 1, "corresponding": 0, "countries": ["AU"], "org_ids": ["ror:x"]}],
    [{"position": 1, "corresponding": False, "countries": [["AU"]], "org_ids": ["ror:x"]}],
    [{"position": 1, "corresponding": False, "countries": ["AU"], "org_ids": "ror:x"}],
    [{"position": 1, "corresponding": False, "countries": ["AU"], "org_ids": ["ror:x"]}],
    [{"position": 1, "corresponding": False, "countries": ["AU"], "org_ids": ["ror:x"]}],
])
def test_the_author_memo_changes_no_outcome(authors_per_line):
    """`parse_article_line` with one `TextChecks` over a stream gives, line
    by line, what a fresh `TextChecks` gives: the same ingest line, or a
    reject with the same code and detail."""
    shared = TextChecks()
    for line in author_stream(authors_per_line):
        assert outcome(line, shared) == outcome(line, TextChecks())


def test_each_distinct_accepted_author_is_checked_once(monkeypatch):
    """An accepted author is checked once per `TextChecks`, however often it
    recurs, at any position among a line's authors; a rejected one each time."""
    checked = Counter()
    check = TextChecks._check_author

    def counted(self, author):
        checked[json.dumps(author, sort_keys=True)] += 1
        return check(self, author)

    monkeypatch.setattr(TextChecks, "_check_author", counted)
    first = {"position": 1, "countries": ["DE"], "org_ids": ["ror:r1", "srcA:p1"]}
    second = {"position": 2, "countries": [], "org_ids": ["ror:r2"], "corresponding": True}
    bad = {"position": 1, "countries": ["DE"], "org_ids": ["bad"]}
    lines = author_stream([[first, second], [second, first], [first], [bad], [bad]] * 3)
    outcomes = article_outcomes(lines, "open", TextChecks())
    assert outcomes[4] == "bad_org_id"
    assert dict(checked) == {
        json.dumps(first, sort_keys=True): 1,
        json.dumps(second, sort_keys=True): 1,
        json.dumps(bad, sort_keys=True): 6,
    }


def test_the_author_memo_is_capped(monkeypatch):
    """With the cap at 2 the memo never holds more than 2 authors, and the
    outcomes are those of an uncapped memo."""
    lines = author_stream(
        [
            [{"position": p, "countries": [], "org_ids": [f"ror:r{i % 4}"]}]
            for i, p in enumerate([1, 2, 3] * 6)
        ]
    )
    uncapped = [outcome(line, TextChecks()) for line in lines]
    monkeypatch.setattr(ingest, "MEMO_AUTHORS", 2)
    checks = TextChecks()
    sizes = []
    for line, expected in zip(lines, uncapped):
        assert outcome(line, checks) == expected
        sizes.append(len(checks._authors))
    assert max(sizes) == 2


class MemolessChecks(TextChecks):
    """`TextChecks` that checks every author afresh."""

    def author(self, author):
        return self._check_author(author)


def test_a_memo_of_authors_that_do_not_repeat_stops_growing(tmp_path):
    """62,000 distinct authors: once the memo is full, having had fewer
    hits than entries, it takes no more authors and is not emptied; the
    ingest file is byte for byte that of a parse without the memo."""
    people = [
        [{"position": 1, "countries": ["DE"], "org_ids": [f"ror:u{i:05d}"]},
         {"position": 2, "countries": [], "org_ids": [f"srcA:v{i:05d}"]}]
        for i in range(31_000)
    ]
    path = write_lines(tmp_path / "a.ndjson", author_stream(people))
    checks = TextChecks()
    written = {}
    for name, text_checks in (("memo", checks), ("none", MemolessChecks())):
        out = io.StringIO()
        write_article_stream(str(path), "open", text_checks, out, RejectLog(None))
        written[name] = out.getvalue()
    assert written["memo"] == written["none"]
    assert written["memo"].count("\n") == len(people)
    assert len(checks._authors) == ingest.MEMO_AUTHORS
    assert checks._author_hits == 0 and not checks._keep_authors


def test_an_oversized_author_is_checked_but_not_kept():
    """An author with more than MEMO_AUTHOR_IDS IDs, or more than
    MEMO_AUTHOR_CHARS characters, is parsed alike and not kept."""
    many = {
        "position": 1, "countries": [],
        "org_ids": [f"ror:r{i}" for i in range(ingest.MEMO_AUTHOR_IDS + 1)],
    }
    long = {"position": 1, "countries": [" " * ingest.MEMO_AUTHOR_CHARS + "DE"], "org_ids": []}
    small = {"position": 1, "org_ids": ["ror:r1"], "countries": ["DE"]}
    checks = TextChecks()
    for author in (many, long, small):
        line = article_line(authors=[author])
        assert outcome(line, checks) == outcome(line, TextChecks())
    assert list(checks._authors.values()) == [
        (1, '{"corresponding":null,"countries":["DE"],"org_ids":["ror:r1"],"position":1}')
    ]


def test_a_long_text_is_checked_but_not_kept(tmp_path):
    """A text of more than MEMO_AUTHOR_CHARS characters gets the verdict
    and the reject of a fresh check every time, and no memo keeps it: 100
    distinct 100 KB dates are 100 bad_date rejects and leave the date memo
    without them."""
    lines = [
        article_line(native_id=f"W{i}", pub_date=f"{i}-" + "9" * 100_000) for i in range(100)
    ]
    path = write_lines(tmp_path / "a.ndjson", lines)
    checks = TextChecks()
    with RejectLog(str(tmp_path / "rej.csv")) as rejects:
        records, manifest = consume(path, "open", checks, rejects)
    assert records == [] and manifest.reject_count == 100
    with open(tmp_path / "rej.csv", encoding="utf-8", newline="") as fh:
        assert [tuple(row) for row in csv.reader(fh)][1:] == [
            (str(lineno), "bad_date", line) for lineno, line in enumerate(lines, 1)
        ]
    assert all(len(text) <= ingest.MEMO_AUTHOR_CHARS for text in checks._dates)
    assert outcome(lines[0], checks) == outcome(lines[0], TextChecks())


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"doi": 12}, "bad_field"),
        ({"pagination": 5}, "bad_field"),
        ({"title": 42}, "bad_field"),
        ({"article_number": 1.5}, "bad_field"),
        ({"article_number": True}, "bad_field"),
        ({"licenses": [{"url": CC_BY, "applies_to_vor": "false"}]}, "bad_license"),
        ({"authors": [{"position": True, "org_ids": ["ror:0r001"]}]}, "bad_author"),
        ({"authors": [{"position": 1, "countries": "DE"}]}, "bad_author"),
        ({"authors": [{"position": 1, "countries": [49]}]}, "bad_author"),
        ({"licenses": 5}, "bad_license"),
        ({"licenses": True}, "bad_license"),
        ({"licenses": [{"url": 5, "applies_to_vor": True}]}, "bad_license"),
        ({"authors": 7}, "bad_author"),
        ({"authors": [{"position": 1, "org_ids": 5}]}, "bad_org_id"),
        ({"issn": 3785955}, "malformed_issn"),
        ({"issn": [ISSN_A]}, "malformed_issn"),
    ],
)
def test_parse_rejects_mistyped_field(overrides, code):
    with pytest.raises(SchemaViolation) as excinfo:
        parse_article_line(article_line(**overrides), "open")
    assert excinfo.value.code == code


def test_parse_article_number_string_or_integer():
    for value in ("e1234", 1234):
        record = parsed(article_line(article_number=value), "open")
        assert record["article_number"] == str(value)


# --- invariants -----------------------------------------------------------------

def test_manifest_conservation(tmp_path):
    rng = random.Random(5)
    lines = []
    for i in range(200):
        if rng.random() < 0.2:
            lines.append("{not json")
        else:
            lines.append(article_line(native_id=f"W{rng.randint(0, 120)}"))
    path = write_lines(tmp_path / "a.ndjson", lines)
    _, manifest = consume(path, "open")
    assert manifest.record_count + manifest.reject_count == 200


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ingestion_order_insensitive_for_sets(tmp_path_factory, rnd):
    tmp_path = tmp_path_factory.mktemp("perm")
    rows = [
        f"a1,{ISSN_A},ror:r1,Pub",
        f"a1,{ISSN_B},ror:r2,Pub",
        f"a2,{ISSN_B},ror:r3,Pub",
        f"a2,{ISSN_B},ror:r4,Pub",
    ]
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    base = load_agreement_dump(dump_file(tmp_path, rows)).agreements
    perm = load_agreement_dump(dump_file(tmp_path, shuffled)).agreements
    assert base == perm


def test_ingestion_deterministic_bytes(tmp_path, corpus_dir):
    """Re-parsing identical bytes yields identical serialized output."""
    source_path = corpus_dir / "articles_srcB.ndjson"

    def one_pass():
        out = io.StringIO()
        write_article_stream(str(source_path), "srcB", None, out, RejectLog(None))
        return out.getvalue()

    assert one_pass() == one_pass()


# --- oracle: the record-tree path -------------------------------------------------

USER_LICENSE = "https://publisher.example/user-license"
ISSN_D = "0000-0000"  # valid, in no journal table
ORACLE_LINKS = {ISSN_B: ISSN_A}
ORACLE_JOURNALS = {
    ISSN_A: Journal(issn_l=ISSN_A, publisher="Pub", is_hybrid=True),
    ISSN_C: Journal(issn_l=ISSN_C, publisher="OA Pub", is_hybrid=False),
}
ORACLE_CFG = ClassifierConfig(
    policies={
        "open": SourcePolicy(mode=DOC_MODE_HEURISTIC),
        "srcA": SourcePolicy(),
        "srcB": SourcePolicy(),
    },
    paratext_patterns=load_paratext_patterns(),
    lenient_oa_sources=frozenset({"srcB"}),
)

DATE_TEXTS = ("2021", "2021-03", "2021-03-04", " 2021-12-30 ", "2022-01-02", 2020)
# Text that JSON must escape or that is not ASCII: quotes, backslashes,
# control characters, a lone surrogate (a `\ud800` escape in the line), and
# characters in and beyond the BMP.
ESCAPED_PIECES = [
    '"', "\\", "\x00", "\x1f", "\n", "\ud800", "\u2028", "é", "中", "\U0001F600", "x", " ",
]
escaped = st.lists(st.sampled_from(ESCAPED_PIECES), max_size=5).map("".join)


def texts(*samples):
    """One of `samples`, or text that must be escaped."""
    return st.one_of(st.sampled_from(samples), escaped)


valid_licenses = st.lists(
    st.fixed_dictionaries(
        {
            "url": st.one_of(
                st.sampled_from([CC_BY, USER_LICENSE, "https://publisher.example/terms"]),
                escaped.map(lambda t: CC_BY + t),
            ),
        },
        optional={
            "applies_to_vor": st.booleans(),
            "start_date": st.sampled_from([None, "", "2021-04", "2021-04-20", "2023-01-01"]),
        },
    ),
    max_size=3,
)
valid_authors = st.lists(
    st.fixed_dictionaries(
        {"position": st.integers(1, 4)},
        optional={
            "corresponding": st.sampled_from([None, True, False]),
            "org_ids": st.one_of(
                st.none(),
                st.lists(
                    st.one_of(
                        st.sampled_from(["ror:r1", "ror:r2", "srcA:p1", "srcB:q1"]),
                        escaped.map(lambda t: f"ror:{t}x"),
                    ),
                    max_size=4,
                ),
            ),
            "countries": st.one_of(
                st.none(), st.lists(texts("DE", "de", " nl ", "", "CH"), max_size=3)
            ),
        },
    ),
    max_size=4,
)
valid_objects = st.fixed_dictionaries(
    {
        "source": st.sampled_from(["open", "srcA", "srcB"]),
        "native_id": st.one_of(st.sampled_from(["W1", "A-2"]), escaped.map(lambda t: "W" + t)),
        "issn": st.sampled_from([ISSN_A, "03785955", ISSN_B, ISSN_C, ISSN_D]),
        "pub_date": st.one_of(
            st.sampled_from(DATE_TEXTS), st.lists(st.sampled_from(DATE_TEXTS), min_size=1)
        ),
        "document_class": st.one_of(
            st.sampled_from(
                ["journal-article", "Article", "review", "editorial", "Data Paper", "posted-content"]
            ),
            escaped.map(lambda t: "Article" + t),
        ),
    },
    optional={
        "doi": st.one_of(
            st.sampled_from([None, "10.5555/x1", " https://doi.org/10.5555/UP ", "doi:10.1/a"]),
            escaped.map(lambda t: "10.5555/" + t),
            escaped,
        ),
        "title": texts(None, "", "A study", "Editorial Board", "Issue Information, Vol. 3"),
        "pagination": texts(None, "", "10-19", " 12 ", "S1-S9", "e12"),
        "article_number": texts(None, "", 0, 1234, "e1234", "12"),
        "licenses": st.one_of(st.none(), valid_licenses),
        "authors": st.one_of(st.none(), valid_authors),
    },
)


def interchange_text(obj, ensure_ascii):
    """`obj` as an interchange line, its non-ASCII text written raw unless
    `ensure_ascii`; a lone surrogate, which UTF-8 cannot carry, always as a
    `\\u` escape."""
    text = json.dumps(obj, ensure_ascii=ensure_ascii)
    return json.dumps(obj) if "\ud800" in text else text


# (field, value): one field of the line, or of its first license or author, set
# to a value of the wrong shape or type
MISTYPINGS = [
    ("licenses", value) for value in (5, True, False, "x", {"url": CC_BY})
] + [
    ("authors", value) for value in (7, True, "abc", {"position": 1})
] + [
    ("license.url", value) for value in (5, "", None)
] + [
    ("license.applies_to_vor", "false"), ("license.start_date", "2021-13"),
] + [
    ("author.org_ids", value) for value in (5, "ror:r1", [5], ["untagged"], {"ror:r1": 1})
] + [
    ("author.countries", value) for value in ("DE", [49], 5)
] + [
    ("author.position", value) for value in (0, True, "1")
] + [
    ("author.corresponding", "yes"),
    ("pub_date", None), ("pub_date", []), ("pub_date", 2021.5), ("pub_date", ["2021", "x"]),
    ("issn", None), ("issn", "0000-0001"), ("issn", "1234"), ("issn", 3785955), ("issn", [ISSN_A]),
    ("doi", 12), ("title", 42),
    ("pagination", 5), ("article_number", 1.5), ("article_number", True), ("native_id", ""),
    ("native_id", 5), ("source", "other"), ("document_class", ""), ("document_class", 5),
]


def mistype(obj, field_value):
    field, value = field_value
    obj = json.loads(json.dumps(obj))
    if "." in field:
        container, key = field.split(".")
        if not isinstance(obj.get(f"{container}s"), list) or not obj[f"{container}s"]:
            obj[f"{container}s"] = [{"url": CC_BY} if container == "license" else {"position": 1}]
        obj[f"{container}s"][0][key] = value
    else:
        obj[field] = value
    return obj


interchange_lines = st.builds(
    lambda obj, ensure_ascii: (
        obj["source"] if obj["source"] != "other" else "open", interchange_text(obj, ensure_ascii)
    ),
    st.one_of(valid_objects, st.builds(mistype, valid_objects, st.sampled_from(MISTYPINGS))),
    st.booleans(),
)


@settings(max_examples=500, deadline=None)
@given(interchange_lines)
@example(("srcA", article_line(source="srcA", authors=[
    {"position": 1, "org_ids": ["srcA:p2", "srcA:p1", "srcA:p2"], "countries": ["DE"]}])))
@example(("open", article_line(authors=[
    {"position": 1, "org_ids": ["ror:r1"], "countries": [" de", "nl ", "DE", " "]}])))
@example(("srcA", article_line(source="srcA", authors=[
    {"position": 3, "corresponding": True}, {"position": 1, "org_ids": ["srcA:p1"]},
    {"position": 2, "corresponding": False}])))
@example(("open", article_line(pub_date="2021")))
@example(("open", article_line(pub_date=["2022-01-02", "2021-12-30", "2021"])))
@example(("srcA", article_line(source="srcA", pagination=None, article_number=1234)))
@example(("srcB", article_line(source="srcB", document_class="Article", licenses=[
    {"url": USER_LICENSE, "applies_to_vor": True, "start_date": "2023-01-01"}])))
@example(("open", article_line(title="Editorial Board, Volume 12", pagination="S1")))
@example(("open", article_line(licenses=[{"url": CC_BY, "applies_to_vor": True}])))
@example(("open", "{not json"))
@example(("open", "[1, 2]"))
@example(("srcA", article_line(source="srcA", authors=[
    {"position": 2, "corresponding": True, "countries": ["NL"]}, {"position": 1},
    {"position": 2, "org_ids": ["srcA:p2"]}, {"position": 1, "corresponding": False}])))
@example(("open", article_line(pagination=None, article_number=0)))
@example(("open", article_line(
    title='"\\\x00\x1f\ud800é中\U0001F600', doi='10.1/"\\é', native_id="W\ud800",
    authors=[{"position": 1, "org_ids": ['ror:"é'], "countries": ["é\\"]}])))
def test_ingest_and_classify_equal_the_record_tree_oracle(case):
    """Ingest's line and classify's row give the bytes of the path through
    record trees: the same reject code, else the same ingest line (the
    canonical encoding of the oracle's record dict), the same classified
    line and the same unknown-class verdict."""
    source, text = case
    try:
        expected = oracle_ingest_and_classify(
            text, source, ORACLE_LINKS, ORACLE_JOURNALS, ORACLE_CFG
        )
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as excinfo:
            parse_article_line(text, source, ORACLE_LINKS)
        assert excinfo.value.code == exc.code
        return
    _, ingest_line = parse_article_line(text, source, ORACLE_LINKS)
    years = (2019, 2023)
    with tempfile.TemporaryDirectory() as tmp:
        path, out, attributable, stream, summary = (
            os.path.join(tmp, name)
            for name in (
                "ingest.ndjson", "classified.ndjson", "attributable.ndjson", "dois.ndjson",
                "journals.ndjson",
            )
        )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(ingest_line + "\n")
        _, unknown, entries = pipeline._classify_source(
            (ORACLE_CFG, ORACLE_JOURNALS, years, tmp),
            (source, path, out, attributable, stream, summary),
        )
        written = {}
        for name in (out, stream, summary):
            with open(name, encoding="utf-8", newline="") as fh:
                written[name] = fh.read().splitlines(keepends=True)
    (classified,) = (line.rstrip("\n") for line in written[out])
    assert (ingest_line, classified, bool(unknown)) == expected
    entries = list(entries.merged())
    doi = json.loads(entries[0])[0] if entries else None
    assert doi == json.loads(classified)["record"]["doi"]
    # the DOI stream and journal summary recount from the classified line
    assert written[stream] == oracle_doi_stream([classified], source, years)
    assert written[summary] == oracle_journal_summary([classified], source, years)


# Pieces of text that look like the ingest line's structure once encoded:
# key boundaries, quotes, backslashes, control characters, non-ASCII text.
TRICKY_PIECES = [
    ',"doi":', '","pagination":', ',"pub_date":', ',"source":', ',"authors":',
    ',"document_class":', '"', "\\", "\\u0022", "\x00", "\x1f", "\n", "\t", "\u2028", "é",
    "中", "\U0001F600", "x", "7", " ", "-",
]
tricky = st.lists(st.sampled_from(TRICKY_PIECES), max_size=6).map("".join)


@st.composite
def tricky_lines(draw):
    """(source, interchange line, publisher) whose free-text fields hold `tricky` text."""
    source = draw(st.sampled_from(["open", "srcA", "srcB"]))
    obj = json.loads(article_line(source=source))
    obj.update(
        title=draw(tricky),
        pagination=draw(st.one_of(st.none(), tricky, tricky.map(lambda t: "12" + t))),
        doi=draw(st.one_of(st.none(), tricky.map(lambda t: "10.5555/" + t))),
        article_number=draw(st.one_of(st.none(), tricky, st.integers(0, 10**6))),
        issn=draw(st.sampled_from([ISSN_A, ISSN_B, ISSN_C])),
        document_class=draw(st.sampled_from(["journal-article", "Article", "x" + '","doi":'])),
        licenses=[{"url": CC_BY + draw(tricky), "applies_to_vor": True, "start_date": "2021-03"}],
        authors=[{
            "position": 1,
            "org_ids": ["ror:" + draw(tricky) + "x"],
            "countries": [draw(tricky)],
            "corresponding": draw(st.sampled_from([None, True, False])),
        }],
    )
    ensure_ascii = draw(st.booleans())
    return source, json.dumps(obj, ensure_ascii=ensure_ascii), draw(tricky)


@settings(max_examples=300, deadline=None)
@given(tricky_lines())
@example(
    ("open", article_line(title=',"doi":"10.1/x","pagination":"1"', doi='10.1/","doi":'), "P")
)
def test_classified_line_equals_the_encoded_classified_dict(case):
    """The classified line, cut from the ingest line, has the bytes of the
    whole classified dict encoded with `dump_canonical`."""
    source, text, publisher = case
    _, ingest_line = parse_article_line(text, source, ORACLE_LINKS)
    row = ingest_from_line(ingest_line + "\n", source)
    for hybrid in (True, False):
        journal = Journal(issn_l=row.journal_issn_l, publisher=publisher, is_hybrid=hybrid)
        for journals in ({}, {row.journal_issn_l: journal}):
            article = classify_article(row, journals.get(row.journal_issn_l), ORACLE_CFG)
            line = classified_to_line(article)
            assert line == encoded_classified_line(article, json.loads(ingest_line))


@settings(max_examples=300, deadline=None)
@given(tricky_lines())
@example(("srcA", article_line(source="srcA", doi="10.1/x", authors=[
    {"position": 1, "org_ids": ['srcA:,"document_class":"x"'], "countries": [',"doi":']},
    {"position": 2, "org_ids": ["srcA:p2"]}]), "P"))
def test_ingest_row_equals_the_full_decode(case):
    """`IngestRow` decodes its line with the authors cut out; its
    attributes, DOI and licenses are the fully decoded line's."""
    source, text, _ = case
    _, ingest_line = parse_article_line(text, source, ORACLE_LINKS)
    obj = json.loads(ingest_line)
    row = ingest_from_line(ingest_line + "\n", source)
    assert (
        row.source, row.native_id, row.journal_issn_l, row.pub_date, row.document_class,
        row.title, row.pagination, row.article_number, row.doi, row.line,
    ) == (
        source, obj["native_id"], obj["issn"], date.fromisoformat(obj["pub_date"]),
        obj["document_class"], obj["title"], obj["pagination"], obj["article_number"],
        obj["doi"], ingest_line + "\n",
    )
    assert row.licenses == tuple(
        LicenseStatement(
            lic["url"], lic["applies_to_vor"],
            date.fromisoformat(lic["start_date"]) if lic["start_date"] else None,
        )
        for lic in obj["licenses"]
    )
