from dataclasses import replace
from datetime import date

import pytest

from hybridoa.errors import SchemaViolation
from hybridoa.model import (
    Agreement,
    Authorship,
    Institution,
    IndicatorRow,
    normalize_publisher,
    parse_date_pinned,
)
from oracles import ArticleRecord, record_row


def test_year_only_pins_to_january_first():
    assert parse_date_pinned("2019") == date(2019, 1, 1)


def test_year_month_pins_to_day_one():
    assert parse_date_pinned("2020-07") == date(2020, 7, 1)


def test_full_date_passthrough():
    assert parse_date_pinned("2021-02-28") == date(2021, 2, 28)


@pytest.mark.parametrize("bad", ["", "20", "2021-13", "2021-02-30", "yesterday"])
def test_bad_dates_raise(bad):
    with pytest.raises(SchemaViolation):
        parse_date_pinned(bad)


def test_first_author_follows_position():
    first = Authorship(position=1, org_ids=frozenset({"ror:r1"}))
    record = ArticleRecord(
        source="open",
        native_id="W1",
        journal_issn_l="0378-5955",
        pub_date=date(2021, 1, 1),
        document_class="Article",
        authors=(Authorship(position=2), first),
    )
    assert record_row(record).first_author() == first
    assert record_row(replace(record, authors=(Authorship(position=2),))).first_author() is None


def test_institution_rejects_self_association():
    with pytest.raises(SchemaViolation):
        Institution(org_id="ror:a", associated_ids=frozenset({"ror:a"}))


def test_agreement_rejects_inverted_window():
    with pytest.raises(SchemaViolation):
        Agreement(
            agreement_id="x",
            publisher="P",
            journal_issn_ls=frozenset({"0378-5955"}),
            institution_ids=frozenset({"ror:a"}),
            start_date=date(2023, 1, 1),
            end_date=date(2022, 1, 1),
        )


def test_agreement_window_is_inclusive():
    agreement = Agreement(
        agreement_id="x",
        publisher="P",
        journal_issn_ls=frozenset({"0378-5955"}),
        institution_ids=frozenset({"ror:a"}),
        start_date=date(2019, 7, 1),
        end_date=date(2022, 12, 31),
    )
    assert agreement.covers(date(2019, 7, 1))
    assert agreement.covers(date(2022, 12, 31))
    assert not agreement.covers(date(2019, 6, 30))
    assert not agreement.covers(date(2023, 1, 1))


def test_indicator_shares():
    row = IndicatorRow(
        year=2020, source="open", role="first", group_kind="GLOBAL", group_key="",
        n_total=300, n_original=200, n_oa=50, n_ta_oa=30,
    )
    assert row.oa_share == pytest.approx(0.25)
    assert row.ta_share_of_oa == pytest.approx(0.60)


def test_indicator_shares_undefined_when_empty():
    row = IndicatorRow(
        year=2020, source="open", role="first", group_kind="GLOBAL", group_key="",
        n_total=10, n_original=0, n_oa=0, n_ta_oa=0,
    )
    assert row.oa_share is None
    assert row.ta_share_of_oa is None


def test_publisher_normalization_collapses_whitespace_and_maps_aliases():
    aliases = {"springer nature bv": "Springer Nature"}
    assert normalize_publisher("  Springer   Nature  BV ", aliases) == "Springer Nature"
    assert normalize_publisher(" Elsevier  Ltd ") == "Elsevier Ltd"
